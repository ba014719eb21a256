"""The SVG writer against its point-by-point oracle, byte for byte."""

import io

import numpy as np
import pytest

from cslab.svgplot import write_line_plot

from oracles import svg_line_plot_per_point


def both_plots(x, series):
    texts = []
    for writer in (write_line_plot, svg_line_plot_per_point):
        stream = io.StringIO()
        writer(stream, x, series, title="t", x_label="x", y_label="y", comment="c")
        texts.append(stream.getvalue())
    return texts


def test_constant_series_and_single_abscissa():
    # y spans nothing (the writer widens it by 1), and x spans nothing
    # (its scale divides by 1 instead of 0)
    ours, oracle = both_plots([2.0, 2.0, 2.0], [("flat", [0.5, 0.5, 0.5])])
    assert ours == oracle
    assert 'points="60.00,' in ours


def test_values_that_round_to_negative_zero():
    # data that rounds to -0.00 at two decimals; the axis labels print it
    # at %.6g, and its points land inside the frame like any other
    x = [-0.004, 0.0, 1.0]
    ours, oracle = both_plots(x, [("y", [-1e-3, 0.0, 1.0])])
    assert ours == oracle
    ours, oracle = both_plots([0.0, 1.0], [("y", [-2e-4, 1e4])])
    assert ours == oracle


def test_two_series_share_the_y_range():
    t = np.linspace(0.0, 3.0, 301)
    ours, oracle = both_plots(t.tolist(), [("p", np.sin(t).tolist()),
                                           ("q", (2 * np.cos(t)).tolist())])
    assert ours == oracle
    assert ours.count("<polyline") == 2


@pytest.mark.parametrize("seed", [1, 7])
def test_long_series(seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(-2.0, 2.0, 20001)
    ours, oracle = both_plots(t.tolist(), [("q", np.cumsum(rng.normal(size=t.size)).tolist())])
    assert ours == oracle
