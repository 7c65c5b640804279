"""Tests for bug-thermometer rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scores import ScoreRow
from repro.core.thermometer import Thermometer


def _row(F, S, context, increase_lo, increase_hi, increase=None):
    if increase is None:
        increase = increase_lo
    return ScoreRow(
        predicate_index=0,
        F=F,
        S=S,
        F_obs=F,
        S_obs=S,
        failure=0.0,
        context=context,
        increase=increase,
        increase_se=0.0,
        increase_lo=increase_lo,
        increase_hi=increase_hi,
        z=0.0,
        defined=True,
    )


class TestGeometry:
    def test_bands_sum_to_length(self):
        therm = Thermometer.from_row(_row(10, 5, 0.3, 0.2, 0.4), max_runs=100)
        total = therm.context + therm.increase + therm.interval + therm.white
        assert total == pytest.approx(therm.length)

    def test_length_is_log_scaled(self):
        small = Thermometer.from_row(_row(5, 5, 0.1, 0.1, 0.2), max_runs=1000)
        large = Thermometer.from_row(_row(500, 500, 0.1, 0.1, 0.2), max_runs=1000)
        assert large.length > small.length
        # Log scale: 100x the runs is far from 100x the length.
        assert large.length < small.length * 3

    def test_bands_clamped_to_unit_interval(self):
        # Out-of-range inputs (negative lower bound, hi > 1) are clamped.
        therm = Thermometer.from_row(_row(10, 0, 0.9, -0.5, 2.0), max_runs=10)
        assert therm.increase >= 0.0
        assert therm.context + therm.increase + therm.interval <= therm.length + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        F=st.integers(0, 1000),
        S=st.integers(0, 1000),
        context=st.floats(0, 1),
        lo=st.floats(-1, 1),
        width=st.floats(0, 1),
    )
    def test_quantised_bands_fill_bar_exactly(self, F, S, context, lo, width):
        row = _row(F, S, context, lo, min(lo + width, 1.0))
        therm = Thermometer.from_row(row, max_runs=max(F + S, 1))
        text = therm.render_text(20)
        bar = text.strip()[1:-1]
        assert len(bar) >= 1
        assert set(bar) <= {"#", "=", "~", " "}


class TestRendering:
    def test_text_is_fixed_width(self):
        therm = Thermometer.from_row(_row(10, 5, 0.3, 0.2, 0.4), max_runs=100)
        assert len(therm.render_text(24)) == 26  # brackets included

    def test_width_must_be_positive(self):
        therm = Thermometer.from_row(_row(1, 1, 0.5, 0.1, 0.2), max_runs=2)
        with pytest.raises(ValueError):
            therm.render_text(0)

    def test_html_contains_colour_bands(self):
        therm = Thermometer.from_row(_row(50, 5, 0.3, 0.3, 0.5), max_runs=100)
        html = therm.render_html()
        assert "#000000" in html  # context band
        assert "#cc0000" in html  # increase band
