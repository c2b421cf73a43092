"""Unit tests for summary statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import Summary, summarize


def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary.count == 5
    assert summary.mean == pytest.approx(3.0)
    assert summary.minimum == 1.0
    assert summary.maximum == 5.0
    assert summary.p50 == pytest.approx(3.0)


def test_summarize_single_value_has_zero_std():
    summary = summarize([7.0])
    assert summary.std == 0.0
    assert summary.p99 == 7.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summary_row_is_printable():
    row = summarize([1.0, 2.0]).row()
    assert "mean=" in row and "p99=" in row


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200))
def test_summary_ordering_invariants(values):
    summary = summarize(values)
    tol = 1e-6 * max(1.0, abs(summary.maximum), abs(summary.minimum))
    assert summary.minimum <= summary.p50 + tol
    assert summary.p50 <= summary.p95 + tol
    assert summary.p95 <= summary.p99 + tol
    assert summary.p99 <= summary.maximum + tol
    assert summary.minimum - tol <= summary.mean <= summary.maximum + tol
