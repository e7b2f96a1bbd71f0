"""The streaming POT gate against its full-window oracle.

:class:`repro.core.pot.PeakOverThreshold` keeps a sorted copy of its
sliding window and fits the tail without ``np.quantile``/``np.var``;
every threshold it emits must equal, bit for bit, the full-window
recompute kept in ``tests/pot_oracle.py``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pot_oracle import OraclePeakOverThreshold
from repro.core.pot import PeakOverThreshold


def _bits(value: float) -> bytes:
    return struct.pack("<d", float(value))


def _assert_same_thresholds(values, **params) -> PeakOverThreshold:
    """Feed both estimators ``values``; every threshold must match."""
    streaming = PeakOverThreshold(**params)
    oracle = OraclePeakOverThreshold(**params)
    for step, value in enumerate(values):
        got = streaming.update(value)
        want = oracle.update(value)
        assert _bits(got) == _bits(want), (
            f"update {step}: streaming {got!r} != oracle {want!r}"
        )
        assert _bits(streaming.threshold) == _bits(got)
    assert streaming.n_observations == oracle.n_observations
    assert streaming.calibrated == oracle.calibrated
    return streaming


@pytest.fixture
def fit_log(monkeypatch):
    """Record ``(var, xi)`` for every tail fit the oracle runs."""
    log = []
    fit = OraclePeakOverThreshold._fit_gpd

    def recording(excesses):
        sigma, xi = fit(excesses)
        log.append((float(np.var(excesses)), xi))
        return sigma, xi

    monkeypatch.setattr(
        OraclePeakOverThreshold, "_fit_gpd", staticmethod(recording)
    )
    return log


# Values in [0, 1] (never -0.0), with ties: a coarse grid that repeats
# often, plus arbitrary floats.
_values = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.1, 0.25, 0.5, 0.5, 0.7, 0.9]),
)


@given(
    values=st.lists(_values, min_size=5, max_size=160),
    calibration_size=st.integers(min_value=5, max_value=30),
    max_history=st.integers(min_value=5, max_value=90),
    # 1e-17 rounds q = 1 - init_quantile to 1: the virtual index
    # lands on the last order statistic.
    init_quantile=st.sampled_from([0.1, 0.05, 0.2, 0.5, 0.37, 0.9, 1e-17]),
    risk=st.sampled_from([2e-2, 1e-2, 0.3]),
)
@settings(max_examples=200, deadline=None)
def test_thresholds_bit_identical_to_oracle(
    values, calibration_size, max_history, init_quantile, risk
):
    _assert_same_thresholds(
        values,
        risk=risk,
        init_quantile=init_quantile,
        calibration_size=calibration_size,
        max_history=max_history,
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "kind", ["uniform", "two_decimal", "beta", "half_constant", "near_one"]
)
def test_seeded_streams_bit_identical(kind, seed):
    rng = np.random.default_rng(seed)
    n = 300
    if kind == "uniform":
        values = rng.uniform(0.0, 1.0, n)
    elif kind == "two_decimal":
        values = np.round(rng.uniform(0.0, 1.0, n), 2)
    elif kind == "beta":
        values = rng.beta(5.0, 1.0, n)
    elif kind == "half_constant":
        values = rng.uniform(0.3, 0.9, n)
        values[: n // 2] = 0.7
    else:
        values = 1.0 - rng.uniform(0.0, 1.0, n) ** 8 * 1e-3
    max_history = int(rng.integers(21, 120))
    _assert_same_thresholds(values, calibration_size=20, max_history=max_history)


class TestBranches:
    def test_ties_leaving_the_window(self):
        # Duplicates of the window's minimum and quantile value keep
        # sliding out; the sorted copy must drop one copy each time.
        values = [0.5, 0.2, 0.2, 0.5, 0.8, 0.2, 0.5, 0.5] * 12
        _assert_same_thresholds(values, calibration_size=5, max_history=21)

    def test_window_wraps_at_max_history(self):
        rng = np.random.default_rng(7)
        values = 0.8 + 0.05 * rng.normal(size=200)
        streaming = _assert_same_thresholds(
            values, calibration_size=10, max_history=25
        )
        assert streaming.n_observations == 25

    def test_calibration_boundary(self):
        values = np.linspace(0.9, 0.1, 12)
        streaming = PeakOverThreshold(calibration_size=12)
        oracle = OraclePeakOverThreshold(calibration_size=12)
        for value in values[:-1]:
            assert streaming.update(value) == -np.inf
            oracle.update(value)
        assert not streaming.calibrated
        got, want = streaming.update(values[-1]), oracle.update(values[-1])
        assert streaming.calibrated and np.isfinite(got)
        assert _bits(got) == _bits(want)

    def test_constant_run_falls_back_to_initial_threshold(self, fit_log):
        # No value sits strictly below the quantile: fewer than two
        # excesses, so no tail fit runs.
        values = [0.6] * 40
        _assert_same_thresholds(values, calibration_size=20)
        assert fit_log == []

    def test_single_excess_falls_back(self, fit_log):
        values = [0.6] * 30 + [0.1]
        _assert_same_thresholds(values, calibration_size=20)
        assert fit_log == []

    def test_zero_variance_excesses(self, fit_log):
        # In a window of 21 the threshold is the third-lowest value, so
        # the two equal lowest values are the only excesses: zero
        # variance, and the fit degenerates to xi = 0 (the log branch).
        values = list(np.linspace(0.6, 0.9, 19)) + [0.3, 0.3]
        _assert_same_thresholds(values, calibration_size=20)
        assert any(var <= 1e-12 and xi == 0.0 for var, xi in fit_log)

    def test_near_zero_shape_takes_the_log_branch(self, fit_log):
        # Excesses proportional to (1, 2, 6 + sqrt(39)) have mean^2 ==
        # var, so the moment fit's xi is ~0 without the variance being
        # degenerate.
        t = 0.5
        scale = 0.01
        low = [t - scale * x for x in (1.0, 2.0, 6.0 + np.sqrt(39.0))]
        bulk = list(np.linspace(0.55, 0.95, 27))
        values = bulk + [t] + low
        _assert_same_thresholds(values, calibration_size=20)
        assert any(var > 1e-12 and 0.0 < abs(xi) < 1e-6 for var, xi in fit_log)
