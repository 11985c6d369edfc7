"""Bit-parity suite for the batched (cohort) kernels.

Every batched kernel in :mod:`repro.models.kernels` must be *bit-identical*,
row for row, to B independent calls of its per-key sibling — not merely
close: the scheduler's cohort dispatch promises byte-identical advisories
across dispatch modes, and that promise bottoms out here. Hypothesis
drives the small-batch shapes (including the B == 1 delegation path); a
fixed B = 256 case pins the wide-cohort path the benchmarks exercise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import kernels
from repro.models.kalman import (
    arma_state_space,
    kalman_loglike,
    kalman_loglike_batch,
    stationary_initialisation,
)

BATCHES = st.sampled_from([1, 3, 17])
SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def exact(a, b):
    """Bitwise equality (NaN == NaN); complex compared part by part."""
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.shape == b.shape
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        assert np.array_equal(a.real, b.real, equal_nan=True)
        assert np.array_equal(a.imag, b.imag, equal_nan=True)
    else:
        assert np.array_equal(a, b, equal_nan=True)


# ---------------------------------------------------------------------------
# Input generators — one per kernel family, shaped like real fits.
# ---------------------------------------------------------------------------
def _ets_inputs(seed, B, seasonal_mode, use_trend, n=24, m=6):
    rng = np.random.default_rng(seed)
    period = m if seasonal_mode else 1
    y = 50.0 + rng.normal(0.0, 4.0, (B, n))
    if seasonal_mode == 2:
        y = np.abs(y) + 1.0
    alpha = rng.uniform(0.05, 0.9, B)
    beta = rng.uniform(0.01, 0.3, B)
    gamma = rng.uniform(0.01, 0.3, B)
    phi = rng.uniform(0.85, 1.0, B)
    level0 = y[:, :period].mean(axis=1)
    trend0 = rng.normal(0.0, 0.2, B)
    if seasonal_mode == 1:
        seasonal0 = rng.normal(0.0, 2.0, (B, period))
    elif seasonal_mode == 2:
        seasonal0 = 1.0 + rng.uniform(-0.2, 0.2, (B, period))
    else:
        seasonal0 = np.zeros((B, 1))
    return y, use_trend, seasonal_mode, period, alpha, beta, gamma, phi, level0, trend0, seasonal0


def _tbats_inputs(seed, B, n=24, k=3, p=2, q=1):
    rng = np.random.default_rng(seed)
    y = 50.0 + rng.normal(0.0, 4.0, (B, n))
    alpha = rng.uniform(0.05, 0.6, B)
    beta = rng.uniform(0.01, 0.2, B)
    phi = rng.uniform(0.85, 1.0, B)
    angles = rng.uniform(0.1, np.pi, (B, k))
    rot = np.exp(1j * angles)
    gamma_vec = (rng.normal(0, 0.05, (B, k)) + 1j * rng.normal(0, 0.05, (B, k)))
    ar = rng.uniform(-0.5, 0.5, (B, p))
    ma = rng.uniform(-0.5, 0.5, (B, q))
    level0 = y.mean(axis=1)
    trend0 = rng.normal(0.0, 0.2, B)
    z0 = rng.normal(0, 1.0, (B, k)) + 1j * rng.normal(0, 1.0, (B, k))
    d0 = rng.normal(0, 1.0, (B, p))
    e0 = rng.normal(0, 1.0, (B, q))
    return y, alpha, beta, phi, True, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0


def _kalman_inputs(seed, B, n=32, p=2, q=1):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.5, (B, n))
    Ts, RRts, P0s = [], [], []
    for _ in range(B):
        phi = np.array([rng.uniform(0.2, 0.6), rng.uniform(-0.3, 0.2)])[:p]
        theta = np.array([rng.uniform(-0.4, 0.4)])[:q]
        T, R, __ = arma_state_space(phi, theta)
        Ts.append(T)
        RRts.append(np.outer(R, R))
        P0s.append(stationary_initialisation(T, R))
    return y, np.stack(Ts), np.stack(RRts), np.stack(P0s)


def _arma_inputs(seed, B, L=3, q=2, horizon=12):
    # Contract: history carries exactly L = full_ar.size - 1 lagged values
    # and ma_full's leading element is the (unused) theta_0 slot.
    rng = np.random.default_rng(seed)
    full_ar = np.concatenate(
        [np.ones((B, 1)), rng.uniform(-0.2, 0.2, (B, L))], axis=1
    )
    ma_full = np.concatenate(
        [np.ones((B, 1)), rng.uniform(-0.3, 0.3, (B, q))], axis=1
    )
    history = rng.normal(50.0, 3.0, (B, L))
    recent_e = rng.normal(0.0, 1.0, (B, q))
    c_star = rng.normal(1.0, 0.1, B)
    return full_ar, ma_full, history, recent_e, c_star, horizon


def _paths_inputs(seed, B, P=16, H=12, m=6):
    rng = np.random.default_rng(seed)
    level0 = rng.uniform(40.0, 60.0, B)
    trend0 = rng.normal(0.0, 0.2, B)
    seasonal0 = 1.0 + rng.uniform(-0.2, 0.2, (B, m))
    alpha = rng.uniform(0.05, 0.9, B)
    beta = rng.uniform(0.01, 0.3, B)
    gamma = rng.uniform(0.01, 0.3, B)
    phi = rng.uniform(0.85, 1.0, B)
    start_index = rng.integers(0, m, B)
    shocks = rng.normal(0.0, 1.0, (B, P, H))
    return level0, trend0, seasonal0, alpha, beta, gamma, phi, True, m, start_index, shocks


def _bootstrap_inputs(seed, B, P=16, H=12):
    rng = np.random.default_rng(seed)
    psi = rng.uniform(0.5, 1.5, (B, H))
    shocks = rng.normal(0.0, 1.0, (B, P, H))
    return psi, shocks


# ---------------------------------------------------------------------------
# Row-for-row parity checks (shared by the hypothesis and wide-cohort tests).
# ---------------------------------------------------------------------------
def check_ets_recursion(seed, B, seasonal_mode, use_trend):
    args = _ets_inputs(seed, B, seasonal_mode, use_trend)
    y, ut, sm, period, alpha, beta, gamma, phi, level0, trend0, seasonal0 = args
    errors, level, trend, seas = kernels.ets_recursion_batch(*args)
    for i in range(B):
        e_i, l_i, t_i, s_i = kernels.ets_recursion(
            y[i], ut, sm, period, alpha[i], beta[i], gamma[i], phi[i],
            level0[i], trend0[i], seasonal0[i],
        )
        exact(errors[i], e_i)
        exact(level[i], l_i)
        exact(trend[i], t_i)
        exact(seas[i], s_i)


def check_ets_mul_paths(seed, B):
    args = _paths_inputs(seed, B)
    level0, trend0, seasonal0, alpha, beta, gamma, phi, ut, period, start, shocks = args
    sims = kernels.ets_mul_paths_batch(*args)
    for i in range(B):
        exact(
            sims[i],
            kernels.ets_mul_paths(
                level0[i], trend0[i], seasonal0[i], alpha[i], beta[i],
                gamma[i], phi[i], ut, period, int(start[i]), shocks[i],
            ),
        )


def check_tbats_filter(seed, B):
    args = _tbats_inputs(seed, B)
    y, alpha, beta, phi, ut, rot, gamma_vec, ar, ma, level0, trend0, z0, d0, e0 = args
    innov, level, trend, z, d_hist, e_hist = kernels.tbats_filter_batch(*args)
    for i in range(B):
        out = kernels.tbats_filter(
            y[i], alpha[i], beta[i], phi[i], ut, rot[i], gamma_vec[i],
            ar[i], ma[i], level0[i], trend0[i], z0[i], d0[i], e0[i],
        )
        exact(innov[i], out[0])
        exact(level[i], out[1])
        exact(trend[i], out[2])
        exact(z[i], out[3])
        exact(d_hist[i], out[4])
        exact(e_hist[i], out[5])


def check_kalman_filter(seed, B):
    y, T, RRt, P0 = _kalman_inputs(seed, B)
    sum_sq, sum_logF, ok = kernels.kalman_filter_batch(y, T, RRt, P0)
    for i in range(B):
        ss_i, lf_i, ok_i = kernels.kalman_filter(y[i], T[i], RRt[i], P0[i])
        exact(sum_sq[i], ss_i)
        exact(sum_logF[i], lf_i)
        assert bool(ok[i]) == bool(ok_i)


def check_arma_forecast(seed, B):
    full_ar, ma_full, history, recent_e, c_star, horizon = _arma_inputs(seed, B)
    out = kernels.arma_forecast_batch(full_ar, ma_full, history, recent_e, c_star, horizon)
    for i in range(B):
        exact(
            out[i],
            kernels.arma_forecast(
                full_ar[i], ma_full[i], history[i], recent_e[i], float(c_star[i]), horizon
            ),
        )


def check_bootstrap_deviations(seed, B):
    psi, shocks = _bootstrap_inputs(seed, B)
    out = kernels.bootstrap_deviations_batch(psi, shocks)
    for i in range(B):
        exact(out[i], kernels.bootstrap_deviations(psi[i], shocks[i]))


ALL_CHECKS = [
    check_ets_mul_paths,
    check_tbats_filter,
    check_kalman_filter,
    check_arma_forecast,
    check_bootstrap_deviations,
]


# ---------------------------------------------------------------------------
# Hypothesis legs: small batches, including the B == 1 delegation path.
# ---------------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES, seasonal_mode=st.sampled_from([0, 1, 2]), use_trend=st.booleans())
def test_ets_recursion_batch_parity(seed, B, seasonal_mode, use_trend):
    check_ets_recursion(seed, B, seasonal_mode, use_trend)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES)
def test_ets_mul_paths_batch_parity(seed, B):
    check_ets_mul_paths(seed, B)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES)
def test_tbats_filter_batch_parity(seed, B):
    check_tbats_filter(seed, B)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES)
def test_kalman_filter_batch_parity(seed, B):
    check_kalman_filter(seed, B)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES)
def test_arma_forecast_batch_parity(seed, B):
    check_arma_forecast(seed, B)


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS, B=BATCHES)
def test_bootstrap_deviations_batch_parity(seed, B):
    check_bootstrap_deviations(seed, B)


# ---------------------------------------------------------------------------
# Fixed wide-cohort leg: the shape the benchmarks (and the scheduler at
# scale) actually dispatch.
# ---------------------------------------------------------------------------
def test_wide_cohort_parity_b256():
    check_ets_recursion(7, 256, 2, True)
    for check in ALL_CHECKS:
        check(7, 256)


def test_batched_kernels_leave_inputs_untouched():
    # Regression: with q == 1 the transpose of (B, 1) state arrays stays
    # contiguous, and a working "copy" made with ascontiguousarray aliased
    # the caller's array — the filter then scribbled over fitted state.
    args = _tbats_inputs(3, 4)
    copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    kernels.tbats_filter_batch(*args)
    for a, c in zip(args, copies):
        if isinstance(a, np.ndarray):
            exact(a, c)
    ets_args = _ets_inputs(3, 4, 2, True)
    ets_copies = [a.copy() if isinstance(a, np.ndarray) else a for a in ets_args]
    kernels.ets_recursion_batch(*ets_args)
    for a, c in zip(ets_args, ets_copies):
        if isinstance(a, np.ndarray):
            exact(a, c)


def test_nonfinite_rows_fall_back_per_key():
    # A poisoned row must reproduce the per-key kernel's NaN propagation
    # bit for bit without contaminating its cohort neighbours.
    args = list(_ets_inputs(11, 5, 2, True))
    args[0] = args[0].copy()
    args[0][2, 7] = np.nan
    y, ut, sm, period, alpha, beta, gamma, phi, level0, trend0, seasonal0 = args
    errors, level, trend, seas = kernels.ets_recursion_batch(*args)
    for i in range(5):
        e_i, l_i, t_i, s_i = kernels.ets_recursion(
            y[i], ut, sm, period, alpha[i], beta[i], gamma[i], phi[i],
            level0[i], trend0[i], seasonal0[i],
        )
        exact(errors[i], e_i)
        exact(level[i], l_i)
        exact(trend[i], t_i)
        exact(seas[i], s_i)


# ---------------------------------------------------------------------------
# kalman_loglike_batch: the model-layer cohort wrapper.
# ---------------------------------------------------------------------------
def test_kalman_loglike_batch_matches_per_key():
    rng = np.random.default_rng(23)
    B, n = 6, 40
    y = rng.normal(0.0, 1.5, (B, n))
    phi = rng.uniform(-0.5, 0.5, (B, 2))
    theta = rng.uniform(-0.4, 0.4, (B, 1))
    # Make one row explicitly non-stationary: it must get (-inf, nan).
    phi[3] = [1.4, 0.2]
    lls, sig = kalman_loglike_batch(y, phi, theta)
    for i in range(B):
        ll_i, sig_i = kalman_loglike(y[i], phi[i], theta[i])
        exact(lls[i], ll_i)
        exact(sig[i], sig_i)
    assert lls[3] == -np.inf and np.isnan(sig[3])


def test_kalman_loglike_batch_single_row():
    rng = np.random.default_rng(29)
    y = rng.normal(0.0, 1.0, (1, 36))
    phi = np.array([[0.4, -0.1]])
    theta = np.array([[0.25]])
    lls, sig = kalman_loglike_batch(y, phi, theta)
    ll, s2 = kalman_loglike(y[0], phi[0], theta[0])
    exact(lls[0], ll)
    exact(sig[0], s2)


# ---------------------------------------------------------------------------
# Telemetry: batched kernels report a rows dimension next to calls.
# ---------------------------------------------------------------------------
def test_batched_kernels_report_rows():
    before = kernels.stats_snapshot()
    check_ets_recursion(31, 17, 1, False)
    after = kernels.stats_snapshot()
    moved_calls = after["kernel_ets_recursion_batch_calls"] - before.get(
        "kernel_ets_recursion_batch_calls", 0
    )
    moved_rows = after["kernel_ets_recursion_batch_rows"] - before.get(
        "kernel_ets_recursion_batch_rows", 0
    )
    assert moved_calls >= 1
    assert moved_rows >= 17
    assert moved_rows / moved_calls > 1  # realised mean cohort size


def test_batched_names_registered():
    for name in kernels.BATCHED_KERNEL_NAMES:
        assert name.endswith("_batch")
    snap = kernels.stats_snapshot()
    for name in kernels.BATCHED_KERNEL_NAMES:
        assert f"kernel_{name}_calls" in snap
        assert f"kernel_{name}_rows" in snap
