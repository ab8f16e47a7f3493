import ast
import inspect
import itertools
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from isicap import (
    BandedChannelMatrix,
    ChannelSpec,
    SUITE_NAMES,
    build_Hc,
    converse_rate_bound,
    run_all_suites,
    run_suite,
    verify_report,
)
from isicap import spectrum, verify
from isicap.channel_sim import _Cells, rng_stream
from isicap.verify import (
    _ETAS,
    _SUITES,
    _Band,
    _Dense,
    _lemma1,
    _sample_banded,
    _shell_volume,
    _suite_rng,
    holds,
)

from oracles import (
    _dense_band,
    dense_check_oracle,
    nan_corner_taps,
    pencil_oracle,
    shell_min_oracle,
    shell_volume_oracle,
)


def _spd(rng, m, spread=2.0):
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (Q * rng.uniform(1.0 / spread, spread, m)) @ Q.T


def test_holds_boundaries():
    assert holds(1.0, 1.0)
    assert holds(0.0, 0.0)
    assert holds(1e-13, 0.0)  # absolute slack
    assert holds(1.0 + 5e-10, 1.0)  # relative slack
    assert not holds(1.0 + 1e-6, 1.0)
    assert not holds(1e-9, 0.0)
    # a negative right-hand side gets the same slack, |rhs| scaled
    assert holds(-1.0 + 5e-10, -1.0)
    assert not holds(-1.0 + 1e-6, -1.0)


matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-10.0, 10.0, allow_nan=False),
)


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_op_norm_invariants(M):
    """``op_norm`` is numpy's largest singular value, at most the
    Frobenius norm and at least every column's two-norm."""
    op = _Dense(M).op_norm()
    assert op == pytest.approx(float(np.linalg.norm(M, 2)), rel=1e-12, abs=1e-12)
    assert op <= float(np.linalg.norm(M)) * (1.0 + 1e-9) + 1e-12
    col = float(np.sqrt((M * M).sum(axis=0)).max())
    assert col <= op * (1.0 + 1e-9) + 1e-9


def test_op_norm_orthogonal_block():
    for shape in ((5, 5), (7, 3)):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal(shape))
        assert _Dense(Q).op_norm() == pytest.approx(1.0, abs=1e-10)
        assert _Dense(Q.T).op_norm() == pytest.approx(1.0, abs=1e-10)


def test_lemma1_tight_case():
    M1 = np.diag([2.0, 1.0])
    M2 = np.eye(2)
    margin, ok = _lemma1((M1, M2))
    assert ok
    assert margin == pytest.approx(0.0, abs=1e-12)  # identity factor is tight


@settings(max_examples=60, deadline=None)
@given(matrices, st.data())
def test_lemma1_random(M1, data):
    inner = M1.shape[1]
    M2 = data.draw(
        arrays(
            np.float64,
            st.tuples(st.just(inner), st.integers(1, 6)),
            elements=st.floats(-10.0, 10.0, allow_nan=False),
        )
    )
    margin, ok = _lemma1((M1, M2))
    assert ok
    assert margin >= -1e-9


def _shell_min(oc, oh, eta):
    """The shell minimum ``_shell_floor`` reads: the radius ``m (1 - eta')``
    over the largest pencil eigenvalue."""
    return len(oc) * (1.0 - eta) / _Dense.pencil(oc, oh).top


def test_qcqp_identity_pencil():
    m = 5
    val = _shell_min(np.eye(m), np.eye(m), 0.25)
    assert val == pytest.approx(m * 0.75, rel=1e-12)


def test_qcqp_matches_descent_oracle():
    rng = np.random.default_rng(7)
    for i in range(6):
        m = int(rng.integers(2, 7))
        oc, oh = _spd(rng, m), _spd(rng, m)
        eta = float(rng.uniform(0.0, 0.9))
        rho = m * (1.0 - eta)
        got = _shell_min(oc, oh, eta)
        ref = shell_min_oracle(oc, oh, rho, seed=i, restarts=6, iters=2000)
        assert got == pytest.approx(ref, rel=1e-8, abs=1e-10)


def _assert_pencil(got, omega_c, omega_h, tol):
    """``got``, the ``(m, sum lam^2, sum log lam, max lam)`` of a pencil
    route, is ``pencil_oracle``'s to first order in eigenvalue errors of at
    most ``tol max lam`` each: ``max lam`` within ``tol max lam``; ``sum
    lam^2``, ``m`` squares each at most ``max lam^2``, within ``2 m tol max
    lam^2``; ``sum log lam`` within ``m tol max lam / lam_min``, where
    ``lam_min >= lambda_min(Omega_h) / lambda_max(Omega_c)`` (numpy)."""
    m, sum_sq, sum_log, top = pencil_oracle(omega_c, omega_h)
    floor = np.linalg.eigvalsh(omega_h)[0] / np.linalg.eigvalsh(omega_c)[-1]
    assert got.m == m
    assert abs(got.top - top) <= tol * top, (got.top, top)
    assert abs(got.sum_sq - sum_sq) <= 2 * m * tol * top**2, (got.sum_sq, sum_sq)
    assert abs(got.sum_log - sum_log) <= m * tol * top / floor, (got.sum_log, sum_log)


@pytest.mark.parametrize("m", [1, 2, 5, 258])
def test_pencil_matches_numpy_oracle(m):
    """``_Dense.pencil(Omega_c, Omega_h)``, read off the tridiagonal form of
    ``L^-1 Omega_h L^-T``, is ``(m, sum lam^2, sum log lam, max lam)`` of
    the eigenvalues of ``Omega_h v = lam Omega_c v`` from scipy's
    symmetric-definite eigensolver (``pencil_oracle``), to first order in
    eigenvalue errors of ``1e-12 max lam``.  The pair goes in as F-ordered
    copies, as ``output_cov`` hands it over, so LAPACK works on it in place.
    ``Omega_h`` is three times a draw like ``Omega_c``, so the swapped
    pencil's largest eigenvalue, ``1 / lam_min``, misses by far."""
    rng = np.random.default_rng(m)
    for _ in range(3):
        oc, oh = _spd(rng, m), 3.0 * _spd(rng, m)
        _assert_pencil(_Dense.pencil(np.array(oc, order="F"), np.array(oh, order="F")), oc, oh, 1e-12)
        top = pencil_oracle(oc, oh)[3]
        assert abs(pencil_oracle(oh, oc)[3] - top) > 1e-9 * top


def test_pencil_refuses_a_pair_not_positive_definite():
    """A non-positive-definite ``Omega_c`` has no Cholesky factor, and with
    an indefinite ``Omega_h`` the pencil's tridiagonal form has a pivot that
    is not positive: both forms raise ``LinAlgError``, dense and band."""
    spd = np.eye(6) + 0.25 * (np.eye(6, k=1) + np.eye(6, k=-1))
    bad = np.diag([1.0, 2.0, -0.5, 1.0, 3.0, 1.0])
    band = lambda D: np.array([np.r_[np.diagonal(D, -e), np.zeros(e)] for e in range(2)])
    for oc, oh in ((bad, spd), (spd, bad)):
        with pytest.raises(np.linalg.LinAlgError):
            _Dense.pencil(np.array(oc, order="F"), np.array(oh, order="F"))
        with pytest.raises(np.linalg.LinAlgError):
            _Band.pencil(band(oc), band(oh))


def test_volume_1d_closed_form():
    """The shell of order 1 is two intervals, of total length ``2
    (sqrt(1 + eta) - sqrt(1 - eta))``, or one of length ``2 sqrt(1 + eta)``
    once ``eta >= 1`` leaves no inner ball."""
    for eta in (0.3, 0.8):
        res = _shell_volume(1, eta)
        exact = 2.0 * (math.sqrt(1 + eta) - math.sqrt(1 - eta))
        assert res.log2_exact == pytest.approx(math.log2(exact), rel=1e-12)
    res = _shell_volume(1, 1.5)  # inner ball vanishes
    assert res.log2_exact == pytest.approx(math.log2(2.0 * math.sqrt(2.5)), rel=1e-12)


def test_volume_2d_closed_form():
    """The shell of order 2 is an annulus of area ``pi (2 (1 + eta) - 2 (1 -
    eta))``."""
    for eta in (0.2, 0.9):
        res = _shell_volume(2, eta)
        assert res.log2_exact == pytest.approx(math.log2(4.0 * math.pi * eta), rel=1e-12)


def test_volume_matches_the_mpmath_oracle():
    """The shell's exact log2 volume against a 30-digit difference of ball
    volumes, for n = 1..50 at every suite eta and at drawn ones down to
    1e-3, where ``1 - 2^(inner - outer)`` cancels: within 1e-12 relative to
    ``max(1, |v|)``."""
    drawn = 10.0 ** np.random.default_rng(8).uniform(-3.0, 0.5, 6)
    for n in range(1, 51):
        for eta in (*_ETAS, *drawn.tolist(), 1e-3):
            want = shell_volume_oracle(n, eta)
            got = _shell_volume(n, eta).log2_exact
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, eta)


def test_volume_sandwich_above_one():
    res = _shell_volume(12, 1.4)
    assert res.log2_lower <= res.log2_exact <= res.log2_upper


def test_volume_upper_bound_always():
    for n in (1, 8, 50):
        for eta in (0.1, 0.6, 2.0):
            res = _shell_volume(n, eta)
            assert res.log2_exact <= res.log2_upper + 1e-12


def test_volume_suite_draws_n_and_eta_only():
    """The volume suite's instance is ``(n, eta)``, with ``n`` in ``[1,
    min(n_max, 50)]``, and ``eta`` positive."""
    idx = SUITE_NAMES.index("shell_volume_bounds")
    _, instance, _ = _SUITES[idx]
    for i in range(12):
        n, eta = instance(_suite_rng(1, idx, i), i, 32)
        assert 1 <= n <= 32 and eta > 0.0


ETA_PRIME = 4  # position of eta' in a channel instance


def test_shell_floor_draws_a_shell_that_exists():
    """``eta'`` is drawn from [0, 1), where the shell has a positive radius,
    so every sample's minimum is positive and its floor checks something."""
    idx = SUITE_NAMES.index("shell_minimum_floor")
    _, instance, check = _SUITES[idx]
    for i in range(20):
        inst = instance(_suite_rng(1, idx, i), i, 16)
        assert 0.0 <= inst[ETA_PRIME] < 1.0
        margin, ok = check(inst)
        assert ok and margin > 0.0


def test_converse_power_guard():
    spec = ChannelSpec(k=0, c=(1.0,), r=(0.5,))
    X = np.full((2, 4), 10.0)
    with pytest.raises(ValueError):
        converse_rate_bound(spec, 1.0, X)


def test_converse_memoryless_by_hand():
    rho, P, n = 0.5, 2.0, 6
    spec = ChannelSpec(k=0, c=(1.0,), r=(rho,))
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, n) * math.sqrt(P)
    rep = converse_rate_bound(spec, P, x[None, :])
    gap = 2.0 / (math.pi * math.e)
    kappa = 0.5 * np.log2(1.0 + gap * rho ** 2 * x ** 2).sum() / n
    lead = 0.5 * math.log2(1.0 + (1.0 + rho ** 2 / 3.0) * P)
    assert rep.kappa == pytest.approx(kappa, rel=1e-12)
    assert rep.ceiling == pytest.approx(lead - kappa, rel=1e-12)


def test_converse_constant_magnitude_collapses():
    rho, P, n = 0.4, 1.5, 8
    spec = ChannelSpec(k=0, c=(1.0,), r=(rho,))
    signs = np.random.default_rng(1).choice([-1.0, 1.0], size=(4, n))
    rep = converse_rate_bound(spec, P, signs * math.sqrt(P))
    assert rep.ceiling_xmin is not None
    assert rep.ceiling == pytest.approx(rep.ceiling_xmin, rel=1e-12)
    assert rep.kappa > 0.0


def test_converse_xmin_absent_with_zero_entry():
    spec = ChannelSpec(k=0, c=(1.0,), r=(0.3,))
    X = np.array([[0.0, 1.0, -1.0, 0.5]])
    rep = converse_rate_bound(spec, 1.0, X)
    assert rep.ceiling_xmin is None


def test_suite_battery_clean():
    reports = run_all_suites(samples=25, master_seed=0, n_max=24)
    assert tuple(reports) == SUITE_NAMES
    for name, rep in reports.items():
        assert rep.name == name
        assert rep.samples == 25
        assert rep.violations == 0, f"{name}: worst margin {rep.worst_margin}"
        assert 0 <= rep.worst_index < 25


def test_suite_selection_and_determinism():
    a = run_suite("lemma1_product_norms", samples=10, master_seed=5, n_max=12)
    b = run_suite("lemma1_product_norms", samples=10, master_seed=5, n_max=12)
    assert (a.worst_margin, a.worst_index) == (b.worst_margin, b.worst_index)
    with pytest.raises(ValueError):
        run_suite("bogus_suite")


def test_verify_report_is_json_ready():
    rep = verify_report(samples=8, master_seed=2, n_max=16)
    blob = json.loads(json.dumps(rep, sort_keys=True))
    assert blob["violations_total"] == 0
    assert set(blob["suites"]) == set(SUITE_NAMES)
    assert blob["samples"] == 8 and blob["n_max"] == 16


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(samples=0), "samples"),
        (dict(n_max=4), "n_max"),
        (dict(master_seed=-1), "master_seed"),
    ],
)
def test_suite_inputs_refused(kwargs, field):
    with pytest.raises(ValueError, match=field):
        verify_report(**kwargs)
    with pytest.raises(ValueError, match=field):
        run_suite("shell_volume_bounds", **kwargs)


def test_deviation_norm_check_zero_radius_is_tight():
    spec = ChannelSpec(k=1, c=(1.0, 0.25), r=(0.0, 0.0))
    taps = _sample_banded(np.random.default_rng(0), spec, 12).taps - build_Hc(spec, 12).taps
    assert not taps.any()  # a zero-radius draw is the centre matrix exactly
    E = _Band(n=12, k=1, taps=taps)
    check = {name: chk for name, _, chk in _SUITES}["deviation_matrix_norm"]
    margin, ok = check((E, spec.r_s))
    assert ok
    assert margin == 0.0


@pytest.mark.parametrize("spec", [
    ChannelSpec(k=0, c=(0.7,), r=(0.3,)),
    ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(1e-3, 1e-3, 1e-3)),
    ChannelSpec(k=3, c=(0.9, -0.4, 0.2, 0.1), r=(0.5, 0.0, 0.25, 1e-6)),
])
def test_sample_banded_is_the_uniform_interval_law(spec):
    """A sampled channel's taps are bit for bit ``c + r (2u - 1)`` for
    ``k + 1`` rows of ``n + k`` float32 uniforms ``u`` drawn from a twin
    generator, tap-major, as ``simulate``'s trials draw them, and the
    generator is left where that draw leaves it."""
    for n in (1, 12, 65):
        rng, twin = np.random.default_rng(n), np.random.default_rng(n)
        taps = _sample_banded(rng, spec, n).taps
        u = twin.random((spec.k + 1, n + spec.k), dtype=np.float32).astype(float)
        want = np.asarray(spec.c)[:, None] + np.asarray(spec.r)[:, None] * (2.0 * u - 1.0)
        assert taps.tobytes() == want.tobytes()
        assert rng.random() == twin.random()
        assert rng.random(dtype=np.float32) == twin.random(dtype=np.float32)


def test_suites_build_no_fft_table():
    """Every suite's channel draws take their extrema from
    ``centre_extrema``: a run of all nine builds no ``|f|^2`` table."""
    misses = spectrum.f_sq_table.cache_info().misses
    run_all_suites(samples=25, master_seed=0, n_max=24)
    assert spectrum.f_sq_table.cache_info().misses == misses


def test_margin_quantiles_persisted():
    rep = run_suite("deviation_matrix_norm", samples=9, master_seed=11, n_max=16)
    qs = rep.details["margin_quantiles"]
    assert len(qs) == 5
    assert qs == sorted(qs)
    assert qs[0] == rep.worst_margin and qs[4] >= qs[0]
    assert json.loads(json.dumps(qs)) == qs


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_op_norm_squared_below_gram_row_sum(M):
    # lambda_max of M'M never exceeds the absolute row-sum norm of M'M
    row_sum = float(np.linalg.norm(M.T @ M, np.inf))
    assert _Dense(M).op_norm() ** 2 <= row_sum * (1.0 + 1e-9) + 1e-12


CHANNEL_SUITES = (
    "centre_matrix_norm",
    "deviation_matrix_norm",
    "stacked_deviation_trace",
    "whitened_output_trace",
    "determinant_floor",
    "eigenvalue_stability",
    "shell_minimum_floor",
)


def dense_oracle_gate(seed: int, n_max: int, samples: int) -> int:
    """Each channel check's margin on samples ``0 .. samples - 1`` of master
    seed ``seed`` is its dense textbook form's ``rhs - lhs`` to ``1e-9
    max(|lhs|, |rhs|) + 1e-12`` (the eigenvalue-stability margin ``op -
    gap`` cancels, so it gets the scale of its terms), with the same
    pass/fail decision.  Returns the number of checks compared."""
    compared = 0
    for idx, (name, instance, check) in enumerate(_SUITES):
        if name not in CHANNEL_SUITES:
            continue
        for i in range(samples):
            inst = instance(_suite_rng(seed, idx, i), i, n_max)
            margin, ok = check(inst)
            lhs, rhs = dense_check_oracle(name, inst)
            scale = max(abs(lhs), abs(rhs))
            assert abs(margin - (rhs - lhs)) <= 1e-9 * scale + 1e-12, (name, i)
            assert ok == (lhs <= rhs + 1e-9 * abs(rhs) + 1e-12), (name, i)
            compared += 1
    return compared


@pytest.mark.parametrize("n_max", [24, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_channel_checks_match_dense_oracle(seed, n_max):
    assert dense_oracle_gate(seed, n_max, 5) == 5 * len(CHANNEL_SUITES)


@pytest.mark.parametrize("k", range(5))
def test_band_op_norm_matches_dense(k):
    rng = np.random.default_rng(k)
    for n in (k + 1, k + 2, 64, 257):
        M = _Band(n=n, k=k, taps=rng.uniform(-1.0, 1.0, (k + 1, n + k)))
        assert M.op_norm() == pytest.approx(_Dense(_dense_band(M)).op_norm(), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("k", range(5))
def test_band_builders_match_dense_products(k):
    """With every corner tap NaN, for ``n = k + 1, k + 2, 64, 257``: band
    whitening is the dense one bit for bit, and the pencil's ``(m, sum
    lam^2, sum log lam, max lam)`` in both forms, the band one from
    ``output_cov``'s band forms and the dense one from the dense pair, is
    ``pencil_oracle``'s to first order in eigenvalue errors of ``4 m eps max
    lam``.  The band products themselves are checked in ``test_spectrum``."""
    rng = np.random.default_rng(40 + k)
    for n in (k + 1, k + 2, 64, 257):
        M, Mc = (_Band(n=n, k=k, taps=nan_corner_taps(rng, n, k)) for _ in range(2))
        cov = verify._Cov(d=10.0 ** rng.uniform(-2.0, 1.0, n), Q=None)
        assert _dense_band(cov.whiten(M)).tobytes() == verify._Cov(d=cov.d, Q=np.eye(n)).whiten(M).a.tobytes()
        D, Dc = _dense_band(M), _dense_band(Mc)
        eye = np.eye(n + k)
        oc, oh = eye + Dc @ Dc.T, eye + D @ D.T
        tol = 4 * (n + k) * np.finfo(float).eps
        _assert_pencil(M.pencil(Mc.output_cov(), M.output_cov()), oc, oh, tol)
        _assert_pencil(_Dense.pencil(np.array(oc, order="F"), np.array(oh, order="F")), oc, oh, tol)


@pytest.mark.parametrize("k", range(5))
def test_weyl_norm_matches_numpy_on_band_and_dense(k):
    """``eigenvalue_stability`` reads ``||A - B||`` off the two extreme
    eigenvalues of ``A - B`` alone, as ``max(-lam_min, lam_max)``.  For
    band ``W``, ``Wc`` (every corner tap NaN) and their dense forms, with
    ``Wc`` scaled up so that ``|lam_min| > lam_max`` and then ``W`` so that
    ``lam_max`` leads, the extremes are numpy's ``eigvalsh`` of ``A - B``
    and the check's margin is numpy's ``op - gap``, both to ``8 n eps
    max(||A||, ||B||)``."""
    rng = np.random.default_rng(60 + k)
    eps = np.finfo(float).eps
    for n, scale_c, scale in ((k + 1, 3.0, 1.0), (64, 3.0, 1.0), (65, 1.0, 3.0), (257, 3.0, 1.0)):
        W, Wc = (_Band(n=n, k=k, taps=s * nan_corner_taps(rng, n, k)) for s in (scale, scale_c))
        A, B = (_dense_band(X).T @ _dense_band(X) for X in (W, Wc))
        lam, a, b = np.linalg.eigvalsh(A - B), np.linalg.eigvalsh(A), np.linalg.eigvalsh(B)
        assert (-lam[0] > lam[-1]) == (scale_c > scale), n
        tol = 8 * n * eps * max(a[-1], b[-1])
        band, dense = W.gram() - Wc.gram(), np.asfortranarray(A - B)
        for got in (_Band.extremes(band), _Dense.extremes(dense)):
            assert np.abs(np.subtract(got, (lam[0], lam[-1]))).max() <= tol, (n, got, lam[[0, -1]])
        want = np.abs(lam).max() - np.abs(a - b).max()
        for inst in ((None,) * 6 + (W, Wc), (None,) * 6 + (_Dense(_dense_band(W)), _Dense(_dense_band(Wc)))):
            margin, ok = verify._eig_stability(inst)
            assert abs(margin - want) <= 2 * tol and ok, (n, margin, want)


@pytest.mark.parametrize("k", range(5))
def test_whiten_matches_the_dense_product(k):
    """For a drawn basis ``Q``, ``whiten(H)`` is ``H Q diag(sqrt(d))`` with
    ``H`` made dense entry by entry: each route rounds ``k + 1`` products,
    ``k`` sums and the scale, ``(k + 2) eps / 2`` relative to ``|H| |Q|
    sqrt(d)`` (Higham, *Accuracy and Stability*, 3.1), so the two differ by
    at most ``(k + 2) eps`` of it.  With ``Q = I`` it is the dense ``H``
    times ``sqrt(d)`` bit for bit.  Every corner tap is NaN."""
    rng = np.random.default_rng(50 + k)
    eps = np.finfo(float).eps
    for n in (k + 1, 64, 257):
        H = BandedChannelMatrix(n=n, k=k, taps=nan_corner_taps(rng, n, k))
        d = 10.0 ** rng.uniform(-2.0, 1.0, n)
        Q = np.asfortranarray(np.linalg.qr(rng.standard_normal((n, n)))[0])
        cov = verify._Cov(d=d, Q=Q)
        dense = _dense_band(H)
        want = dense @ Q * cov.sqrt_d
        scale = np.abs(dense) @ np.abs(Q) * cov.sqrt_d
        assert np.all(np.abs(cov.whiten(H).a - want) <= (k + 2) * eps * scale), n
        eye = verify._Cov(d=d, Q=np.eye(n)).whiten(H).a
        assert eye.tobytes() == (dense * cov.sqrt_d).tobytes(), n


def band_route_gate(seed: int, n_max: int, samples: int) -> int:
    """The band route against the dense one on every standard-basis sample
    of the channel instance (samples ``0 .. samples - 1`` of master seed
    ``seed``): each of the five checks that read a covariance, on the band
    instance and on its dense twin (whitened in the basis ``Q = I``, so in
    the dense form, pencil and all), gives margins within ``1e-9 max(|lhs|,
    |rhs|) + 1e-12`` (``lhs`` and ``rhs`` from ``dense_check_oracle``) and
    the same decision.  Returns the number of band samples."""
    first = SUITE_NAMES.index("stacked_deviation_trace")
    checks = [(name, check) for name, _, check in _SUITES if name in CHANNEL_SUITES[2:]]
    band = 0
    for i in range(samples):
        inst = _SUITES[first][1](_suite_rng(seed, first, i), i, n_max)
        H, Hc, cov, rep, eta_prime = inst[:5]
        assert isinstance(inst[6], BandedChannelMatrix) == (cov.Q is None), i
        if cov.Q is not None:
            continue
        band += 1
        dense = _with_pencil(H, Hc, verify._Cov(d=cov.d, Q=np.eye(cov.n)), rep, eta_prime)
        for name, check in checks:
            (got, got_ok), (want, want_ok) = check(inst), check(dense)
            lhs, rhs = dense_check_oracle(name, dense)
            assert abs(got - want) <= 1e-9 * max(abs(lhs), abs(rhs)) + 1e-12, (name, i, got, want)
            assert got_ok == want_ok, (name, i)
    return band


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_band_route_matches_dense_route(seed):
    assert band_route_gate(seed, 24, 30) > 0


class _TurnedCov(verify._Cov):
    """``diag(d)`` for channel matrices already turned by a basis, so dense
    arrays: it whitens them by ``sqrt(d)`` into the dense form."""

    def whiten(self, H):
        return _Dense(H * self.sqrt_d)


def _turned(name, inst):
    """The same check's instance in the standard basis: ``(H Q, Hc Q,
    diag(d))``, ``H Q`` formed as ``whiten`` forms it, with the pencil
    eigenvalues recomputed there; the stacked trace reads only ``H - Hc``,
    so it gets ``((H - Hc) Q, 0)``."""
    H, Hc, cov, rep, eta_prime = inst[:5]
    if name == "stacked_deviation_trace":
        H, Hc = H - Hc, H - H
    turn = lambda M: M.apply(cov.Q.T).T
    return _with_pencil(turn(H), turn(Hc), _TurnedCov(d=cov.d, Q=None), rep, eta_prime)


def _with_pencil(H, Hc, cov, rep, eta_prime):
    """A channel instance of these draws: the whitened matrices and the
    pencil eigenvalues computed from them through their form's
    ``output_cov`` and ``pencil``, as ``_channel_instance`` does."""
    W, Wc = cov.whiten(H), cov.whiten(Hc)
    return H, Hc, cov, rep, eta_prime, W.pencil(Wc.output_cov(), W.output_cov()), W, Wc


@pytest.mark.parametrize("seed", [0, 1])
def test_drawn_basis_checks_equal_standard_basis_checks(seed):
    """A check on ``(H, Hc, Q diag(d) Q')`` is bit for bit the same check on
    ``(H Q, Hc Q, diag(d))``: the drawn basis enters only through the one
    product ``whiten``.  A standard-basis draw gets a random ``Q`` here.
    The pencil is recomputed in each basis, so the three checks that read
    it are compared too.  Both sides take the dense form: the drawn basis
    fills ``W``, and the turned matrices are dense."""
    rng = np.random.default_rng(seed)
    for idx, (name, instance, check) in enumerate(_SUITES):
        if name not in CHANNEL_SUITES[2:]:  # the five suites that draw a covariance
            continue
        for i in range(6):
            H, Hc, cov, rep, eta_prime = instance(_suite_rng(seed, idx, i), i, 24)[:5]
            if cov.Q is None:
                Q = np.linalg.qr(rng.standard_normal((cov.n, cov.n)))[0]
                cov = verify._Cov(d=cov.d, Q=np.ascontiguousarray(Q))
            inst = _with_pencil(H, Hc, cov, rep, eta_prime)
            assert check(inst) == check(_turned(name, inst)), (name, i)


def test_only_whiten_reads_the_basis_and_no_check_branches_on_type():
    """The form of a whitened matrix is picked in one place: in ``verify``,
    the attribute ``.Q`` is read only inside ``_Cov``, and no function but
    ``_lwork`` (on a LAPACK output) calls ``isinstance``, so no instance or
    check function of ``_SUITES`` does."""
    tree = ast.parse(inspect.getsource(verify))
    reads_q, branches = set(), set()
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "Q" and isinstance(node.ctx, ast.Load):
                reads_q.add(name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                branches.add(name)
    assert reads_q == {"_Cov"}, reads_q
    assert branches == {"_lwork"}, branches
    suite_functions = {f.__name__ for _, instance, check in _SUITES for f in (instance, check)}
    assert not suite_functions & branches


def test_verify_refuses_n_max_past_the_byte_cap():
    """An ``n_max`` whose samples would not fit the byte cap is refused
    before anything is drawn; a modest one still runs."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_max = 1000000 needs"):
            run_suite("eigenvalue_stability", samples=1, n_max=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert run_suite("eigenvalue_stability", samples=2, n_max=256).violations == 0


# Stream of each suite whose samples are another suite's draws: the first
# suite of the table that reads the same instance.
SHARED_STREAMS = dict.fromkeys(
    ("whitened_output_trace", "determinant_floor", "eigenvalue_stability", "shell_minimum_floor"),
    verify.VERIFY_STREAM_BASE + SUITE_NAMES.index("stacked_deviation_trace"),
)


def test_group_cells_draw_the_suite_rng_instances():
    """The runner's one Philox per group, set to each sample's counter in
    turn, draws bit for bit the instance ``_suite_rng`` regenerates alone."""
    for idx, (name, instance, _) in enumerate(_SUITES):
        cells = _Cells(3, verify.VERIFY_STREAM_BASE + verify._DRAWN_BY[idx])
        for i in range(4):
            alone = instance(_suite_rng(3, idx, i), i, 24)
            assert pickle.dumps(instance(cells.at(i), i, 24)) == pickle.dumps(alone), (name, i)


def test_suite_draws_do_not_depend_on_the_other_suites():
    """A suite run alone reports what it reports among all nine."""
    together = run_all_suites(samples=6, master_seed=4, n_max=24)
    for name in SUITE_NAMES:
        assert run_suite(name, samples=6, master_seed=4, n_max=24) == together[name], name


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_report_rebuilds_from_its_cells(name):
    """A suite's report is its check on the cells ``(16 + s, i)`` of its own
    stream, one sample at a time, for the five suites that read their own
    draws, and on the first reader's cells for the four that share them;
    ``_suite_rng`` is that cell."""
    idx = SUITE_NAMES.index(name)
    _, instance, check = _SUITES[idx]
    stream = SHARED_STREAMS.get(name, verify.VERIFY_STREAM_BASE + idx)
    margins = []
    for i in range(6):
        assert _suite_rng(2, idx, i).bytes(64) == rng_stream(2, stream, i).bytes(64)
        margins.append(check(instance(rng_stream(2, stream, i), i, 24)))
    assert run_suite(name, samples=6, master_seed=2, n_max=24) == verify._report(name, margins)


@pytest.mark.parametrize("first", sorted(set(verify._DRAWN_BY[1:8])))
def test_one_sample_fits_the_dense_array_count(first):
    """One sample of a channel instance, drawn once and checked by every
    suite that shares it, peaks below ``_DENSE_ARRAYS`` float arrays of order
    ``n_max + K_MAX``, the count the byte-cap refusal rests on at large
    ``n_max``.  The samples are the first three whose block length is
    within 8 of ``n_max`` and, for the channel instance, whose covariance
    has a drawn basis (the dense route), so the bound is near tight."""
    n_max = 256
    names = [name for j, name in enumerate(SUITE_NAMES) if verify._DRAWN_BY[j] == first]
    rng = lambda seed: _suite_rng(seed, first, 0)

    def near(seed):
        if verify._random_channel(rng(seed), n_max)[2] < n_max - 8:
            return False
        return "stacked_deviation_trace" not in names or verify._channel_instance(rng(seed), 0, n_max)[2].Q is not None

    for seed in itertools.islice(filter(near, itertools.count()), 3):
        tracemalloc.start()
        try:
            verify._run(names, 1, seed, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < verify._DENSE_ARRAYS * 8 * (n_max + verify.K_MAX) ** 2, (names, seed, peak)


@pytest.mark.parametrize("n_max", [8, 32, 128])
def test_sample_bytes_bound_every_suite_at_small_n_max(n_max):
    """At small ``n_max`` the fixed part of a sample, ``_SAMPLE_FIXED``,
    weighs most: every suite group peaks (traced) below
    ``_sample_bytes(n_max)``, the byte-cap estimate."""
    groups = {}
    for j, name in enumerate(SUITE_NAMES):
        groups.setdefault(verify._DRAWN_BY[j], []).append(name)
    for names in groups.values():
        for seed in range(3):
            tracemalloc.start()
            try:
                verify._run(names, 2, seed, n_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < verify._sample_bytes(n_max), (names, seed, peak)
