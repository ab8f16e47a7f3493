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
from isicap.channel_sim import _cells, rng_stream
from isicap.verify import (
    _ETAS,
    _SUITES,
    _band_op_norm,
    _lemma1,
    _op_norm,
    _pencil,
    _sample_banded,
    _shell_volume,
    _suite_rng,
    holds,
)

from oracles import dense_check_oracle, shell_min_oracle, shell_volume_oracle


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
    """``_op_norm`` is numpy's largest singular value, at most the
    Frobenius norm and at least every column's two-norm."""
    op = _op_norm(M)
    assert op == pytest.approx(float(np.linalg.norm(M, 2)), rel=1e-12, abs=1e-12)
    assert op <= float(np.linalg.norm(M)) * (1.0 + 1e-9) + 1e-12
    col = float(np.sqrt((M * M).sum(axis=0)).max())
    assert col <= op * (1.0 + 1e-9) + 1e-9


def test_op_norm_orthogonal_block():
    for shape in ((5, 5), (7, 3)):
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal(shape))
        assert _op_norm(Q) == pytest.approx(1.0, abs=1e-10)
        assert _op_norm(Q.T) == pytest.approx(1.0, abs=1e-10)


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
    return len(oc) * (1.0 - eta) / float(_pencil(oc, oh)[-1])


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
    E = BandedChannelMatrix(n=12, k=1, taps=taps)
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
    """A sampled channel's taps are bit for bit ``c + uniform(-1, 1) r``
    drawn from a twin generator, row by row over the ``n + k`` outputs, and
    the generator is left where that draw leaves it."""
    for n in (1, 12, 65):
        rng, twin = np.random.default_rng(n), np.random.default_rng(n)
        taps = _sample_banded(rng, spec, n).taps
        want = np.asarray(spec.c) + twin.uniform(-1.0, 1.0, (n + spec.k, spec.k + 1)) * np.asarray(spec.r)
        assert taps.tobytes() == want.tobytes()
        assert rng.random() == twin.random()


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
    assert _op_norm(M) ** 2 <= row_sum * (1.0 + 1e-9) + 1e-12


CHANNEL_SUITES = (
    "centre_matrix_norm",
    "deviation_matrix_norm",
    "stacked_deviation_trace",
    "whitened_output_trace",
    "determinant_floor",
    "eigenvalue_stability",
    "shell_minimum_floor",
)


@pytest.mark.parametrize("n_max", [24, 256])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_channel_checks_match_dense_oracle(seed, n_max):
    """Each channel check's margin is its dense textbook form's ``rhs - lhs``
    to ``1e-9 max(|lhs|, |rhs|) + 1e-12`` (the eigenvalue-stability margin
    ``op - gap`` cancels, so it gets the scale of its terms), with the same
    pass/fail decision."""
    for idx, (name, instance, check) in enumerate(_SUITES):
        if name not in CHANNEL_SUITES:
            continue
        for i in range(5):
            inst = instance(_suite_rng(seed, idx, i), i, n_max)
            margin, ok = check(inst)
            lhs, rhs = dense_check_oracle(name, inst)
            scale = max(abs(lhs), abs(rhs))
            assert abs(margin - (rhs - lhs)) <= 1e-9 * scale + 1e-12, (name, i)
            assert ok == (lhs <= rhs + 1e-9 * abs(rhs) + 1e-12), (name, i)


@pytest.mark.parametrize("k", range(5))
def test_band_op_norm_matches_dense(k):
    rng = np.random.default_rng(k)
    for n in (k + 1, k + 2, 64, 257):
        M = BandedChannelMatrix(n=n, k=k, taps=rng.uniform(-1.0, 1.0, (n + k, k + 1)))
        assert _band_op_norm(M) == pytest.approx(_op_norm(M.dense()), rel=1e-13, abs=0.0)


def _turned(name, inst):
    """The same check's instance in the standard basis: ``(H Q, Hc Q,
    diag(d))``, with the pencil eigenvalues recomputed there; the stacked
    trace reads only ``H - Hc``, so it gets ``((H - Hc) Q, 0)``."""
    H, Hc, cov, rep, eta_prime = inst[:5]
    if name == "stacked_deviation_trace":
        H, Hc = H - Hc, np.zeros_like(Hc)
    H, Hc, cov = H @ cov.Q, Hc @ cov.Q, verify._Cov(d=cov.d, Q=None)
    return _with_pencil(H, Hc, cov, rep, eta_prime)


def _with_pencil(H, Hc, cov, rep, eta_prime):
    """A channel instance of these draws: the whitened matrices and the
    pencil eigenvalues computed from them, as ``_channel_instance`` does."""
    W, Wc = cov.whiten(H), cov.whiten(Hc)
    return H, Hc, cov, rep, eta_prime, verify._pencil(*verify._omegas(Wc, W)), W, Wc


@pytest.mark.parametrize("seed", [0, 1])
def test_drawn_basis_checks_equal_standard_basis_checks(seed):
    """A check on ``(H, Hc, Q diag(d) Q')`` is bit for bit the same check on
    ``(H Q, Hc Q, diag(d))``: the drawn basis enters only through the one
    product ``whiten``.  A standard-basis draw gets a random ``Q`` here.
    The pencil is recomputed in each basis, so the three checks that read
    it are compared too."""
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
        cells = _cells(3, verify.VERIFY_STREAM_BASE + verify._DRAWN_BY[idx], range(4))
        for i, rng in enumerate(cells):
            alone = instance(_suite_rng(3, idx, i), i, 24)
            assert pickle.dumps(instance(rng, i, 24)) == pickle.dumps(alone), (name, i)


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
    within 8 of ``n_max``, so the bound is near tight."""
    n_max = 256
    names = [name for j, name in enumerate(SUITE_NAMES) if verify._DRAWN_BY[j] == first]
    block_len = lambda seed: verify._random_channel(_suite_rng(seed, first, 0), n_max)[2]
    near = (seed for seed in itertools.count() if block_len(seed) >= n_max - 8)
    for seed in itertools.islice(near, 3):
        tracemalloc.start()
        try:
            verify._run(names, 1, seed, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < verify._DENSE_ARRAYS * 8 * (n_max + verify.K_MAX) ** 2, (names, seed, peak)


@pytest.mark.parametrize("n_max", [8, 32, 128])
def test_sample_bytes_bound_every_suite_at_small_n_max(n_max):
    """At small ``n_max`` the spectrum grid, not the dense arrays, sets a
    sample's peak: every suite group, run with the spectrum caches cold,
    peaks (traced) below ``_sample_bytes(n_max)``, the byte-cap estimate,
    and above its dense part alone at n_max = 8 and 32."""
    groups = {}
    for j, name in enumerate(SUITE_NAMES):
        groups.setdefault(verify._DRAWN_BY[j], []).append(name)
    dense = verify._DENSE_ARRAYS * 8 * (n_max + verify.K_MAX) ** 2
    worst = 0
    for names in groups.values():
        for seed in range(3):
            for cache in (spectrum._f_sq_table, spectrum._centre_profile, spectrum.simpson_weights):
                cache.cache_clear()
            tracemalloc.start()
            try:
                verify._run(names, 2, seed, n_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < verify._sample_bytes(n_max), (names, seed, peak)
            worst = max(worst, peak)
    assert n_max == 128 or worst > dense
