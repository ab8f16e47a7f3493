import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isicap import (
    ChannelSpec,
    bound_report,
    build_sigma,
    capacity_C0,
    compute_profile,
    dbw_to_watts,
    finite_n_bound,
    gram_eigenvalues,
    pillow_terms,
    solve_theta1,
    solve_theta2,
    watts_to_dbw,
)
from isicap import spectrum, waterfill
from isicap.errors import BoundInapplicable
from isicap.spectrum import DEFAULT_GRID, f_sq_table
from isicap.waterfill import (
    LN2,
    POWER_FLOOR,
    bound_grid,
    cap_integral,
    pillow_grid,
    thresholds,
    waterfill_powers,
)

from oracles import cap_grid_oracle, exact_waterfill_level, g_grid_oracle
from reference_values import (
    C0_P100,
    DELTA2_AT_PSAT,
    GAP_COR2_EXAMPLE,
    J_EXAMPLE,
    P_SAT_DBW,
    P_SAT_W,
    PILLOW_SUM_30DBW,
    PILLOW_TERMS_30DBW,
    THETA1_P_0_1,
    THETA2_FLAT_R05,
)

# quadrature differences between the 8192-panel grid and the reference
# 2**20-point integrator only matter where the integrand has a kink
LEVEL_TOL = 1e-6
RESIDUAL_REL = 1e-13
# centre taps with k = 1..4 and no spectral zero
RESIDUAL_CHANNELS = (
    (1.0, 0.5),
    (1.0, 0.5, 0.5),
    (1.0, -0.6, 0.3, 0.1),
    (1.0, 0.3, -0.2, 0.1, 0.05),
)


def test_theta1_reference_level(example_spec, example_profile):
    theta = solve_theta1(example_profile, example_spec, 0.1)
    assert theta == pytest.approx(THETA1_P_0_1, abs=LEVEL_TOL)
    resid = g_grid_oracle(example_spec.c, theta) - 0.1
    assert abs(resid) <= RESIDUAL_REL


def test_theta1_closed_form_above_spectrum(example_spec, example_profile):
    # with full coverage the level is an exact shift of the power
    theta = solve_theta1(example_profile, example_spec, 100.0)
    assert theta == 100.0 + example_profile.J
    assert waterfill._depths(example_profile, theta)[1] == pytest.approx(theta - 0.25, rel=1e-12)


@pytest.mark.parametrize("c", RESIDUAL_CHANNELS)
def test_theta1_residual_below_closed_form(c):
    spec = ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c))
    prof = compute_profile(spec)
    top = 1.0 / prof.alpha ** 2 - prof.J
    # from the first wet segment (P << 1) up to just below the closed form
    for P in [*np.geomspace(1e-12, 0.5, 24) * top, top * (1.0 - 1e-9)]:
        theta = solve_theta1(prof, spec, P)
        resid = g_grid_oracle(c, theta) - P
        assert abs(resid) <= RESIDUAL_REL * max(1.0, P)


@pytest.mark.parametrize("c", RESIDUAL_CHANNELS)
def test_theta2_residual_below_closed_form(c):
    k = len(c) - 1
    centre = compute_profile(ChannelSpec(k=k, c=c, r=(0.0,) * (k + 1)))
    ceiling = 1.0 / centre.alpha ** 2 + centre.J
    # radii that put b midway between the spectral floor and the closed form
    b = 0.5 * (2.0 / centre.beta ** 2 + ceiling)
    spec = ChannelSpec(k=k, c=c, r=(math.sqrt(2.0 / b) / (k + 1),) * (k + 1))
    prof = compute_profile(spec)
    b = (2.0 / (k + 1)) / spec.norm_r_sq
    assert b < ceiling
    theta = solve_theta2(prof, spec)
    resid = g_grid_oracle(c, theta) - (2.0 * theta - b)
    assert abs(resid) <= RESIDUAL_REL * max(1.0, b)


def _cap_channels(count, seed=19):
    """Random centre taps with k = 1..4 in turn and ``min|f| >= 0.05 max|f|``."""
    rng = np.random.default_rng(seed)
    while count:
        c = rng.uniform(-1.0, 1.0, count % 4 + 2)
        mag = np.abs(np.fft.fft(c, 1024))
        if mag.min() >= 0.05 * mag.max():
            count -= 1
            yield ChannelSpec(k=len(c) - 1, c=tuple(c), r=(1e-3,) * len(c))


def test_cap_integral_matches_grid_oracle():
    # from a level just over the spectral peak, through the knee, into the
    # closed regime: the table's O(log N) sum against a 30-digit one
    for spec in _cap_channels(20):
        prof = compute_profile(spec)
        knee = 1.0 / prof.alpha ** 2 - prof.J
        v = 1.0 / f_sq_table(spec.c)
        for P in knee * np.array([1e-6, 1e-3, 0.3, 1.0, 10.0]):
            theta = solve_theta1(prof, spec, P)
            want = cap_grid_oracle(v, theta)
            assert abs(cap_integral(spec, theta) - want) <= 1e-13 * want


def test_bound_rows_read_no_grid(monkeypatch):
    # after one row has built the channel's table, a row is O(log N) work
    spec = ChannelSpec(k=3, c=(1.0, -0.6, 0.3, 0.1), r=(2e-4,) * 4)
    prof = compute_profile(spec)
    bound_report(spec, 1.0)

    def no_grid(*args):
        raise AssertionError("a bound row read the grid")

    monkeypatch.setattr(spectrum, "f_sq_table", no_grid)
    for p_dbw in np.linspace(-20.0, 60.0, 161):
        P = dbw_to_watts(p_dbw)
        assert bound_report(spec, P).C0 > 0.0
        assert cap_integral(spec, solve_theta1(prof, spec, P)) > 0.0


def test_water_table_shared_by_centre_taps():
    """Channels that differ only in their radii share one water table: the
    second builds nothing."""
    c = (1.0, -0.35, 0.2, 0.05)
    waterfill.quadrature_grid.cache_clear()
    for r in (1e-3, 0.02):
        bound_report(ChannelSpec(k=3, c=c, r=(r,) * 4), 10.0)
    info = waterfill.quadrature_grid.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def _grid_channels():
    """The default channel and random k = 1..4 ones, two of them with radii
    that flag part of the grid, each with a power grid spanning both
    water-level regimes (closed form from the knee ``1/alpha^2 - J`` up)."""
    specs = [ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(1e-3,) * 3)]
    for i, spec in enumerate(_cap_channels(6, seed=23)):
        specs.append(ChannelSpec(k=spec.k, c=spec.c, r=(0.05 if i < 2 else 1e-3,) * (spec.k + 1)))
    for spec in specs:
        prof = compute_profile(spec)
        knee = 1.0 / prof.alpha ** 2 - prof.J
        yield spec, np.concatenate((knee * np.geomspace(1e-4, 1e3, 61), [knee]))


def _scalar_row(spec, P):
    """``(C0, C_LB1, delta1, gap_cor1)`` at ``P`` from the scalar formulas,
    logs on libm; None past the penalty's ratio 1."""
    prof = compute_profile(spec)
    theta = solve_theta1(prof, spec, P)
    t = waterfill.quadrature_grid(spec.c, DEFAULT_GRID).table
    k = int(np.searchsorted(t.v, theta))
    top = t.v[k - 1]
    C0 = 0.5 * float(t.W[k] * math.log1p((theta - top) / top) / LN2 + t.D[k])
    s = spec.r_s * (spec.r_s + 2.0 * prof.beta)
    d_min, d_max = (max(theta - 1.0 / x ** 2, 0.0) for x in (prof.alpha, prof.beta))
    ratio = s * d_max / (1.0 + prof.alpha ** 2 * d_min)
    if ratio >= 1.0:
        return C0, None, None, None
    delta1 = -0.5 * math.log2(1.0 - ratio) + (0.5 / LN2) * (
        1.0 - max(1.0 - s * P, 0.0) / (1.0 + s * d_max)
    )
    log_term = math.log2(1.0 + 0.5 * (spec.k + 1) * spec.norm_r_sq * P)
    return C0, C0 - log_term - delta1, delta1, log_term + delta1


def _bits(values):
    return [None if v is None else float(v).hex() for v in values]


def test_theta1_array_is_its_scalar_calls():
    # one route per level: an array of powers gives, bit for bit, the floats
    # of one call per power, below the knee and in the closed form
    for spec, P in _grid_channels():
        prof = compute_profile(spec)
        closed = P >= 1.0 / prof.alpha ** 2 - prof.J
        assert 0 < closed.sum() < len(P)
        theta = solve_theta1(prof, spec, P)
        scalars = [solve_theta1(prof, spec, p) for p in P.tolist()]
        assert theta.shape == P.shape and {type(t) for t in scalars} == {float}
        assert _bits(theta) == _bits(scalars)


def test_bound_report_is_the_grid_row():
    # one implementation: each report field is the grid pass's cell and the
    # scalar formula's value, bit for bit, wherever the row sits in the grid
    for spec, P in _grid_channels():
        g = bound_grid(spec, P)
        for i, p in enumerate(P.tolist()):
            rep = bound_report(spec, p)
            ok, sat = bool(g.ok[i]), bool(g.sat[i])
            row = [g.C0[i]] + [c[i] if ok else None for c in (g.C_LB1, g.delta1, g.gap_cor1)]
            fields = [rep.C0, rep.C_LB1, rep.delta1, rep.gap_cor1]
            assert _bits(fields) == _bits(row) == _bits(_scalar_row(spec, p))
            assert (rep.C_LB2, rep.delta2) == ((g.C_LB2, g.delta2) if sat else (None, None))
            assert (rep.P_sat, rep.gap_cor2) == (g.P_sat, g.gap_cor2)


def test_c0_column_matches_grid_oracle():
    for spec, P in _grid_channels():
        prof = compute_profile(spec)
        v = 1.0 / f_sq_table(spec.c)
        C0 = bound_grid(spec, P).C0
        for p, got in zip(P[::8].tolist(), C0[::8].tolist()):
            want = cap_grid_oracle(v, solve_theta1(prof, spec, p))
            assert abs(got - want) <= 1e-12 * want


def test_bound_grid_mask_is_the_ratio_test():
    # a grid flagged only in part: the mask is ratio >= 1 written out
    spec = ChannelSpec(k=1, c=(1.0, 0.5), r=(0.05, 0.05))
    prof = compute_profile(spec)
    s = spec.r_s * (spec.r_s + 2.0 * prof.beta)
    P = [dbw_to_watts(p) for p in np.linspace(0.0, 60.0, 601)]
    flagged = []
    for p in P:
        theta = solve_theta1(prof, spec, p)
        d_min, d_max = (max(theta - 1.0 / x ** 2, 0.0) for x in (prof.alpha, prof.beta))
        flagged.append(s * d_max / (1.0 + prof.alpha ** 2 * d_min) >= 1.0)
    assert 0 < sum(flagged) < len(P)
    assert (~bound_grid(spec, np.array(P)).ok).tolist() == flagged


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_power_refused(example_spec, example_profile, bad):
    with pytest.raises(ValueError, match="non-finite"):
        solve_theta1(example_profile, example_spec, bad)
    with pytest.raises(ValueError, match="non-finite"):
        waterfill_powers(np.array([0.5, 1.0]), bad)


def test_capacity_reference_value(example_spec, example_profile):
    assert capacity_C0(example_profile, example_spec, 100.0) == pytest.approx(
        C0_P100, abs=1e-12
    )


def test_g_equals_shift_above_spectrum(example_spec, example_profile):
    ceiling = 1.0 / example_profile.alpha ** 2
    for theta in (ceiling, 10.0, 5000.0):
        got = g_grid_oracle(example_spec.c, theta)
        assert abs(got - (theta - example_profile.J)) <= 1e-10 * max(1.0, theta)


def test_theta2_flat_closed_form():
    spec = ChannelSpec(k=0, c=(1.0,), r=(0.5,))
    prof = compute_profile(spec)
    theta = solve_theta2(prof, spec)
    assert theta == pytest.approx(THETA2_FLAT_R05, abs=1e-9)
    # b = 2 / 0.25 = 8 and J = 1: the water 2 theta2 - b is P_sat = b - 2J
    assert 2.0 * theta - 8.0 == pytest.approx(6.0, rel=1e-12)
    assert bound_report(spec, 100.0).P_sat == pytest.approx(6.0, rel=1e-12)


def test_theta2_requires_radii(example_profile):
    # zero radii, or a subnormal |r|^2 whose b overflows: no saturation level
    for r in ((0.0, 0.0, 0.0), (1e-155, 0.0, 0.0)):
        spec = ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=r)
        with pytest.raises(ValueError):
            solve_theta2(example_profile, spec)


def test_saturation_power_reference(example_spec):
    psat = bound_report(example_spec, 1.0).P_sat
    assert psat == pytest.approx(P_SAT_W, rel=1e-9)
    assert watts_to_dbw(psat) == pytest.approx(P_SAT_DBW, abs=1e-9)


def test_bound_report_at_saturation(example_spec):
    rep = bound_report(example_spec, P_SAT_W)
    assert rep.C_LB2 is not None
    assert abs(rep.C_LB1 - rep.C_LB2) <= 1e-6
    assert rep.delta2 == pytest.approx(DELTA2_AT_PSAT, abs=1e-9)
    assert rep.gap_cor2 == pytest.approx(GAP_COR2_EXAMPLE, abs=1e-9)
    assert rep.P_sat == pytest.approx(P_SAT_W, rel=1e-9)


def test_bound_report_below_saturation_drops_route2(example_spec):
    rep = bound_report(example_spec, dbw_to_watts(40.0))
    assert rep.C_LB2 is None and rep.delta2 is None
    assert rep.C_LB1 <= rep.C0
    assert rep.gap_cor1 >= rep.C0 - rep.C_LB1 - 1e-9


def test_pillow_reference_terms(example_spec, example_profile):
    t = pillow_terms(example_profile, example_spec, 1000.0, r_s=1e-3)
    for got, want in zip(t, PILLOW_TERMS_30DBW):
        assert got == pytest.approx(want, abs=1e-12)
    assert sum(t) == pytest.approx(PILLOW_SUM_30DBW, abs=1e-12)


def test_pillow_terms_are_the_grid_row(example_spec, example_profile):
    # figure1's pass over radius sums against one-row calls and the scalar
    # formula for the first term, bit for bit, flagged rows included
    rs = np.geomspace(1e-4, 1.0, 33)
    for P in (10.0, 1000.0, 1e5):
        t1, t2, t3, ok = pillow_grid(example_profile, example_spec, P, rs)
        assert 0 < ok.sum() < len(rs)
        for i, r in enumerate(rs.tolist()):
            if not ok[i]:
                with pytest.raises(BoundInapplicable):
                    pillow_terms(example_profile, example_spec, P, r_s=r)
                continue
            want = pillow_terms(example_profile, example_spec, P, r_s=r)
            assert _bits((t1[i], t2[i], t3[i])) == _bits(want)
            assert want[0] == math.log2(1.0 + 0.5 * (example_spec.k + 1) * r * r * P)


def test_pillow_third_term_caps_exactly(example_spec, example_profile):
    P = 1000.0
    beta = example_profile.beta
    rs_cross = -beta + math.sqrt(beta * beta + 1.0 / P)
    above = pillow_terms(example_profile, example_spec, P, r_s=rs_cross * 1.01)[2]
    below = pillow_terms(example_profile, example_spec, P, r_s=rs_cross * 0.5)[2]
    assert above == 0.5 / LN2
    assert below < 0.5 / LN2


def test_delta_routes_agree(example_spec, example_profile):
    # the reported penalty against the penalty written out from the ratios
    for P in (0.1, 3.0, 100.0, P_SAT_W):
        theta = solve_theta1(example_profile, example_spec, P)
        d_min, d_max = waterfill._depths(example_profile, theta)
        # one dimension spending P: phi2 = s trace / m = s P
        m = 1 + example_spec.k
        cov = SimpleNamespace(n=1, lam_min=d_min, lam_max=d_max, trace=P * m)
        rep = thresholds(example_spec, example_profile, cov, P)
        phi1, phi2, phi3 = rep.phi1_n, rep.phi2_n, rep.phi3_n
        via_phi = -0.5 * math.log2(1.0 - phi1) + (0.5 / LN2) * (
            1.0 - max(1.0 - phi2, 0.0) * phi3
        )
        assert bound_report(example_spec, P).delta1 == pytest.approx(via_phi, abs=1e-10)


def test_penalty_rejects_saturated_ratio():
    # r_s * (r_s + 2 beta) * d_max / (1 + alpha^2 d_min) >= 1 at every power:
    # bound_report keeps C0 and leaves the penalty fields empty
    spec = ChannelSpec(k=0, c=(1.0,), r=(5.0,))
    prof = compute_profile(spec)
    for P in (1.0, 100.0):
        rep = bound_report(spec, P)
        assert rep.C0 == capacity_C0(prof, spec, P)
        assert rep.C_LB1 is None and rep.delta1 is None and rep.gap_cor1 is None
        with pytest.raises(BoundInapplicable):
            pillow_terms(prof, spec, P)


@pytest.mark.parametrize("c", RESIDUAL_CHANNELS)
def test_delta1_is_the_pillow_penalty(c):
    # one penalty kernel: bound_report spends I = P, as the gap terms do
    spec = ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c))
    prof = compute_profile(spec)
    top = 1.0 / prof.alpha ** 2 - prof.J
    for P in (1e-3 * top, 0.5 * top, 2.0 * top, 1e4):
        t1, t2, t3 = pillow_terms(prof, spec, P)
        assert bound_report(spec, P).delta1 == t2 + t3


def test_saturation_fields_do_not_move_with_power(example_spec, example_profile):
    b = (2.0 / (example_spec.k + 1)) / example_spec.norm_r_sq
    water = 2.0 * solve_theta2(example_profile, example_spec) - b
    lo, hi = bound_report(example_spec, 1.5 * water), bound_report(example_spec, 40.0 * water)
    fields = ("C_LB2", "delta2", "P_sat", "gap_cor2")
    assert all(getattr(lo, f) is not None for f in fields)
    assert [getattr(lo, f) for f in fields] == [getattr(hi, f) for f in fields]
    assert lo.C_LB1 != hi.C_LB1


def test_zero_radius_bound_collapses_to_capacity():
    spec = ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(0.0, 0.0, 0.0))
    # a subnormal |r|^2 overflows b: no saturation route at any finite power
    tiny = ChannelSpec(k=2, c=spec.c, r=(1e-155, 0.0, 0.0))
    for P in (0.5, 10.0, 1000.0):
        assert bound_report(tiny, P) == bound_report(spec, P)
        rep = bound_report(spec, P)
        assert rep.C_LB1 == rep.C0
        assert rep.delta1 == 0.0
        assert rep.P_sat is None and rep.C_LB2 is None and rep.delta2 is None
        assert rep.gap_cor2 is None


def test_saturation_water_does_not_overflow():
    # b = (2/3)/|r|^2 is about 1.5e308, so 2 theta2 overflows, but the water
    # 2 theta2 - b = b - 2J does not: no power below it saturates
    spec = ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(6.7e-155, 0.0, 0.0))
    rep = bound_report(spec, 1e6)
    assert 1e308 < rep.P_sat < math.inf
    assert rep.C_LB2 is None and rep.delta2 is None
    at = bound_report(spec, rep.P_sat)
    assert math.isfinite(at.C_LB2) and math.isfinite(at.delta2)


def test_awgn_capacity_closed_form():
    spec = ChannelSpec(k=0, c=(1.0,), r=(0.0,))
    prof = compute_profile(spec)
    for P in (0.25, 1.0, 10.0, 1e4):
        assert abs(capacity_C0(prof, spec, P) - 0.5 * math.log2(1.0 + P)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-20.0, max_value=50.0))
def test_dbw_roundtrip(p_dbw):
    assert watts_to_dbw(dbw_to_watts(p_dbw)) == pytest.approx(p_dbw, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0), st.floats(min_value=1.1, max_value=5.0))
def test_theta1_monotone_in_power(P, factor):
    spec = ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(1e-3, 1e-3, 1e-3))
    prof = compute_profile(spec)
    assert solve_theta1(prof, spec, P * factor) > solve_theta1(prof, spec, P)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=4.0), min_size=1, max_size=32),
    st.floats(min_value=0.1, max_value=50.0),
)
def test_waterfill_powers_budget(lams, total):
    lam = np.sort(np.asarray(lams))
    d, theta = waterfill_powers(lam, total)
    assert d.shape == lam.shape
    assert np.all(d >= 1e-12)
    assert np.all(np.diff(d) >= -1e-15)
    assert abs(d.sum() - total) <= 1e-12 * max(1.0, total)
    assert np.all(d >= np.maximum(theta - 1.0 / lam, 1e-12) - 1e-15)
    exact = exact_waterfill_level(lam, total, 1e-12)
    assert abs(Fraction(theta) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("P", [1e-3, 0.1, 10.0])
def test_waterfill_powers_matches_exact_level(example_spec, P):
    # at low power the weakest eigenvalues sit on the floor
    lam = gram_eigenvalues(example_spec, 64)
    d, theta = waterfill_powers(lam, 64 * P)
    exact = exact_waterfill_level(lam, 64 * P, 1e-12)
    assert abs(Fraction(theta) - exact) <= 1e-14 * exact
    assert abs(d.sum() - 64 * P) <= 1e-12 * max(1.0, 64 * P)


def test_waterfill_powers_validation():
    with pytest.raises(ValueError):
        waterfill_powers(np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        waterfill_powers(np.array([np.nan, 1.0]), 1.0)
    with pytest.raises(ValueError):
        waterfill_powers(np.array([1.0]), 0.0)


@pytest.mark.filterwarnings("error")
def test_waterfill_powers_refuses_gains_whose_table_overflows():
    """Gains so small that ``2 n / min(lam)`` overflows are refused, where
    the table's sums would overflow with a warning; a thousandth of that
    ``1/lam`` runs to a finite level that spends the budget."""
    with pytest.raises(ValueError, match="overflow a water table of 1024"):
        waterfill_powers(np.full(1024, 1e-306), 1e306)
    d, theta = waterfill_powers(np.full(1024, 1e-303), 1e306)
    assert math.isfinite(theta) and d.sum() == pytest.approx(1e306, rel=1e-12)


def test_finite_n_requires_full_band(example_spec):
    with pytest.raises(ValueError):
        finite_n_bound(example_spec, 2, 1.0)


def test_finite_n_allocations(example_spec):
    fb = finite_n_bound(example_spec, 64, 5.0)
    assert abs(fb.d.sum() - 64 * 5.0) <= 1e-12 * 64 * 5.0
    assert np.all(np.diff(fb.d) >= -1e-15)
    assert fb.value <= fb.first_term
    assert fb.delta_n >= 0.0


@pytest.mark.parametrize("n", [64, 256, 1024, 1025])
def test_finite_n_bound_shares_the_simulated_spectrum(example_spec, n):
    """The finite-n allocation above the floor is ``build_sigma``'s ``d``,
    sorted, bit for bit: one spectrum and one eigensolve, at -10 dBW."""
    P = dbw_to_watts(-10.0)
    d = finite_n_bound(example_spec, n, P).d
    assert np.array_equal(np.sort(build_sigma(example_spec, n, P).d), d[d > POWER_FLOOR])


def test_finite_n_bound_builds_no_grid(example_spec, monkeypatch):
    """``finite_n_bound`` reads ``alpha`` and ``beta`` alone: neither the
    FFT table nor the quadrature grid is touched."""
    def no_grid(*args):
        raise AssertionError("finite_n_bound read the grid")

    monkeypatch.setattr(spectrum, "f_sq_table", no_grid)
    monkeypatch.setattr(spectrum, "quadrature_grid", no_grid)
    monkeypatch.setattr(waterfill, "quadrature_grid", no_grid)
    fb = finite_n_bound(example_spec, 64, 5.0)
    assert fb.delta_n >= 0.0 and fb.value <= fb.first_term


def test_finite_n_tracks_integral(example_spec):
    # at modest blocklength the eigenvalue sum already hugs the integral
    fb = finite_n_bound(example_spec, 256, 100.0)
    cont = cap_integral(example_spec, fb.theta)
    assert abs(fb.first_term - cont) <= 5e-3


@pytest.mark.parametrize("p_dbw", [4000.0, 3083.0, float("inf"), float("nan")])
def test_dbw_to_watts_refuses_a_non_finite_power(p_dbw):
    """A power whose wattage overflows, or is NaN, raises a ``ValueError``
    naming it instead of an ``OverflowError`` or a silent inf."""
    with pytest.raises(ValueError, match=f"power {p_dbw!r} dBW"):
        dbw_to_watts(p_dbw)
    assert dbw_to_watts(3082.0) == 10.0 ** 308.2
    assert dbw_to_watts(-10.0) == 10.0 ** -1.0


@pytest.mark.parametrize("p_dbw", [-4000.0, -3240.0, -float("inf")])
def test_dbw_to_watts_refuses_a_power_that_underflows(p_dbw):
    """A power whose wattage rounds to 0 W raises a ``ValueError`` naming
    it."""
    with pytest.raises(ValueError, match=f"power {p_dbw!r} dBW underflows to 0 W"):
        dbw_to_watts(p_dbw)


@pytest.mark.parametrize("p_dbw", [-3230.0, -3100.0, -3076.53])
def test_dbw_to_watts_refuses_a_subnormal_wattage(p_dbw):
    """A wattage below the smallest normal float (about -3076.5 dBW), a
    subnormal that no column can resolve, raises a ``ValueError`` naming
    the power; the normal wattages just above it are kept."""
    with pytest.raises(ValueError, match=f"power {p_dbw!r} dBW underflows to .* below the smallest normal"):
        dbw_to_watts(p_dbw)
    assert dbw_to_watts(-3076.52) >= sys.float_info.min
    assert dbw_to_watts(-3076.0) == 10.0 ** -307.6
