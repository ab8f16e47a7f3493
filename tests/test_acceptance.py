"""End-to-end acceptance battery.

Each test checks one headline behavior at its stated tolerance and prints a
single ``[PASS]``/``[FAIL]`` line (routed past pytest's capture) so the
battery doubles as a human-readable report:

    python3 -m pytest tests/test_acceptance.py -q
"""

import math
import time

import numpy as np
import pytest

from isicap import (
    ChannelSpec,
    bound_report,
    capacity_C0,
    compute_profile,
    converse_rate_bound,
    finite_n_bound,
    pillow_terms,
    rng_stream,
    run_all_suites,
    run_error_experiment,
    solve_theta1,
)
from isicap.cli import main
from isicap.verify import _Dense
from isicap.waterfill import LN2, POWER_FLOOR, cap_integral

from oracles import shell_min_oracle
from reference_values import EXAMPLE_C, EXAMPLE_K, EXAMPLE_R

EXAMPLE = ChannelSpec(k=EXAMPLE_K, c=EXAMPLE_C, r=EXAMPLE_R)


@pytest.fixture
def report(capsys):
    """Prints one pass/fail line per criterion through the capture barrier,
    then enforces it."""

    def emit(num: int, name: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_saturation_power(tmp_path, report):
    t0 = time.perf_counter()
    out = tmp_path / "sat.csv"
    rc = main(["bounds", "--out", str(out), "--grid", "30:30:1"])
    rows = _read_rows(out)
    dt = time.perf_counter() - t0
    psat = float(rows[0]["Psat_dBW"])
    ok = rc == 0 and abs(psat - 53.47) <= 0.05 and dt < 1.0
    report(1, "saturation_power", ok,
          f"P_sat = {psat:.5f} dBW (target 53.47 +/- 0.05), {dt:.2f} s")


def test_route_gap_constant(tmp_path, report):
    t0 = time.perf_counter()
    out = tmp_path / "gap.csv"
    rc = main(["bounds", "--out", str(out), "--grid", "30:30:1"])
    rows = _read_rows(out)
    dt = time.perf_counter() - t0
    gap = float(rows[0]["gap_cor2"])
    ok = rc == 0 and abs(gap - 1.7621) <= 0.001 and dt < 1.0
    report(2, "power_free_gap", ok,
          f"gap_cor2 = {gap:.6f} bits (target 1.7621 +/- 0.001), {dt:.2f} s")


def test_spectrum_extrema(report):
    """beta holds the exact maximum 2 from above, within twice the rounding
    bound ``delta = (2 pi + 1)(k + 1) eps sum|c|`` that widens it."""
    profile = compute_profile(EXAMPLE)
    delta = (2.0 * math.pi + 1.0) * (EXAMPLE_K + 1) * float(np.finfo(float).eps) * sum(map(abs, EXAMPLE_C))
    ok = abs(profile.alpha - 0.4677) <= 1e-4 and 2.0 <= profile.beta <= 2.0 + 2.0 * delta
    report(3, "spectrum_extrema", ok,
          f"alpha = {profile.alpha:.6f} (target 0.4677 +/- 1e-4), "
          f"beta = {profile.beta} (2 to 2 + 2 delta = {2.0 + 2.0 * delta!r} required)")


def test_capacity_sweep_shape(tmp_path, report):
    t0 = time.perf_counter()
    out = tmp_path / "sweep.csv"
    rc = main(["figure2", "--out", str(out), "--grid", "0:56:100"])
    rows = _read_rows(out)
    dt = time.perf_counter() - t0
    gaps_low = [
        float(r["C0"]) - float(r["C_LB1"])
        for r in rows
        if float(r["P_dBW"]) <= 45.0
    ]
    lb2 = [float(r["C_LB2"]) for r in rows if r["C_LB2"]]
    rep = bound_report(EXAMPLE, bound_report(EXAMPLE, 1.0).P_sat)
    endpoint = abs(rep.C_LB1 - rep.C_LB2)
    ok = (
        rc == 0
        and dt < 10.0
        and max(gaps_low) < 1.0
        and len(lb2) >= 2
        and max(lb2) - min(lb2) <= 1e-9
        and endpoint <= 1e-6
    )
    report(4, "capacity_sweep_shape", ok,
          f"max C0-C_LB1 = {max(gaps_low):.4f} < 1 for P <= 45 dBW over "
          f"{len(gaps_low)}/{len(rows)} rows, C_LB2 spread = "
          f"{max(lb2) - min(lb2):.2e}, |C_LB1(P_sat)-C_LB2| = {endpoint:.2e}, "
          f"{dt:.2f} s")


def test_gap_term_plateau(report):
    P = 1000.0  # 30 dBW
    profile = compute_profile(EXAMPLE)
    r_star = -profile.beta + math.sqrt(profile.beta ** 2 + 1.0 / P)
    t3 = pillow_terms(profile, EXAMPLE, P, r_star)[2]
    plateau = 0.5 / LN2
    ok = abs(t3 - 0.72135) <= 1e-5 and t3 == plateau
    report(5, "gap_term_plateau", ok,
          f"third term = {t3:.10f} at r_s = {r_star:.4e} "
          f"(cap 1/(2 ln 2) = {plateau:.10f})")


def test_degenerate_reductions(report):
    rng = np.random.default_rng(314)
    worst = 0.0
    tried = 0
    while tried < 20:
        k = int(rng.integers(1, 5))
        c = rng.uniform(-1.0, 1.0, k + 1)
        if np.abs(c).max() < 0.1:
            continue
        spec = ChannelSpec(k=k, c=tuple(c), r=tuple([0.0] * (k + 1)))
        try:
            profile = compute_profile(spec)
        except Exception:
            continue
        if profile.alpha < 0.05 * profile.beta:
            continue
        P = float(rng.uniform(0.5, 50.0))
        rep = bound_report(spec, P)
        worst = max(worst, abs(rep.C_LB1 - rep.C0))
        tried += 1
    awgn = ChannelSpec(k=0, c=(1.0,), r=(0.0,))
    awgn_profile = compute_profile(awgn)
    worst_awgn = max(
        abs(capacity_C0(awgn_profile, awgn, P) - 0.5 * math.log2(1.0 + P))
        for P in (1.0, 3.0, 15.0)
    )
    ok = worst <= 1e-10 and worst_awgn <= 1e-12
    report(6, "degenerate_reductions", ok,
          f"zero-radius max |C_LB1 - C0| = {worst:.2e} over 20 channels "
          f"(tol 1e-10), memoryless max |C0 - half*log2(1+P)| = "
          f"{worst_awgn:.2e} (tol 1e-12)")


def test_matrix_fact_suites(report):
    t0 = time.perf_counter()
    reports = run_all_suites(samples=200, master_seed=0, n_max=64)
    dt = time.perf_counter() - t0
    required = (
        "centre_matrix_norm",
        "deviation_matrix_norm",
        "stacked_deviation_trace",
        "whitened_output_trace",
        "determinant_floor",
        "shell_minimum_floor",
        "shell_volume_bounds",
    )
    missing = [name for name in required if name not in reports]
    violations = sum(r.violations for r in reports.values())
    ok = not missing and violations == 0 and dt < 60.0
    report(7, "matrix_fact_suites", ok,
          f"{len(reports)} suites x 200 samples, {violations} violations, "
          f"{dt:.1f} s (< 60 s)")


def test_shell_minimum_exactness(report):
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(20):
        m = int(rng.integers(2, 9))
        Q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
        Q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
        oc = (Q1 * rng.uniform(0.5, 2.0, m)) @ Q1.T
        oh = (Q2 * rng.uniform(0.5, 2.0, m)) @ Q2.T
        eta = float(rng.uniform(0.0, 0.9))
        got = m * (1.0 - eta) / float(_Dense.pencil(oc, oh)[-1])
        ref = shell_min_oracle(oc, oh, m * (1.0 - eta), seed=i)
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    ok = worst <= 1e-6
    report(8, "shell_minimum_exactness", ok,
          f"eigen solve vs projected-gradient oracle: worst rel diff = "
          f"{worst:.2e} over 20 instances (tol 1e-6)")


def _szego_log2_E(c):
    """``log2 E`` of the strong Szego limit theorem for the symbol
    ``|f|^2``, ``E = prod_{i,j} (1 - w_i conj(w_j))^-1`` over the roots
    ``w`` of ``f`` reflected into the disk, and their largest modulus
    ``rho``: roots from ``np.roots``, no package code."""
    z = np.roots(np.asarray(c, dtype=float)[::-1])
    w = np.where(np.abs(z) < 1.0, z, 1.0 / np.conj(z))
    E = 1.0 / np.prod(1.0 - np.multiply.outer(w, np.conj(w)))
    return math.log2(E.real), float(np.abs(w).max(initial=0.0))


def test_toeplitz_asymptotics(report):
    """Where every Gram eigenvalue is in the water (``P = 10 / alpha^2``),
    ``first_term = 1/2 log2 theta_n + log2 det T_n / (2n)`` exactly, and
    the strong Szego theorem gives ``log det T_n = n mean log |f|^2 + log E
    + O(rho^2n)``: so ``first_term - cap_integral(theta_n)`` is
    ``log2(E) / (2n)`` (1/(2n) on EXAMPLE, where E = 2) to 1e-12, at every
    n here with ``rho^2n < 1e-14``, on EXAMPLE and three random channels."""
    rng = np.random.default_rng(2021)
    channels = [EXAMPLE]
    for k in (1, 2, 4):
        c = rng.uniform(-1.0, 1.0, k + 1)
        c[0] += 2.0  # keeps |f| away from zero
        channels.append(ChannelSpec(k=k, c=tuple(c), r=(1e-6,) * (k + 1)))
    worst, checked = 0.0, 0
    for spec in channels:
        log2_E, rho = _szego_log2_E(spec.c)
        P = 10.0 / compute_profile(spec).alpha ** 2
        for n in (64, 128, 256, 512):
            if rho ** (2 * n) >= 1e-14:
                continue
            fn = finite_n_bound(spec, n, P)
            assert fn.d.size == n and fn.d.min() > POWER_FLOOR
            diff = fn.first_term - cap_integral(compute_profile(spec), fn.theta)
            worst = max(worst, abs(diff - log2_E / (2 * n)))
            checked += 1
    assert abs(_szego_log2_E(EXAMPLE.c)[0] - 1.0) < 1e-14
    ok = worst <= 1e-12 and checked >= 12
    report(9, "toeplitz_asymptotics", ok,
          f"first term - level-matched integral vs log2(E)/(2n): worst abs diff = "
          f"{worst:.2e} over {checked} (channel, n) pairs (tol 1e-12)")


def test_decoder_error_trend(report):
    t0 = time.perf_counter()
    P = 0.1  # low power keeps exhaustive codebooks tiny
    R = 0.25 * bound_report(EXAMPLE, P).C_LB1
    results = {
        n: run_error_experiment(
            EXAMPLE, n=n, R=R, P=P, trials=500, master_seed=0, threads=1
        )
        for n in (64, 128, 256)
    }
    dt = time.perf_counter() - t0
    pe = {n: res.error_rate for n, res in results.items()}
    ok = (
        pe[64] > pe[128] > pe[256]
        and results[64].wilson_lo > results[256].wilson_hi
        and dt < 600.0
    )
    report(10, "decoder_error_trend", ok,
          f"R = {R:.4f} bits, p_e = {pe[64]:.3f}/{pe[128]:.3f}/{pe[256]:.3f} "
          f"at n = 64/128/256, Wilson n=64 lo {results[64].wilson_lo:.3f} > "
          f"n=256 hi {results[256].wilson_hi:.3f}, {dt:.0f} s")


def test_converse_saturation_trend(report):
    spec = ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(0.5, 0.5, 0.5))
    signs = rng_stream(7, 2, 0).choice(np.array([-1.0, 1.0]), size=(64, 128))
    ceilings = []
    for p_dbw in (10.0, 20.0, 30.0, 40.0):
        P = 10.0 ** (p_dbw / 10.0)
        ceilings.append(converse_rate_bound(spec, P, signs * math.sqrt(P)).ceiling)
    diffs = np.diff(ceilings)
    ok = bool(diffs[0] > diffs[1] > diffs[2])
    report(11, "converse_saturation_trend", ok,
          "ceiling increments per 10 dB: "
          + "/".join(f"{d:+.4f}" for d in diffs)
          + " strictly decreasing")
