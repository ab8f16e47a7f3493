#!/usr/bin/env python
"""Standalone reference-value oracle.

Recomputes the frozen constants used in the test suite with methods that are
independent of the isicap package: 2^20-point trapezoid quadrature with one
Richardson extrapolation step, brute-force bisection for water levels, and
direct scalar formula evaluation.  The output is Python: one ``NAME =
value`` line per constant of ``tests/reference_values.py``, under its name
there, with diagnostics as comments, so the lines can be pasted into that
file as they are.  Never import isicap here.

    python3 scripts/compute_reference_values.py
"""

import numpy as np

LOG2E = 1.0 / np.log(2.0)


def f_sq_grid(c, npts):
    """|f(omega)|^2 on a uniform periodic grid of npts points."""
    omega = 2.0 * np.pi * np.arange(npts) / npts
    ell = np.arange(len(c))
    re = np.cos(np.outer(omega, ell)) @ c
    im = np.sin(np.outer(omega, ell)) @ c
    return re**2 + im**2


def periodic_mean(values):
    # trapezoid on a periodic grid = plain mean (no endpoint duplication)
    return float(np.mean(values))


def richardson(fn, c, npts):
    """fn(f_sq) averaged at npts and 2*npts points, Richardson-combined."""
    coarse = periodic_mean(fn(f_sq_grid(c, npts)))
    fine = periodic_mean(fn(f_sq_grid(c, 2 * npts)))
    return fine + (fine - coarse) / 3.0, abs(fine - coarse)


def g_of_theta(theta, fsq):
    return periodic_mean(np.maximum(theta - 1.0 / fsq, 0.0))


def bisect(fn, lo, hi, iters=200):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return 0.5 * (lo + hi)


def _literal(value):
    if isinstance(value, (tuple, list, np.ndarray)):
        return "(" + ", ".join(repr(float(v)) for v in value) + ")"
    return repr(int(value)) if isinstance(value, int) else repr(float(value))


def emit(name, value, note=""):
    """One pasteable line ``NAME = value``, with ``note`` as a comment."""
    print(f"{name} = {_literal(value)}" + (f"  # {note}" if note else ""))


def main():
    npts = 1 << 20
    c_ex = np.array([1.0, 0.5, 0.5])
    r_ex = np.array([1e-3, 1e-3, 1e-3])
    fsq = f_sq_grid(c_ex, npts)
    emit("EXAMPLE_K", len(c_ex) - 1)
    emit("EXAMPLE_C", c_ex)
    emit("EXAMPLE_R", r_ex)

    # spectrum extrema: |f|^2 = 2u^2 + 1.5u + 0.5 with u = cos(omega),
    # minimized at u = -3/8 -> alpha^2 = 7/32; maximum at u = 1 -> beta = 2
    alpha_sq = 7.0 / 32.0
    alpha = np.sqrt(alpha_sq)
    beta = 2.0
    emit("ALPHA_EXAMPLE", alpha, f"sqrt(7/32); grid min |f|^2 = {float(fsq.min())!r}")
    emit("BETA_EXAMPLE", np.sqrt(fsq.max()), "sqrt of the grid max |f|^2, attained at zero frequency")

    J, err = richardson(lambda v: 1.0 / v, c_ex, npts)
    emit("J_EXAMPLE", J, f"Richardson error estimate {err:.3e}")

    # water level at P = 0.1 (below the closed-form region 1/alpha^2 - J)
    P_small = 0.1
    theta1_small = bisect(lambda t: g_of_theta(t, fsq) - P_small,
                          1.0 / beta**2, 1.0 / alpha_sq)
    emit("THETA1_P_0_1", theta1_small, f"water level at P = 0.1 W; residual g - P = "
         f"{g_of_theta(theta1_small, fsq) - P_small:.3e}")

    # capacity at P = 100 W (20 dBW): theta1 = P + J (closed-form region)
    P100 = 100.0
    theta1_100 = P100 + J
    fine = f_sq_grid(c_ex, 2 * npts)
    coarse_v = periodic_mean(0.5 * np.log2(np.maximum(theta1_100 * fsq, 1.0)))
    fine_v = periodic_mean(0.5 * np.log2(np.maximum(theta1_100 * fine, 1.0)))
    C0_100 = fine_v + (fine_v - coarse_v) / 3.0
    emit("C0_P100", C0_100, f"capacity at P = 100 W; error estimate {abs(fine_v - coarse_v):.3e}")

    # saturation power and delta_2 at P_sat for the example channel
    norm_r_sq = float(np.sum(r_ex**2))
    r_s = float(np.sum(r_ex))
    b_ex = (2.0 / 3.0) / norm_r_sq
    P_sat = b_ex - 2.0 * J
    emit("P_SAT_W", P_sat)
    emit("P_SAT_DBW", 10.0 * np.log10(P_sat))
    theta2 = b_ex - J
    I2 = 2.0 * theta2 - b_ex
    d_min2 = max(theta2 - 1.0 / alpha_sq, 0.0)
    d_max2 = max(theta2 - 1.0 / beta**2, 0.0)
    s = r_s * (r_s + 2.0 * beta)
    delta2 = (-0.5 * np.log2(1.0 - s * d_max2 / (1.0 + alpha_sq * d_min2))
              + 0.5 * LOG2E * (1.0 - max(1.0 - s * I2, 0.0) / (1.0 + s * d_max2)))
    emit("DELTA2_AT_PSAT", delta2)

    # corollary-2 gap for the example channel
    gap2 = 1.0 + 0.5 * LOG2E - 0.5 * np.log2(1.0 - s / alpha_sq)
    emit("GAP_COR2_EXAMPLE", gap2)

    # pillow bound at P = 1000 W (30 dBW), r_s = 1e-3
    P1000 = 1000.0
    rs1 = 1e-3
    theta1_1000 = P1000 + J
    d_min1 = max(theta1_1000 - 1.0 / alpha_sq, 0.0)
    d_max1 = max(theta1_1000 - 1.0 / beta**2, 0.0)
    s1 = rs1 * (rs1 + 2.0 * beta)
    t1 = np.log2(1.0 + 1.5 * rs1**2 * P1000)
    t2 = -0.5 * np.log2(1.0 - s1 * d_max1 / (1.0 + alpha_sq * d_min1))
    t3 = 0.5 * LOG2E * (1.0 - max(1.0 - s1 * P1000, 0.0) / (1.0 + s1 * d_max1))
    emit("PILLOW_TERMS_30DBW", (t1, t2, t3))
    emit("PILLOW_SUM_30DBW", t1 + t2 + t3)

    # flat channel k=0, c=(1), r=(0.5): h(theta) = g(theta) - 2 theta + 8,
    # g(theta) = (theta - 1)^+ -> root at theta = 7
    b_flat = (2.0 / 1.0) / 0.25
    theta2_flat = bisect(lambda t: max(t - 1.0, 0.0) - 2.0 * t + b_flat,
                         0.0, 100.0)
    emit("THETA2_FLAT_R05", theta2_flat)


if __name__ == "__main__":
    main()
