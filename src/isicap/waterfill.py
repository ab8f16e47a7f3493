"""Water-filling levels and capacity bounds for the interval ISI channel.

Two water levels drive everything:

* ``theta1`` spends the full power budget ``P`` against the inverse centre
  spectrum (the classical water-filling level);
* ``theta2`` is the level at which the radius-driven penalty terms stop
  rewarding extra power (the saturation level); it exists only when the tap
  radii are non-zero and the implied per-dimension power stays positive.

Each level is a number with one route, ``solve_theta1`` (an array of
powers gives an array) and ``solve_theta2``; every bound reads them from
one ``spectrum.QuadratureGrid`` record, and the adapters that also take
``(spec, grid_size)`` refuse a record not of ``(spec.c, grid_size)``.

From a level we get the rate integral ``C0``, the tap-uncertainty penalty
``delta`` (one kernel, ``_penalty``) and the bounds the CLI serializes; a
finite-blocklength variant water-fills ``build_sigma``'s Gram eigenvalues
in place of the integral, and ``thresholds`` holds its finite-n constants.

No level is found by iteration, and no bound reads the grid.  The water
``g(theta)`` on the quadrature grid is a weighted sum of ``max(theta - v_j,
0)`` over the sorted inverse spectrum ``v_j``, piecewise linear in
``theta`` (Palomar & Fonollosa, IEEE TSP 2005); the finite-blocklength
allocation is the same sum with unit weights.  The record's water table
holds prefix sums of the weights and of the weighted breakpoints, the water
at each breakpoint, and a rate prefix summed from non-negative ``log1p``
steps.  ``finite_n_bound`` reads ``alpha`` and ``beta`` alone, no grid.  A
power grid is one array pass (``bound_grid``; ``pillow_grid`` over powers
and radius sums): one ``searchsorted`` gives every level (``P + J`` above
the top breakpoint), a second every ``C0``; ``bound_report`` and
``pillow_terms`` are one-row calls.  Logs run on libm (numpy's may differ
by an ulp) for the byte contract: a value is the same bit for bit in a grid
or alone.  The saturation route (``theta2``, ``C_LB2``, ``delta2``,
``P_sat``, ``gap_cor2``) is cached per channel.

All rates are in bits (logs base 2); powers are in watts, with dBW helpers
for the CLI surface.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .errors import BoundInapplicable
from .spectrum import (
    DEFAULT_GRID,
    LN2,
    ChannelSpec,
    Extrema,
    QuadratureGrid,
    _WaterTable,
    _water_table,
    checked_extrema,
    compute_profile,
    gram_eigenvalues,
)

__all__ = [
    "BoundReport",
    "FiniteNBound",
    "ThresholdReport",
    "watts_to_dbw",
    "dbw_to_watts",
    "solve_theta1",
    "solve_theta2",
    "capacity_C0",
    "cap_integral",
    "thresholds",
    "bound_report",
    "bound_grid",
    "pillow_terms",
    "pillow_grid",
    "waterfill_powers",
    "finite_n_bound",
]

POWER_FLOOR = 1e-12


def watts_to_dbw(p_watts: float) -> float:
    return 10.0 * math.log10(p_watts)


def dbw_to_watts(p_dbw: float) -> float:
    """``10^(p_dbw / 10)``; a power whose wattage is not finite (NaN, past
    about 3083 dBW) or is below the smallest normal float (0 W or
    subnormal, below about -3076.5 dBW) raises ``ValueError``."""
    try:
        p_w = 10.0 ** (p_dbw / 10.0)
    except OverflowError:
        p_w = math.inf
    if not math.isfinite(p_w):
        raise ValueError(f"power {p_dbw!r} dBW is non-finite in watts")
    if p_w < sys.float_info.min:
        raise ValueError(f"power {p_dbw!r} dBW underflows to {p_w:.3g} W, below the smallest "
                         f"normal wattage {sys.float_info.min:.3g} W")
    return p_w


@dataclass(frozen=True)
class BoundReport:
    """All per-power scalar outputs.  Fields are ``None`` when the quantity
    does not exist at this operating point (no radii, missing saturation
    level, or a failed bound hypothesis)."""

    P: float
    C0: float
    C_LB1: Optional[float]
    delta1: Optional[float]
    gap_cor1: Optional[float]
    C_LB2: Optional[float]
    delta2: Optional[float]
    P_sat: Optional[float]
    gap_cor2: Optional[float]


@dataclass(frozen=True)
class ThresholdReport:
    """Blocklength-dependent analysis constants for a covariance/power pair:
    the natural typicality scale eta_n (phi2_n is the other, eta'_n), the
    penalty ratios (phi1..phi3) and the trace budgets (C_n, C_prime_n) that
    the verification suites certify.  The penalty they define is
    ``finite_n_bound``'s, which refuses phi1 >= 1; decoding reads only
    eta_n."""

    eta_n: float
    C_n: float
    C_prime_n: float
    phi1_n: float
    phi2_n: float
    phi3_n: float


@dataclass(frozen=True)
class FiniteNBound:
    """Finite-blocklength achievable rate built on the Gram eigenvalues.

    ``d`` is the per-eigenvalue power allocation (ascending alongside the
    ascending eigenvalues), ``first_term`` the rate before penalties.
    """

    n: int
    theta: float
    d: np.ndarray
    first_term: float
    delta_n: float
    value: float


class BoundGrid(NamedTuple):
    """``BoundReport`` over a power grid: ``C0`` to ``gap_cor1`` are columns,
    the last three valid where ``ok``; ``C_LB2`` and ``delta2`` hold where ``sat``."""

    C0: np.ndarray
    C_LB1: np.ndarray
    delta1: np.ndarray
    gap_cor1: np.ndarray
    C_LB2: Optional[float]
    delta2: Optional[float]
    P_sat: Optional[float]
    gap_cor2: Optional[float]
    ok: np.ndarray
    sat: np.ndarray


def _libm(fn, x) -> np.ndarray:
    """``fn``, a ``math`` function, over the array ``x``, not numpy's own
    (an ulp apart at times, which ``C_LB1``'s cancellation would show)."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _depths(grid: QuadratureGrid, theta):
    """Water depths ``(d_min, d_max)`` over the spectral valley and peak."""
    return tuple(np.maximum(theta - 1.0 / x ** 2, 0.0) for x in (grid.alpha, grid.beta))


def _water_level(table: _WaterTable, a: float, B) -> np.ndarray:
    """Exact root ``theta`` of ``sum_j w_j max(theta - v_j, 0) - a*theta = B``
    on ``table``.  The left side is piecewise linear and must be monotone:
    increasing for ``a = 0``, decreasing for ``a > sum(w)``.  At breakpoint
    ``i`` it is ``at_i - a v_i``; ``searchsorted`` finds the segment holding
    ``B``, and with its first ``k`` nodes wet the root is
    ``(B + S_k) / (W_k - a)``; ``B`` may be an array of budgets."""
    at = table.at if a == 0.0 else table.at - a * table.v
    k = np.searchsorted(at, B, "right") if a == 0.0 else np.searchsorted(-at, -B, "right")
    return (B + table.S[k]) / (table.W[k] - a)


def _b(spec: ChannelSpec) -> float:
    """``b = (2/(k+1)) / |r|^2``; the saturation level solves ``g(theta) =
    2*theta - b``.  Infinite for zero radii, and for radii so small that
    ``|r|^2`` is subnormal and ``b`` overflows: then no power saturates."""
    return (2.0 / (spec.k + 1)) / spec.norm_r_sq if spec.norm_r_sq > 0.0 else math.inf


def _record(profile: QuadratureGrid, key: tuple) -> QuadratureGrid:
    """``profile``, or ``ValueError`` unless its taps and grid are ``key``."""
    if (profile.c, profile.grid_size) != key:
        raise ValueError(f"profile of taps {profile.c} on {profile.grid_size} panels, not of {key}")
    return profile


def solve_theta1(grid: QuadratureGrid, P):
    """Water level spending total power ``P``: solves ``g(theta) = P`` at
    each power of ``P`` (an array gives an array, a float a float).

    Uses the closed form ``theta = P + J`` when the level tops the whole
    inverse spectrum.  Below that, ``g`` is piecewise linear on the grid and
    ``_water_level`` returns its exact root.  Raises ``ValueError`` for a
    non-finite or non-positive power.
    """
    P = np.asarray(P, dtype=float)
    bad = ~(np.isfinite(P) & (P > 0.0))
    if bad.any():
        p = float(P[bad][0])
        raise ValueError(f"non-finite power P={p}" if not math.isfinite(p) else "need P > 0")
    closed = P >= 1.0 / grid.alpha ** 2 - grid.J
    theta = np.where(closed, P + grid.J, _water_level(grid.table, 0.0, P))
    return theta if theta.ndim else float(theta)


def solve_theta2(
    profile: QuadratureGrid,
    spec: ChannelSpec,
    grid_size: int = DEFAULT_GRID,
) -> Optional[float]:
    """Saturation water level: solves ``g(theta) = 2*theta - b`` with
    ``b = (2/(k+1)) / |r|^2``; its water is ``2*theta - b``.

    Uses the closed form ``theta = b - J`` when the level tops the whole
    inverse spectrum, otherwise the exact root of the piecewise-linear
    ``g(theta) - 2*theta = -b`` from ``_water_level``.  Returns ``None`` when
    the level would sit at or below the spectral floor (no water anywhere),
    i.e. when saturation never bites.  Raises ``ValueError`` when ``b`` is
    infinite (zero radii, or a subnormal ``|r|^2``): then no saturation
    mechanism exists at all.
    """
    grid = _record(profile, (spec.c, grid_size))
    b = _b(spec)
    if not math.isfinite(b):
        raise ValueError("saturation level undefined for zero (or subnormal) tap radii")
    if b >= 1.0 / grid.alpha ** 2 + grid.J:
        return b - grid.J
    if b - 2.0 / grid.beta ** 2 <= 0.0:
        return None
    theta = float(_water_level(grid.table, 2.0, -b))
    return theta if 2.0 * theta - b > 0.0 else None


def cap_integral(grid: QuadratureGrid, theta):
    """Rate integral at water level ``theta`` (a float, or an array giving
    an array): half the circle mean of ``log2(max(theta * |f|^2, 1))``, in
    O(log N) from the record's table.  With ``k = #{v_j < theta}`` the grid
    sum is ``W_k log2(theta/v_{k-1}) + D_k``, two non-negative addends, the
    first a ``log1p``; from just above the spectral peak into the closed
    regime, where it reads ``(log2(theta/v_max) + D_N) / 2``, it stays
    within about 1e-14 relative of the same Simpson sum in 30 digits
    (``tests/oracles.py``).  ``k = 0`` reads ``W_0 = D_0 = 0``."""
    t = grid.table
    theta = np.asarray(theta, dtype=float)
    k = np.searchsorted(t.v, theta, "left")
    top = t.v[k - 1]
    x = np.where(k > 0, (theta - top) / top, 0.0)
    C = 0.5 * (t.W[k] * _libm(math.log1p, x) / LN2 + t.D[k])
    return C if C.ndim else float(C)


def capacity_C0(
    profile: QuadratureGrid,
    spec: ChannelSpec,
    P: float,
    grid_size: int = DEFAULT_GRID,
) -> float:
    """Water-filling capacity of the centre channel at power ``P`` (bits)."""
    grid = _record(profile, (spec.c, grid_size))
    return cap_integral(grid, solve_theta1(grid, P))


def _s(profile: Extrema | QuadratureGrid, rs) -> float:
    """``s = r_s (r_s + 2 beta)``, the radius scale of every penalty term."""
    return rs * (rs + 2.0 * profile.beta)


@np.errstate(over="ignore", invalid="ignore")  # silent inf and NaN, as in float maths
def _penalty(profile: Extrema | QuadratureGrid, rs, lam_min, lam_max, spend):
    """The addends ``(t2, t3)`` of the rate penalty ``delta = t2 + t3`` for
    the tap intervals at radius sum ``rs``, given the smallest and largest
    per-dimension input power and the power spent per dimension, and the
    mask ``ok`` where they are defined; arrays broadcast.

    ``t2 = -log2(1 - ratio)/2`` with ``ratio = s lam_max / (1 + alpha^2
    lam_min)``, undefined where ``ratio >= 1``.  ``t3`` caps at
    ``1/(2 ln 2)`` exactly once ``s * spend >= 1``.
    """
    s = _s(profile, rs)
    ratio = s * lam_max / (1.0 + profile.alpha ** 2 * lam_min)
    ok = np.logical_not(ratio >= 1.0)  # a NaN ratio passes
    t2 = -0.5 * _libm(math.log2, np.where(ok, 1.0 - ratio, 1.0)) + 0.0  # + 0.0: no -0.0 at ratio 0
    t3 = (0.5 / LN2) * (1.0 - np.maximum(1.0 - s * spend, 0.0) / (1.0 + s * lam_max))
    return t2, t3, ok


def thresholds(spec: ChannelSpec, profile: Extrema | QuadratureGrid, cov, P: float) -> ThresholdReport:
    """The finite-n constants at power ``P`` for a covariance ``cov`` (any
    record with ``n``, ``trace``, ``lam_min`` and ``lam_max``), reading only
    ``alpha`` and ``beta`` of ``profile``.  With ``m = n + k`` and ``s = r_s
    (r_s + 2 beta)``: ``phi1 = s lam_max / (1 + alpha^2 lam_min)``, the ratio
    ``_penalty`` refuses at 1, ``phi2 = s trace / m``, ``phi3 = 1 / (1 + s
    lam_max)``; ``C_n`` and ``C_prime_n`` bound twice the squared Frobenius
    norms of the stacked deviation and whitened-output blocks, any radii."""
    n = cov.n
    m = n + spec.k
    rs = spec.r_s
    s = _s(profile, rs)
    bs = profile.beta + rs
    return ThresholdReport(
        eta_n=(spec.k + 1) * spec.norm_r_sq * cov.trace / (m + n),
        C_n=2.0 * m + 2.0 * n + 8.0 * (spec.k + 1) * n * P * spec.norm_r_sq
        + 2.0 * n * P * rs ** 4 * cov.lam_max,
        C_prime_n=2.0 * m + 4.0 * bs ** 2 * n * P + 2.0 * n * P * bs ** 4 * cov.lam_max,
        phi1_n=s * cov.lam_max / (1.0 + profile.alpha ** 2 * cov.lam_min),
        phi2_n=s * cov.trace / m,
        phi3_n=1.0 / (1.0 + s * cov.lam_max),
    )


@lru_cache(maxsize=128)
def _saturation(spec: ChannelSpec, grid_size: int) -> tuple:
    """The saturation route of ``spec``, none of which depends on ``P``:
    ``(P_sat, I2, C_LB2, delta2, gap_cor2)``, cached as scalars per
    channel: ``P_sat = b - 2J`` (non-positive for radii that saturate from
    zero power up) and ``I2 = 2*theta2 - b``, the saturation water
    (``None`` with no saturation level).  All are ``None`` when ``b``
    is infinite.  ``C_LB2`` and ``delta2`` are ``None`` when the penalty is
    undefined at that level; ``gap_cor2`` needs the level's closed form and
    ``s < alpha^2``."""
    b = _b(spec)
    if not math.isfinite(b):
        return None, None, None, None, None
    grid = compute_profile(spec, grid_size)
    theta2 = solve_theta2(grid, spec, grid_size)
    I2 = C_LB2 = delta2 = gap_cor2 = None
    if theta2 is not None:
        # 2 theta2 - b, rounded once, without overflowing 2 theta2: since
        # b/2 <= theta2 <= b, theta2 - b is exact (Sterbenz)
        I2 = theta2 + (theta2 - b)
        t2, t3, ok = _penalty(grid, spec.r_s, *_depths(grid, theta2), I2)
        if ok:
            delta2 = float(t2 + t3)
            C_LB2 = (
                cap_integral(grid, theta2)
                - math.log2(1.0 + 0.5 * (spec.k + 1) * spec.norm_r_sq * I2)
                - delta2
            )
    s = _s(grid, spec.r_s)
    if b >= 1.0 / grid.alpha ** 2 + grid.J and s < grid.alpha ** 2:
        # one plus the penalty's limit as lam_min = lam_max and spend grow
        gap_cor2 = 1.0 + 0.5 / LN2 - 0.5 * math.log2(1.0 - s / grid.alpha ** 2)
    return b - 2.0 * grid.J, I2, C_LB2, delta2, gap_cor2


@np.errstate(over="ignore", invalid="ignore")  # silent inf and NaN, as in float maths
def bound_grid(spec: ChannelSpec, P: np.ndarray, grid_size: int = DEFAULT_GRID) -> BoundGrid:
    """``bound_report`` at every power of the array ``P`` (watts) in one
    array pass.  The saturation fields do not depend on ``P``: they are
    computed once per ``(spec, grid_size)`` and cached, and ``sat`` marks
    the powers at or within 1e-12 relative below the saturation water."""
    grid = compute_profile(spec, grid_size)
    theta = solve_theta1(grid, P)
    C0 = cap_integral(grid, theta)
    t2, t3, ok = _penalty(grid, spec.r_s, *_depths(grid, theta), P)
    delta1 = t2 + t3
    log_term = _libm(math.log2, 1.0 + 0.5 * (spec.k + 1) * spec.norm_r_sq * P)
    P_sat, I2, C_LB2, delta2, gap_cor2 = _saturation(spec, grid_size)
    sat = np.zeros(np.shape(P), bool)
    if I2 is not None:
        sat = ~(P < I2 - 1e-12 * abs(I2))
    return BoundGrid(
        C0, C0 - log_term - delta1, delta1, log_term + delta1, C_LB2, delta2, P_sat, gap_cor2, ok, sat
    )


def bound_report(spec: ChannelSpec, P: float, grid_size: int = DEFAULT_GRID) -> BoundReport:
    """All scalar bounds at power ``P`` (watts), the one-row ``bound_grid``.

    ``C_LB1``, ``delta1`` and ``gap_cor1`` are ``None`` where the radius
    penalty is undefined at ``P``, with ``C0`` still reported.  The
    saturation route needs non-zero radii, a saturation level above the
    spectral floor, and a budget at least the saturation water; the
    radius-only gap needs the saturation level's closed form to apply and
    its log argument to stay positive.
    """
    g = bound_grid(spec, np.array([P], dtype=float), grid_size)
    penalty = [float(col[0]) if g.ok[0] else None for col in g[1:4]]
    route2 = [value if g.sat[0] else None for value in g[4:6]]
    return BoundReport(P, float(g.C0[0]), *penalty, *route2, g.P_sat, g.gap_cor2)


@np.errstate(over="ignore", invalid="ignore")  # silent inf and NaN, as in float maths
def pillow_grid(grid: QuadratureGrid, spec: ChannelSpec, P, rs) -> tuple[np.ndarray, ...]:
    """``pillow_terms`` at each power of ``P`` and radius sum of ``rs`` from
    one ``theta1`` solve: the columns ``(t1, t2, t3, ok)``, one row per
    pair, power-major, the terms valid where ``ok``."""
    P = np.reshape(P, (-1, 1))
    theta = solve_theta1(grid, P)
    t2, t3, ok = _penalty(grid, rs, *_depths(grid, theta), P)
    t1 = _libm(math.log2, 1.0 + 0.5 * (spec.k + 1) * rs * rs * P)
    return t1.ravel(), t2.ravel(), t3.ravel(), ok.ravel()


def pillow_terms(
    profile: QuadratureGrid,
    spec: ChannelSpec,
    P: float,
    r_s: Optional[float] = None,
    grid_size: int = DEFAULT_GRID,
) -> tuple[float, float, float]:
    """The three addends of the radius-sum-only gap bound at power ``P``,
    the one-row ``pillow_grid``.

    ``r_s`` overrides the channel's radius sum so a sweep can vary the
    uncertainty scale without touching the centre channel or water level.
    The last addend caps at ``1/(2*ln 2)`` exactly once
    ``r_s*(r_s + 2*beta)*P >= 1``.
    """
    grid = _record(profile, (spec.c, grid_size))
    rs = spec.r_s if r_s is None else float(r_s)
    if rs < 0.0:
        raise ValueError("radius sum must be non-negative")
    *terms, ok = pillow_grid(grid, spec, P, rs)
    if not ok[0]:
        raise BoundInapplicable("radius term >= 1; penalty undefined")
    return tuple(float(t[0]) for t in terms)


def waterfill_powers(lam: np.ndarray, total: float) -> tuple[np.ndarray, float]:
    """Allocate ``total`` power over channels with gains ``lam`` subject to
    the per-channel floor ``eps = POWER_FLOOR``: returns ``(d, theta)`` with
    ``d_i = max(theta - 1/lam_i, eps)`` and ``sum(d) = total``.

    Since ``max(theta - u, eps) = eps + max(theta - (u + eps), 0)``, the
    level is the exact root from ``_water_level`` with unit weights on the
    sorted breakpoints ``1/lam_i + eps`` and budget ``total - n*eps``, so
    no power depends on the order of ``lam``.  Ascending ``lam`` yields
    ascending ``d``.  Raises ``ValueError`` for a non-finite ``total``, and
    where ``2 n / min(lam)`` overflows, as the table's sums then could.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or len(lam) == 0:
        raise ValueError("need a 1-d non-empty gain vector")
    if not np.all(lam > 0.0):
        raise ValueError("gains must be positive")
    if not math.isfinite(total):
        raise ValueError(f"non-finite total power {total}")
    if total <= len(lam) * POWER_FLOOR:
        raise ValueError("total power does not clear the per-channel floor")
    if not math.isfinite(2.0 * len(lam) / float(lam.min())):
        raise ValueError(f"gains down to {float(lam.min()):.3e} overflow a water table of {len(lam)} breakpoints")
    inv = 1.0 / lam
    table = _water_table(np.sort(inv + POWER_FLOOR), np.ones(len(lam)))
    theta = _water_level(table, 0.0, total - len(lam) * POWER_FLOOR)
    return np.maximum(theta - inv, POWER_FLOOR), theta


def finite_n_bound(spec: ChannelSpec, n: int, P: float) -> FiniteNBound:
    """Achievable rate at blocklength ``n``: water-fill ``n*P`` over the
    Gram eigenvalues of the centre matrix, then subtract the trace penalty
    and the radius penalty computed from the allocation itself.  Its powers
    above ``POWER_FLOOR`` are ``build_sigma``'s ``d``, sorted, bit for bit.

    Requires ``n >= k + 1`` (shorter blocks do not exercise the full band).
    Raises BoundInapplicable when the leading penalty ratio reaches 1.
    """
    if n < spec.k + 1:
        raise ValueError(f"need n >= k + 1 = {spec.k + 1}, got {n}")
    if P <= 0.0:
        raise ValueError("need P > 0")
    ext = checked_extrema(spec.c)
    lam = gram_eigenvalues(spec, n)
    d, theta = waterfill_powers(lam, n * P)
    first = float(np.log2(1.0 + lam * d).sum()) / (2.0 * n)
    m = n + spec.k
    trace = float(d.sum())
    t2, t3, ok = _penalty(ext, spec.r_s, float(d[0]), float(d[-1]), trace / m)
    if not ok:
        raise BoundInapplicable("radius term >= 1; penalty undefined")
    delta_n = float(t2 + t3)
    value = (
        first
        - math.log2(1.0 + (spec.k + 1) * spec.norm_r_sq * trace / (m + n))
        - delta_n
    )
    d.setflags(write=False)
    return FiniteNBound(
        n=n, theta=float(theta), d=d, first_term=first, delta_n=delta_n, value=value
    )
