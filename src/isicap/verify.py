"""Randomized numerical certification of the matrix facts behind the bounds.

The suites are one table, ``_SUITES``, of ``(name, instance, check)`` rows.
``instance(rng, i, n_max)`` draws sample ``i`` (a random channel,
covariance and realization, or plain matrices); ``check(inst)`` evaluates
one inequality on it and returns ``(margin, ok)``.  Each check computes only
the quantities its inequality names, through an identity stated in its
docstring: operator norms of channel matrices are the top eigenvalue of
their band Gram matrix, the stacked trace is summed block by block, and the
three output-covariance checks read the eigenvalues of the pencil
``(Omega_h, Omega_c)``, which the channel instance computes once per sample
from one Cholesky factor of ``Omega_c`` (``_pencil``).
A drawn covariance ``Sigma = Q diag(d) Q'`` enters only as ``W = X Q
diag(sqrt(d))``, which is ``X Sigma^(1/2)`` turned by the orthogonal ``Q``:
``X Sigma X' = W W'``, and no norm, trace, eigenvalue or determinant a check
reads changes, so nothing forms ``Sigma``, its root or ``diag(d)``.  One
runner loops over the samples and records the worst margin.  Every
inequality ``lhs <= rhs`` is decided by one slack rule, ``holds``: it passes
when ``lhs <= rhs + 1e-9 |rhs| + 1e-12``, for a right-hand side of either
sign (the log-domain determinant and volume checks have negative ones).  A
sampled channel matrix takes its taps through ``channel_sim``'s iid law, the
one the decoding experiments draw from.  Suites whose rows name one instance
function check one draw: sample ``i`` is drawn once, from stream ``16 + s``
of one master seed for ``s`` the first such suite (19 for the five suites
that read a channel and a covariance, ``16 + s`` for the others).  So a
suite's draws do not depend on which others run, and a reported worst
instance can be regenerated exactly (``_suite_rng``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import cholesky, eigvals_banded, eigvalsh, solve_triangular

from .errors import SpectrumSingular
from .spectrum import (
    DEFAULT_GRID,
    BandedChannelMatrix,
    ChannelSpec,
    SpectrumProfile,
    build_Hc,
    compute_profile,
)
from .waterfill import LN2, thresholds
from .channel_sim import MAX_DECODE_BYTES, ChannelLaw, _cells, _taps_from, rng_stream

__all__ = [
    "SLACK_REL",
    "SLACK_ABS",
    "holds",
    "ConverseReport",
    "converse_rate_bound",
    "LemmaReport",
    "SUITE_NAMES",
    "run_suite",
    "run_all_suites",
    "verify_report",
]

SLACK_REL = 1e-9
SLACK_ABS = 1e-12
VERIFY_STREAM_BASE = 16
K_MAX = 4  # largest channel memory the suites draw
# Most arrays of order n_max + K_MAX one sample holds at once (a channel
# instance while its pencil is solved: H, Hc, Q, W, Wc, Omega_c, Omega_h,
# the Cholesky factor and the two triangular solves' outputs).
_DENSE_ARRAYS = 10
# Doubles per row of that order in the eigensolvers' LAPACK workspace
# (dsyevr: 26 doubles and 10 ints a row).
_EIG_WORK = 32
# Most arrays of DEFAULT_GRID + 1 doubles a channel draw holds: while
# ``compute_profile`` builds the FFT table, the complex transform (two), the
# two squares, their sum and the closed table; besides them the other table
# the cache keeps and the Simpson weights; and one to spare for the draw's
# small arrays.
_GRID_ARRAYS = 9
TWO_PI_E = 2.0 * math.pi * math.e
_IID = ChannelLaw(kind="iid_uniform")


def holds(lhs: float, rhs: float) -> bool:
    """The one slack rule: ``lhs <= rhs`` up to ``SLACK_REL |rhs| +
    SLACK_ABS``, for a right-hand side of either sign."""
    return lhs <= rhs + SLACK_REL * abs(rhs) + SLACK_ABS


def _pencil(omega_c: np.ndarray, omega_h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the pencil ``Omega_h v = lam Omega_c v``:
    those of ``psi = L^-1 Omega_h L^-T`` for the Cholesky factor ``L`` of
    ``Omega_c`` (Golub & Van Loan, *Matrix Computations*, 8.7), one
    factorization, two triangular solves and one symmetric eigensolve."""
    L = cholesky(omega_c, lower=True)
    psi = solve_triangular(L, solve_triangular(L, omega_h, lower=True).T, lower=True)
    return eigvalsh(psi, overwrite_a=True)


@dataclass(frozen=True)
class VolumeResult:
    """Log-domain volume of a typicality shell and its two-sided
    Gaussian-entropy estimates (the lower one is asserted only for
    ``eta >= 1``, where no inner ellipsoid is carved out)."""

    log2_exact: float
    log2_upper: float
    log2_lower: float


def _log2_ball_volume(n: int, radius_sq: float) -> float:
    # Volume of {a : ||a||^2 <= n * radius_sq} in log2.
    if radius_sq <= 0.0:
        return -math.inf
    return 0.5 * n * math.log2(math.pi * n * radius_sq) - math.lgamma(0.5 * n + 1.0) / LN2


def _shell_volume(n: int, eta: float) -> VolumeResult:
    """Volume of the shell ``{a : | ||a||^2 / n - 1 | < eta}`` of order
    ``n`` with its Gaussian-entropy bounds, all in log2 to dodge overflow
    at large ``n``.  For the shell ``| a' Sigma^{-1} a / n - 1 | < eta`` of
    any covariance, add ``0.5 log2 det Sigma`` to all three: the map ``a ->
    Sigma^(1/2) a`` scales every volume alike, so the bounds' margins depend
    on ``(n, eta)`` alone."""
    outer = _log2_ball_volume(n, 1.0 + eta)
    if eta < 1.0:
        inner = _log2_ball_volume(n, 1.0 - eta)
        log2_exact = outer + math.log2(1.0 - 2.0 ** (inner - outer))
    else:
        log2_exact = outer
    log2_upper = 0.5 * n * math.log2(TWO_PI_E) + 0.5 * n * math.log2(1.0 + eta)
    log2_lower = log2_upper - 0.5 * math.log2(math.pi * (n + 2.0))
    return VolumeResult(log2_exact=log2_exact, log2_upper=log2_upper, log2_lower=log2_lower)


@dataclass(frozen=True)
class ConverseReport:
    """Rate ceiling for a concrete codebook: the power-only lead term minus
    the codeword-dependent penalty ``kappa``; ``ceiling_xmin`` specializes
    the penalty to the smallest codeword magnitude (absent when some entry
    is zero)."""

    P: float
    kappa: float
    ceiling: float
    ceiling_xmin: Optional[float]


def converse_rate_bound(
    spec: ChannelSpec, P: float, codewords: np.ndarray
) -> ConverseReport:
    """Upper bound on reliable rate for the given codebook under the
    interval channel, in bits per input symbol.

    The penalty sums, over codewords and output times, the log of one plus
    the radius-weighted sliding energy of the codeword.
    """
    X = np.asarray(codewords, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("need a non-empty (size, n) codeword array")
    size, n = X.shape
    mean_power = float((X * X).sum(axis=1).mean())
    if not holds(mean_power, n * P):
        raise ValueError(
            f"codebook spends {mean_power:.6g} > n*P = {n * P:.6g} on average"
        )
    r2 = np.asarray(spec.r, dtype=float) ** 2
    gauss_gap = 2.0 / (math.pi * math.e)
    acc = 0.0
    for row in X:
        energy = np.convolve(row * row, r2)
        acc += float(np.log2(1.0 + gauss_gap * energy).sum())
    kappa = 0.5 * acc / (n * size)
    growth = 1.0 + (spec.k + 1) * (spec.norm_c_sq + spec.norm_r_sq / 3.0) * P
    x_min = float(np.abs(X).min())
    ceiling_xmin = None
    if x_min > 0.0:
        ceiling_xmin = 0.5 * math.log2(growth / (1.0 + gauss_gap * spec.norm_r_sq * x_min ** 2))
    return ConverseReport(P=P, kappa=kappa, ceiling=0.5 * math.log2(growth) - kappa,
                          ceiling_xmin=ceiling_xmin)


@dataclass
class LemmaReport:
    """Outcome of one randomized suite: sample count, violation count, and
    the worst (smallest) margin with the instance index that produced it."""

    name: str
    samples: int
    violations: int
    worst_margin: float
    worst_index: int
    details: dict = field(default_factory=dict)


def _random_channel(rng: np.random.Generator, n_max: int):
    """A random well-conditioned channel and a block length n in [k+1, n_max]."""
    while True:
        k = int(rng.integers(1, K_MAX + 1))
        c = rng.uniform(-1.0, 1.0, k + 1)
        if np.abs(c).max() < 0.1:
            continue
        r = rng.uniform(0.0, 0.5, k + 1)
        if r.sum() == 0.0:
            continue
        spec = ChannelSpec(k=k, c=tuple(c), r=tuple(r))
        try:
            profile = compute_profile(spec)
        except SpectrumSingular:
            continue
        if profile.alpha < 0.05 * profile.beta:
            continue
        return spec, profile, int(rng.integers(k + 1, n_max + 1))


class _Cov:
    """A drawn covariance ``Sigma = Q diag(d) Q'`` for a random orthonormal
    ``Q``, or ``Q = None`` for ``Q = I``.  Checks see it only through
    ``whiten``, exact because each is invariant under ``X Sigma^(1/2) ->
    X Sigma^(1/2) Q`` and ``X Sigma X' = whiten(X) whiten(X)'``."""

    def __init__(self, d: np.ndarray, Q: Optional[np.ndarray]) -> None:
        self.d, self.Q, self.n = d, Q, len(d)
        self.sqrt_d = np.sqrt(d)
        self.trace, self.lam_min, self.lam_max = float(d.sum()), float(d.min()), float(d.max())

    def whiten(self, X: np.ndarray) -> np.ndarray:
        """``X Q diag(sqrt(d))``: one GEMM, none in the standard basis."""
        return (X if self.Q is None else X @ self.Q) * self.sqrt_d


def _random_cov(rng: np.random.Generator, n: int) -> _Cov:
    d = 10.0 ** rng.uniform(-2.0, 1.0, n)
    if rng.random() < 0.5:
        return _Cov(d=d, Q=None)
    Q = np.ascontiguousarray(np.linalg.qr(rng.standard_normal((n, n)))[0])
    G = Q.T @ Q
    G[np.diag_indices(n)] -= 1.0
    if np.abs(G).max() > 1e-8:
        raise ValueError("drawn basis is not orthonormal")
    return _Cov(d=d, Q=Q)


def _rescale_radii_for_phi1(
    spec: ChannelSpec, profile: SpectrumProfile, cov: _Cov, target: float
) -> ChannelSpec:
    """``spec`` with all radii scaled so the leading penalty ratio hits
    ``target`` < 1 for this covariance, keeping the suite instances
    non-trivial; ``profile``, the centre's, holds for it unchanged."""
    s_target = target * (1.0 + profile.alpha ** 2 * cov.lam_min) / cov.lam_max
    rs = spec.r_s
    t = (-profile.beta + math.sqrt(profile.beta ** 2 + s_target)) / rs
    return ChannelSpec(k=spec.k, c=spec.c, r=tuple(t * v for v in spec.r))


def _sample_banded(rng: np.random.Generator, spec: ChannelSpec, n: int) -> BandedChannelMatrix:
    """A channel realization of order ``n`` under the iid law, its taps
    ``c + (2u - 1) r`` from ``rng.random`` (``channel_sim._taps_from``)."""
    m = n + spec.k
    return BandedChannelMatrix(n=n, k=spec.k, taps=_taps_from(rng.random((m, spec.k + 1)), spec, _IID, m))


def _op_norm(M: np.ndarray) -> float:
    """Operator norm of a dense matrix: the square root of the top
    eigenvalue of its smaller Gram matrix."""
    G = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
    last = G.shape[0] - 1
    return math.sqrt(max(float(eigvalsh(G, subset_by_index=[last, last])[0]), 0.0))


def _band_op_norm(M: BandedChannelMatrix) -> float:
    """Operator norm of a band channel matrix: the square root of the top
    eigenvalue of ``M'M``, held in lower band form of bandwidth
    ``min(k, n - 1)`` (row ``d`` holds diagonal ``d``,
    ``(M'M)[j + d, j] = sum_e taps[j+d+e, d+e] taps[j+d+e, e]`` over the
    ``k - d + 1`` outputs that see both columns); no dense matrix."""
    n, k, t = M.n, M.k, M.taps
    band = np.zeros((min(k, n - 1) + 1, n))
    for d in range(len(band)):
        for e in range(k - d + 1):
            band[d, : n - d] += t[d + e : n + e, d + e] * t[d + e : n + e, e]
    top = eigvals_banded(band, lower=True, select="i", select_range=(n - 1, n - 1))
    return math.sqrt(max(float(top[0]), 0.0))


def _omegas(Wc: np.ndarray, W: np.ndarray):
    """Output covariances ``I + Hc Sigma Hc'`` and ``I + H Sigma H'`` from
    the whitened ``Wc = whiten(Hc)`` and ``W = whiten(H)``, the identity
    added on the diagonal in place."""
    out = []
    for V in (Wc, W):
        omega = V @ V.T
        omega[np.diag_indices_from(omega)] += 1.0
        out.append(omega)
    return tuple(out)


def _lemma1_instance(rng, i, n_max):
    p, q, r = (int(v) for v in rng.integers(1, n_max + 1, 3))
    scale1, scale2 = 10.0 ** rng.uniform(-1.0, 2.0, 2)
    M1 = scale1 * rng.standard_normal((p, q))
    return M1, scale2 * rng.standard_normal((q, r))


def _centre_instance(rng, i, n_max):
    """(band centre matrix, its operator-norm cap ``beta``)."""
    spec, profile, n = _random_channel(rng, n_max)
    return build_Hc(spec, n), profile.beta


def _deviation_instance(rng, i, n_max):
    """(band sampled-minus-centre matrix, its operator-norm cap ``r_s``)."""
    spec, _, n = _random_channel(rng, n_max)
    taps = _sample_banded(rng, spec, n).taps - np.asarray(spec.c)
    return BandedChannelMatrix(n=n, k=spec.k, taps=taps), spec.r_s


def _channel_instance(rng, i, n_max):
    """(H, Hc, covariance, its ``thresholds``, ``eta'``, the ascending
    eigenvalues of the ``(Omega_h, Omega_c)`` pencil, ``W = whiten(H)``,
    ``Wc = whiten(Hc)``), radii scaled so phi1 < 1; ``eta'`` is drawn last,
    from [0, 1), where the shell exists.  Each whitening is one GEMM in a
    rotated basis, formed once for the pencil and the Weyl check."""
    spec, profile, n = _random_channel(rng, n_max)
    cov = _random_cov(rng, n)
    spec = _rescale_radii_for_phi1(spec, profile, cov, target=float(rng.uniform(0.05, 0.9)))
    Hc = build_Hc(spec, n).dense()
    H = _sample_banded(rng, spec, n).dense()
    rep = thresholds(spec, profile, cov, cov.trace / n)
    W, Wc = cov.whiten(H), cov.whiten(Hc)
    return H, Hc, cov, rep, float(rng.uniform(0.0, 1.0)), _pencil(*_omegas(Wc, W)), W, Wc


_ETAS = (0.1, 0.5, 0.9, 1.0, 1.5, 3.0)


def _volume_instance(rng, i, n_max):
    """(n, eta): the shell bounds read nothing else (see ``_shell_volume``)."""
    n = int(rng.integers(1, min(n_max, 50) + 1))
    eta = _ETAS[i % len(_ETAS)] if rng.random() < 0.5 else float(rng.uniform(0.05, 3.0))
    return n, eta


def _lemma1(inst):
    """``||M1 M2||_F <= min(||M1||_op ||M2||_F, ||M2||_op ||M1||_F)``,
    each order checked on its own."""
    M1, M2 = inst
    prod = float(np.linalg.norm(M1 @ M2))
    rhs1 = _op_norm(M1) * float(np.linalg.norm(M2))
    rhs2 = _op_norm(M2) * float(np.linalg.norm(M1))
    return min(rhs1, rhs2) - prod, holds(prod, rhs1) and holds(prod, rhs2)


def _op_cap(inst):
    """``||M||_op <= cap`` for a band channel matrix ``M``, with
    ``||M||_op^2 = lambda_max(M'M)`` taken on the band Gram matrix."""
    M, cap = inst
    op = _band_op_norm(M)
    return cap - op, holds(op, cap)


def _stacked_trace(inst):
    """``2 ||Phi||_F^2 <= C_n`` for ``Phi = [[I + S'S, S'], [S, I]]`` with
    ``S = whiten(H - Hc)``, summed block by block:
    ``||Phi||_F^2 = ||I + S'S||_F^2 + 2 ||S||_F^2 + m``."""
    H, Hc, cov, rep = inst[:4]
    ES = cov.whiten(H - Hc)
    G = ES.T @ ES
    G[np.diag_indices_from(G)] += 1.0
    lhs = 2.0 * (float(np.linalg.norm(G)) ** 2 + 2.0 * float(np.linalg.norm(ES)) ** 2 + ES.shape[0])
    return rep.C_n - lhs, holds(lhs, rep.C_n)


def _whitened_trace(inst):
    """``2 ||B' Omega_c^-1 B||_F^2 <= C'_n`` for ``B = [H Sigma^(1/2), I]``.
    Since ``B B' = Omega_h``, ``||B' Omega_c^-1 B||_F = ||L^-1 Omega_h
    L^-T||_F`` with ``L`` the Cholesky factor of ``Omega_c``, and that is
    ``sqrt(sum lam^2)`` over the pencil eigenvalues ``lam``."""
    rep, lam = inst[3], inst[5]
    lhs = 2.0 * float(np.dot(lam, lam))
    return rep.C_prime_n - lhs, holds(lhs, rep.C_prime_n)


def _det_floor(inst):
    """Worst-case output-covariance determinant floor, in the log domain:
    ``m log(1 - phi1) + log det Omega_c <= log det Omega_h``.  The
    log-determinants' difference is ``sum log lam`` over the pencil
    eigenvalues ``lam``, so the check reads ``m log(1 - phi1) <= sum log
    lam``."""
    rep, lam = inst[3], inst[5]
    floor, value = len(lam) * math.log(1.0 - rep.phi1_n), float(np.log(lam).sum())
    return value - floor, holds(floor, value)


def _eig_stability(inst):
    """Weyl: the largest eigenvalue shift of the whitened Gram pair
    ``A = W'W``, ``B = Wc'Wc`` with ``W = whiten(H)``, ``Wc = whiten(Hc)``
    (so ``A`` is similar to ``Sigma^(1/2) H'H Sigma^(1/2)``) is at most the
    operator norm of the symmetric perturbation ``A - B``."""
    W, Wc = inst[6:]
    A = W.T @ W
    B = Wc.T @ Wc
    gap = float(np.abs(eigvalsh(A) - eigvalsh(B)).max())
    op = float(np.abs(eigvalsh(A - B)).max())
    return op - gap, holds(gap, op)


def _shell_floor(inst):
    """``m (1 - eta') phi3 <= min y' Omega_h^-1 y`` over the shell
    ``y' Omega_c^-1 y = m (1 - eta')``, the minimum being the shell radius
    over the largest pencil eigenvalue ``lam_max``: the check reads ``m (1 -
    eta') phi3 <= m (1 - eta') / lam_max``."""
    rep, eta_prime, lam = inst[3:6]
    radius = len(lam) * (1.0 - eta_prime)
    val, floor = radius / float(lam[-1]), radius * rep.phi3_n
    return val - floor, holds(floor, val)


def _volume(inst):
    """The shell's exact log2 volume lies below the Gaussian-entropy
    estimate, and above its lower companion when ``eta >= 1``."""
    n, eta = inst
    res = _shell_volume(n, eta)
    margin = res.log2_upper - res.log2_exact
    ok = holds(res.log2_exact, res.log2_upper)
    if eta >= 1.0:
        margin = min(margin, res.log2_exact - res.log2_lower)
        ok = ok and holds(res.log2_lower, res.log2_exact)
    return margin, ok


_SUITES = (
    ("lemma1_product_norms", _lemma1_instance, _lemma1),
    ("centre_matrix_norm", _centre_instance, _op_cap),
    ("deviation_matrix_norm", _deviation_instance, _op_cap),
    ("stacked_deviation_trace", _channel_instance, _stacked_trace),
    ("whitened_output_trace", _channel_instance, _whitened_trace),
    ("determinant_floor", _channel_instance, _det_floor),
    ("eigenvalue_stability", _channel_instance, _eig_stability),
    ("shell_minimum_floor", _channel_instance, _shell_floor),
    ("shell_volume_bounds", _volume_instance, _volume),
)

SUITE_NAMES = tuple(name for name, _, _ in _SUITES)
# The suite whose stream each suite's samples come from: the first to name its instance.
_DRAWN_BY = tuple(next(j for j, row in enumerate(_SUITES) if row[1] is inst) for _, inst, _ in _SUITES)


def _suite_rng(master_seed: int, suite_index: int, instance: int) -> np.random.Generator:
    """The cell ``_run`` draws sample ``instance`` of a suite from."""
    return rng_stream(master_seed, VERIFY_STREAM_BASE + _DRAWN_BY[suite_index], instance)


def _report(name, margins_ok):
    samples = len(margins_ok)
    violations = sum(1 for _, ok in margins_ok if not ok)
    worst_index = min(range(samples), key=lambda i: margins_ok[i][0])
    margins = np.array([m for m, _ in margins_ok])
    quantiles = [float(v) for v in np.quantile(margins, (0.0, 0.25, 0.5, 0.75, 1.0))]
    return LemmaReport(
        name=name,
        samples=samples,
        violations=violations,
        worst_margin=float(margins_ok[worst_index][0]),
        worst_index=worst_index,
        details={"margin_quantiles": quantiles},
    )


def _sample_bytes(n_max: int) -> int:
    """Bytes one sample holds at most, at block lengths up to ``n_max``:
    ``_DENSE_ARRAYS`` float arrays and ``_EIG_WORK`` doubles a row of order
    ``n_max + K_MAX``, and ``_GRID_ARRAYS`` arrays of the spectrum grid."""
    order = n_max + K_MAX
    return 8 * (_DENSE_ARRAYS * order * order + _EIG_WORK * order + _GRID_ARRAYS * (DEFAULT_GRID + 1))


def _run(names, samples: int, master_seed: int, n_max: int) -> dict[str, LemmaReport]:
    """Check ``samples`` draws on each named suite, one draw per instance function."""
    # The channel suites draw n from [k + 1, n_max] with k up to K_MAX.
    for key, value, least in (
        ("samples", samples, 1),
        ("n_max", n_max, K_MAX + 1),
        ("master_seed", master_seed, 0),
    ):
        if value < least:
            raise ValueError(f"{key} must be >= {least}, got {value}")
    need = _sample_bytes(n_max)
    if need > MAX_DECODE_BYTES:
        raise ValueError(f"n_max = {n_max} needs {need / 2**30:.3g} GiB per sample, "
                         f"over the cap {MAX_DECODE_BYTES / 2**30:.3g} GiB")
    margins = {name: [] for name in names}
    for first in dict.fromkeys(_DRAWN_BY[SUITE_NAMES.index(name)] for name in names):
        instance = _SUITES[first][1]
        checks = [(name, check) for name, draw, check in _SUITES if draw is instance and name in margins]
        for i, rng in enumerate(_cells(master_seed, VERIFY_STREAM_BASE + first, range(samples))):
            inst = instance(rng, i, n_max)
            for name, check in checks:
                margins[name].append(check(inst))
            del inst  # before the next draw: _sample_bytes counts one sample's arrays
    return {name: _report(name, margins[name]) for name in names}


def run_suite(name: str, samples: int = 200, master_seed: int = 0, n_max: int = 64) -> LemmaReport:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return _run((name,), samples, master_seed, n_max)[name]


def run_all_suites(
    samples: int = 200, master_seed: int = 0, n_max: int = 64
) -> dict[str, LemmaReport]:
    return _run(SUITE_NAMES, samples, master_seed, n_max)


def verify_report(samples: int = 200, master_seed: int = 0, n_max: int = 64) -> dict:
    """JSON-ready summary of every suite, including reproduction data for
    the worst instance of each."""
    reports = run_all_suites(samples=samples, master_seed=master_seed, n_max=n_max)
    return {
        "master_seed": master_seed,
        "samples": samples,
        "n_max": n_max,
        "violations_total": int(sum(r.violations for r in reports.values())),
        "suites": {name: asdict(rep) for name, rep in reports.items()},
    }
