"""Randomized numerical certification of the matrix facts behind the bounds.

The suites are one table, ``_SUITES``, of ``(name, instance, check)`` rows.
``instance(rng, i, n_max)`` draws sample ``i`` (a random channel, covariance
and realization, or plain matrices); ``check(inst)`` evaluates one
inequality on it and returns ``(margin, ok)``, computing only the
quantities its inequality names, through an identity stated in its
docstring.  The three output-covariance checks read the pencil ``(Omega_h,
Omega_c)``'s eigenvalues ``lam`` through four numbers (``_Pencil``), which
the channel instance reads once per sample off the pencil's tridiagonal
form, without solving for ``lam``.  Every LAPACK routine is called through
``scipy.linalg.lapack``, its ``info`` checked (``_lapack``), its workspace
queried once per order (``_lwork``).
A drawn covariance ``Sigma = Q diag(d) Q'`` enters only as
``W = X Q diag(sqrt(d))``, which is ``X Sigma^(1/2)`` turned by the
orthogonal ``Q``: ``X Sigma X' = W W'``, and no norm, trace, eigenvalue or
determinant a check reads changes, so nothing forms ``Sigma``, its root or
``diag(d)``.  ``_Cov.whiten``, the one place that reads ``Q``, gives ``W``
in one of two forms with one interface (see ``_Dense``): half the draws take
``Q = I``, where ``W = H diag(sqrt(d))`` is banded like ``H`` (``_Band``,
whose Grams and output covariances are symmetric band forms); a drawn basis
fills ``W``, the band applied to the rows of ``Q'`` (``_Dense``).  Each
form also reads the symmetric matrices it makes (spectra, extremes, the
pencil), so each check has one body.  One runner loops over the samples
and records the worst margin.
Every inequality ``lhs <= rhs`` is decided by one slack rule, ``holds``: it
passes when ``lhs <= rhs + 1e-9 |rhs| + 1e-12``, for a right-hand side of
either sign (the log-domain determinant and volume checks have negative
ones).  A sampled channel matrix takes its taps through ``channel_sim``'s
iid law, the one the decoding experiments draw from.  Suites whose rows
name one instance function check one draw: sample ``i`` is drawn once, from
stream ``16 + s`` of one master seed for ``s`` the first such suite (19 for
the five suites that read a channel and a covariance, ``16 + s`` for the
others).  So a suite's draws do not depend on which others run, and a
reported worst instance can be regenerated exactly (``_suite_rng``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cache
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import lapack

from .spectrum import BandedChannelMatrix, ChannelSpec, Extrema, build_Hc, centre_extrema
from .waterfill import LN2, thresholds
from .channel_sim import MAX_DECODE_BYTES, ChannelLaw, _Cells, _taps_from, rng_stream

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
# Most arrays of order n_max + K_MAX one sample holds at once: a dense
# channel instance (a drawn basis) in the Weyl check: Q, W, Wc, A (which
# becomes A - B), and A's copy or B, and one to spare for the instance's small
# arrays and the workspace (the pencil, solved in place, holds Q, W, Wc,
# Omega_c, Omega_h).  A band instance holds two, psi and its solves'.
_DENSE_ARRAYS = 6
# Doubles per row of that order in the LAPACK workspace (dsyevr's optimal:
# 33 doubles and 10 ints a row; dsytrd's: 32 doubles).
_EIG_WORK = 38
# Bytes a sample holds whatever its order: its random generator, the headers
# of its numpy arrays (about 100 to 160 bytes each) and its small records.
# Traced, they reach 12.4 KB beyond the order-dependent terms at n_max = 5,
# where those are smallest (every suite, master seeds 0 to 29).
_SAMPLE_FIXED = 16 * 1024
# dsbevx's tolerance, as scipy.linalg.eigvals_banded sets it: twice LAPACK's
# safe minimum (dlamch("S")), which for IEEE doubles is the smallest normal.
_ABSTOL = 2.0 * np.finfo(float).tiny
TWO_PI_E = 2.0 * math.pi * math.e
_IID = ChannelLaw(kind="iid_uniform")


def holds(lhs: float, rhs: float) -> bool:
    """The one slack rule: ``lhs <= rhs`` up to ``SLACK_REL |rhs| +
    SLACK_ABS``, for a right-hand side of either sign."""
    return lhs <= rhs + SLACK_REL * abs(rhs) + SLACK_ABS


def _lapack(name: str, *args, **kwargs):
    """``scipy.linalg.lapack.<name>(*args, **kwargs)``'s outputs without its
    trailing ``info`` (the one output alone), which must be 0: otherwise
    ``LinAlgError``."""
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed: info = {info}")
    return out[0] if len(out) == 1 else out


@cache
def _lwork(name: str, n: int):
    """Optimal workspace of ``name`` at order ``n``, from its ``_lwork``
    query, as integers: ``lwork`` (dsytrd) or ``(lwork, liwork)`` (dsyevr)."""
    out = _lapack(name + "_lwork", n, lower=1)
    return tuple(int(v) for v in out) if isinstance(out, list) else int(out)


def _tridiagonal(a: np.ndarray):
    """Diagonal and off-diagonal of the tridiagonal ``T = U' a U``, ``U``
    orthogonal, that dsytrd reduces the symmetric ``a`` to (lower triangle
    read; overwritten when F-contiguous): ``T`` has ``a``'s eigenvalues."""
    _, d, e, _ = _lapack("dsytrd", a, lower=1, lwork=_lwork("dsytrd", a.shape[0]), overwrite_a=1)
    return d, e


def _bisect(d: np.ndarray, e: np.ndarray, index: int) -> float:
    """Eigenvalue of 1-based ``index`` of the symmetric tridiagonal ``(d,
    e)``, by bisection (dstebz, which refuses order 1: there it is ``d``)."""
    if len(d) == 1:
        return float(d[0])
    return float(_lapack("dstebz", d, e, 2, 0.0, 0.0, index, index, 0.0, b"E")[1][0])


class _Pencil(NamedTuple):
    """All the output-covariance checks read of the pencil eigenvalues
    ``lam``: their count, ``sum lam^2``, ``sum log lam`` and ``max lam``."""

    m: int
    sum_sq: float
    sum_log: float
    top: float


def _pencil_of(d: np.ndarray, e: np.ndarray) -> _Pencil:
    """``_Pencil`` of the positive definite tridiagonal ``T = (d, e)``
    similar to ``psi``, read off ``T`` without its eigenvalues: ``sum lam^2
    = ||T||_F^2 = sum d^2 + 2 sum e^2``; ``sum log lam = log det T``, the sum
    of the logs of its LDL' pivots ``p_1 = d_1``, ``p_i = d_i - e_(i-1)^2 /
    p_(i-1)`` (``LinAlgError`` if one is not positive); ``max lam`` by
    bisection."""
    pivots = [float(d[0])]
    for di, ei in zip(d[1:].tolist(), e.tolist()):
        if not pivots[-1] > 0.0:
            break
        pivots.append(di - ei * ei / pivots[-1])
    if not pivots[-1] > 0.0:
        raise np.linalg.LinAlgError("the pencil is not positive definite")
    m = len(d)
    return _Pencil(m, float(d @ d + 2.0 * (e @ e)), float(np.log(pivots).sum()), _bisect(d, e, m))


@dataclass(frozen=True, eq=False)
class _Dense:
    """The dense form of a whitened matrix ``W``, over the array ``a``.  Both
    forms meet one interface: ``gram`` (``W'W``), ``output_cov`` (``I + W
    W'``), ``op_norm`` and ``stacked_terms`` (``(||I + W'W||_F^2,
    ||W||_F^2, m)`` for ``m`` rows) of ``W``; and, of symmetric matrices in
    the layout ``gram`` and ``output_cov`` give, ``eigvals``, ``extremes``
    and the ``pencil`` of a pair.  Here that layout is a symmetric array
    handed over as its own transpose, F-contiguous (lower triangle read),
    so LAPACK works on it in place: ``eigvals``, ``extremes`` and
    ``pencil`` overwrite it."""

    a: np.ndarray

    def gram(self) -> np.ndarray:
        return (self.a.T @ self.a).T

    def output_cov(self) -> np.ndarray:
        out = self.a @ self.a.T
        out[np.diag_indices_from(out)] += 1.0
        return out.T

    def op_norm(self) -> float:
        """The square root of the top eigenvalue of the smaller Gram matrix."""
        M = self.a
        G = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
        return math.sqrt(max(float(self.eigvals(G.T, G.shape[0])[0]), 0.0))

    def stacked_terms(self) -> tuple[float, float, int]:
        G = self.a.T @ self.a
        G[np.diag_indices_from(G)] += 1.0
        return float(np.linalg.norm(G)) ** 2, float(np.linalg.norm(self.a)) ** 2, self.a.shape[0]

    @staticmethod
    def eigvals(a: np.ndarray, index: Optional[int] = None) -> np.ndarray:
        """Ascending eigenvalues by dsyevr, as ``scipy.linalg.eigvalsh``
        calls it: all of them, or only the one of 1-based ``index``."""
        lwork, liwork = _lwork("dsyevr", a.shape[0])
        sub = {} if index is None else dict(range="I", il=index, iu=index)
        w, _, m, _ = _lapack("dsyevr", a, compute_v=0, lower=1, lwork=lwork, liwork=liwork, overwrite_a=1, **sub)
        return w[:m]

    @staticmethod
    def extremes(a: np.ndarray) -> tuple[float, float]:
        d, e = _tridiagonal(a)
        return _bisect(d, e, 1), _bisect(d, e, len(d))

    @staticmethod
    def pencil(omega_c: np.ndarray, omega_h: np.ndarray) -> _Pencil:
        """``_Pencil`` of ``Omega_h v = lam Omega_c v``: the eigenvalues of
        ``psi = L^-1 Omega_h L^-T`` for the Cholesky factor ``L`` of
        ``Omega_c`` (Golub & Van Loan, *Matrix Computations*, 8.7), read off
        the tridiagonal form of ``psi`` (dpotrf, dsygst, dsytrd: dsygv
        without its closing eigensolve)."""
        L = _lapack("dpotrf", omega_c, lower=1, overwrite_a=1)
        return _pencil_of(*_tridiagonal(_lapack("dsygst", omega_h, L, lower=1, overwrite_a=1)))


class _Band(BandedChannelMatrix):
    """The band form of ``W``, with ``_Dense``'s interface: a band channel
    matrix, whose ``gram`` and ``output_cov`` give lower band forms (row
    ``e`` holds diagonal ``e``), which LAPACK reads as
    ``scipy.linalg.eigvals_banded`` hands them over, without overwriting."""

    def op_norm(self) -> float:
        return math.sqrt(max(float(self.eigvals(self.gram(), self.n)[0]), 0.0))

    def stacked_terms(self) -> tuple[float, float, int]:
        """Off the band Gram, whose trace is ``||W||_F^2`` and whose
        off-diagonals count twice."""
        G = self.gram()
        s_sq = float(G[0].sum())
        G[0] += 1.0
        return float((G[0] * G[0]).sum() + 2.0 * (G[1:] * G[1:]).sum()), s_sq, self.m

    @staticmethod
    def eigvals(band: np.ndarray, index: Optional[int] = None) -> np.ndarray:
        """All by dsbevd, or only the one of 1-based ``index`` by dsbevx."""
        if index is None:
            return _lapack("dsbevd", band, compute_v=0, lower=1, overwrite_ab=0)[0]
        w, _, m, _ = _lapack("dsbevx", band, 0.0, 1.0, index, index, compute_v=0, range=2, lower=1,
                             abstol=_ABSTOL, mmax=1, overwrite_ab=0)
        return w[:m]

    @staticmethod
    def extremes(band: np.ndarray) -> tuple[float, float]:
        return float(_Band.eigvals(band, 1)[0]), float(_Band.eigvals(band, band.shape[1])[0])

    @staticmethod
    def pencil(omega_c: np.ndarray, omega_h: np.ndarray) -> _Pencil:
        """``_Dense.pencil`` with ``L`` by dpbtrf and ``psi`` by two band
        triangular solves (dtbtrs) against ``Omega_h`` made dense."""
        L = _lapack("dpbtrf", omega_c, lower=1)
        m = omega_h.shape[1]
        psi = np.zeros((m, m))
        for e, diag in enumerate(omega_h):
            i = np.arange(m - e)
            psi[i + e, i] = psi[i, i + e] = diag[: m - e]
        for _ in range(2):
            psi = _lapack("dtbtrs", L, psi.T, uplo="L", overwrite_b=1)
        return _pencil_of(*_tridiagonal(psi))


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
    """A random well-conditioned channel, its ``Extrema`` from
    ``centre_extrema`` (no FFT table), and a block length n in [k+1,
    n_max].  Redrawn while alpha < 0.05 beta."""
    while True:
        k = int(rng.integers(1, K_MAX + 1))
        c = rng.uniform(-1.0, 1.0, k + 1)
        if np.abs(c).max() < 0.1:
            continue
        r = rng.uniform(0.0, 0.5, k + 1)
        if r.sum() == 0.0:
            continue
        ext = centre_extrema(c)
        if ext.alpha < 0.05 * ext.beta:
            continue
        return ChannelSpec(k=k, c=tuple(c), r=tuple(r)), ext, int(rng.integers(k + 1, n_max + 1))


class _Cov:
    """A drawn covariance ``Sigma = Q diag(d) Q'`` for a random orthonormal
    ``Q``, or ``Q = None`` for ``Q = I``.  Checks see it only through
    ``whiten``, the one reader of ``Q``, exact because each is invariant
    under ``X Sigma^(1/2) -> X Sigma^(1/2) Q`` and ``X Sigma X' = W W'``."""

    def __init__(self, d: np.ndarray, Q: Optional[np.ndarray]) -> None:
        self.d, self.Q, self.n = d, Q, len(d)
        self.sqrt_d = np.sqrt(d)
        self.trace, self.lam_min, self.lam_max = float(d.sum()), float(d.min()), float(d.max())

    def whiten(self, H: BandedChannelMatrix):
        """``W = H Q diag(sqrt(d))`` for a band ``H``, in the form ``Q`` picks:
        ``_Band`` for ``Q = I``, else ``_Dense``, the band applied to ``Q'``."""
        if self.Q is None:
            return _Band(n=H.n, k=H.k, taps=H.scaled(self.sqrt_d).taps)
        return _Dense(H.apply(self.Q.T).T * self.sqrt_d)


def _random_cov(rng: np.random.Generator, n: int) -> _Cov:
    d = 10.0 ** rng.uniform(-2.0, 1.0, n)
    if rng.random() < 0.5:
        return _Cov(d=d, Q=None)
    Q = np.asfortranarray(np.linalg.qr(rng.standard_normal((n, n)))[0])  # rows of Q' contiguous
    G = Q.T @ Q
    G[np.diag_indices(n)] -= 1.0
    if np.abs(G).max() > 1e-8:
        raise ValueError("drawn basis is not orthonormal")
    return _Cov(d=d, Q=Q)


def _rescale_radii_for_phi1(spec: ChannelSpec, ext: Extrema, cov: _Cov, target: float) -> ChannelSpec:
    """``spec`` with all radii scaled so the leading penalty ratio hits
    ``target`` < 1 for this covariance, keeping the suite instances
    non-trivial; of the centre's ``ext`` it reads ``alpha`` and ``beta`` alone."""
    s_target = target * (1.0 + ext.alpha ** 2 * cov.lam_min) / cov.lam_max
    rs = spec.r_s
    t = (-ext.beta + math.sqrt(ext.beta ** 2 + s_target)) / rs
    return ChannelSpec(k=spec.k, c=spec.c, r=tuple(t * v for v in spec.r))


def _sample_banded(rng: np.random.Generator, spec: ChannelSpec, n: int) -> BandedChannelMatrix:
    """A channel realization of order ``n`` under the iid law, drawn as
    ``simulate`` draws one: ``k + 1`` rows of ``n + k`` float32 uniforms
    from ``rng``, tap-major, mapped to ``c + r (2u - 1)``
    (``channel_sim._taps_from``)."""
    m = n + spec.k
    u = rng.random((spec.k + 1, m), dtype=np.float32)
    return BandedChannelMatrix(n=n, k=spec.k, taps=_taps_from(u, spec, _IID, m))


def _lemma1_instance(rng, i, n_max):
    p, q, r = (int(v) for v in rng.integers(1, n_max + 1, 3))
    scale1, scale2 = 10.0 ** rng.uniform(-1.0, 2.0, 2)
    M1 = scale1 * rng.standard_normal((p, q))
    return M1, scale2 * rng.standard_normal((q, r))


def _centre_instance(rng, i, n_max):
    """(band centre matrix, its operator-norm cap ``beta``)."""
    spec, ext, n = _random_channel(rng, n_max)
    return _Band(n=n, k=spec.k, taps=build_Hc(spec, n).taps), ext.beta


def _deviation_instance(rng, i, n_max):
    """(band sampled-minus-centre matrix, its operator-norm cap ``r_s``)."""
    spec, _, n = _random_channel(rng, n_max)
    return _Band(n=n, k=spec.k, taps=(_sample_banded(rng, spec, n) - build_Hc(spec, n)).taps), spec.r_s


def _channel_instance(rng, i, n_max):
    """(band H, band Hc, covariance, its ``thresholds``, ``eta'``, the
    ``_Pencil`` of ``(Omega_h, Omega_c)``, ``W = whiten(H)``, ``Wc =
    whiten(Hc)``), radii scaled so phi1 < 1; ``eta'`` is drawn last, from
    [0, 1), where the shell exists.  ``W`` and ``Wc`` come in the form
    ``whiten`` picks, whose ``output_cov`` and ``pencil`` give the pencil."""
    spec, ext, n = _random_channel(rng, n_max)
    cov = _random_cov(rng, n)
    spec = _rescale_radii_for_phi1(spec, ext, cov, target=float(rng.uniform(0.05, 0.9)))
    Hc, H = build_Hc(spec, n), _sample_banded(rng, spec, n)
    rep = thresholds(spec, ext, cov, cov.trace / n)
    W, Wc = cov.whiten(H), cov.whiten(Hc)
    return H, Hc, cov, rep, float(rng.uniform(0.0, 1.0)), W.pencil(Wc.output_cov(), W.output_cov()), W, Wc


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
    rhs1 = _Dense(M1).op_norm() * float(np.linalg.norm(M2))
    rhs2 = _Dense(M2).op_norm() * float(np.linalg.norm(M1))
    return min(rhs1, rhs2) - prod, holds(prod, rhs1) and holds(prod, rhs2)


def _op_cap(inst):
    """``||M||_op <= cap`` for a band channel matrix ``M``, with
    ``||M||_op^2 = lambda_max(M'M)`` taken on the band Gram matrix."""
    M, cap = inst
    op = M.op_norm()
    return cap - op, holds(op, cap)


def _stacked_trace(inst):
    """``2 ||Phi||_F^2 <= C_n`` for ``Phi = [[I + S'S, S'], [S, I]]`` with
    ``S = whiten(H - Hc)``, summed block by block:
    ``||Phi||_F^2 = ||I + S'S||_F^2 + 2 ||S||_F^2 + m``: the three terms of
    ``stacked_terms``."""
    H, Hc, cov, rep = inst[:4]
    g_sq, s_sq, m = cov.whiten(H - Hc).stacked_terms()
    lhs = 2.0 * (g_sq + 2.0 * s_sq + m)
    return rep.C_n - lhs, holds(lhs, rep.C_n)


def _whitened_trace(inst):
    """``2 ||B' Omega_c^-1 B||_F^2 <= C'_n`` for ``B = [H Sigma^(1/2), I]``.
    Since ``B B' = Omega_h``, ``||B' Omega_c^-1 B||_F = ||L^-1 Omega_h
    L^-T||_F`` with ``L`` the Cholesky factor of ``Omega_c``, and that is
    ``sqrt(sum lam^2)`` over the pencil eigenvalues ``lam``: the check reads
    the pencil's ``sum_sq``."""
    rep, pencil = inst[3], inst[5]
    lhs = 2.0 * pencil.sum_sq
    return rep.C_prime_n - lhs, holds(lhs, rep.C_prime_n)


def _det_floor(inst):
    """Worst-case output-covariance determinant floor, in the log domain:
    ``m log(1 - phi1) + log det Omega_c <= log det Omega_h``.  The
    log-determinants' difference is ``sum log lam`` over the pencil
    eigenvalues ``lam``, so the check reads ``m log(1 - phi1) <= sum log
    lam``: the pencil's ``m`` and ``sum_log``."""
    rep, pencil = inst[3], inst[5]
    floor = pencil.m * math.log(1.0 - rep.phi1_n)
    return pencil.sum_log - floor, holds(floor, pencil.sum_log)


def _eig_stability(inst):
    """Weyl: the largest eigenvalue shift of the whitened Gram pair
    ``A = W'W``, ``B = Wc'Wc`` with ``W = whiten(H)``, ``Wc = whiten(Hc)``
    (so ``A`` is similar to ``Sigma^(1/2) H'H Sigma^(1/2)``) is at most the
    operator norm of the symmetric perturbation ``A - B``.  The check reads
    every eigenvalue of ``A`` and of ``B``, but only the two extreme ones of
    ``A - B``, whose norm is ``max(-lam_min, lam_max)``.  A dense form's
    spectrum overwrites its matrix, so ``A``'s is taken on a copy, dropped
    before ``B`` is formed, and ``A`` itself becomes ``A - B``: with ``Q``,
    ``W`` and ``Wc``, at most five dense arrays are live."""
    W, Wc = inst[6:]
    diff = W.gram()
    a = W.eigvals(diff.copy(order="K"))
    B = Wc.gram()
    diff -= B
    gap = float(np.abs(a - W.eigvals(B)).max())
    lo, hi = W.extremes(diff)
    op = max(-lo, hi)
    return op - gap, holds(gap, op)


def _shell_floor(inst):
    """``m (1 - eta') phi3 <= min y' Omega_h^-1 y`` over the shell
    ``y' Omega_c^-1 y = m (1 - eta')``, the minimum being the shell radius
    over the largest pencil eigenvalue ``lam_max``: the check reads ``m (1 -
    eta') phi3 <= m (1 - eta') / lam_max``, the pencil's ``m`` and ``top``."""
    rep, eta_prime, pencil = inst[3:6]
    radius = pencil.m * (1.0 - eta_prime)
    val, floor = radius / pencil.top, radius * rep.phi3_n
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
    ``n_max + K_MAX``, and ``_SAMPLE_FIXED``."""
    order = n_max + K_MAX
    return 8 * (_DENSE_ARRAYS * order * order + _EIG_WORK * order) + _SAMPLE_FIXED


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
        cells = _Cells(master_seed, VERIFY_STREAM_BASE + first)
        for i, rng in enumerate(map(cells.at, range(samples))):
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
