"""Joint-typicality decoding and error-rate experiments.

A candidate message passes when its codeword looks typical under the input
covariance and the stacked (input, output) vector looks typical under the
joint covariance of the centre channel.  Decoding succeeds when exactly one
candidate passes; otherwise the failure records whether nothing passed or
several did.

The joint covariance ``Xi`` has the closed-form inverse
``[[Sigma^{-1} + H'H, -H'], [-H, I]]`` and ``det Xi = det Sigma``, so the
stacked quadratic form splits into the input form plus a centre-channel
residual ``||a - y||^2``, where ``a`` is the codeword's image through the
centre channel.  Neither ``Xi`` nor its inverse is ever formed here; the
test suite builds both densely to check these identities.  The decode
path exploits the split: it scores a block of received vectors against
the whole codebook with one GEMM, through ``||a||^2 - 2 a.y + ||y||^2``,
and recomputes in the direct ``||a - y||^2`` form any pair that lies
within a rounding-error bound of a threshold, so every decision is the
one the direct form makes.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Optional, Union

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .spectrum import (
    DEFAULT_GRID,
    BandedChannelMatrix,
    ChannelSpec,
    SpectrumProfile,
    build_Hc,
    compute_profile,
)
from .waterfill import _penalty, phi_terms
from .channel_sim import (
    ChannelLaw,
    Codebook,
    CovarianceSpec,
    TrialBlocks,
    build_sigma,
    check_law,
    codebook_size,
    gen_codebook,
    trial_block,
)

__all__ = [
    "TypicalParams",
    "ThresholdReport",
    "JointCovariance",
    "DecodeFailure",
    "ExperimentResult",
    "thresholds",
    "default_params",
    "build_joint",
    "decode",
    "prepare_context",
    "wilson_interval",
    "run_error_experiment",
]

DEFAULT_EPSILON = 0.1
# Safety factor on the forward-error bound that sets the guard band.
_GUARD = 2.0
# Codewords per block when prepare_context builds the images.
_IMAGE_ROWS = 256


@dataclass(frozen=True)
class TypicalParams:
    """Decoder thresholds: ``epsilon`` for the input test, ``eta`` for the
    joint test."""

    epsilon: float
    eta: float

    def __post_init__(self) -> None:
        if min(self.epsilon, self.eta) <= 0.0:
            raise ValueError("typicality thresholds must be positive")


@dataclass(frozen=True)
class ThresholdReport:
    """Blocklength-dependent analysis constants for a covariance/power pair:
    the natural typicality scales (eta_n, eta_prime_n), the penalty ratios
    (phi1..phi3) with their penalty delta_n, and the trace budgets
    (C_n, C_prime_n) used by the verification suites."""

    n: int
    m: int
    eta_n: float
    eta_prime_n: float
    C_n: float
    C_prime_n: float
    phi1_n: float
    phi2_n: float
    phi3_n: float
    delta_n: float


def trace_budgets(
    spec: ChannelSpec,
    profile: SpectrumProfile,
    cov: CovarianceSpec,
    P: float,
) -> tuple[float, float]:
    """Budgets bounding twice the squared Frobenius norms of the stacked
    deviation block matrix and of the whitened-output block matrix; both are
    valid for any radii (no small-radius hypothesis)."""
    n = cov.n
    m = n + spec.k
    rs = profile.r_s
    bs = profile.beta + rs
    C_n = (
        2.0 * m
        + 2.0 * n
        + 8.0 * (spec.k + 1) * n * P * spec.norm_r_sq
        + 2.0 * n * P * rs ** 4 * cov.lam_max
    )
    C_prime_n = 2.0 * m + 4.0 * bs ** 2 * n * P + 2.0 * n * P * bs ** 4 * cov.lam_max
    return C_n, C_prime_n


def thresholds(
    spec: ChannelSpec,
    profile: SpectrumProfile,
    cov: CovarianceSpec,
    P: float,
) -> ThresholdReport:
    n = cov.n
    m = n + spec.k
    phi1, phi2, phi3 = phi_terms(profile, cov.lam_min, cov.lam_max, cov.trace, m)
    delta_n = sum(_penalty(profile, cov.lam_min, cov.lam_max, cov.trace / m))
    eta_n = (spec.k + 1) * spec.norm_r_sq * cov.trace / (m + n)
    C_n, C_prime_n = trace_budgets(spec, profile, cov, P)
    return ThresholdReport(
        n=n,
        m=m,
        eta_n=eta_n,
        eta_prime_n=phi2,
        C_n=C_n,
        C_prime_n=C_prime_n,
        phi1_n=phi1,
        phi2_n=phi2,
        phi3_n=phi3,
        delta_n=delta_n,
    )


def default_params(report: ThresholdReport) -> TypicalParams:
    """Decoder thresholds sized from the analysis scales, with headroom so
    the typical sets have probability bounded away from zero at moderate
    blocklengths."""
    return TypicalParams(
        epsilon=DEFAULT_EPSILON,
        eta=1.5 * report.eta_n + 0.05,
    )


@dataclass(frozen=True)
class JointCovariance:
    """Joint law of ``(x, y)`` under the centre channel, held in factored
    form: the input covariance ``cov`` and the centre matrix ``hc`` in
    band form (the ``(m, k + 1)`` tap array of a ``BandedChannelMatrix``).
    The dense joint covariance and its inverse are not stored."""

    n: int
    m: int
    hc: np.ndarray
    cov: CovarianceSpec


def build_joint(cov: CovarianceSpec, Hc: BandedChannelMatrix) -> JointCovariance:
    """Pair the input covariance with the centre matrix after checking
    their shapes; a non-finite tap is refused (``CovarianceSpec`` refuses
    its own entries)."""
    if Hc.n != cov.n:
        raise DimensionMismatch(
            f"channel matrix shape ({Hc.m}, {Hc.n}) incompatible with n={cov.n}"
        )
    if not np.isfinite(Hc.taps).all():
        raise NotPositiveDefinite("channel matrix has non-finite taps")
    return JointCovariance(n=cov.n, m=Hc.m, hc=Hc.taps, cov=cov)


@dataclass(frozen=True)
class DecodeFailure:
    """Decode outcome when no unique candidate passes: ``kind`` is ``"none"``
    (empty candidate set) or ``"ambiguous"`` (``count >= 2`` candidates)."""

    kind: Literal["none", "ambiguous"]
    count: int = 0


@dataclass(frozen=True)
class DecodeContext:
    """Per-(codebook, channel) precomputation: the input statistics
    ``x' Sigma^{-1} x`` (the codebook's own ``q``, exact from the draw), the
    centre-channel images of every codeword and their squared norms."""

    q_sigma: np.ndarray
    images: np.ndarray
    image_sq: np.ndarray


def prepare_context(book: Codebook, joint: JointCovariance) -> DecodeContext:
    """Images ``a = Hc x`` and ``||a||^2`` for every codeword, with the input
    statistic ``book.q``.  The images are built straight from the columns
    of the band ``joint.hc``, as shifted multiply-adds of the codewords over
    blocks of ``_IMAGE_ROWS`` rows, so no temporary grows with the
    codebook."""
    n, m = joint.n, joint.m
    images = np.zeros((book.size, m))
    tmp = np.empty((min(book.size, _IMAGE_ROWS), n))
    for lo in range(0, book.size, _IMAGE_ROWS):
        X = book.codewords[lo:lo + _IMAGE_ROWS]
        A = images[lo:lo + _IMAGE_ROWS]
        for lag in range(m - n + 1):
            t = np.multiply(X, joint.hc[lag:lag + n, lag], out=tmp[:len(X)])
            A[:, lag:lag + n] += t
    image_sq = np.einsum("ij,ij->i", images, images)
    images.setflags(write=False)
    image_sq.setflags(write=False)
    return DecodeContext(q_sigma=book.q, images=images, image_sq=image_sq)


def _guard_band(ctx: DecodeContext, y_sq: np.ndarray, n: int, m: int) -> np.ndarray:
    """For each received vector, a bound on how far the GEMM form of the
    joint deviation ``|w - 1|`` can lie from the direct form, over every
    codeword.

    Both forms get ``||a - y||^2`` from m-term dot products, each off by at
    most ``gamma_m`` times a quantity no larger than ``s^2 = (||a|| +
    ||y||)^2``; the adds, the division by ``n + m`` and the subtraction of 1
    round values no larger than ``(q + s^2) / (n + m)`` or 1.  So the two
    deviations differ by less than ``(m + 8) eps (1 + (q + s^2) / (n + m))``.
    The band takes ``q`` and ``||a||`` at their codebook maxima and doubles
    the bound."""
    s = math.sqrt(float(ctx.image_sq.max())) + np.sqrt(y_sq)
    scale = (float(ctx.q_sigma.max()) + s * s) / (n + m)
    return _GUARD * (m + 8) * np.finfo(float).eps * (1.0 + scale)


def _pass_mask(
    Y: np.ndarray,
    joint: JointCovariance,
    params: TypicalParams,
    ctx: DecodeContext,
) -> np.ndarray:
    """Boolean pass/fail of the two typicality tests for every codeword
    against every row of ``Y``, shape ``(size, T)``.

    The joint statistic is ``w = (q + ||a - y||^2) / (n + m)``.  One GEMM
    gives the residuals of the whole block as ``||a||^2 - 2 a.y + ||y||^2``;
    a pair whose ``|w - 1|`` lies within the guard band of ``eta`` is
    recomputed from ``a - y`` directly, so each decision equals the
    unbatched rule's.
    """
    n, m = joint.n, joint.m
    if Y.ndim != 2 or Y.shape[1] != m:
        raise DimensionMismatch(
            f"received vectors have shape {Y.shape[1:]}, channel expects ({m},)"
        )
    y_sq = np.einsum("ij,ij->i", Y, Y)
    dev = ctx.images @ Y.T
    dev *= -2.0
    dev += ctx.image_sq[:, None]
    dev += y_sq
    dev += ctx.q_sigma[:, None]
    dev /= n + m
    dev -= 1.0
    np.abs(dev, out=dev)
    x_ok = (np.abs(ctx.q_sigma / n - 1.0) < params.epsilon)[:, None]
    out = (dev < params.eta) & x_ok
    dev -= params.eta
    np.abs(dev, out=dev)
    rows, cols = np.nonzero(~(dev > _guard_band(ctx, y_sq, n, m)) & x_ok)
    if rows.size:
        diff = ctx.images[rows] - Y[cols]
        resid = np.einsum("ij,ij->i", diff, diff)
        w_form = (ctx.q_sigma[rows] + resid) / (n + m)
        out[rows, cols] = np.abs(w_form - 1.0) < params.eta
    return out


def decode(
    y: np.ndarray,
    book: Codebook,
    joint: JointCovariance,
    params: TypicalParams,
    ctx: Optional[DecodeContext] = None,
) -> Union[int, DecodeFailure]:
    """Exhaustive joint-typicality decoding of one received vector: returns
    the unique passing message index, or a DecodeFailure value."""
    if ctx is None:
        ctx = prepare_context(book, joint)
    mask = _pass_mask(np.asarray(y, dtype=float)[None], joint, params, ctx)
    hits = np.flatnonzero(mask)
    if len(hits) == 1:
        return int(hits[0])
    if len(hits) == 0:
        return DecodeFailure(kind="none")
    return DecodeFailure(kind="ambiguous", count=len(hits))


def wilson_interval(events: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need trials > 0")
    if not 0 <= events <= trials:
        raise ValueError("events outside [0, trials]")
    p = events / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class ExperimentResult:
    """Counts from an error experiment.  A trial is type1 when the
    transmitted codeword itself fails a typicality test, type2 when it
    passes but is not the unique candidate; the Wilson interval covers the
    total error probability."""

    n: int
    R: float
    P: float
    trials: int
    type1: int
    type2: int
    success: int
    wilson_lo: float
    wilson_hi: float

    @property
    def errors(self) -> int:
        return self.type1 + self.type2

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials


def run_error_experiment(
    spec: ChannelSpec,
    n: int,
    R: float,
    P: float,
    trials: int,
    master_seed: int = 0,
    law: ChannelLaw = ChannelLaw(kind="iid_uniform"),
    params: Optional[TypicalParams] = None,
    threads: int = 1,
    grid_size: int = DEFAULT_GRID,
) -> ExperimentResult:
    """Monte Carlo error rates of the joint-typicality decoder.

    Each trial draws its own channel, noise, and message from per-trial
    streams, and each thread draws and scores its trials in blocks of
    ``trial_block(size)`` with exact decisions, so the counts are
    independent of ``threads`` and of the block size.  A codebook too large
    to decode exhaustively is refused before any set-up.
    """
    if trials <= 0:
        raise ValueError("need trials > 0")
    if master_seed < 0:
        raise ValueError(f"need master_seed >= 0, got {master_seed}")
    check_law(spec, law)
    codebook_size(n, R, spec.k)
    profile = compute_profile(spec, grid_size)
    cov = build_sigma(spec, n, P)
    report = thresholds(spec, profile, cov, P)
    if params is None:
        params = default_params(report)
    book = gen_codebook(cov, R, master_seed, k=spec.k)
    joint = build_joint(cov, build_Hc(spec, n))
    ctx = prepare_context(book, joint)
    block = trial_block(book.size)

    def run_range(lo: int, hi: int) -> tuple[int, int, int]:
        t1 = t2 = ok = 0
        draws = TrialBlocks(spec, n, law, master_seed)
        for start in range(lo, hi, block):
            ts = np.arange(start, min(start + block, hi))
            msgs, Y = draws.draw(ts, book.codewords)
            mask = _pass_mask(Y, joint, params, ctx)
            sent = mask[msgs, np.arange(len(ts))]
            many = np.count_nonzero(mask, axis=0) > 1
            t1 += int(np.count_nonzero(~sent))
            t2 += int(np.count_nonzero(sent & many))
            ok += int(np.count_nonzero(sent & ~many))
        return t1, t2, ok

    if threads <= 1:
        parts = [run_range(0, trials)]
    else:
        step = math.ceil(trials / threads)
        spans = [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda s: run_range(*s), spans))
    type1 = sum(p[0] for p in parts)
    type2 = sum(p[1] for p in parts)
    success = sum(p[2] for p in parts)
    lo, hi = wilson_interval(type1 + type2, trials)
    return ExperimentResult(
        n=n,
        R=R,
        P=P,
        trials=trials,
        type1=type1,
        type2=type2,
        success=success,
        wilson_lo=lo,
        wilson_hi=hi,
    )
