"""Joint-typicality decoding and error-rate experiments.

A candidate message passes when its codeword looks typical under the input
covariance and the stacked (input, output) vector looks typical under the
joint covariance of the centre channel.  Decoding succeeds when exactly one
candidate passes; otherwise the failure records whether nothing passed or
several did.

The joint covariance ``Xi`` has the closed-form inverse
``[[Sigma^{-1} + H'H, -H'], [-H, I]]`` and ``det Xi = det Sigma``, so the
stacked quadratic form splits into the input form plus a centre-channel
residual ``||a - y||^2``, where ``a = Hc x`` is the codeword's image through
the centre channel.  Neither ``Xi`` nor its inverse is ever formed here;
the test suite builds both densely to check these identities.

The decoder works on the codebook's support coefficients ``s`` (a codeword
is ``x = U s + x_f`` for the support columns ``U`` of the covariance and
a floor part ``x_f`` orthogonal to them, of squared norm ``POWER_FLOOR
q_floor``), and builds neither codewords nor images, nor ``U``: the
support stays as its two half bases.  For ``a.y = s.(U'Hc'y) + x_f.(Hc'y)``
it projects a block of received vectors once, ``Z = (Hc'Y) U`` (two half
GEMMs at the support's width), and scores the whole codebook against
``Z`` with one GEMM.  The floor term is bounded per received vector by
Cauchy-Schwarz, ``|x_f.Hc'y| <= ||x_f|| ||Hc'y||``.  For ``||a||^2`` it
takes the energy ``sum_j lam_j s_j^2``, with the gains ``lam_j =
u_j'(Hc'Hc)u_j``, which is exact on the support when ``U`` holds
eigenvectors of ``Hc'Hc``, as ``build_sigma`` gives; the floor energy
``||Hc x_f||^2`` is at most ``h^2 ||x_f||^2`` (``h = sum |c|``), and the
cross term ``2 (Hc U s).(Hc x_f)`` is of the order of ``orth_defect`` and
the eigen-residual.  The residual is then ``energy - 2 s.z + ||y||^2``.
The codebook holds ``s`` in float32, and the score and its tail run in
float32 too: ``Z`` is rounded to float32 for one float32 GEMM against the
coefficients, and the per-vector and per-word terms are added in float32.
A pair that lies within a bound on that form's error of a threshold (its
float64 and float32 rounding, the floor terms, and the measured
eigen-residual of ``U``, which is large for any other basis) is recomputed
in the direct ``||Hc x - y||^2`` form, in float64, from its one codeword,
so every decision is the one the direct form makes.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Optional, Union

import numpy as np

from .errors import DimensionMismatch
from .spectrum import (
    FOLD_ULPS,
    BandedChannelMatrix,
    ChannelSpec,
    _as_int,
    build_Hc,
    checked_extrema,
)
from .waterfill import POWER_FLOOR, ThresholdReport, thresholds
from .channel_sim import (
    _DIRECT_ENTRIES,
    _TRIAL_CELL,
    FLOOR_REPROJECT,
    ChannelLaw,
    Codebook,
    CovarianceSpec,
    TrialBlocks,
    _row_form,
    build_sigma,
    check_law,
    codebook_size,
    gen_codebook,
    message_picks,
    sent_words,
    trial_block,
)

__all__ = [
    "TypicalParams",
    "JointCovariance",
    "DecodeFailure",
    "ExperimentResult",
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
# Unit roundoff of float32, in which the scores are formed.
_U32 = 2.0 ** -24
# A received vector's band is infinite once a bound on the values of its
# float32 form (the deviation's terms, the score, the projection, eta)
# reaches this: far below float32's overflow at 2**128, so no value under
# it overflows.
_F32_RANGE = 2.0 ** 100
# Bytes of arrays that ``_setup``'s cache may hold across calls.
_SETUP_BYTES = 64 << 20
# ``(spec, n, P)`` -> ``((cov, report, joint), bytes)``, least recently
# used first.
_setups: OrderedDict = OrderedDict()
_setups_lock = threading.Lock()


@dataclass(frozen=True)
class TypicalParams:
    """Decoder thresholds: ``epsilon`` for the input test, ``eta`` for the
    joint test."""

    epsilon: float
    eta: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0.0 for v in (self.epsilon, self.eta)):
            raise ValueError(
                f"typicality thresholds must be positive and finite, got epsilon={self.epsilon!r}, "
                f"eta={self.eta!r}"
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
    form: the input covariance ``cov`` and the centre matrix ``hc``, a
    ``BandedChannelMatrix``.  The dense joint covariance and its inverse
    are not stored.

    ``gain[j] = u_j'(Hc'Hc)u_j`` for the columns ``u_j`` of the covariance
    basis ``U``, and ``resid`` bounds ``||Hc'Hc U - U diag(gain)||_F``, the
    computed residual plus its rounding, both from
    ``HalfBasis.gram_fit``: rounding-sized for the eigenbasis
    ``build_sigma`` gives, large for any other basis."""

    hc: BandedChannelMatrix
    cov: CovarianceSpec
    gain: np.ndarray
    resid: float


def build_joint(cov: CovarianceSpec, Hc: BandedChannelMatrix) -> JointCovariance:
    """Pair the input covariance with the centre matrix after checking
    their shapes; a non-finite tap is refused (``CovarianceSpec`` refuses
    its own entries), and so is a matrix whose outputs do not all apply
    the same taps, which is no centre matrix.  Then measure the basis against
    ``G = Hc'Hc`` without forming ``U`` (``HalfBasis.gram_fit``): its gains
    and the bound on its eigen-residual are the ``gain`` and ``resid``
    fields."""
    if Hc.n != cov.n:
        raise DimensionMismatch(f"channel matrix shape ({Hc.m}, {Hc.n}) incompatible with n={cov.n}")
    if not np.isfinite(Hc.taps).all():
        raise ValueError("channel matrix has non-finite taps")
    if not (Hc.taps == Hc.taps[:, :1]).all():
        raise ValueError("build_joint needs the centre matrix: every output the same taps")
    gain, resid = cov.halves.gram_fit(Hc.taps[:, 0].copy())
    gain.setflags(write=False)
    return JointCovariance(hc=Hc, cov=cov, gain=gain, resid=resid)


@dataclass(frozen=True)
class DecodeFailure:
    """Decode outcome when no unique candidate passes: ``kind`` is ``"none"``
    (empty candidate set) or ``"ambiguous"`` (``count >= 2`` candidates)."""

    kind: Literal["none", "ambiguous"]
    count: int = 0


@dataclass(frozen=True)
class DecodeContext:
    """Per-(codebook, channel) precomputation: each codeword's energy
    ``sum_j lam_j s_j^2`` over the support, which stands for ``||Hc
    x||^2``, the score's per-word term ``base = fl32((energy + q) / (n +
    m))``, and the guard band's constants (see ``_guard_band``): bounds on
    the energies' error (the floor's energy and cross term included), on
    ``||Hc x||``, on the rounding of a built word's image or of a
    projection per unit of ``||y||``, on a word's coefficient norm ``||s||``
    (``s_norm``), on ``||U||_2`` (``u_norm``), on a word's floor norm
    ``||x_f||``, and the largest input statistic.

    The input statistics are the codebook's own ``q``.  ``images``, every
    codeword's centre-channel image, is built on first access; decoding
    never reads it."""

    book: Codebook
    joint: JointCovariance
    energy: np.ndarray
    base: np.ndarray
    energy_err: float
    a_max: float
    word_err: float
    s_norm: float
    u_norm: float
    floor_norm: float
    q_max: float

    @property
    def q_sigma(self) -> np.ndarray:
        return self.book.q

    @cached_property
    def images(self) -> np.ndarray:
        A = self.joint.hc.apply(self.book.codewords)
        A.setflags(write=False)
        return A


def _g_round(n: int) -> float:
    """``1 + 2 (n + 3) eps``: bounds ``||g_s||^2 / q`` of any word, for
    ``||g_s||^2 = sum_j s_j^2 / d_j`` of its held coefficients, so with a
    factor ``max(d)`` the ratio ``||s||^2 / q``, and ``||x_f||^2 /
    (POWER_FLOOR q_floor)`` of a built floor.  To first order in eps:
    ``Codebook``'s float64 sum ``q`` is within ``(n + 2) eps / 2`` of
    ``||g_s||^2 + q_floor`` (``1 / d_j``, its product, ``n - 1`` adds and
    the floor's add round once each), and the product with ``q`` and the
    factor round twice more; a floor's scale (the sum ``||p||^2``, a
    product, a division and a square root) and the scaled entries squared
    put ``||x_f||^2`` within ``(n + 8) eps / 2`` of ``POWER_FLOOR q_floor``."""
    return 1.0 + 2 * (n + 3) * float(np.finfo(float).eps)


def prepare_context(book: Codebook, joint: JointCovariance) -> DecodeContext:
    """Energies ``sum_j lam_j s_j^2`` of every codeword from its
    coefficients on the support (``_row_form``, a chunk of rows widened at
    a time), the score's per-word term, and the guard band's constants.
    The codebook must be drawn in the basis of ``joint.cov``; no codeword
    or image is built."""
    n, m = joint.hc.n, joint.hc.m
    if book.n != n:
        raise DimensionMismatch(f"codewords have length {book.n}, channel expects {n}")
    cov = book.cov
    if not cov.halves.same_as(joint.cov.halves):
        raise ValueError("the codebook is drawn in another basis than the joint covariance's")
    energy = _row_form(book.S, joint.gain)
    base = energy + book.q
    base /= n + m
    with np.errstate(over="ignore"):
        base = base.astype(np.float32)
    for a in (energy, base):
        a.setflags(write=False)
    eps = float(np.finfo(float).eps)
    q_max = float(book.q.max())
    s_sq = cov.lam_max * q_max * _g_round(n)
    f_sq = POWER_FLOOR * float(book.q_floor.max(initial=0.0)) * _g_round(n)
    # Bounds on the norms of U, Hc and |Hc|, first order in eps: ||U||_2 and
    # ||U||_F from the computed U'U - I (whose own rounding is n^2 eps at most).
    k1 = m - n + 1
    omega = cov.halves.orth_defect + n * n * eps
    mu = math.sqrt(1.0 + omega)
    nu = math.sqrt(n) * mu
    h = float(np.abs(joint.hc.taps).max(axis=1).sum())
    lam_max = float(np.abs(joint.gain).max(initial=0.0))
    # ||U'x_f|| / ||x_f|| of a built floor x_f = c p, p = v - U(U'v), with
    # ||v|| <= FLOOR_REPROJECT ||p||: U'U - I on U'v and the rounding of both
    # half-basis products leave ||U'p|| <= (omega mu + 2 eps (n nu + FOLD_ULPS
    # mu)) ||v||, and the subtraction and the scale add 2 mu eps ||x_f||.
    tilt = FLOOR_REPROJECT * (omega * mu + 2.0 * eps * (n * nu + FOLD_ULPS * mu)) + 2.0 * mu * eps
    # The energies leave out ||Hc x_f||^2 <= h^2 ||x_f||^2 and 2 (Hc U s).(Hc
    # x_f) = 2 s'(GU)'x_f, with GU = U diag(gain) + E at most 2 ||s|| ||x_f||
    # (lam_max tilt + ||E||).
    floor_energy = h * h * f_sq + 2.0 * math.sqrt(s_sq * f_sq) * (lam_max * tilt + joint.resid)
    energy_err = s_sq * (mu * joint.resid + (omega + (n + 1) * eps) * lam_max) + floor_energy
    s_norm = math.sqrt(s_sq)
    return DecodeContext(
        book=book,
        joint=joint,
        energy=energy,
        base=base,
        energy_err=energy_err,
        a_max=math.sqrt(float(energy.max()) + energy_err),
        word_err=eps * h * s_norm * (n * nu + (n + k1 + FOLD_ULPS) * mu),
        s_norm=s_norm,
        u_norm=mu,
        floor_norm=math.sqrt(f_sq),
        q_max=q_max,
    )


def _guard_band(ctx: DecodeContext, y_sq: np.ndarray, b_sq: np.ndarray, eta: float) -> np.ndarray:
    """For each received vector, a bound on how far the float32 GEMM form
    of the joint deviation ``|w - 1|`` can lie from the direct form, over
    every codeword, given ``y_sq = ||y||^2``, ``b_sq``, the computed
    ``||Hc'y||^2``, and the threshold ``eta``.  To first order in eps, with
    ``x = U s + x_f`` a codeword (its floor ``x_f`` as built), ``a = Hc x``
    its exact image and ``L = ||a|| + ||y||``, both forms are compared with
    the exact ``(q + ||a - y||^2) / (n + m)``:

    - direct: the built word ``fl(U s) + x_f`` (two half GEMMs, ``n eps
      ||U||_F ||s||``, the J-fold add and ``1/sqrt(2)`` scale, ``FOLD_ULPS
      eps ||U||_2 ||s||``, and the floor's add) and its band image put the
      image within ``word_err`` of ``a``, so ``||a - y||^2`` moves by at
      most ``2 word_err L``;
    - GEMM: ``Hc'y``, its J-fold and scale, its products with the half
      bases and the score ``s.z`` put ``s.z`` within ``word_err ||y||`` of
      ``s.(U'Hc'y)``, doubled by the ``-2``;
      the energy is within ``energy_err`` of ``||a||^2``:
      ``||s||^2 (||U||_2 E + ||U'U - I||_2 lam_max)`` for the eigen-residual
      ``E``, plus the rounding of the sum, plus the floor's energy and its
      cross term with the support, which the sum leaves out;
    - floor term: the score leaves out ``x_f.(Hc'y)``, at most ``||x_f||
      ||Hc'y||`` (Cauchy-Schwarz), doubled by the ``-2``.  ``||x_f|| <=
      floor_norm``, and the exact ``||Hc'y||`` is within ``(n + 2) eps`` of
      the computed one plus the rounding of ``Hc'y``, ``(k + 1) eps h ||y||``,
      which times ``||x_f||`` is below ``word_err ||y||``;
    - both: the m-term dot products and the adds, the divisions by
      ``n + m`` and the subtractions of 1 round values no larger than
      ``(q + L^2) / (n + m)`` or 1, ``(2m + 11) eps`` in all.  The direct
      form adds ``q`` to ``||a - y||^2``, divides and subtracts 1.  The
      GEMM form scales ``z`` by ``fl(-2 / (n + m))`` (two roundings of a
      score no larger than ``L^2 / (n + m)``) and forms ``fl((energy + q)
      / (n + m))``, the sum rounded once per context, and ``fl(||y||^2 /
      (n + m)) - 1``: eight roundings, three more than when
      it added ``energy``, ``q`` and ``||y||^2`` one by one before one
      division and one subtraction, which ``(2m + 9) eps`` allowed for.

    The float32 form adds, with ``u = 2^-24`` and ``K`` the support's width,
    in units of the deviation:

    - the cast of the scaled projection ``z = -2 U'Hc'y / (n + m)`` to
      float32 moves each entry by ``u |z_j|``, so the score by at most ``u
      ||s|| ||z||`` (Cauchy-Schwarz);
    - the float32 GEMM's ``K``-term dot products add at most ``gamma_K
      sum_j |s_j z_j| <= K u ||s|| ||z||``, to first order and in any
      summation order (Higham, *Accuracy and Stability of Numerical
      Algorithms*, 2002, 3.1); with the cast, ``(K + 2) u ||s|| ||z||``
      leaves room for the second-order terms.  ``||s|| <= s_norm``, and
      ``||z|| <= 2 u_norm ||Hc'y|| / (n + m)``, the computed ``||Hc'y||``
      standing for the exact one to first order;
    - the float32 tail: the per-vector term ``fl(||y||^2 / (n + m)) - 1``
      and the per-word ``base`` are each rounded to float32, and the two
      float32 adds round once each, four roundings of values no larger than
      ``V = (q + L^2) / (n + m) + 1``: ``4 u V``;
    - gradual underflow adds at most ``2^-150`` to the cast of each ``z_j``,
      to each product and to the casts of the tail's two terms and of
      ``eta`` (float32 sums of subnormals are exact): ``(sqrt(K) ||s|| + K +
      3) 2^-150``;
    - ``eta`` itself: the comparisons read ``fl32(eta)``, within ``u eta``
      of it, and ``|dev - fl32(eta)|`` is rounded once more, by ``u``
      relative, which the doubling covers.

    Where ``V``, ``||s|| ||z||``, ``||z||`` or ``eta`` reach ``_F32_RANGE`` a
    float32 value may overflow: that vector's band is infinite, so every
    pair of it goes to the direct rule (``_pass_mask`` takes a non-finite
    deviation as inside the band).

    The band takes ``q``, ``||s||``, ``||x_f||`` and ``||a||`` at their
    codebook maxima and doubles the bound."""
    n, m = ctx.joint.hc.n, ctx.joint.hc.m
    K = ctx.book.S.shape[1]
    eps = np.finfo(float).eps
    y, b = np.sqrt(y_sq), np.sqrt(b_sq)
    L = ctx.a_max + y
    err = 2.0 * ctx.word_err * (L + y) + ctx.energy_err + (2 * m + 11) * eps * (L * L + ctx.q_max)
    err += 2.0 * (ctx.floor_norm * b * (1.0 + (n + 2) * eps) + ctx.word_err * y)
    V = (L * L + ctx.q_max) / (n + m) + 1.0
    z = 2.0 * ctx.u_norm * b / (n + m)
    score = ctx.s_norm * z
    err32 = _U32 * ((K + 2) * score + 4.0 * V + eta) + (math.sqrt(K) * ctx.s_norm + K + 3) * 2.0 ** -150
    band = _GUARD * (err / (n + m) + 4.0 * eps + err32)
    band[np.maximum(np.maximum(V, eta), np.maximum(score, z)) >= _F32_RANGE] = np.inf
    return band


def _input_typical(book: Codebook, params: TypicalParams) -> np.ndarray:
    """The input test ``|q/n - 1| < epsilon`` of every codeword."""
    return np.abs(book.q / book.n - 1.0) < params.epsilon


def _pass_mask(
    Y: np.ndarray, params: TypicalParams, ctx: DecodeContext, x_ok: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean pass/fail of the two typicality tests for every codeword
    against every row of ``Y``, shape ``(size, T)``.  ``x_ok`` is the input
    test of every codeword (``_input_typical``), computed here when not
    given.

    The joint statistic is ``w = (q + ||a - y||^2) / (n + m)``.  One
    projection ``Z = (Hc'Y) U`` onto the support, scaled by ``-2 / (n +
    m)`` and rounded to float32, and one float32 GEMM of it against the
    float32 coefficients give the deviations ``w - 1`` of the whole block
    as that score plus ``||y||^2 / (n + m) - 1`` per received vector and
    ``base`` per codeword, both added in float32, short of the floor's
    term.  A pair whose ``|w - 1|`` lies within the guard band of ``eta``
    (or is not finite) is recomputed in float64 from its codeword ``x = U
    s + x_f`` as ``||Hc x - y||^2``, so each decision equals the direct
    rule's.  The scores are scanned for such pairs a group of rows at a
    time (at most ``_DIRECT_ENTRIES`` scores), codeword by codeword, so each
    word in a band is built once per call, at most ``_DIRECT_ENTRIES // m``
    words at a time, and its image compared with each of its received
    vectors in chunks of that many pairs.  The scores are held one row per
    received vector, the layout whose GEMM is the faster at scale, and the
    mask returned is their transpose.
    """
    book, joint = ctx.book, ctx.joint
    n, m = joint.hc.n, joint.hc.m
    if Y.ndim != 2 or Y.shape[1] != m:
        raise DimensionMismatch(
            f"received vectors have shape {Y.shape[1:]}, channel expects ({m},)"
        )
    y_sq = np.einsum("ij,ij->i", Y, Y)
    B = joint.hc.adjoint(Y)
    b_sq = np.einsum("ij,ij->i", B, B)
    Z = book.cov.halves.adjoint(B)
    Z *= -2.0 / (n + m)
    with np.errstate(over="ignore", invalid="ignore"):
        eta = np.float32(params.eta)
        dev = Z.astype(np.float32) @ book.S.T
        dev += (y_sq / (n + m) - 1.0).astype(np.float32)[:, None]
        dev += ctx.base
        np.abs(dev, out=dev)
        out = dev < eta
        dev -= eta
        np.abs(dev, out=dev)
    if x_ok is None:
        x_ok = _input_typical(book, params)
    out &= x_ok
    band = _guard_band(ctx, y_sq, b_sq, params.eta)
    widest = band.max(initial=0.0)
    out = out.T
    group = max(1, _DIRECT_ENTRIES // max(len(Y), 1))
    step = max(1, _DIRECT_ENTRIES // m)
    # The pairs within the widest band, then those within their own, of a
    # group of rows at a time, codeword-major (a NaN deviation compares
    # false, so it counts as inside); the words among them are built once,
    # ``step`` at a time.
    for lo in range(0, dev.shape[1], group):
        part = dev[:, lo:lo + group]
        c, r = np.divmod(np.flatnonzero(~(part > widest)), part.shape[1])
        held = ~(part[c, r] > band[c]) & x_ok[r + lo]
        c, r = c[held], r[held]
        order = np.argsort(r, kind="stable")
        r, c = r[order] + lo, c[order]
        words, first, which = np.unique(r, return_index=True, return_inverse=True)
        for i in range(0, len(words), step):
            at = words[i:i + step]
            A, q = joint.hc.apply(book.words(at)), book.q[at]
            end = first[i + step] if i + step < len(words) else len(r)
            for j in range(first[i], end, step):
                pair = slice(j, min(j + step, end))
                diff = A[which[pair] - i]
                diff -= Y[c[pair]]
                w = (q[which[pair] - i] + np.einsum("ij,ij->i", diff, diff)) / (n + m)
                out[r[pair], c[pair]] = np.abs(w - 1.0) < params.eta
    return out


def decode(
    y: np.ndarray,
    book: Codebook,
    joint: JointCovariance,
    params: TypicalParams,
    ctx: Optional[DecodeContext] = None,
) -> Union[int, DecodeFailure]:
    """Exhaustive joint-typicality decoding of one received vector: returns
    the unique passing message index, or a DecodeFailure value.  A given
    ``ctx`` must be the one prepared for ``book`` and ``joint``."""
    if ctx is None:
        ctx = prepare_context(book, joint)
    elif ctx.book is not book or ctx.joint is not joint:
        raise ValueError("the decode context was prepared for another codebook or joint covariance")
    mask = _pass_mask(np.asarray(y, dtype=float)[None], params, ctx)
    hits = np.flatnonzero(mask)
    if len(hits) == 1:
        return int(hits[0])
    if len(hits) == 0:
        return DecodeFailure(kind="none")
    return DecodeFailure(kind="ambiguous", count=len(hits))


def wilson_interval(events: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, its ends exactly 0
    with no events and 1 with no non-events, where the closed form rounds."""
    if trials <= 0:
        raise ValueError("need trials > 0")
    if not 0 <= events <= trials:
        raise ValueError("events outside [0, trials]")
    p = events / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return centre - half if events else 0.0, centre + half if events < trials else 1.0


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


def _setup(spec: ChannelSpec, n: int, P: float) -> tuple[CovarianceSpec, ThresholdReport, JointCovariance]:
    """The part of an experiment that does not depend on its seed: the
    input covariance, the threshold report (from ``checked_extrema``, no
    grid) and the joint covariance, built once per ``(spec, n, P)`` and
    kept while the arrays of the kept entries (half bases, ``d``, ``gain``
    and ``hc``) total at most ``_SETUP_BYTES``, the least recently used
    evicted first.  An entry over that on its own is returned but not kept;
    a call that raises keeps nothing.  Every kept array is read-only and
    every record frozen, so callers on any thread share the same objects."""
    key = (spec, n, P)
    with _setups_lock:
        if key in _setups:
            _setups.move_to_end(key)
            return _setups[key][0]
    ext = checked_extrema(spec.c)
    cov = build_sigma(spec, n, P)
    report = thresholds(spec, ext, cov, P)
    joint = build_joint(cov, build_Hc(spec, n))
    size = sum(a.nbytes for a in (cov.halves.sym, cov.halves.skew, cov.d, joint.gain, joint.hc.taps))
    entry = (cov, report, joint)
    if size > _SETUP_BYTES:
        return entry
    with _setups_lock:
        if key in _setups:  # another thread built it first: share that one
            return _setups[key][0]
        _setups[key] = (entry, size)
        held = sum(b for _, b in _setups.values())
        while held > _SETUP_BYTES:
            held -= _setups.popitem(last=False)[1][1]
    return entry


# Emptied as the package's lru_caches are, by their ``cache_clear``.
_setup.cache_clear = _setups.clear


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
) -> ExperimentResult:
    """Monte Carlo error rates of the joint-typicality decoder.

    Each trial draws its own channel, noise, and message: the message from
    a cell of its own, the taps and noise from the cells that hold them for
    ``_TRIAL_CELL`` trials (see ``channel_sim``).  Every message is picked
    before the trials run (``message_picks``, in array passes), and the
    input test ``|q/n - 1| < epsilon`` of every codeword computed once.  A
    trial whose sent word fails it is settled: it is a type-1 error
    whatever the channel does.  Only the words of the distinct sent rows
    that pass it, the live ones, are built, once each (``sent_words``),
    before the trials run.  Each thread then draws its trials in blocks of
    ``T = trial_block(size, n)``, settled ones included, so every stream
    keeps its positions, but forms tap terms only for the live trials
    (``TrialBlocks.draw``); only their received vectors are scored, with
    exact decisions, and a block without one is not scored.  ``P`` is read
    as a float.  ``threads``, a positive
    integer, splits the trials into spans of whole blocks and whole cells,
    the same blocks for any thread count, so the counts do not depend on
    it; at most ``os.cpu_count()`` threads run them.  At another ``T`` the
    counts are the same but for a pair recomputed inside the guard band
    whose statistic lands on ``eta`` to its last bits: its word is built in
    another batch, whose GEMM may round it differently.  A codebook too
    large to decode exhaustively, the held words and picks included, is
    refused before any set-up.

    The set-up that does not depend on the seed (the input covariance, the
    threshold report and the joint covariance) is kept in-process per
    ``(spec, n, P)``, up to ``_SETUP_BYTES`` of arrays, least
    recently used evicted first (``_setup``), so later calls on the same
    configuration reuse it.  The results do not depend on what is kept.
    """
    if trials <= 0:
        raise ValueError("need trials > 0")
    if master_seed < 0:
        raise ValueError(f"need master_seed >= 0, got {master_seed}")
    threads = _as_int(threads, "threads")
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    P = float(P)  # so a power keys one kept set-up, built in float64, whatever its type
    check_law(spec, law)
    codebook_size(n, R, trials, spec.k)
    cov, report, joint = _setup(spec, n, P)
    if params is None:
        params = default_params(report)
    book = gen_codebook(cov, R, master_seed)
    ctx = prepare_context(book, joint)
    x_ok = _input_typical(book, params)
    block = trial_block(book.size, n)
    msgs = message_picks(master_seed, trials, book.size)
    cols = np.arange(block)

    def run_block(draws: TrialBlocks, start: int, sent: np.ndarray) -> tuple[int, int, int]:
        # Type 1, type 2 and successes of the trials start onwards, which send
        # sent; the block's arrays go when it returns, before the next draw.
        live = x_ok[sent]
        sent = sent[live]
        Y = draws.draw(start, words[np.searchsorted(rows, sent)], live)
        settled = len(live) - len(sent)
        if not len(sent):
            return settled, 0, 0
        mask = _pass_mask(Y, params, ctx, x_ok)
        passed = mask[sent, cols[:len(sent)]]
        # A sum along the scores' contiguous rows costs about half what
        # count_nonzero along the mask's strided axis does, at 8 words as at
        # 4096; counting row by row in Python loses below 1024.
        many = mask.sum(axis=0, dtype=np.int32) > 1
        return (settled + int(np.count_nonzero(~passed)), int(np.count_nonzero(passed & many)),
                int(np.count_nonzero(passed & ~many)))

    def run_range(lo: int, hi: int) -> list[tuple[int, int, int]]:
        draws = TrialBlocks(spec, n, law, master_seed)
        return [run_block(draws, start, msgs[start:min(start + block, hi)])
                for start in range(lo, hi, block)]

    # Each span is whole blocks and whole cells of _TRIAL_CELL trials (both
    # powers of two, so whole units of the larger): its first block starts a
    # cell and each later one continues the last, as _Cells.fill needs, and
    # the blocks and the chunks the sent words are built in (before any
    # span) are the same for any thread count.  The pool runs both on at
    # most one worker per core.
    unit = max(block, _TRIAL_CELL)
    step = math.ceil(math.ceil(trials / unit) / threads) * unit
    spans = [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
    workers = min(len(spans), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pool_map = pool.map if workers > 1 else map
        rows, words = sent_words(book, msgs, x_ok, pool_map)
        parts = [c for span in pool_map(lambda s: run_range(*s), spans) for c in span]
    type1, type2, success = (sum(c) for c in zip(*parts))
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
