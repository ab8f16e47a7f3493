"""Channel realizations, input covariances, codebooks and channel uses.

Randomness is organized around one master seed and fixed stream ids, so a
trial is reproducible in isolation: stream CHANNEL drives tap draws, NOISE
the additive noise, CODEBOOK the codeword Gaussians, MESSAGE the message
picks.  Each (stream, trial_index) pair gets its own counter-based generator,
which makes multi-threaded experiments independent of scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np
from scipy.linalg import eigh

from .errors import CodebookTooLarge, DimensionMismatch
from .spectrum import BandedChannelMatrix, ChannelSpec, gram_matrix
from .waterfill import POWER_FLOOR, waterfill_powers

__all__ = [
    "STREAM_CHANNEL",
    "STREAM_NOISE",
    "STREAM_CODEBOOK",
    "STREAM_MESSAGE",
    "MAX_CODEBOOK_BITS",
    "MAX_DECODE_BYTES",
    "trial_block",
    "decode_bytes",
    "rng_stream",
    "ChannelLaw",
    "sample_taps",
    "sample_H",
    "CovarianceSpec",
    "build_sigma",
    "Codebook",
    "gen_codebook",
    "transmit",
]

STREAM_CHANNEL = 0
STREAM_NOISE = 1
STREAM_CODEBOOK = 2
STREAM_MESSAGE = 3

MAX_CODEBOOK_BITS = 24
# Byte cap on what exhaustive decoding holds for one codebook: the
# codewords, their channel images and the trial-block scratch.
MAX_DECODE_BYTES = 1 << 31
# Most trials the decoder scores with one GEMM, and the most entries one
# (codewords x trials) scratch array may have before the block shrinks.
_TRIAL_BLOCK = 64
_BLOCK_ENTRIES = 1 << 20


def rng_stream(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Counter-based generator for one (stream, index) cell under a master
    seed.  Distinct cells are statistically independent."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(stream, index))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ChannelLaw:
    """How tap realizations move inside their intervals.

    iid_uniform -- every output draws its taps uniformly and independently
    constant    -- taps frozen at ``c + offset * r`` (offset entries in [-1, 1])
    block_hold  -- uniform draws held constant over ``block_len`` consecutive
                   outputs
    """

    kind: Literal["iid_uniform", "constant", "block_hold"]
    offset: Optional[tuple[float, ...]] = None
    block_len: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("iid_uniform", "constant", "block_hold"):
            raise ValueError(f"unknown channel law {self.kind!r}")
        if self.kind == "constant":
            if self.offset is None:
                raise ValueError("constant law needs an offset tuple")
            object.__setattr__(
                self, "offset", tuple(float(v) for v in self.offset)
            )
            if any(abs(v) > 1.0 for v in self.offset):
                raise ValueError("offsets are fractions of the radius, in [-1, 1]")
        if self.kind == "block_hold" and self.block_len < 1:
            raise ValueError("block_len must be >= 1")


def sample_taps(
    spec: ChannelSpec,
    m: int,
    law: ChannelLaw,
    master_seed: int,
    trial_index: int,
) -> np.ndarray:
    """Tap matrix of shape ``(m, k + 1)``; row ``i`` holds output ``i``'s
    taps, each inside its interval."""
    c = np.asarray(spec.c)
    r = np.asarray(spec.r)
    if law.kind == "constant":
        off = np.asarray(law.offset)
        if off.shape != c.shape:
            raise DimensionMismatch(
                f"offset has {off.size} entries, channel has {c.size} taps"
            )
        return np.tile(c + off * r, (m, 1))
    rng = rng_stream(master_seed, STREAM_CHANNEL, trial_index)
    if law.kind == "iid_uniform":
        u = rng.uniform(-1.0, 1.0, size=(m, spec.k + 1))
    else:
        blocks = math.ceil(m / law.block_len)
        u = np.repeat(
            rng.uniform(-1.0, 1.0, size=(blocks, spec.k + 1)),
            law.block_len,
            axis=0,
        )[:m]
    return c + u * r


def sample_H(
    spec: ChannelSpec,
    n: int,
    law: ChannelLaw,
    master_seed: int,
    trial_index: int,
) -> BandedChannelMatrix:
    """Channel realization of one trial in band form: output ``i`` applies
    row ``i`` of ``sample_taps``."""
    taps = sample_taps(spec, n + spec.k, law, master_seed, trial_index)
    return BandedChannelMatrix(n=n, k=spec.k, taps=taps)


@dataclass(frozen=True)
class CovarianceSpec:
    """Input covariance in spectral form ``Sigma = U diag(d) U'``.

    ``basis`` is ``None`` for the standard basis (diagonal covariance).
    Arrays are frozen read-only at construction; all derived matrices are
    recomputed on demand so instances stay cheap to share across threads.
    """

    n: int
    d: np.ndarray
    basis: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(np.asarray(self.d, dtype=float))
        object.__setattr__(self, "d", d)
        if d.shape != (self.n,):
            raise ValueError(f"d has shape {d.shape}, expected ({self.n},)")
        if not np.isfinite(d).all():
            raise ValueError("covariance spectrum has non-finite entries")
        if np.any(d <= 0.0):
            raise ValueError("covariance spectrum must be positive")
        d.setflags(write=False)
        if self.basis is not None:
            U = np.ascontiguousarray(np.asarray(self.basis, dtype=float))
            object.__setattr__(self, "basis", U)
            if U.shape != (self.n, self.n):
                raise ValueError(f"basis has shape {U.shape}, expected square")
            if not np.isfinite(U).all():
                raise ValueError("basis has non-finite entries")
            err = np.abs(U.T @ U - np.eye(self.n)).max()
            if err > 1e-8:
                raise ValueError(f"basis is not orthonormal (defect {err:.2e})")
            U.setflags(write=False)

    @property
    def trace(self) -> float:
        return float(self.d.sum())

    @property
    def lam_min(self) -> float:
        return float(self.d.min())

    @property
    def lam_max(self) -> float:
        return float(self.d.max())

    def dense(self) -> np.ndarray:
        if self.basis is None:
            return np.diag(self.d)
        return (self.basis * self.d) @ self.basis.T

    def sqrt_matrix(self) -> np.ndarray:
        """Symmetric positive square root."""
        if self.basis is None:
            return np.diag(np.sqrt(self.d))
        return (self.basis * np.sqrt(self.d)) @ self.basis.T


def build_sigma(
    spec: ChannelSpec,
    n: int,
    P: float,
    policy: Literal["white_iso", "waterfill_gram"] = "waterfill_gram",
) -> CovarianceSpec:
    """Input covariance with power budget ``trace <= n * P``.

    white_iso      -- ``P`` per dimension in the standard basis
    waterfill_gram -- eigenbasis of the centre Gram matrix, with the budget
                      water-filled over its eigenvalues
    """
    if P <= 0.0:
        raise ValueError("need P > 0")
    if policy == "white_iso":
        return CovarianceSpec(n=n, d=np.full(n, float(P)))
    if policy == "waterfill_gram":
        lam, U = eigh(gram_matrix(spec, n))
        d, _ = waterfill_powers(lam, n * P, POWER_FLOOR)
        return CovarianceSpec(n=n, d=d, basis=U)
    raise ValueError(f"unknown covariance policy {policy!r}")


@dataclass(frozen=True)
class Codebook:
    """Exhaustively decodable Gaussian codebook: ``size = 2**ceil(n * R)``
    rows drawn once from the input covariance.

    ``q`` holds each codeword's input statistic ``x' Sigma^{-1} x``, taken
    from the draw: a codeword is ``x = U diag(sqrt(d)) g`` for a standard
    Gaussian ``g``, so ``x' Sigma^{-1} x = g'g`` exactly, with no rounding
    of ``x`` amplified by the small eigenvalues of ``Sigma``."""

    n: int
    R: float
    size: int
    codewords: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        if self.codewords.shape != (self.size, self.n):
            raise ValueError("codeword array shape mismatch")
        if self.q.shape != (self.size,):
            raise ValueError("input statistic shape mismatch")


def trial_block(size: int) -> int:
    """Trials the decoder scores per GEMM against ``size`` codewords:
    ``_TRIAL_BLOCK``, or fewer (at least one) so that a scratch array of
    ``size * T`` entries stays within ``_BLOCK_ENTRIES``."""
    return max(1, min(_TRIAL_BLOCK, _BLOCK_ENTRIES // size))


def decode_bytes(size: int, n: int, k: int) -> int:
    """Bytes exhaustive decoding holds for ``size`` codewords of length
    ``n`` over a channel with ``k + 1`` taps: the codewords, their
    ``n + k``-long images and two float64 ``(size, T)`` arrays' worth of
    trial-block scratch."""
    return 8 * size * (n + (n + k) + 2 * trial_block(size))


def gen_codebook(
    cov: CovarianceSpec, R: float, master_seed: int, k: int = 0
) -> Codebook:
    """Draw the codebook for rate ``R``: rows ``x = U diag(sqrt(d)) g`` of
    standard Gaussians ``g``, with ``q = ||g||^2`` per row, which equals
    ``x' Sigma^{-1} x`` exactly.  ``k`` is the memory of the channel it will
    be decoded over; it sizes the images in the byte check, which refuses
    before anything is drawn."""
    if R < 0.0:
        raise ValueError("rate must be non-negative")
    bits = math.ceil(cov.n * R - 1e-12)
    if bits > MAX_CODEBOOK_BITS:
        raise CodebookTooLarge(
            f"2**{bits} codewords exceed the exhaustive-decoding cap 2**{MAX_CODEBOOK_BITS}"
        )
    size = 1 << max(bits, 0)
    need = decode_bytes(size, cov.n, k)
    if need > MAX_DECODE_BYTES:
        raise CodebookTooLarge(
            f"2**{bits} codewords of length {cov.n} need {need / 2**30:.2f} GiB to "
            f"decode, over the cap {MAX_DECODE_BYTES / 2**30:.2f} GiB"
        )
    g = rng_stream(master_seed, STREAM_CODEBOOK, 0).standard_normal((size, cov.n))
    q = np.einsum("ij,ij->i", g, g)
    g *= np.sqrt(cov.d)
    X = g if cov.basis is None else g @ cov.basis.T
    X.setflags(write=False)
    q.setflags(write=False)
    return Codebook(n=cov.n, R=float(R), size=size, codewords=X, q=q)


def transmit(
    H: BandedChannelMatrix,
    x: np.ndarray,
    master_seed: int,
    trial_index: int,
) -> np.ndarray:
    """One channel use: ``y = H x + z`` with iid unit Gaussian ``z``.  ``H``
    is applied in band form, as ``k + 1`` shifted multiply-adds of ``x``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, channel expects ({H.n},)")
    z = rng_stream(master_seed, STREAM_NOISE, trial_index).standard_normal(H.m)
    y = np.zeros(H.m)
    for d in range(H.k + 1):
        y[d:d + H.n] += H.taps[d:d + H.n, d] * x
    y += z
    return y
