"""Channel realizations, input covariances, codebooks and channel uses.

Every draw comes from a cell ``(stream, index)`` under one master seed: a
``Philox`` whose key is ``SeedSequence(master_seed, spawn_key=(stream,))
.generate_state(2, np.uint64)`` and whose counter is ``[0, index, 0, 0]``,
which ``rng_stream`` builds and which any trial can be replayed from.
Streams: CHANNEL (0) and NOISE (1) the taps and noise of trial ``index``,
CODEBOOK (2, index 0) the codebook's Gaussians on the water-filled support,
then its floor radii, MESSAGE (3) trial ``index``'s message pick, FLOOR (4)
the ``n`` normals codeword ``index``'s floor direction is projected from,
and ``verify.VERIFY_STREAM_BASE + s`` (16 + s) sample ``index`` of the
verify suites that share suite ``s``'s instance (``verify`` says which).
Philox counts a cell's blocks in counter word 0, so cells never overlap, and
results do not depend on scheduling order.  ``TrialBlocks`` draws the same
cells a block of trials at a time, through the same tap and band kernels.

Trial ``t``'s message pick among ``size = 2**bits`` words is what
``rng_stream(seed, STREAM_MESSAGE, t).integers(size)`` returns, taken from
the cell's first raw 64-bit word ``w`` as ``(w & 0xffffffff) >> (32 -
bits)``, and 0 with no draw when ``size == 1``: for a power-of-two range
numpy's ``integers`` is Lemire's multiply-shift on the low 32 bits of that
word, which never rejects (Lemire, ACM TOMACS 2019).  ``message_picks``
draws them.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Literal, Optional

import numpy as np

from .errors import CodebookTooLarge, DimensionMismatch
from .spectrum import BandedChannelMatrix, ChannelSpec, HalfBasis, gram_eigh
from .waterfill import POWER_FLOOR, waterfill_powers

__all__ = [
    "STREAM_CHANNEL",
    "STREAM_NOISE",
    "STREAM_CODEBOOK",
    "STREAM_MESSAGE",
    "STREAM_FLOOR",
    "MAX_CODEBOOK_BITS",
    "MAX_DECODE_BYTES",
    "trial_block",
    "decode_bytes",
    "message_picks",
    "codebook_size",
    "rng_stream",
    "ChannelLaw",
    "check_law",
    "sample_taps",
    "sample_H",
    "CovarianceSpec",
    "build_sigma",
    "Codebook",
    "gen_codebook",
    "sent_words",
    "transmit",
    "TrialBlocks",
]

STREAM_CHANNEL = 0
STREAM_NOISE = 1
STREAM_CODEBOOK = 2
STREAM_MESSAGE = 3
STREAM_FLOOR = 4

MAX_CODEBOOK_BITS = 24
# Byte cap on what exhaustive decoding holds for one codebook: the float32
# coefficients, their statistics, the half bases, the held sent words and
# message picks, and the trial-block scratch.
MAX_DECODE_BYTES = 1 << 31
# Most trials the decoder scores with one GEMM, and the most entries one
# (codewords x trials) scratch array may have before the block shrinks.
_TRIAL_BLOCK = 64
_BLOCK_ENTRIES = 1 << 20
# Sent rows ``sent_words`` builds per ``Codebook.words`` call.
_WORD_CHUNK = 64
# Most scores the decoder scans at once for pairs inside the guard band, and
# most entries of the images one direct-form recomputation builds; the two
# hold at most 64 bytes per such entry (44 traced, every pair in the band).
_DIRECT_ENTRIES = 1 << 16
_DIRECT_BYTES = 64 * _DIRECT_ENTRIES
# Most doubles one scratch chunk holds, so it stays in cache: TrialBlocks'
# taps, and the codebook's rows while they are drawn or summed in float64.
_DRAW_ENTRIES = 1 << 15
# A word's floor direction is projected off the support again while the
# projection's input is more than this many times as long as its output.
FLOOR_REPROJECT = 1024.0


@lru_cache(maxsize=32)
def _stream_key(master_seed: int, stream: int) -> tuple[int, int]:
    """Philox key of ``stream`` under ``master_seed``."""
    key = np.random.SeedSequence(master_seed, spawn_key=(stream,)).generate_state(2, np.uint64)
    return tuple(key.tolist())


class _NoEntropy(np.random.bit_generator.ISeedSequence):
    """Seed of a Philox whose key and counter are then set through its
    ``state``: zero words, so building one reads no OS entropy."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_NO_ENTROPY = _NoEntropy()
# A Philox state with an empty buffer; each cell puts in its key and counter.
# The buffer, key and counter are held as lists, not arrays: the state
# setter, which runs once per cell, reads list entries about twice as fast.
_PHILOX_STATE = {k: v.tolist() if isinstance(v, np.ndarray) else v
                 for k, v in np.random.Philox(_NO_ENTROPY).state.items()}


def _cells(master_seed: int, stream: int, indices, bits: Optional[np.random.Philox] = None):
    """One generator on ``bits`` (a new Philox if none is given), set in
    turn to the cell ``(stream, i)`` of each ``i`` in ``indices``: keyed
    once, with ``i`` written into counter word 1 and the buffer empty, so
    each cell draws what ``rng_stream`` draws for it."""
    bits = np.random.Philox(_NO_ENTROPY) if bits is None else bits
    gen = np.random.Generator(bits)
    # Counter [0, i, 0, 0]; Philox counts a cell's blocks in word 0, so
    # cells never overlap below 2**64 blocks.
    counter = [0, 0, 0, 0]
    state = {**_PHILOX_STATE, "state": {"counter": counter, "key": _stream_key(master_seed, stream)}}
    for i in indices.tolist() if isinstance(indices, np.ndarray) else indices:
        counter[1] = i
        bits.state = state
        yield gen


def rng_stream(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator of the cell ``(stream, index)`` under a master seed: a
    Philox keyed by ``stream`` at counter ``[0, index, 0, 0]``, equal to
    ``Philox(key=..., counter=index << 64)``.  Distinct cells are
    statistically independent, and every call returns a generator of its
    own."""
    master_seed, stream, index = map(operator.index, (master_seed, stream, index))
    if min(master_seed, stream) < 0 or not 0 <= index < 1 << 64:
        raise ValueError(f"need seed and stream >= 0 and index in [0, 2**64), got "
                         f"{(master_seed, stream, index)}")
    return next(_cells(master_seed, stream, (index,)))


@dataclass(frozen=True)
class ChannelLaw:
    """How tap realizations move inside their intervals.

    iid_uniform -- every output draws its taps uniformly and independently
    constant    -- taps frozen at ``c + offset * r`` (offset entries in [-1, 1])
    block_hold  -- uniform draws held constant over ``block_len`` consecutive
                   outputs

    A field that does not apply to the kind is refused, not ignored: an
    ``offset`` unless the kind is constant, a ``block_len`` other than 1
    unless it is block_hold.  ``block_len`` is an integer (a bool or a
    fractional value is refused; an integral float is taken as its int).
    """

    kind: Literal["iid_uniform", "constant", "block_hold"]
    offset: Optional[tuple[float, ...]] = None
    block_len: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("iid_uniform", "constant", "block_hold"):
            raise ValueError(f"unknown channel law {self.kind!r}")
        b = self.block_len
        b = int(b) if isinstance(b, float) and b.is_integer() else b
        if isinstance(b, bool) or not isinstance(b, numbers.Integral):
            raise ValueError(f"block_len must be an integer, got {self.block_len!r}")
        object.__setattr__(self, "block_len", int(b))
        if self.kind != "constant" and self.offset is not None:
            raise ValueError(f"offset applies only to the constant law, not {self.kind}")
        if self.kind != "block_hold" and self.block_len != 1:
            raise ValueError(f"block_len applies only to the block_hold law, not {self.kind}")
        if self.kind == "constant":
            if self.offset is None:
                raise ValueError("constant law needs an offset tuple")
            object.__setattr__(
                self, "offset", tuple(float(v) for v in self.offset)
            )
            if not all(abs(v) <= 1.0 for v in self.offset):
                raise ValueError(f"offsets are fractions of the radius, in [-1, 1]: {self.offset}")
        if self.kind == "block_hold" and self.block_len < 1:
            raise ValueError("block_len must be >= 1")


def check_law(spec: ChannelSpec, law: ChannelLaw) -> None:
    """Refuse a constant law whose offsets do not match the channel's taps."""
    if law.kind == "constant" and len(law.offset) != spec.k + 1:
        raise DimensionMismatch(f"offset has {len(law.offset)} entries, channel has {spec.k + 1} taps")


def _draw_rows(m: int, law: ChannelLaw) -> int:
    """Rows of ``k + 1`` uniforms one trial draws for ``m`` outputs."""
    return m if law.kind == "iid_uniform" else -(-m // law.block_len)


def _taps_from(u: np.ndarray, spec: ChannelSpec, law: ChannelLaw, m: int) -> np.ndarray:
    """Taps from draws ``u`` of ``random()``, shape ``(..., rows, k + 1)``,
    mapped in place to ``c + (2u - 1) r``: bitwise what ``c + r *
    uniform(-1, 1)`` gives.  Under block_hold each row then covers
    ``block_len`` outputs, so a block longer than the ``m`` outputs is one
    row repeated ``m`` times."""
    u *= 2.0
    u -= 1.0
    u *= spec.r
    u += spec.c
    if law.kind == "block_hold":
        u = np.repeat(u, min(law.block_len, m), axis=-2)[..., :m, :]
    return u


def sample_taps(
    spec: ChannelSpec,
    m: int,
    law: ChannelLaw,
    master_seed: int,
    trial_index: int,
) -> np.ndarray:
    """Tap matrix of shape ``(m, k + 1)``; row ``i`` holds output ``i``'s
    taps, each inside its interval."""
    if law.kind == "constant":
        check_law(spec, law)
        return np.tile(np.add(spec.c, np.multiply(law.offset, spec.r)), (m, 1))
    rng = rng_stream(master_seed, STREAM_CHANNEL, trial_index)
    return _taps_from(rng.random((_draw_rows(m, law), spec.k + 1)), spec, law, m)


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
    """Input covariance ``Sigma = U diag(d) U' + POWER_FLOOR (I - U U')`` of
    order ``n``, in spectral form: the ``s`` orthonormal columns ``U`` of
    its support held as their two half bases (``halves``, a
    ``spectrum.HalfBasis``, which checks them), about ``n s / 2`` entries,
    and the ``n - s`` dimensions of the floor, orthogonal to them, at the
    power ``POWER_FLOOR``, held by their number ``floor_dim`` alone.  No
    ``n x n`` array is formed on the decoding path.

    ``d[j]`` is the power on column ``j`` of ``U``, in the halves' column
    order (see ``HalfBasis``).  ``halves.orth_defect`` is the Frobenius norm
    of the computed ``U'U - I``, from the two half products (the cross
    block is zero by construction); it bounds how far ``U`` is from
    orthonormal up to the rounding of those products.  ``d`` is frozen
    read-only at construction, so instances stay cheap to share across
    threads.
    """

    n: int
    d: np.ndarray
    halves: HalfBasis

    def __post_init__(self) -> None:
        d = np.ascontiguousarray(np.asarray(self.d, dtype=float))
        object.__setattr__(self, "d", d)
        if not isinstance(self.halves, HalfBasis) or self.halves.n != self.n:
            raise ValueError(f"need a HalfBasis of order {self.n}")
        if d.shape != (self.halves.width,):
            raise ValueError(f"d has shape {d.shape}, expected ({self.halves.width},), one "
                             "power per column of the half bases")
        if not np.isfinite(d).all():
            raise ValueError("covariance spectrum has non-finite entries")
        if np.any(d <= 0.0):
            raise ValueError("covariance spectrum must be positive")
        d.setflags(write=False)

    @property
    def floor_dim(self) -> int:
        return self.n - self.d.size

    @property
    def trace(self) -> float:
        return float(self.d.sum()) + self.floor_dim * POWER_FLOOR

    @property
    def lam_min(self) -> float:
        return float(self.d.min(initial=POWER_FLOOR if self.floor_dim else np.inf))

    @property
    def lam_max(self) -> float:
        return float(self.d.max(initial=POWER_FLOOR if self.floor_dim else -np.inf))


def build_sigma(
    spec: ChannelSpec,
    n: int,
    P: float,
    policy: Literal["waterfill_gram"] = "waterfill_gram",
) -> CovarianceSpec:
    """Input covariance with power budget ``trace <= n * P``: the eigenbasis
    of the centre Gram matrix, with the budget water-filled over its
    eigenvalues.  The basis comes from ``spectrum.gram_eigh``, two half-size
    band problems (J-symmetric and J-skew) under a sign convention, so it
    does not depend on the LAPACK build.  Only the support, the columns
    water-filling gives more than ``POWER_FLOOR``, is signed, checked and
    held, as two tall half bases; ``d`` follows their column order.  Every
    other column gets exactly ``POWER_FLOOR``, so the floor needs no
    vector."""
    if P <= 0.0:
        raise ValueError("need P > 0")
    # ``policy`` stays for callers that pass "waterfill_gram" positionally.
    if policy != "waterfill_gram":
        raise ValueError(f"unknown covariance policy {policy!r}")
    lam, vectors = gram_eigh(spec, n)
    d, _ = waterfill_powers(lam, n * P)
    on = d > POWER_FLOOR
    return CovarianceSpec(n=n, d=d[on], halves=HalfBasis.from_eigh(vectors, on))


def _row_sq(A: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", A, A)


def _chunk_rows(width: int) -> int:
    """Rows of ``width`` doubles one scratch chunk holds."""
    return max(1, _DRAW_ENTRIES // max(width, 1))


def _row_form(S: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum_j w_j s_j^2`` for each row ``s`` of the float32 ``S``, in
    float64: a chunk of rows at a time is squared into one float64 scratch,
    exactly (a float32 square fits a double), and summed against ``w`` by
    ``einsum``, so no float64 copy of ``S`` is made.  A row's sum does not
    depend on the rows it is chunked with."""
    out = np.empty(len(S))
    rows = _chunk_rows(S.shape[1])
    buf = np.empty((min(rows, len(S)), S.shape[1]))
    for lo in range(0, len(S), rows):
        part = buf[:len(S[lo:lo + rows])]
        part[...] = S[lo:lo + rows]  # a cast by assignment takes no buffer
        np.square(part, out=part)
        np.einsum("ij,j->i", part, w, out=out[lo:lo + rows])
    return out


def _project_off(halves: HalfBasis, V: np.ndarray) -> None:
    """Each row ``v`` of ``V`` replaced, in place, by ``p = v - U(U'v)`` for
    the columns ``U`` of ``halves``, and projected again while its input is
    over ``FLOOR_REPROJECT ||p||`` long, which bounds ``||U'p|| / ||p||``."""
    rows, W = np.arange(len(V)), V
    while rows.size:
        P = W - halves.apply(halves.adjoint(W))
        again = _row_sq(W) > FLOOR_REPROJECT ** 2 * _row_sq(P)
        V[rows] = P
        rows, W = rows[again], P[again]


@dataclass(frozen=True)
class Codebook:
    """Exhaustively decodable Gaussian codebook: ``size = 2**ceil(n * R)``
    words (a size that is no power of two is refused) drawn once from the
    input covariance ``cov``, held by their coefficients on its support
    ``U``, in float32, and one floor radius each.

    Word ``i`` is ``x = U s + x_f``.  ``S[i]`` holds ``s``, the float32
    rounding of ``sqrt(d) * g_s`` for a standard Gaussian ``g_s``; the word
    is built from those float32 values, widened exactly to float64.  The
    floor part ``x_f``, Gaussian with covariance ``POWER_FLOOR (I - U
    U')``, is held as the radius ``q_floor[i] = ||x_f||^2 / POWER_FLOOR``,
    chi-squared with ``cov.floor_dim`` degrees of freedom; its direction is
    drawn when the word is built, from the cell ``(STREAM_FLOOR, i)`` under
    ``seed``, as ``x_f = sqrt(POWER_FLOOR q_floor / ||p||^2) p`` for the
    projection ``p = v - U(U'v)`` of ``v ~ N(0, I_n)`` off the support.
    That projection is a standard Gaussian on the floor, a chi radius times
    an independent uniform direction, so ``x_f`` has its law.  Without a
    floor ``q_floor`` is all zeros and no floor is built.

    ``q[i] = sum_j s_j^2 / d_j + q_floor[i]``, summed in float64 from the
    held ``s`` (``_row_form``), is ``x' Sigma^{-1} x`` of the word as
    built, with no rounding of ``x`` amplified by the small eigenvalues of
    ``Sigma``.  The decoder's guard band bounds ``||s||^2`` by ``max(d)
    q`` and ``||x_f||^2`` by ``POWER_FLOOR q_floor``, and so relies on that
    pairing.  With ``u = eps / 2``, the computed sum ``c`` of ``sum_j
    s_j^2 / d_j + q_floor`` is within ``(n + 2) u`` of it, relative, to
    first order: each ``s_j^2`` is exact in float64, ``fl(1 / d_j)`` and
    the product with it round once each, the sum of at most ``n`` terms
    ``n - 1`` times and the floor's add once.  A ``q`` with ``c > q (1 +
    (n + 2) eps)`` is refused, which admits the sum taken in any order and
    keeps every accepted ``q`` within ``3 (n + 2) u`` of the exact
    statistic from above (``decoder._g_round``).  Coefficients that are not
    float32, or not finite, are refused.  Decoding needs only ``S``, ``q`` and
    ``q_floor``: ``words`` builds the words of given rows, and
    ``codewords`` every word on first access."""

    n: int
    R: float
    size: int
    S: np.ndarray
    q: np.ndarray
    cov: CovarianceSpec
    q_floor: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.size < 1 or self.size & (self.size - 1):
            raise ValueError(f"codebook size must be a power of two, got {self.size}")
        if self.cov.n != self.n or self.S.shape != (self.size, self.cov.d.size):
            raise ValueError("coefficient array shape mismatch")
        if self.S.dtype != np.float32:
            raise ValueError(f"coefficients must be float32, got {self.S.dtype}")
        if self.q.shape != (self.size,) or self.q_floor.shape != (self.size,):
            raise ValueError("input statistic shape mismatch")
        if not (np.isfinite(self.q_floor).all() and self.q_floor.min(initial=0.0) >= 0.0):
            raise ValueError("floor radii must be finite and non-negative")
        g_sq = _row_form(self.S, 1.0 / self.cov.d)
        if not np.isfinite(g_sq).all():
            raise ValueError("coefficients must be finite")
        g_sq += self.q_floor
        if np.any(g_sq > self.q * (1.0 + (self.n + 2) * np.finfo(float).eps)):
            raise ValueError("input statistic q understates sum_j s_j^2 / d_j of its coefficients")

    def words(self, rows) -> np.ndarray:
        """The words ``U s + x_f`` of ``rows`` (indices or a slice), one per
        row index: the gathered rows of ``S``, widened to float64, through
        the half bases (``HalfBasis.apply``), plus
        each distinct row's floor, built once per call."""
        rows = np.arange(*rows.indices(self.size)) if isinstance(rows, slice) else np.asarray(rows)
        X = self.cov.halves.apply(self.S[rows].astype(float))
        if self.cov.floor_dim:
            cells, inv = np.unique(rows, return_inverse=True)
            V = np.empty((len(cells), self.n))
            for gen, v in zip(_cells(self.seed, STREAM_FLOOR, cells), V):
                gen.standard_normal(out=v)
            _project_off(self.cov.halves, V)
            V *= np.sqrt(POWER_FLOOR * self.q_floor[cells] / _row_sq(V))[:, None]
            X += V[inv]
        return X

    @cached_property
    def codewords(self) -> np.ndarray:
        """Every word, built on first access; decoding never reads it."""
        X = self.words(slice(None))
        X.setflags(write=False)
        return X


def trial_block(size: int) -> int:
    """Trials the decoder scores per GEMM against ``size`` codewords:
    ``_TRIAL_BLOCK``, or fewer (at least one) so that a scratch array of
    ``size * T`` entries stays within ``_BLOCK_ENTRIES``."""
    return max(1, min(_TRIAL_BLOCK, _BLOCK_ENTRIES // size))


def decode_bytes(size: int, n: int, trials: int = 0) -> int:
    """Bytes exhaustive decoding of ``trials`` trials holds for ``size``
    codewords of length ``n``, at most: the float32 coefficients, 4 bytes
    each, and the two tall half bases, taken at the full width ``n``
    (``(n^2 + 1) / 2`` entries for the bases), since the support is known
    only once ``build_sigma`` has run and the cap refuses before it; three
    float64 per-word statistics (input statistic, floor radius, energy) and
    one float32 (the score's per-word term); the held sent words,
    ``min(trials, size)`` rows of ``n``, and message picks, 4 bytes a
    trial (``sent_words``); and the larger of two scratches that never
    coexist, each five length-``n`` rows per row it works on: a chunk of
    ``_WORD_CHUNK`` sent words being built (each one's floor draw, its
    projection and the half bases' products), or a block of ``T =
    trial_block(size)`` trials (the received, projected, gathered sent and
    noise vectors; a received vector's ``k`` extra entries are taken as at
    most ``n``), whose float32 scores add 4 bytes a ``(size, T)`` entry and
    their boolean masks at most 4 more; and besides the block, what picks
    and recomputes the pairs inside the guard band, ``_DIRECT_BYTES``."""
    T = trial_block(size)
    rows = min(trials, size)
    return (4 * size * (n + 7 + 2 * T)
            + 8 * ((n * n + 1) // 2 + 5 * n * max(T, _WORD_CHUNK) + rows * n) + 4 * trials
            + _DIRECT_BYTES)


def codebook_size(n: int, R: float, trials: int = 0) -> int:
    """Codewords ``2**ceil(n * R)`` of the rate-``R`` codebook of length
    ``n``, once exhaustive decoding of ``trials`` trials is known to fit:
    raises ``CodebookTooLarge`` past ``MAX_CODEBOOK_BITS`` or past
    ``MAX_DECODE_BYTES`` (see ``decode_bytes``).  A negative or non-finite
    rate is refused."""
    if not math.isfinite(R) or R < 0.0:
        raise ValueError(f"rate must be finite and non-negative, got {R!r}")
    if not math.isfinite(n * R):
        raise CodebookTooLarge(
            f"2**ceil({n} * {R!r}) codewords exceed the exhaustive-decoding cap 2**{MAX_CODEBOOK_BITS}"
        )
    bits = math.ceil(n * R - 1e-12)
    if bits > MAX_CODEBOOK_BITS:
        raise CodebookTooLarge(
            f"2**{bits} codewords exceed the exhaustive-decoding cap 2**{MAX_CODEBOOK_BITS}"
        )
    size = 1 << max(bits, 0)
    need = decode_bytes(size, n, trials)
    if need > MAX_DECODE_BYTES:
        what = f"decode {trials} trials" if trials else "decode"
        raise CodebookTooLarge(
            f"2**{bits} codewords of length {n} need {need / 2**30:.2f} GiB to "
            f"{what}, over the cap {MAX_DECODE_BYTES / 2**30:.2f} GiB"
        )
    return size


def gen_codebook(cov: CovarianceSpec, R: float, master_seed: int) -> Codebook:
    """Draw the codebook for rate ``R`` (see ``Codebook``) from the cell
    ``(STREAM_CODEBOOK, 0)``: standard Gaussians ``g_s`` on the support,
    row by row, a chunk of rows at a time (consecutive draws continue one
    stream, so the chunks give the doubles one call would), scaled to
    ``sqrt(d) * g_s`` and rounded into the float32 ``S``; then the floor
    radii ``q_floor``, chi-squared with ``cov.floor_dim`` degrees of
    freedom, and ``q = sum_j s_j^2 / d_j + q_floor`` from the held ``S``.
    ``codebook_size``'s byte check refuses before anything is drawn, and
    so does a power past float32's range: a coefficient must hold ``sqrt(d)
    |g|`` for every ``|g| < 2**10``, which a standard normal does not reach
    in practice."""
    size = codebook_size(cov.n, R)
    if math.sqrt(cov.lam_max) * 2.0 ** 10 > float(np.finfo(np.float32).max):
        raise ValueError(f"covariance power {cov.lam_max:.3g} is past the range of float32 coefficients")
    rng = rng_stream(master_seed, STREAM_CODEBOOK, 0)
    S = np.empty((size, cov.d.size), dtype=np.float32)
    root = np.sqrt(cov.d)
    rows = _chunk_rows(cov.d.size)
    buf = np.empty((min(rows, size), cov.d.size))
    for lo in range(0, size, rows):
        g = buf[:len(S[lo:lo + rows])]
        rng.standard_normal(out=g)
        g *= root
        S[lo:lo + rows] = g
    del buf, g  # the draw's scratch goes before the sums take theirs
    q_floor = rng.chisquare(cov.floor_dim, size) if cov.floor_dim else np.zeros(size)
    q = _row_form(S, 1.0 / cov.d)
    q += q_floor
    for a in (S, q, q_floor):
        a.setflags(write=False)
    return Codebook(n=cov.n, R=float(R), size=size, S=S, q=q, cov=cov, q_floor=q_floor, seed=master_seed)


def message_picks(master_seed: int, ts, size: int) -> np.ndarray:
    """Message picks of trials ``ts`` (non-negative integers, an array or a
    range) among ``size`` words, as ``uint32``: bit for bit
    ``rng_stream(master_seed, STREAM_MESSAGE, t).integers(size)``, from
    each cell's first raw word (see the module docstring)."""
    bits = size.bit_length() - 1
    if size != 1 << bits:
        raise ValueError(f"codebook size must be a power of two, got {size}")
    if not bits:
        return np.zeros(len(ts), dtype=np.uint32)
    philox = np.random.Philox(_NO_ENTROPY)
    cells = _cells(master_seed, STREAM_MESSAGE, ts, philox)
    raw = np.fromiter((philox.random_raw() for _ in cells), dtype=np.uint64, count=len(ts))
    raw &= 0xFFFFFFFF
    raw >>= 32 - bits
    return raw.astype(np.uint32)


def sent_words(book: Codebook, msgs: np.ndarray, pool_map=map) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``msgs``, ascending, and their words, each
    built once through ``book.words`` on chunks of ``_WORD_CHUNK`` of those
    rows, so a word's bits depend only on the set of rows.  ``pool_map``
    runs the chunks (a thread pool's ``map`` builds them concurrently)."""
    seen = np.zeros(book.size, dtype=bool)
    seen[msgs] = True
    rows = np.flatnonzero(seen)
    X = np.empty((len(rows), book.n))

    def build(lo: int) -> None:
        X[lo:lo + _WORD_CHUNK] = book.words(rows[lo:lo + _WORD_CHUNK])

    list(pool_map(build, range(0, len(rows), _WORD_CHUNK)))
    return rows, X


def _band_apply(taps: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add ``H x`` into ``out``, for band taps ``(..., m, k + 1)``, inputs
    ``(..., n)`` and ``out`` ``(..., m)``: ``k + 1`` shifted multiply-adds."""
    n = x.shape[-1]
    for d in range(taps.shape[-1]):
        out[..., d:d + n] += taps[..., d:d + n, d] * x
    return out


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
    y = _band_apply(H.taps, x, np.zeros(H.m))
    y += z
    return y


class TrialBlocks:
    """One thread's channels and noise for blocks of trials, equal bit for
    bit to ``transmit(sample_H(...), x, ...)`` trial by trial for the
    block's sent words ``x``, which the caller holds (``sent_words``).  One
    Philox is keyed once per stream and block, and set to each trial's cell
    by writing the trial index into counter word 1, with the buffer empty
    (``_cells``); taps and noise are drawn and applied a few trials at a
    time, in scratch of at most ``_DRAW_ENTRIES`` taps that is reused."""

    def __init__(self, spec: ChannelSpec, n: int, law: ChannelLaw, master_seed: int) -> None:
        self.spec, self.law, self.seed, self.m = spec, law, master_seed, n + spec.k
        self._bits = np.random.Philox(_NO_ENTROPY)
        rows = _draw_rows(self.m, law)
        chunk = max(1, _DRAW_ENTRIES // (rows * (spec.k + 1)))
        self._z = np.empty((chunk, self.m))
        if law.kind == "constant":
            self._taps = sample_taps(spec, self.m, law, master_seed, 0)
        else:
            self._u = np.empty((chunk, rows, spec.k + 1))

    def draw(self, ts: np.ndarray, X: np.ndarray) -> np.ndarray:
        """The ``(len(ts), m)`` vectors received in trials ``ts``
        (non-negative integers) for the sent words ``X``, one row each."""
        if ts.dtype.kind not in "iu" or (ts.size and ts.min() < 0):
            raise ValueError("trial indices must be non-negative integers")
        Y = np.zeros((len(ts), self.m))
        for lo in range(0, len(ts), len(self._z)):
            z = self._z[:len(ts) - lo]
            part = slice(lo, lo + len(z))
            for g, row in zip(_cells(self.seed, STREAM_NOISE, ts[part], self._bits), z):
                g.standard_normal(out=row)
            if self.law.kind == "constant":
                taps = self._taps
            else:
                u = self._u[:len(z)]
                for g, rows in zip(_cells(self.seed, STREAM_CHANNEL, ts[part], self._bits), u):
                    g.random(out=rows)
                taps = _taps_from(u, self.spec, self.law, self.m)
            _band_apply(taps, X[part], Y[part])
            Y[part] += z
        return Y
