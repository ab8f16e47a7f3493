"""Channel realizations, input covariances, codebooks and channel uses.

Every draw comes from a cell ``(stream, index)`` under one master seed: a
``Philox`` whose key is ``SeedSequence(master_seed, spawn_key=(stream,))
.generate_state(2, np.uint64)`` and whose counter is ``[0, index, 0, 0]``.
Philox counts a cell's blocks in counter word 0, so cells never overlap,
and results do not depend on scheduling order.  One reader, ``_Cells``,
puts every Philox here at its cell (``at``) and reads trials laid out
``_TRIAL_CELL`` to a cell in runs that start a cell or continue the last
(``fill``); ``rng_stream`` is a new reader at one cell.  Streams: CHANNEL
(0) and NOISE (1) the taps and noise of the ``_TRIAL_CELL`` trials
``index * _TRIAL_CELL`` onwards, in trial order:
trial ``t`` reads its draws after those of the ``t % _TRIAL_CELL`` trials
before it in cell ``t // _TRIAL_CELL``, ``k + 1`` rows of float32
uniforms, tap-major (one row per tap, ``_draw_rows`` long; one 32-bit half
of a Philox word per value), and ``n + k`` normals.  CODEBOOK (2, index 0)
holds the codebook's Gaussians on the water-filled support, then its floor
radii, MESSAGE (3) trial ``index``'s message pick, FLOOR (4) the ``n``
normals codeword ``index``'s floor direction is projected from, and
``verify.VERIFY_STREAM_BASE + s`` (16 + s) sample ``index`` of the verify
suites that share suite ``s``'s instance (``verify`` says which).
``TrialBlocks`` draws the trials' cells a block at a time and puts every
law, the constant one included, through one tap loop (``_tap_row``),
adding the tap terms onto the noise in ``transmit``'s order.

Trial ``t``'s message pick among ``size = 2**bits`` words is what
``rng_stream(seed, STREAM_MESSAGE, t).integers(size)`` returns, taken from
the cell's first raw 64-bit word ``w`` as ``(w & 0xffffffff) >> (32 -
bits)``, which is 0 when ``size == 1``: for a power-of-two range
numpy's ``integers`` is Lemire's multiply-shift on the low 32 bits of that
word, which never rejects (Lemire, ACM TOMACS 2019).  ``message_picks``
draws them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from typing import Literal, Optional

import numpy as np

from .errors import CodebookTooLarge, DimensionMismatch
from .spectrum import BandedChannelMatrix, ChannelSpec, HalfBasis, _as_int, gram_eigh
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
# Trials whose taps, and whose noise, one cell holds, in trial order: part of
# the draws' definition, so changing it redraws every trial past the first.
_TRIAL_CELL = 64
# Sent rows ``sent_words`` builds per ``Codebook.words`` call.
_WORD_CHUNK = 64
# Most scores the decoder scans at once for pairs inside the guard band, and
# most entries of the images one direct-form recomputation builds; the two
# hold at most 64 bytes per such entry (44 traced, every pair in the band).
_DIRECT_ENTRIES = 1 << 16
_DIRECT_BYTES = 64 * _DIRECT_ENTRIES
# Most doubles one scratch chunk holds, so it stays in cache: the codebook's
# rows while they are drawn or summed in float64, and (in bytes) TrialBlocks'
# float32 uniforms.
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


class _Cells:
    """The cells of ``stream`` under ``master_seed``, read through one keyed
    Philox (``bits``) and its ``Generator`` (``gen``).  Consecutive draws
    continue one stream, so reading a cell in pieces gives the values one
    call would."""

    def __init__(self, master_seed: int, stream: int) -> None:
        self.bits = np.random.Philox(_NO_ENTROPY)
        self.gen = np.random.Generator(self.bits)
        self._counter = [0, 0, 0, 0]  # cell i is [0, i, 0, 0]
        self._state = {**_PHILOX_STATE,
                       "state": {"counter": self._counter, "key": _stream_key(master_seed, stream)}}
        self._next = None  # the trial whose draws come next, after a fill

    def at(self, i: int) -> np.random.Generator:
        """``gen`` at the start of cell ``i``, its buffer empty."""
        self._counter[1] = i
        self.bits.state = self._state
        self._next = None
        return self.gen

    def fill(self, draw, start: int, buf: np.ndarray) -> None:
        """``buf[i]`` set to the draws of trial ``start + i``, for each row
        of ``buf``, with one ``draw(out=)`` call per cell the run touches;
        ``draw`` is a method of ``gen``, the same on every call.  A cell's
        first trial restarts the cell (``at``); any other trial must be the
        one after the last run, or ``ValueError`` is raised."""
        t, end = start, start + len(buf)
        while t < end:
            cell, i = divmod(t, _TRIAL_CELL)
            if not i:
                self.at(cell)
            elif t != self._next:
                raise ValueError(f"trial {t} neither starts a cell nor continues the last run")
            self._next = min(end, t - i + _TRIAL_CELL)
            draw(out=buf[t - start:self._next - start])
            t = self._next


def rng_stream(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator of the cell ``(stream, index)`` under a master seed, equal
    to ``Philox(key=..., counter=index << 64)``; every call returns a
    generator of its own."""
    master_seed, stream, index = map(operator.index, (master_seed, stream, index))
    if min(master_seed, stream) < 0 or not 0 <= index < 1 << 64:
        raise ValueError(f"need seed and stream >= 0 and index in [0, 2**64), got "
                         f"{(master_seed, stream, index)}")
    return _Cells(master_seed, stream).at(index)


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
        object.__setattr__(self, "block_len", _as_int(self.block_len, "block_len"))
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
    """Uniforms one trial draws per tap for ``m`` outputs."""
    return m if law.kind == "iid_uniform" else -(-m // law.block_len)


def _unit_offsets(u: np.ndarray, law: ChannelLaw, m: int) -> np.ndarray:
    """Float32 uniforms ``u``, ``(..., k + 1, rows)``, one row per tap,
    mapped in place to ``2u - 1`` (exact: ``u`` is a multiple of
    ``2**-24``); under block_hold each entry then repeated for the
    ``block_len`` outputs it covers, cut to ``m``."""
    u *= 2.0
    u -= 1.0
    if law.kind == "block_hold":
        u = np.repeat(u, min(law.block_len, m), axis=-1)[..., :m]
    return u


def _tap_row(v: np.ndarray, c: float, r: float, out: np.ndarray) -> None:
    """One tap's values ``c + r v`` into the float64 ``out``, for offsets
    ``v = 2u - 1`` (``_unit_offsets``): the tap kernel every sampler shares."""
    np.multiply(v, r, out=out, dtype=float)
    out += c


def _taps_from(u: np.ndarray, spec: ChannelSpec, law: ChannelLaw, m: int) -> np.ndarray:
    """The ``(m, k + 1)`` taps of one realization from its float32 uniforms
    ``u``, ``(k + 1, rows)``: tap ``d`` of output ``i`` is ``c_d + r_d (2u
    - 1)`` of its entry (``_tap_row``)."""
    v = _unit_offsets(u, law, m)
    taps = np.empty((m, spec.k + 1))
    for d, (c, r) in enumerate(zip(spec.c, spec.r)):
        _tap_row(v[d], c, r, taps[:, d])
    return taps


def sample_taps(
    spec: ChannelSpec,
    m: int,
    law: ChannelLaw,
    master_seed: int,
    trial_index: int,
) -> np.ndarray:
    """Tap matrix of shape ``(m, k + 1)``; row ``i`` holds output ``i``'s
    taps, each inside its interval.  Trial ``t`` reads ``k + 1`` rows of
    float32 uniforms, tap-major, after those of the ``t % _TRIAL_CELL``
    trials before it in the cell ``(STREAM_CHANNEL, t // _TRIAL_CELL)``,
    which are drawn and discarded (``_taps_from`` maps them)."""
    if law.kind == "constant":
        check_law(spec, law)
        return np.tile(np.add(spec.c, np.multiply(law.offset, spec.r)), (m, 1))
    cell, i = divmod(operator.index(trial_index), _TRIAL_CELL)
    shape = (i + 1, spec.k + 1, _draw_rows(m, law))
    u = rng_stream(master_seed, STREAM_CHANNEL, cell).random(shape, dtype=np.float32)
    return _taps_from(u[i], spec, law, m)


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
    """Exhaustively decodable Gaussian codebook: ``size = len(S)`` words, a
    power of two (another size is refused), of length ``n = cov.n``, drawn
    once from the input covariance ``cov``, held by their float32
    coefficients on its support ``U`` and one floor radius each.

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

    The input statistic ``q[i] = sum_j s_j^2 / d_j + q_floor[i]``, computed
    here in float64 from the held ``s`` (``_row_form``), is ``x' Sigma^{-1}
    x`` of the word as built, with no rounding of ``x`` amplified by the
    small eigenvalues of ``Sigma``; the decoder's guard band bounds
    ``||s||^2`` by ``max(d) q`` and ``||x_f||^2`` by ``POWER_FLOOR
    q_floor`` (``decoder._g_round``).  Coefficients that are not float32 or
    not finite, and floor radii that are negative or not finite, are
    refused.  Decoding needs only ``S``, ``q`` and ``q_floor``: ``words``
    builds the words of given rows, and ``codewords`` every word on first
    access."""

    S: np.ndarray
    cov: CovarianceSpec
    q_floor: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if self.size < 1 or self.size & (self.size - 1):
            raise ValueError(f"codebook size must be a power of two, got {self.size}")
        if self.S.shape != (self.size, self.cov.d.size) or self.q_floor.shape != (self.size,):
            raise ValueError("coefficient or floor radius array shape mismatch")
        if self.S.dtype != np.float32:
            raise ValueError(f"coefficients must be float32, got {self.S.dtype}")
        if not (np.isfinite(self.q_floor).all() and self.q_floor.min(initial=0.0) >= 0.0):
            raise ValueError("floor radii must be finite and non-negative")
        q = _row_form(self.S, 1.0 / self.cov.d)
        if not np.isfinite(q).all():
            raise ValueError("coefficients must be finite")
        q += self.q_floor
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return self.cov.n

    @property
    def size(self) -> int:
        return len(self.S)

    def words(self, rows) -> np.ndarray:
        """The words ``U s + x_f`` of ``rows``, one per row index: the
        gathered rows of ``S``, widened to float64, through the half bases
        (``HalfBasis.apply``), plus each distinct row's floor, built once
        per call."""
        rows = np.asarray(rows)
        X = self.cov.halves.apply(self.S[rows].astype(float))
        if self.cov.floor_dim:
            distinct, inv = np.unique(rows, return_inverse=True)
            V = np.empty((len(distinct), self.n))
            cells = _Cells(self.seed, STREAM_FLOOR)
            at, normal = cells.at, cells.gen.standard_normal
            for i, v in zip(distinct.tolist(), V):
                at(i)
                normal(out=v)
            _project_off(self.cov.halves, V)
            V *= np.sqrt(POWER_FLOOR * self.q_floor[distinct] / _row_sq(V))[:, None]
            X += V[inv]
        return X

    @cached_property
    def codewords(self) -> np.ndarray:
        """Every word, built on first access; decoding never reads it."""
        X = self.words(np.arange(self.size))
        X.setflags(write=False)
        return X


def trial_block(size: int) -> int:
    """Trials the decoder scores per GEMM against ``size`` codewords:
    ``_TRIAL_BLOCK``, or fewer (at least one) so that a scratch array of
    ``size * T`` entries stays within ``_BLOCK_ENTRIES``."""
    return max(1, min(_TRIAL_BLOCK, _BLOCK_ENTRIES // size))


def decode_bytes(size: int, n: int, trials: int = 0, k: int = 0) -> int:
    """Bytes exhaustive decoding of ``trials`` trials holds for ``size``
    codewords of length ``n`` on a channel of memory ``k``, at most: the
    float32 coefficients, 4 bytes each, and the two tall half bases, taken
    at the full width ``n`` (``(n^2 + 1) / 2`` entries for the bases),
    since the support is known only once ``build_sigma`` has run and the
    cap refuses before it; three float64 per-word statistics (input
    statistic, floor radius, energy) and one float32 (the score's per-word
    term); the held sent words, ``min(trials, size)`` rows of ``n``, and
    message picks, 4 bytes a trial (``sent_words``); and the larger of two
    scratches that never coexist: a chunk of ``_WORD_CHUNK`` sent words
    being built, five rows of ``n`` a word (floor draw, projection, half
    bases' products), or a block of ``T = trial_block(size)`` trials: the
    received vectors, noise drawn into them, and three rows of ``n`` a
    trial (sent word, ``Hc'y``, its support coefficients), float32 scores,
    4 bytes a ``(size, T)`` entry, boolean masks at most 4 more, and the
    draw chunk's float32 uniforms, their block_hold repeat and float64 tap
    rows, ``8 ((k + 1)(n + k) + n)`` bytes a trial and at most ``4
    _DRAW_ENTRIES`` doubles unless one trial takes more; and besides the
    block, what picks and recomputes the pairs inside the guard band,
    ``_DIRECT_BYTES``."""
    T, m = trial_block(size), n + k
    rows = min(trials, size)
    draw = 8 * max(4 * _DRAW_ENTRIES, (k + 1) * m + n)
    block = 8 * T * (m + 3 * n) + draw
    return (4 * size * (n + 7 + 2 * T) + 8 * ((n * n + 1) // 2 + rows * n) + 4 * trials
            + max(block, 40 * n * _WORD_CHUNK) + _DIRECT_BYTES)


def codebook_size(n: int, R: float, trials: int = 0, k: int = 0) -> int:
    """Codewords ``2**ceil(n * R)`` of the rate-``R`` codebook of length
    ``n``, once exhaustive decoding of ``trials`` trials on a channel of
    memory ``k`` is known to fit: raises ``CodebookTooLarge`` past
    ``MAX_CODEBOOK_BITS`` or past ``MAX_DECODE_BYTES`` (see
    ``decode_bytes``).  A negative or non-finite rate is refused."""
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
    need = decode_bytes(size, n, trials, k)
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
    freedom.  ``Codebook`` computes the input statistic ``q`` from them.
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
    del buf, g  # the draw's scratch goes before the statistic takes its own
    q_floor = rng.chisquare(cov.floor_dim, size) if cov.floor_dim else np.zeros(size)
    for a in (S, q_floor):
        a.setflags(write=False)
    return Codebook(S=S, cov=cov, q_floor=q_floor, seed=master_seed)


def message_picks(master_seed: int, ts, size: int) -> np.ndarray:
    """Message picks of trials ``ts`` (non-negative integers, an array or a
    range) among ``size`` words, as ``uint32``: bit for bit
    ``rng_stream(master_seed, STREAM_MESSAGE, t).integers(size)``, from
    each cell's first raw word (see the module docstring)."""
    bits = size.bit_length() - 1
    if size != 1 << bits:
        raise ValueError(f"codebook size must be a power of two, got {size}")
    cells = _Cells(master_seed, STREAM_MESSAGE)
    first = cells.bits.random_raw
    ts = ts.tolist() if isinstance(ts, np.ndarray) else ts
    raw = np.fromiter((first() for _ in map(cells.at, ts)), dtype=np.uint64, count=len(ts))
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
    """One channel use: ``y = H x + z`` with iid unit Gaussian ``z``, the
    ``m`` normals that follow those of the ``t % _TRIAL_CELL`` trials
    before trial ``t`` in the cell ``(STREAM_NOISE, t // _TRIAL_CELL)``.
    ``y`` starts as ``z``, and ``H`` is applied onto it in band form
    (``_band_apply``)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, channel expects ({H.n},)")
    cell, i = divmod(operator.index(trial_index), _TRIAL_CELL)
    z = rng_stream(master_seed, STREAM_NOISE, cell).standard_normal((i + 1, H.m))[i]
    return _band_apply(H.taps, x, z)


class TrialBlocks:
    """One thread's channels and noise for runs of consecutive trials,
    equal bit for bit to ``transmit(sample_H(...), x, ...)`` trial by trial
    for the run's sent words ``x``, which the caller holds (``sent_words``).
    One reader per stream (``_Cells.fill``) reads runs that start a cell or
    continue the last run, so a run costs one float32 ``random`` and one
    ``standard_normal`` call per draw chunk and cell, and a new cell one
    state set.  The received vectors start as the noise, drawn straight
    into them; for each tap ``d`` one float64 row per trial takes the tap's
    values (``_tap_row``), is multiplied by the shifted words and added on.
    The constant law goes through the same loop, its offsets one read-only
    row broadcast over the trials.  No tap array is formed: uniforms and tap
    rows are one chunk's scratch."""

    def __init__(self, spec: ChannelSpec, n: int, law: ChannelLaw, master_seed: int) -> None:
        self.spec, self.law, self.n, self.m = spec, law, n, n + spec.k
        # A chunk is at most a decoder block, and keeps its float32 uniforms
        # within the bytes of _DRAW_ENTRIES doubles unless one trial is more.
        chunk = max(1, min(_TRIAL_BLOCK, 2 * _DRAW_ENTRIES // ((spec.k + 1) * self.m)))
        self._row = np.empty((chunk, n))
        self._noise = _Cells(master_seed, STREAM_NOISE)
        self._normal = self._noise.gen.standard_normal
        if law.kind == "constant":
            check_law(spec, law)
            self._offsets = np.broadcast_to(np.array(law.offset)[:, None], (1, spec.k + 1, self.m))
        else:
            self._u = np.empty((chunk, spec.k + 1, _draw_rows(self.m, law)), dtype=np.float32)
            self._channel = _Cells(master_seed, STREAM_CHANNEL)
            self._uniform = partial(self._channel.gen.random, dtype=np.float32)

    def draw(self, start: int, X: np.ndarray) -> np.ndarray:
        """The ``(len(X), m)`` vectors received in trials ``start``,
        ``start + 1``, ... for the sent words ``X``, one row of ``n`` each.
        ``start`` must start a cell or continue the last run (``_Cells.fill``)."""
        start = operator.index(start)
        if start < 0:
            raise ValueError(f"trial indices must be non-negative integers, got {start}")
        if np.ndim(X) != 2 or np.shape(X)[1] != self.n:
            raise DimensionMismatch(f"words have shape {np.shape(X)}, expected (trials, {self.n})")
        n, spec = self.n, self.spec
        Y = np.empty((len(X), self.m))
        for lo in range(0, len(X), len(self._row)):
            y, x = Y[lo:lo + len(self._row)], X[lo:lo + len(self._row)]
            row = self._row[:len(y)]
            self._noise.fill(self._normal, start + lo, y)
            if self.law.kind == "constant":
                v = self._offsets
            else:
                self._channel.fill(self._uniform, start + lo, self._u[:len(y)])
                v = _unit_offsets(self._u[:len(y)], self.law, self.m)
            for d in range(spec.k + 1):
                _tap_row(v[:, d, d:d + n], spec.c[d], spec.r[d], row)
                row *= x
                y[:, d:d + n] += row
        return Y
