"""Channel realizations, input covariances, codebooks and channel uses.

Every draw comes from a cell ``(stream, index)`` under one master seed: a
``Philox`` whose key is ``SeedSequence(master_seed, spawn_key=(stream,))
.generate_state(2, np.uint64)`` and whose counter is ``[0, index, 0, 0]``.
Philox counts a cell's blocks in counter word 0, so cells never overlap,
and results do not depend on scheduling order.  One reader, ``_Cells``,
puts every Philox here at its cell (``at``) and reads trials laid out
``_TRIAL_CELL`` to a cell in runs that start a cell or continue the last
(``fill``); ``rng_stream`` is a new reader at one cell.  A ``simulate``
command over several block lengths runs the widest first, which draws each
trial cell's values once and keeps the prefix the narrower lengths read
(``_shared_draws``).  Streams: CHANNEL (0) and NOISE (1) the taps and noise
of the ``_TRIAL_CELL`` trials ``index * _TRIAL_CELL`` onwards, in trial
order: trial ``t`` reads its draws after those of the ``t % _TRIAL_CELL``
trials before it in cell ``t // _TRIAL_CELL``, ``k + 1`` rows of float32
uniforms, tap-major (one row per tap, ``_draw_rows`` long; one 32-bit half
of a Philox word per value), and ``n + k`` normals.  CODEBOOK (2, index 0)
holds the codebook's Gaussians on the water-filled support, then its floor
radii, MESSAGE (3) trial ``index``'s message pick, FLOOR (4) the ``n``
normals codeword ``index``'s floor direction is projected from, and
``verify.VERIFY_STREAM_BASE + s`` (16 + s) sample ``index`` of the verify
suites that share suite ``s``'s instance (``verify`` says which).
``TrialBlocks`` draws a block of trials' cells in one pass per stream and
puts every law, the constant one included, through one tap loop
(``_tap_row``), adding the tap terms onto the noise in ``transmit``'s
order.  Tap arrays are tap-major too: row ``d`` of ``sample_taps`` holds
tap ``d`` of every output.

Trial ``t``'s message pick among ``size = 2**bits`` words is what
``rng_stream(seed, STREAM_MESSAGE, t).integers(size)`` returns, taken from
the cell's first raw 64-bit word ``w`` as ``(w & 0xffffffff) >> (32 -
bits)``, which is 0 when ``size == 1``: for a power-of-two range
numpy's ``integers`` is Lemire's multiply-shift on the low 32 bits of that
word, which never rejects (Lemire, ACM TOMACS 2019).  ``message_picks``
computes those first words for trials ``0, ..., trials - 1`` without a
generator per trial: Philox is counter-based, so each is Philox4x64-10 at
the counter ``[1, t, 0, 0]`` (a Philox steps counter word 0 before it
fills its buffer), evaluated in numpy passes over ``_PICK_CHUNK`` trials at
a time.
"""

from __future__ import annotations

import math
import operator
import threading
from contextlib import contextmanager
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
# Trials the decoder scores with one GEMM: about _BLOCK_BUDGET entries over
# the larger of the codebook's size and n, within [_MIN_BLOCK, _MAX_BLOCK];
# and the most entries one (codewords x trials) scratch array may have
# before the block shrinks further.
_MIN_BLOCK, _MAX_BLOCK = 64, 512
_BLOCK_BUDGET = 1 << 17
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
# rows while they are drawn or summed in float64.
_DRAW_ENTRIES = 1 << 15
# Trials whose message picks one Philox pass evaluates: its uint64 scratch,
# at most 200 bytes a trial (about 160 traced), is a term of ``decode_bytes``.
_PICK_CHUNK = 1 << 12
# Bytes one command's kept cells and pick words may hold (``_shared_draws``).
_SHARED_BYTES = 32 << 20
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


class _Shared:
    """What one ``simulate`` command's block lengths share (see
    ``_shared_draws``): per cell ``(seed, stream, index)`` the values the
    widest reader, ``reader``, reads, written as the widest length draws
    them; per ``(seed, trials)`` the low 32 bits of the message cells' first
    words.  Kept arrays count against ``_SHARED_BYTES`` (``reserve``)."""

    def __init__(self, reader: int) -> None:
        self.reader = reader
        self.cells: dict = {}
        self.picks: dict = {}
        self._held = 0
        self._lock = threading.Lock()

    def reserve(self, nbytes: int) -> bool:
        """Count ``nbytes`` more as held if the total stays within
        ``_SHARED_BYTES``; say whether it did."""
        with self._lock:
            if self._held + nbytes > _SHARED_BYTES:
                return False
            self._held += nbytes
            return True


_shared: Optional[_Shared] = None  # the open command's store, if any


@contextmanager
def _shared_draws(n_list):
    """The distinct block lengths of ``n_list``, one ``simulate`` command's,
    the widest first and the rest ascending, with a ``_Shared`` store open
    while they run when there are two or more.

    Philox is counter-based, so a cell's values do not depend on the width
    a reader takes per trial: block length ``n`` reads a flat prefix of the
    values a wider one reads, and trial ``t``'s message cell is the same at
    every length.  While the store is open, the widest length draws as with
    no store and, at each cell's first trial, reserves one array of
    ``_TRIAL_CELL`` trials at the widest reader's width, the last length's,
    into which it copies what its runs draw of it; every narrower length
    copies its runs out of that array, and the last one frees each cell it
    has read to the end.  ``message_picks`` keeps its first words once per
    ``(master_seed, trials)``.  The values are the same bits either way.
    Past ``_SHARED_BYTES`` a cell is not kept, and each length draws it.
    The store is dropped when the command ends, however it ends."""
    global _shared
    lengths = sorted(set(n_list))
    lengths = lengths[-1:] + lengths[:-1]
    if len(lengths) < 2:
        yield lengths
        return
    _shared = _Shared(lengths[-1])
    try:
        yield lengths
    finally:
        _shared = None


class _Cells:
    """The cells of ``stream`` under ``master_seed``, read through one keyed
    Philox (``bits``) and its ``Generator`` (``gen``).  Consecutive draws
    continue one stream, so reading a cell in pieces gives the values one
    call would.  With a ``_Shared`` store a reader writes its runs' cells
    (``keep``) or copies them (see ``fill``)."""

    def __init__(self, master_seed: int, stream: int, shared: Optional[_Shared] = None,
                 keep: int = 0, last: bool = False) -> None:
        self.bits = np.random.Philox(_NO_ENTROPY)
        self.gen = np.random.Generator(self.bits)
        self._counter = [0, 0, 0, 0]  # cell i is [0, i, 0, 0]
        self._key = (master_seed, stream)
        self._state = {**_PHILOX_STATE,
                       "state": {"counter": self._counter, "key": _stream_key(master_seed, stream)}}
        self._next = None  # the trial whose draws come next, after a fill
        self._shared, self._keep, self._last = shared, keep, last

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
        one after the last run, or ``ValueError`` is raised.  With a store,
        trials ``i, i + 1, ...`` of a cell are its values from ``i w`` on,
        ``w`` a row: the writer (``keep``) copies what of them the cell's
        kept array covers into it, and a reader copies them out of a kept
        array, the ``last`` one then dropping a cell it has read to the end."""
        store, t, end = self._shared, start, start + len(buf)
        while t < end:
            cell, i = divmod(t, _TRIAL_CELL)
            if i and t != self._next:
                raise ValueError(f"trial {t} neither starts a cell nor continues the last run")
            run = buf[t - start:min(end, t - i + _TRIAL_CELL) - start]
            flat, kept = run.reshape(-1), None
            if store is not None:
                key, w = (*self._key, cell), run[0].size
                if self._keep and not i and store.reserve(_TRIAL_CELL * self._keep * buf.itemsize):
                    store.cells[key] = np.empty(_TRIAL_CELL * self._keep, dtype=buf.dtype)
                kept = store.cells.get(key)
            if kept is not None and not self._keep:
                flat[:] = kept[i * w:i * w + len(flat)]
                if self._last and i + len(run) == _TRIAL_CELL:
                    del store.cells[key]
            else:
                if not i:
                    self.at(cell)
                draw(out=run)
                if kept is not None:
                    kept = kept[i * w:i * w + len(flat)]
                    kept[:] = flat[:len(kept)]
            self._next = t = t + len(run)


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


def _tap_row(v: np.ndarray, c, r, out: np.ndarray) -> None:
    """Taps ``c + r v`` into the float64 ``out``, for offsets ``v = 2u - 1``
    (``_unit_offsets``): the tap kernel every sampler shares."""
    np.multiply(v, r, out=out, dtype=float)
    out += c


def _taps_from(u: np.ndarray, spec: ChannelSpec, law: ChannelLaw, m: int) -> np.ndarray:
    """The ``(k + 1, m)`` taps of one realization from its float32 uniforms
    ``u``, ``(k + 1, rows)``: tap ``d`` of output ``i`` is ``c_d + r_d (2u
    - 1)`` of its entry (``_tap_row``)."""
    taps = np.empty((spec.k + 1, m))
    _tap_row(_unit_offsets(u, law, m), np.array(spec.c)[:, None], np.array(spec.r)[:, None], taps)
    return taps


def sample_taps(
    spec: ChannelSpec,
    m: int,
    law: ChannelLaw,
    master_seed: int,
    trial_index: int,
) -> np.ndarray:
    """Tap matrix of shape ``(k + 1, m)``: row ``d`` holds tap ``d`` of every
    output, each inside its interval.  Trial ``t`` reads ``k + 1`` rows of
    float32 uniforms, tap-major, after those of the ``t % _TRIAL_CELL``
    trials before it in the cell ``(STREAM_CHANNEL, t // _TRIAL_CELL)``,
    which are drawn and discarded (``_taps_from`` maps them)."""
    if law.kind == "constant":
        check_law(spec, law)
        return np.repeat(np.add(spec.c, np.multiply(law.offset, spec.r))[:, None], m, axis=1)
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
    """Channel realization of one trial in band form, its taps ``sample_taps``'s."""
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
    band problems (J-symmetric and J-skew) under a sign convention.  Only
    the support, the columns water-filling gives more than
    ``POWER_FLOOR``, is computed, signed, checked and held, as two tall
    half bases; ``d`` follows their column order.  Every other column gets
    exactly ``POWER_FLOOR``, so the floor needs no vector."""
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
        (``HalfBasis.apply``), plus each row's floor, built from its own
        cell, so a repeated row builds its floor again."""
        rows = np.asarray(rows)
        X = self.cov.halves.apply(self.S[rows].astype(float))
        if self.cov.floor_dim:
            V = np.empty((len(rows), self.n))
            cells = _Cells(self.seed, STREAM_FLOOR)
            at, normal = cells.at, cells.gen.standard_normal
            for i, v in zip(rows.tolist(), V):
                at(i)
                normal(out=v)
            _project_off(self.cov.halves, V)
            V *= np.sqrt(POWER_FLOOR * self.q_floor[rows] / _row_sq(V))[:, None]
            X += V
        return X

    @cached_property
    def codewords(self) -> np.ndarray:
        """Every word, built on first access; decoding never reads it."""
        X = self.words(np.arange(self.size))
        X.setflags(write=False)
        return X


def trial_block(size: int, n: int) -> int:
    """Trials ``T`` the decoder scores per GEMM against ``size`` codewords
    of length ``n``: ``_BLOCK_BUDGET`` over the larger of ``size`` and
    ``n``, rounded up to a power of two, held within ``[_MIN_BLOCK,
    _MAX_BLOCK]``, so a small codebook's block spreads its per-call cost
    over up to 512 trials, one of 1024 words takes 128 and one of 4096
    words or of n = 2048 keeps 64; then fewer (at least one) so that a
    scratch array of ``size * T`` entries stays within ``_BLOCK_ENTRIES``.
    ``T`` is a power of two, so it divides ``_TRIAL_CELL`` or is a
    multiple of it."""
    wide = 1 << (max(size, n) - 1).bit_length()
    T = min(_MAX_BLOCK, max(_MIN_BLOCK, _BLOCK_BUDGET // wide))
    return max(1, min(T, _BLOCK_ENTRIES // size))


def decode_bytes(size: int, n: int, trials: int = 0, k: int = 0) -> int:
    """Bytes exhaustive decoding of ``trials`` trials holds for ``size``
    codewords of length ``n`` on a channel of memory ``k``, at most: the
    float32 coefficients, 4 bytes each, and the two tall half bases, taken
    at the full width ``n`` (``(n^2 + 1) / 2`` entries for the bases),
    since the support is known only once ``build_sigma`` has run and the
    cap refuses before it; three float64 per-word statistics (input
    statistic, floor radius, energy) and one float32 (the score's per-word
    term); the held sent words, ``min(trials, size)`` rows of ``n``, and
    message picks, 4 bytes a trial (``sent_words``); and the largest of
    three scratches that never coexist: one ``_PICK_CHUNK`` pass of the
    picks, 200 bytes a trial; a chunk of ``_WORD_CHUNK`` sent words being
    built, five rows of ``n`` a word (floor draw, projection, half bases'
    products); or a block of ``T = trial_block(size, n)`` trials: the
    received vectors, noise drawn into them, three rows of ``n`` a trial
    (sent word, ``Hc'y``, its support coefficients), float32 scores, 4
    bytes a ``(size, T)`` entry, boolean masks at most 4 more, and the
    draw's scratch, ``8 ((k + 1)(m + 1) + n + m)`` bytes a trial for ``m =
    n + k``: the float32 uniforms and their live gather or block_hold
    repeat (a hold of 2 repeats an odd ``m`` to ``m + 1``), the float64 tap
    row and the live trials' copy of the received vectors.  Besides the
    block, what picks and recomputes the pairs inside the guard band,
    ``_DIRECT_BYTES``."""
    T, m = trial_block(size, n), n + k
    rows = min(trials, size)
    draw = 8 * ((k + 1) * (m + 1) + n + m)
    block = T * (8 * (m + 3 * n) + draw)
    return (4 * size * (n + 7 + 2 * T) + 8 * ((n * n + 1) // 2 + rows * n) + 4 * trials
            + max(block, 40 * n * _WORD_CHUNK, 200 * _PICK_CHUNK) + _DIRECT_BYTES)


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


# Philox4x64-10's round multipliers and key increments (Salmon et al.,
# "Parallel random numbers: as easy as 1, 2, 3", SC 2011), one row per
# multiplied counter word (0 and 2), and the multipliers' 32-bit halves.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def _philox_first_words(key: tuple[int, int], t: np.ndarray) -> np.ndarray:
    """The first raw word of the cell ``[0, t, 0, 0]`` of a Philox keyed
    ``key``, for every ``uint64`` entry of ``t``: Philox4x64-10 at the
    counter ``[1, t, 0, 0]`` (numpy's Philox steps word 0 before each
    block), in one array pass over ``t``.  Counter words 0 and 2 are the
    rows of ``A``, 1 and 3 those of ``B``; each round multiplies ``A`` by the
    multipliers into 128-bit products, built from 32-bit halves, gives
    ``A = (hi[2], hi[0]) ^ B ^ key``, ``B = (lo[2], lo[0])``, and bumps
    the key."""
    A = np.zeros((2, len(t)), dtype=np.uint64)
    A[0] = 1
    B = np.zeros_like(A)
    B[0] = t
    key = np.array(key, dtype=np.uint64)[:, None]
    for _ in range(10):
        lo, hi = A & 0xFFFFFFFF, A >> 32
        cross_lo, cross_hi = _PHILOX_M_LO * hi, _PHILOX_M_HI * lo
        carry = (_PHILOX_M_LO * lo >> 32) + (cross_lo & 0xFFFFFFFF) + (cross_hi & 0xFFFFFFFF)
        hi = _PHILOX_M_HI * hi + (cross_lo >> 32) + (cross_hi >> 32) + (carry >> 32)
        A, B = hi[::-1] ^ B ^ key, (_PHILOX_M * A)[::-1]
        key = key + _PHILOX_BUMP
    return A[0]


def _pick_words(master_seed: int, trials: int) -> np.ndarray:
    """The low 32 bits of the first raw words of the message cells of
    trials ``0, ..., trials - 1``, as ``uint32``, in passes of
    ``_PICK_CHUNK`` trials (the cast keeps the low bits)."""
    key = _stream_key(master_seed, STREAM_MESSAGE)
    out = np.empty(trials, dtype=np.uint32)
    for lo in range(0, trials, _PICK_CHUNK):
        t = np.arange(lo, min(lo + _PICK_CHUNK, trials), dtype=np.uint64)
        out[lo:lo + len(t)] = _philox_first_words(key, t)
    return out


def message_picks(master_seed: int, trials: int, size: int) -> np.ndarray:
    """Message picks of trials ``0, ..., trials - 1`` among ``size`` words,
    as ``uint32``: bit for bit ``rng_stream(master_seed, STREAM_MESSAGE,
    t).integers(size)``, from each cell's first raw word (see the module
    docstring), in passes of ``_PICK_CHUNK`` trials.  With a store open
    (``_shared_draws``) the words are computed and kept once per
    ``(master_seed, trials)``."""
    bits = size.bit_length() - 1
    if size != 1 << bits:
        raise ValueError(f"codebook size must be a power of two, got {size}")
    store = _shared
    if store is None:
        out = _pick_words(master_seed, trials)
        out >>= 32 - bits
        return out
    key = (master_seed, trials)
    words = store.picks.get(key)
    if words is None:
        words = _pick_words(master_seed, trials)
        if store.reserve(words.nbytes):
            store.picks[key] = words
    return words >> (32 - bits)


def sent_words(
    book: Codebook, msgs: np.ndarray, keep: Optional[np.ndarray] = None, pool_map=map
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``msgs`` that ``keep`` (a boolean per codeword,
    all of them when ``None``) keeps, ascending, and their words, each
    built once (``book.words`` builds what it is given, repeats included)
    on chunks of ``_WORD_CHUNK`` of those rows, so a word's bits depend
    only on the set of rows; the words of
    the trials whose rows were kept are ``X[np.searchsorted(rows,
    msgs[kept])]``, one gather.  ``pool_map`` runs the chunks (a thread
    pool's ``map`` builds them concurrently)."""
    seen = np.zeros(book.size, dtype=bool)
    seen[msgs] = True
    if keep is not None:
        seen &= keep
    rows = np.flatnonzero(seen)
    X = np.empty((len(rows), book.n))

    def build(lo: int) -> None:
        X[lo:lo + _WORD_CHUNK] = book.words(rows[lo:lo + _WORD_CHUNK])

    list(pool_map(build, range(0, len(rows), _WORD_CHUNK)))
    return rows, X


def transmit(
    H: BandedChannelMatrix,
    x: np.ndarray,
    master_seed: int,
    trial_index: int,
) -> np.ndarray:
    """One channel use: ``y = H x + z`` with iid unit Gaussian ``z``, the
    ``m`` normals that follow those of the ``t % _TRIAL_CELL`` trials
    before trial ``t`` in the cell ``(STREAM_NOISE, t // _TRIAL_CELL)``.
    ``y`` starts as ``z``, and ``H`` is applied onto it (``H.apply``)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (H.n,):
        raise DimensionMismatch(f"x has shape {x.shape}, channel expects ({H.n},)")
    cell, i = divmod(operator.index(trial_index), _TRIAL_CELL)
    z = rng_stream(master_seed, STREAM_NOISE, cell).standard_normal((i + 1, H.m))[i]
    return H.apply(x, z)


class TrialBlocks:
    """One thread's channels and noise for runs of consecutive trials,
    equal bit for bit to ``transmit(sample_H(...), x, ...)`` trial by trial
    for the run's sent words ``x``, which the caller holds (``sent_words``;
    a trial the decoder settles by the input test sends nothing, but its
    draws are read all the same, so each stream stays at its position).
    One reader per stream (``_Cells.fill``) reads runs that start a cell or
    continue the last run, so a run costs one float32 ``random`` and one
    ``standard_normal`` call per cell, and a new cell one state set.  The
    received vectors start as the noise, drawn straight into them; for each
    tap ``d`` one float64 row per trial takes the tap's values
    (``_tap_row``), is multiplied by the shifted words and added on.  The
    constant law goes through the same loop, its offsets one read-only row
    broadcast over the trials.  No tap array is formed: the run's uniforms
    and tap rows are the draw's scratch."""

    def __init__(self, spec: ChannelSpec, n: int, law: ChannelLaw, master_seed: int) -> None:
        self.spec, self.law, self.n, self.m = spec, law, n, n + spec.k
        shared = _shared
        kept_m = shared.reader + spec.k if shared and n > shared.reader else 0  # 0 unless the writer
        last = shared is not None and n == shared.reader
        self._noise = _Cells(master_seed, STREAM_NOISE, shared, kept_m, last)
        self._normal = self._noise.gen.standard_normal
        if law.kind == "constant":
            check_law(spec, law)
            self._offsets = np.broadcast_to(np.array(law.offset)[:, None], (1, spec.k + 1, self.m))
        else:
            keep = (spec.k + 1) * _draw_rows(kept_m, law) if kept_m else 0
            self._channel = _Cells(master_seed, STREAM_CHANNEL, shared, keep, last)
            self._uniform = partial(self._channel.gen.random, dtype=np.float32)

    def draw(self, start: int, X: np.ndarray, live: Optional[np.ndarray] = None) -> np.ndarray:
        """The vectors received in the live trials of the run ``start``,
        ``start + 1``, ..., one row of ``m`` for each sent word, a row of
        ``X``: ``live`` marks the run's trials that are sent and received
        (all ``len(X)`` of them when ``None``), one row of ``X`` for each
        in order.  Every trial of the run draws its noise and uniforms, in
        one pass, so each stream keeps its position; the live trials' rows
        of both are then selected once, and only they get tap terms.
        ``start`` must start a cell or continue the last run
        (``_Cells.fill``)."""
        start = operator.index(start)
        if start < 0:
            raise ValueError(f"trial indices must be non-negative integers, got {start}")
        if np.ndim(X) != 2 or np.shape(X)[1] != self.n:
            raise DimensionMismatch(f"words have shape {np.shape(X)}, expected (trials, {self.n})")
        if live is None:
            live = np.ones(len(X), dtype=bool)
        elif np.count_nonzero(live) != len(X):
            raise DimensionMismatch(f"{np.count_nonzero(live)} live trials, but {len(X)} words")
        n, spec, every = self.n, self.spec, live.all()
        Y = np.empty((len(live), self.m))
        self._noise.fill(self._normal, start, Y)
        if self.law.kind == "constant":
            v = self._offsets
        else:
            u = np.empty((len(live), spec.k + 1, _draw_rows(self.m, self.law)), dtype=np.float32)
            self._channel.fill(self._uniform, start, u)
            v = _unit_offsets(u if every else u[live], self.law, self.m)
        if not every:
            Y = Y[live]
        row = np.empty((len(X), n))
        for d in range(spec.k + 1):
            _tap_row(v[:, d, d:d + n], spec.c[d], spec.r[d], row)
            row *= X
            Y[:, d:d + n] += row
        return Y
