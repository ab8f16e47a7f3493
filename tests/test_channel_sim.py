import tracemalloc
from functools import partial
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from isicap import (
    ChannelLaw,
    ChannelSpec,
    build_Hc,
    build_joint,
    build_sigma,
    gen_codebook,
    gram_eigh,
    rng_stream,
    sample_H,
    transmit,
)
from isicap import channel_sim
from isicap.channel_sim import (
    MAX_CODEBOOK_BITS,
    Codebook,
    STREAM_CODEBOOK,
    STREAM_FLOOR,
    STREAM_MESSAGE,
    STREAM_NOISE,
    CovarianceSpec,
    TrialBlocks,
    decode_bytes,
    message_picks,
    sample_taps,
    sent_words,
    trial_block,
)
from isicap.spectrum import FOLD_ULPS, HalfBasis
from isicap.verify import VERIFY_STREAM_BASE
from isicap.decoder import TypicalParams, _pass_mask, prepare_context
from isicap.errors import CodebookTooLarge, DimensionMismatch
from isicap.waterfill import POWER_FLOOR, dbw_to_watts, waterfill_powers
from bases import assemble, flat_cov, floors, random_cov, random_halves, sigma, standard_halves
from oracles import _dense_band, dense_gram, exact_channel_use, exact_joint_statistics


def test_rng_stream_reproducible():
    a = rng_stream(123, 0, 7).standard_normal(16)
    b = rng_stream(123, 0, 7).standard_normal(16)
    c = rng_stream(123, 0, 8).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_streams_distinct():
    draws = {
        stream: tuple(rng_stream(5, stream, 0).integers(0, 1 << 30, 4))
        for stream in range(4)
    }
    assert len(set(draws.values())) == 4


@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**70 + 3])
def test_rng_stream_is_the_documented_cell(seed):
    """``rng_stream(seed, stream, index)`` draws, bit for bit, what a plain
    numpy Philox keyed by ``SeedSequence(seed, spawn_key=(stream,))
    .generate_state(2, np.uint64)`` at counter ``[0, index, 0, 0]`` draws,
    for indices past one and two counter words' worth of uint32 up to the
    last cell.  Each call returns a generator of its own: draws from one
    leave another of the same cell where it was."""
    for stream in (0, 1, 2, 3, VERIFY_STREAM_BASE + 8):
        key = np.random.SeedSequence(seed, spawn_key=(stream,)).generate_state(2, np.uint64)
        for index in (0, 1, 2**32, 2**63, 2**64 - 1):
            counter = np.array([0, index, 0, 0], dtype=np.uint64)
            want = np.random.Generator(np.random.Philox(key=key, counter=counter))
            got, twin = rng_stream(seed, stream, index), rng_stream(seed, stream, index)
            assert got.bit_generator is not twin.bit_generator
            first = got.random(9)
            assert np.array_equal(first, want.random(9))
            assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
            assert got.integers(1 << 20) == want.integers(1 << 20)
            assert np.array_equal(twin.random(9), first)


def test_one_reader_moved_in_any_order_draws_fresh_cells():
    """One ``_Cells`` reader draws what a fresh ``rng_stream`` cell draws,
    however it is moved: ``at`` after draws that left part of a Philox
    block or half a word unread (three raw words, five float32 uniforms),
    back to an earlier cell, and ``at`` between runs.  ``fill`` gives trial
    ``t`` row ``t % 64`` of its cell ``t // 64``'s rows in trial order, for
    runs from a cell's start, runs that continue the last one across a
    cell's end, a cell restarted from its start, a later cell and an
    earlier one, through a buffer of one row and of eight, with draws of an
    odd width."""
    seed, stream, width = 6, 1, 3
    cell = channel_sim._TRIAL_CELL

    def fresh(t, method):
        g, i = divmod(t, cell)
        return getattr(rng_stream(seed, stream, g), method)((i + 1, width), dtype=np.float32)[i]

    cells = channel_sim._Cells(seed, stream)
    for i in (5, 2, 5, 2**40, 0):
        assert cells.at(i) is cells.gen
        want = rng_stream(seed, stream, i)
        assert np.array_equal(cells.bits.random_raw(3), want.bit_generator.random_raw(3))
        assert np.array_equal(cells.gen.random(5, dtype=np.float32), want.random(5, dtype=np.float32))
    # (first trial, trials) of each run; None moves the reader by ``at`` first
    runs = [(0, 13), (13, 57), (cell, 2), (cell + 2, cell + 1), None, (3 * cell, 5),
            (3 * cell + 5, 1), (cell, cell), None, (0, 3)]
    for method in ("random", "standard_normal"):
        draw = partial(getattr(cells.gen, method), dtype=np.float32)
        for rows in (1, 8):
            buf = np.empty((rows, width), dtype=np.float32)
            for run in runs:
                if run is None:
                    assert np.array_equal(cells.at(1).random(1, dtype=np.float32),
                                          rng_stream(seed, stream, 1).random(1, dtype=np.float32))
                    continue
                first, count = run
                for lo in range(first, first + count, rows):
                    part = buf[:min(rows, first + count - lo)]
                    cells.fill(draw, lo, part)
                    for t, row in enumerate(part, lo):
                        assert np.array_equal(row, fresh(t, method)), (method, rows, t)


def test_reader_refuses_a_run_that_neither_starts_a_cell_nor_continues():
    """``fill`` reads only runs that start a cell or continue the last run:
    a fresh reader, a skip ahead inside a cell, a step back inside it and a
    start inside a cell after ``at`` are refused, and leave the reader able
    to go on from where the last run ended.  ``TrialBlocks.draw`` refuses
    the same starts."""
    cell = channel_sim._TRIAL_CELL
    cells = channel_sim._Cells(3, STREAM_NOISE)
    draw = cells.gen.standard_normal
    buf = np.empty((4, 2))
    with pytest.raises(ValueError, match="trial 5 neither starts a cell"):
        cells.fill(draw, 5, buf)
    cells.fill(draw, 0, buf)
    for start in (5, 2, cell + 1):
        with pytest.raises(ValueError, match=f"trial {start} neither"):
            cells.fill(draw, start, buf)
    cells.fill(draw, 4, buf)
    assert np.array_equal(buf[-1], rng_stream(3, STREAM_NOISE, 0).standard_normal((8, 2))[7])
    cells.at(0)
    with pytest.raises(ValueError, match="trial 8 neither"):
        cells.fill(draw, 8, buf)
    spec, n = ChannelSpec(k=1, c=(1.0, 0.5), r=(1e-3, 1e-3)), 6
    for law in (ChannelLaw(kind="iid_uniform"), ChannelLaw(kind="constant", offset=(1.0, -1.0))):
        blocks = TrialBlocks(spec, n, law, 0)
        with pytest.raises(ValueError, match="trial 5 neither"):
            blocks.draw(5, np.ones((2, n)))
        blocks.draw(0, np.ones((2, n)))
        with pytest.raises(ValueError, match="trial 3 neither"):
            blocks.draw(3, np.ones((2, n)))


def test_codebook_computes_its_input_statistic():
    """``Codebook`` takes no ``q``: it computes ``q = sum_j s_j^2 / d_j +
    q_floor`` itself, read-only, within ``(n + 2) eps / 2`` relative of the
    statistic of its float32 coefficients evaluated in exact rationals (the
    bound ``decoder._g_round`` takes), and equal to the same float64 sum
    taken here.  ``n`` and ``size`` are read from ``cov`` and ``S``."""
    n, size = 24, 64
    cov = random_cov(n, 3)
    rng = np.random.default_rng(8)
    S = (rng.standard_normal((size, n)) * np.sqrt(cov.d)).astype(np.float32)
    q_floor = rng.chisquare(5, size)
    book = Codebook(S=S, cov=cov, q_floor=q_floor, seed=0)
    assert (book.n, book.size) == (n, size) and not book.q.flags.writeable
    assert np.array_equal(book.q, np.einsum("ij,j->i", np.square(S, dtype=float), 1.0 / cov.d) + q_floor)
    fr = np.vectorize(Fraction, otypes=[object])
    exact = np.square(fr(S.astype(float))) @ (1 / fr(cov.d)) + fr(q_floor)
    u = Fraction(np.finfo(float).eps) / 2
    for q, want in zip(book.q, exact):
        assert abs(Fraction(float(q)) - want) <= (n + 2) * u * want
    with pytest.raises(TypeError):
        Codebook(S=S, cov=cov, q_floor=q_floor, seed=0, q=book.q)


def test_gen_codebook_takes_one_statistic_pass(example_spec, monkeypatch):
    """``gen_codebook`` passes over the coefficients for ``q`` once, in
    ``Codebook``: one ``_row_form`` call, on the held ``S``."""
    calls = []
    row_form = channel_sim._row_form
    monkeypatch.setattr(channel_sim, "_row_form", lambda S, w: calls.append(S) or row_form(S, w))
    book = gen_codebook(build_sigma(example_spec, 32, dbw_to_watts(-10.0)), 6 / 32, 1)
    assert len(calls) == 1 and calls[0] is book.S


def test_codebook_refusals():
    """``Codebook`` refuses a size that is no power of two, coefficients of
    the wrong shape, not float32 or not finite, and floor radii of the
    wrong shape, negative or not finite."""
    n = 4
    cov = flat_cov(n)
    S = np.ones((8, n), dtype=np.float32)
    Codebook(S=S, cov=cov, q_floor=np.zeros(8), seed=0)
    for size in (0, 3, 11):
        with pytest.raises(ValueError, match="power of two"):
            Codebook(S=np.ones((size, n), dtype=np.float32), cov=cov, q_floor=np.zeros(size), seed=0)
    with pytest.raises(ValueError, match="shape mismatch"):
        Codebook(S=np.ones((8, n - 1), dtype=np.float32), cov=cov, q_floor=np.zeros(8), seed=0)
    with pytest.raises(ValueError, match="float32"):
        Codebook(S=S.astype(float), cov=cov, q_floor=np.zeros(8), seed=0)
    for bad in (np.inf, np.nan):
        T = S.copy()
        T[1, 2] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            Codebook(S=T, cov=cov, q_floor=np.zeros(8), seed=0)
    with pytest.raises(ValueError, match="shape mismatch"):
        Codebook(S=S, cov=cov, q_floor=np.zeros(7), seed=0)
    for bad in (-1.0, np.nan, np.inf):
        q_floor = np.zeros(8)
        q_floor[2] = bad
        with pytest.raises(ValueError, match="floor radii must be finite"):
            Codebook(S=S, cov=cov, q_floor=q_floor, seed=0)


def test_codebook_refuses_coefficients_float32_cannot_hold(example_spec, monkeypatch):
    """Coefficients held in another dtype than float32, or not finite, are
    refused, and ``gen_codebook`` refuses a covariance whose coefficients
    could overflow float32 (``sqrt(max d) 2**10`` past its largest value)
    before drawing; one just inside that range is drawn."""
    n = 8
    book = gen_codebook(flat_cov(n), 0.5, 1)
    fields = dict(cov=book.cov, q_floor=book.q_floor, seed=1)
    with pytest.raises(ValueError, match="float32"):
        Codebook(S=book.S.astype(float), **fields)
    S = book.S.copy()
    S[1, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Codebook(S=S, **fields)
    top = (float(np.finfo(np.float32).max) / 2 ** 10) ** 2
    inside = CovarianceSpec(n=n, d=np.full(n, 0.5 * top), halves=book.cov.halves)
    assert np.isfinite(gen_codebook(inside, 0.5, 1).S).all()

    def no_draw(*args):
        raise AssertionError("coefficients drawn past float32's range")

    monkeypatch.setattr(channel_sim, "rng_stream", no_draw)
    with pytest.raises(ValueError, match="range of float32"):
        gen_codebook(CovarianceSpec(n=n, d=np.full(n, 2.0 * top), halves=book.cov.halves), 0.5, 1)


def test_rng_stream_refusals():
    for cell in ((-1, 0, 0), (0, -2, 0), (0, 0, -1), (0, 0, 2**64)):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            rng_stream(*cell)
    with pytest.raises(TypeError):
        rng_stream(0, 0, 1.5)
    blocks = TrialBlocks(ChannelSpec(k=0, c=(1.0,), r=(0.1,)), 4, ChannelLaw(kind="iid_uniform"), 0)
    with pytest.raises(ValueError, match="non-negative"):
        blocks.draw(-1, None)
    assert rng_stream(0, 0, 2**64 - 1).random() != rng_stream(0, 0, 0).random()


@pytest.mark.parametrize("entries", [1, 1 << 15])
@pytest.mark.parametrize(
    "law",
    [
        ChannelLaw(kind="iid_uniform"),
        ChannelLaw(kind="block_hold", block_len=3),
        ChannelLaw(kind="constant", offset=(0.5, -1.0, 0.25)),
    ],
    ids=["iid", "hold3", "constant"],
)
def test_trial_blocks_match_one_cell_path(example_spec, monkeypatch, law, entries):
    """A block's received vectors equal, bit for bit, ``transmit(sample_H(...))``
    of its sent words trial by trial, whether the scratch holds one trial
    (entries = 1) or the whole block, for runs from a cell's start, runs
    that continue the last one across a cell's end, a cell restarted from
    its start, a later cell and an earlier one.  The sent words are
    ``sent_words``'s of the ``message_picks``, which are ``rng_stream``'s
    picks, and equal ``book.words`` of the distinct picked rows, ascending;
    ``n + k = 17`` is not a multiple of the hold length.  A second reader
    draws the same runs with a live mask (the trials whose pick is odd, so
    settled trials open, split and close the chunks), given only the live
    trials' words: it returns their received vectors, the same bits."""
    monkeypatch.setattr(channel_sim, "_DRAW_ENTRIES", entries)
    n, seed = 15, 9
    rng = np.random.default_rng(4)
    S = rng.standard_normal((16, n)).astype(np.float32)
    book = Codebook(S=S, cov=flat_cov(n, random_halves(n, 4)), q_floor=np.zeros(16), seed=seed)
    draws = TrialBlocks(example_spec, n, law, seed)
    masked = TrialBlocks(example_spec, n, law, seed)
    cell = channel_sim._TRIAL_CELL
    for first, count in ((0, 7), (7, cell - 4), (cell + 3, 2), (cell, 3), (3 * cell, 9), (0, 2)):
        ts = np.arange(first, first + count)
        msgs = message_picks(seed, ts, book.size)
        rows, words = sent_words(book, msgs)
        assert np.array_equal(rows, np.unique(msgs))
        assert np.array_equal(words, book.words(rows))
        X = words[np.searchsorted(rows, msgs)]
        Y = draws.draw(first, X)
        assert Y.shape == (count, n + example_spec.k)
        for i, t in enumerate(ts):
            assert msgs[i] == rng_stream(seed, STREAM_MESSAGE, t).integers(book.size)
            H = sample_H(example_spec, n, law, seed, t)
            assert np.array_equal(Y[i], transmit(H, X[i], seed, t))
        live = msgs % 2 == 1
        assert np.array_equal(masked.draw(first, X[live], live), Y[live])


def test_trial_blocks_refuse_mis_shaped_words():
    """Words that are not rows of ``n`` are refused, as ``transmit``
    refuses them, not applied as a shorter or longer channel."""
    n = 16
    blocks = TrialBlocks(ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(1e-3,) * 3), n, ChannelLaw(kind="iid_uniform"), 0)
    assert blocks.draw(0, np.ones((4, n))).shape == (4, n + 2)
    for shape in ((4, n - 1), (4, n + 1), (4 * n,), (4, n, 1)):
        with pytest.raises(DimensionMismatch, match="words have shape"):
            blocks.draw(0, np.ones(shape))


@pytest.mark.parametrize("law", [ChannelLaw(kind="iid_uniform"), ChannelLaw(kind="block_hold", block_len=4)],
                         ids=["iid", "hold4"])
def test_trial_draws_are_slices_of_their_cells(example_spec, law):
    """Trial ``t``'s noise is row ``t % 64`` of ``64 x m`` normals drawn in
    trial order from the cell ``(STREAM_NOISE, t // 64)``, and its taps
    slice ``t % 64`` of ``64 x (k + 1) x rows`` float32 uniforms of
    ``(STREAM_CHANNEL, t // 64)``, one row per tap, each uniform ``(h >>
    8) 2**-24`` of one 32-bit half ``h`` of the cell's raw Philox words
    (low half first), mapped to ``c + r (2u - 1)`` and repeated over its
    hold: at the first and last trial of a cell and inside one, past the
    first cell."""
    assert channel_sim._TRIAL_CELL == 64
    n, seed = 9, 4
    m, k = n + example_spec.k, example_spec.k
    rows = channel_sim._draw_rows(m, law)
    c, r = np.asarray(example_spec.c)[:, None], np.asarray(example_spec.r)[:, None]
    H0 = sample_H(example_spec, n, law, seed, 0)
    for t in (0, 1, 63, 64, 130, 191, 5 * 64 + 17):
        g, i = divmod(t, 64)
        z = rng_stream(seed, STREAM_NOISE, g).standard_normal((64, m))[i]
        assert np.array_equal(transmit(H0, np.zeros(n), seed, t), z)
        words = rng_stream(seed, channel_sim.STREAM_CHANNEL, g).bit_generator.random_raw(32 * (k + 1) * rows)
        halves = words.astype("<u8").view("<u4").reshape(64, k + 1, rows)
        u = (halves[i] >> 8) * 2.0 ** -24
        want = np.repeat(c + r * (2.0 * u - 1.0), law.block_len, axis=1)[:, :m]
        assert np.array_equal(sample_taps(example_spec, m, law, seed, t), want)
        assert np.array_equal(sample_H(example_spec, n, law, seed, t).taps, want)
    with pytest.raises(ValueError, match="2\\*\\*64"):
        transmit(H0, np.zeros(n), seed, -1)


@pytest.mark.parametrize("ts", [
    [3.5], np.array([3.0]), [True], [-1], np.array([-1, 4]), [2**64], np.array([[1, 2]]),
    range(-1, 3), range(3, -2, -1), range(2**64 - 1, 2**64 + 1),
], ids=["float", "float-array", "bool", "negative", "negative-array", "2**64", "2-d",
        "range-from-negative", "range-down-to-negative", "range-to-2**64"])
def test_message_picks_refuse_what_rng_stream_refuses(ts):
    """An index that is no integer, negative or at least ``2**64`` is
    refused with ``ValueError``, as ``rng_stream`` refuses it, not read
    through ``int`` (``[3.5]`` gave trial 3's pick) nor left to overflow."""
    with pytest.raises(ValueError, match="trial indices must be integers in \\[0, 2\\*\\*64\\)"):
        message_picks(0, ts, 2**20)


def test_message_picks_are_integers_of_their_cells():
    """For every ``size = 2**bits`` up to the cap, the pick of each of 1,000
    cells (indices past one and two counter words included) is
    ``rng_stream(seed, STREAM_MESSAGE, t).integers(size)``, read from the
    cell's first raw word; so are the picks at indices 0, 2**32, 2**63 and
    2**64 - 1 and their neighbours, as an array and as ranges (one stepping
    down across 2**63), for sizes 1, 2 and 2**24 at three seeds.  A size
    that is no power of two is refused, by the picks and by ``Codebook``."""
    seed = 12
    ts = np.array([*range(990), *range(2**32, 2**32 + 5), *range(2**64 - 5, 2**64)], dtype=np.uint64)
    assert len(ts) == 1000
    for bits in range(MAX_CODEBOOK_BITS + 1):
        size = 1 << bits
        picks = message_picks(seed, ts, size)
        assert picks.dtype == np.uint32
        want = [rng_stream(seed, STREAM_MESSAGE, int(t)).integers(size) for t in ts]
        assert picks.tolist() == want, bits
    edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]
    for s in (0, 12, 2**70 + 3):
        for size in (1, 2, 2**24):
            for ts in (np.array(edges, dtype=np.uint64), range(2**63 + 2, 2**63 - 3, -2),
                       range(2**64 - 4, 2**64)):
                want = [rng_stream(s, STREAM_MESSAGE, t).integers(size) for t in map(int, ts)]
                assert message_picks(s, ts, size).tolist() == want, (s, size, ts)
    assert np.array_equal(message_picks(seed, range(20), 8), message_picks(seed, np.arange(20), 8))
    with pytest.raises(ValueError, match="power of two"):
        message_picks(seed, range(4), 11)
    S = np.ones((11, 1))
    with pytest.raises(ValueError, match="power of two"):
        Codebook(S=S, cov=flat_cov(1), q_floor=np.zeros(11), seed=0)


def test_message_picks_hold_four_bytes_a_trial(monkeypatch):
    """The picks of 10^6 trials, as a range and as an array, peak (traced)
    at their 4-byte result plus one ``_PICK_CHUNK`` pass's scratch, which
    stays within the draw chunk ``decode_bytes`` counts; the picks either
    side of a pass's edge are their cells'.  Passes of 3 trials give the
    same picks as the default."""
    trials, seed = 10**6, 7
    chunk = channel_sim._PICK_CHUNK
    for ts in (range(trials), np.arange(trials)):
        tracemalloc.start()
        try:
            picks = message_picks(seed, ts, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * trials + 200 * chunk <= 4 * trials + 32 * channel_sim._DRAW_ENTRIES, peak
    for t in (0, chunk - 1, chunk, trials - 1):
        assert picks[t] == rng_stream(seed, STREAM_MESSAGE, t).integers(1024)
    monkeypatch.setattr(channel_sim, "_PICK_CHUNK", 3)
    assert np.array_equal(message_picks(seed, range(3 * chunk + 5), 1024), picks[:3 * chunk + 5])
    assert np.array_equal(message_picks(seed, np.arange(10), 1024), picks[:10])


@pytest.mark.parametrize("kind", ["block_hold", "iid_uniform"])
@pytest.mark.parametrize("block_len", [True, False, 2.5, "2", None, float("nan")])
def test_law_refuses_a_non_integer_block_len(kind, block_len):
    """``block_len`` is an integer, as ``ChannelSpec`` asks of ``k``: a bool
    (which would pass as 1 or 0) and a fractional value (which would fail
    later inside ``np.repeat``) are refused at construction."""
    with pytest.raises(ValueError, match="block_len must be an integer"):
        ChannelLaw(kind=kind, block_len=block_len)


def test_law_takes_an_integral_float_block_len():
    law = ChannelLaw(kind="block_hold", block_len=3.0)
    assert law.block_len == 3 and type(law.block_len) is int
    assert ChannelLaw(kind="block_hold", block_len=np.int64(2)).block_len == 2


def test_law_validation():
    with pytest.raises(ValueError):
        ChannelLaw(kind="bogus")
    with pytest.raises(ValueError):
        ChannelLaw(kind="constant")  # needs offsets
    with pytest.raises(ValueError):
        ChannelLaw(kind="constant", offset=(1.5,))
    with pytest.raises(ValueError):
        ChannelLaw(kind="constant", offset=(float("nan"), 0.0, 0.0))
    with pytest.raises(ValueError):
        ChannelLaw(kind="block_hold", block_len=0)
    # a field that does not apply to the kind is refused, not ignored
    with pytest.raises(ValueError, match="offset applies only"):
        ChannelLaw(kind="iid_uniform", offset=(5.0, float("nan"), 0.0), block_len=-3)
    with pytest.raises(ValueError, match="block_len applies only"):
        ChannelLaw(kind="constant", offset=(0.1, 0.0, 0.0), block_len=-3)
    with pytest.raises(ValueError, match="offset applies only"):
        ChannelLaw(kind="block_hold", offset=(9.0, 9.0, 9.0), block_len=2)
    with pytest.raises(ValueError, match="block_len applies only"):
        ChannelLaw(kind="iid_uniform", block_len=2)
    ChannelLaw(kind="constant", offset=(0.1, 0.0, 0.0), block_len=1)
    short = ChannelLaw(kind="constant", offset=(0.0, 0.0))
    with pytest.raises(DimensionMismatch):
        channel_sim.check_law(ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(0.1,) * 3), short)


def test_iid_taps_stay_in_intervals(example_spec):
    """Over 3,000 trials of 10 outputs, every iid tap lies in ``[c_d - r_d,
    c_d + r_d]`` and on the 24-bit grid ``c_d + r_d (2 j 2**-24 - 1)``,
    ``0 <= j < 2**24``, and each tap's sample mean and variance are within
    5 sigma of the uniform law's ``c_d`` and ``r_d**2 / 3``: on the example
    channel and on one whose radii are as wide as its taps."""
    trials, m = 3000, 10
    for spec in (example_spec, ChannelSpec(k=1, c=(0.3, -2.0), r=(0.7, 2.5))):
        taps = np.stack([sample_taps(spec, m, ChannelLaw(kind="iid_uniform"), 7, t) for t in range(trials)])
        taps = taps.transpose(0, 2, 1).reshape(-1, spec.k + 1)
        c, r = np.asarray(spec.c), np.asarray(spec.r)
        assert np.all(taps >= c - r) and np.all(taps <= c + r)
        j = np.rint(((taps - c) / r + 1.0) * 2.0 ** 23)
        assert j.min() >= 0 and j.max() < 2 ** 24
        assert np.array_equal(taps, c + r * (2.0 * j * 2.0 ** -24 - 1.0))
        N = len(taps)
        assert np.all(np.abs(taps.mean(axis=0) - c) <= 5.0 * r / np.sqrt(3.0 * N))
        # the variance of a squared deviation of U(-r, r) is r^4 / 5 - r^4 / 9
        assert np.all(np.abs(taps.var(axis=0) - r ** 2 / 3.0) <= 5.0 * r ** 2 * np.sqrt(4.0 / (45.0 * N)))


def test_constant_taps(example_spec):
    law = ChannelLaw(kind="constant", offset=(1.0, -1.0, 0.0))
    taps = sample_taps(example_spec, 5, law, 0, 0)
    expected = np.array(example_spec.c) + np.array(law.offset) * np.array(example_spec.r)
    assert np.array_equal(taps, np.tile(expected[:, None], (1, 5)))


@pytest.mark.parametrize("block_len", [10**30, 10**400], ids=["1e30", "1e400"])
def test_block_longer_than_the_outputs_holds_one_row(example_spec, block_len):
    """A block past the ``m`` outputs draws and holds one row, as a block of
    exactly ``m`` does, in ``sample_taps`` and in ``TrialBlocks`` alike."""
    n, seed = 8, 5
    m = n + example_spec.k
    long, exact = (ChannelLaw(kind="block_hold", block_len=b) for b in (block_len, m))
    assert np.array_equal(sample_taps(example_spec, m, long, seed, 2),
                          sample_taps(example_spec, m, exact, seed, 2))
    book = Codebook(S=np.eye(2, n, dtype=np.float32), cov=flat_cov(n, random_halves(n, 4)),
                    q_floor=np.zeros(2), seed=seed)
    ts = np.arange(6)
    X = book.words(ts % 2)
    assert np.array_equal(TrialBlocks(example_spec, n, long, seed).draw(0, X),
                          TrialBlocks(example_spec, n, exact, seed).draw(0, X))


def test_block_hold_taps(example_spec):
    law = ChannelLaw(kind="block_hold", block_len=4)
    taps = sample_taps(example_spec, 18, law, 3, 1)
    for i in range(18):
        assert np.array_equal(taps[:, i], taps[:, i - i % 4])
    assert not np.array_equal(taps[:, 0], taps[:, 4])  # new block redraws
    # trial 1 is the second slice of the channel cell 0: 3 taps x 5 holds
    u = rng_stream(3, channel_sim.STREAM_CHANNEL, 0).random((2, 3, 5), dtype=np.float32)[1]
    held = np.repeat(2.0 * u.astype(float) - 1.0, 4, axis=1)[:, :18]
    assert np.array_equal(taps, np.asarray(example_spec.c)[:, None] + np.asarray(example_spec.r)[:, None] * held)


def test_sample_H_band_structure(example_spec):
    H = sample_H(example_spec, 12, ChannelLaw(kind="iid_uniform"), 0, 0)
    k = example_spec.k
    dense = _dense_band(H)
    for i in range(H.m):
        for j in range(H.n):
            if not 0 <= i - j <= k:
                assert dense[i, j] == 0.0


def test_covariance_validation():
    with pytest.raises(ValueError):
        CovarianceSpec(n=3, d=np.array([1.0, 0.0, 2.0]), halves=standard_halves(3))
    with pytest.raises(ValueError, match="one power per column"):
        CovarianceSpec(n=3, d=np.ones(3), halves=HalfBasis(sym=np.eye(2)[:, 1:], skew=np.eye(1)))
    with pytest.raises(ValueError, match="not orthonormal"):
        HalfBasis(sym=np.array([[1.0, 1.0], [0.0, 1.0]]), skew=np.eye(1))
    with pytest.raises(ValueError, match="shapes"):
        HalfBasis(sym=np.eye(1), skew=np.eye(2))


def test_covariance_needs_a_basis():
    with pytest.raises(TypeError):
        CovarianceSpec(n=3, d=np.ones(3))
    with pytest.raises(ValueError, match="HalfBasis of order 3"):
        CovarianceSpec(n=3, d=np.ones(3), halves=None)
    with pytest.raises(ValueError, match="HalfBasis of order 3"):
        CovarianceSpec(n=3, d=np.ones(3), halves=standard_halves(2))


def test_covariance_identities(example_spec):
    """``trace``, ``lam_min`` and ``lam_max`` are those of the dense
    ``U diag(d) U' + POWER_FLOOR (I - U U')`` assembled from the half bases,
    whose eigenvalues are ``d`` and ``floor_dim`` times ``POWER_FLOOR``, at
    an even and an odd order, on full random half bases and on the tall
    support ``build_sigma`` holds at -10 dBW."""
    for n in (6, 7):
        for cov in (random_cov(n, 0), build_sigma(example_spec, n, dbw_to_watts(-10.0))):
            dense = sigma(cov)
            lam = np.linalg.eigvalsh(dense)
            want = np.sort(np.append(cov.d, np.full(cov.floor_dim, POWER_FLOOR)))
            assert np.abs(lam - want).max() <= 1e-12 * want[-1]
            assert cov.trace == pytest.approx(np.trace(dense), rel=1e-12)
            assert (cov.lam_min, cov.lam_max) == (want[0], want[-1])
        assert cov.floor_dim > 0 and cov.lam_min == POWER_FLOOR


def test_build_sigma_policies(example_spec):
    """The one policy water-fills in the Gram eigenbasis; any other name is
    refused."""
    wf = build_sigma(example_spec, 16, 2.0, "waterfill_gram")
    assert wf.trace == pytest.approx(32.0, rel=1e-9)
    lam, vectors = gram_eigh(example_spec, 16)
    d, _ = waterfill_powers(lam, 32.0)
    on = d > POWER_FLOOR
    assert wf.halves.same_as(HalfBasis.from_eigh(vectors, on)) and np.array_equal(wf.d, d[on])
    assert build_sigma(example_spec, 16, 2.0).halves.same_as(wf.halves)
    for policy in ("white_iso", "other"):
        with pytest.raises(ValueError, match="unknown covariance policy"):
            build_sigma(example_spec, 16, 2.0, policy)


@pytest.mark.parametrize(
    "c", [(1.0, 0.5, 0.5), (0.3, -1.0), (0.9, 0.2, -0.4, 0.1, 0.6)], ids=["example", "k1", "k4"]
)
@pytest.mark.parametrize("n", [16, 17, 64, 255, 256])
def test_waterfill_sigma_is_basis_free(c, n):
    """``build_sigma``'s ``U diag(d) U'`` equals the same water-filling done
    on a dense ``eigh`` of the oracle Gram, to 1e-12 relative: a function
    of the Gram matrix, whatever basis represents it."""
    spec = ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c))
    lam, V = np.linalg.eigh(dense_gram(c, n))
    for p_dbw in (-10.0, 10.0, 30.0):
        P = dbw_to_watts(p_dbw)
        d, _ = waterfill_powers(lam, n * P)
        want = (V * d) @ V.T
        got = sigma(build_sigma(spec, n, P, "waterfill_gram"))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("R", [float("inf"), float("nan"), -0.5])
def test_codebook_size_refuses_a_bad_rate(R):
    """A non-finite or negative rate is refused with a ``ValueError`` that
    names it, not an ``OverflowError`` from ``math.ceil``."""
    with pytest.raises(ValueError, match=f"got {R!r}"):
        channel_sim.codebook_size(64, R)


@pytest.mark.parametrize("n, R", [(64, 1e308), (2, 1e308), (10**6, 1e303)])
def test_codebook_size_refuses_an_overflowing_rate(n, R):
    """A finite rate whose ``n * R`` overflows a float is too large a
    codebook, not an ``OverflowError`` from ``math.ceil``."""
    with pytest.raises(CodebookTooLarge, match="exhaustive-decoding cap"):
        channel_sim.codebook_size(n, R)


def test_codebook_size_and_cap(example_spec):
    cov = flat_cov(16)
    book = gen_codebook(cov, 0.25, 0)
    assert book.size == 2 ** 4
    assert book.codewords.shape == (16, 16)
    assert gen_codebook(cov, 0.0, 0).size == 1
    with pytest.raises(CodebookTooLarge):
        gen_codebook(flat_cov(64), 1.0, 0)
    assert MAX_CODEBOOK_BITS == 24


def test_codebook_byte_cap(example_spec, monkeypatch):
    """``decode_bytes`` covers what decoding holds: the float32
    coefficients, 4 bytes each, input statistics and energies and the half
    bases, the held picks and sent words, plus the peak of the arrays that
    building the sent words, and after it one block of trials (drawing and
    scoring), allocate (traced), for an eigenbasis codebook and more trials
    than words; the cap refuses past it, before any draw."""
    n, R, trials = 64, 10 / 64, 3000
    cov = build_sigma(example_spec, n, 1.0, "waterfill_gram")
    book = gen_codebook(cov, R, 0)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    draws = TrialBlocks(example_spec, n, ChannelLaw(kind="iid_uniform"), 0)
    T = trial_block(book.size, n)
    tracemalloc.start()
    try:
        msgs = message_picks(0, range(trials), book.size)
        rows, words = sent_words(book, msgs)
        _, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        Y = draws.draw(0, words[np.searchsorted(rows, msgs[:T])])
        _pass_mask(Y, TypicalParams(epsilon=0.5, eta=0.3), ctx)
        _, block = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    halves = cov.halves
    held = sum(a.nbytes for a in (book.S, book.q, book.q_floor, ctx.energy, ctx.base,
                                  halves.sym, halves.skew))
    need = decode_bytes(book.size, n, trials, example_spec.k)
    assert held + max(build, block) <= need
    # 4 bytes a coefficient (at the full width n), 28 for a word's
    # statistics, 8 a (word, trial) entry of the block's scores and masks,
    # between two sizes with the same T
    assert book.S.dtype == np.float32 and trial_block(2048, n) == trial_block(4096, n) == 64
    assert decode_bytes(4096, n) - decode_bytes(2048, n) == 4 * 2048 * (n + 7 + 2 * 64)
    assert decode_bytes(book.size, n, trials + 1, example_spec.k) == need + 4
    assert decode_bytes(book.size, n, 8) - decode_bytes(book.size, n, 7) == 8 * n + 4
    monkeypatch.setattr(channel_sim, "MAX_DECODE_BYTES", decode_bytes(book.size, n))
    assert gen_codebook(cov, R, 0).size == 2 ** 10
    monkeypatch.setattr(channel_sim, "MAX_DECODE_BYTES", decode_bytes(book.size, n) - 1)
    with pytest.raises(CodebookTooLarge):
        gen_codebook(cov, R, 0)
    monkeypatch.undo()

    def no_draw(*args):
        raise AssertionError("codewords drawn past the byte cap")

    monkeypatch.setattr(channel_sim, "rng_stream", no_draw)
    # 2**24 words of length 64 pass the bit cap but need about 8 GiB
    with pytest.raises(CodebookTooLarge, match="GiB"):
        gen_codebook(flat_cov(64), 0.375, 0)


@pytest.mark.parametrize("n, k", [(64, 2), (300, 12), (4000, 8)], ids=["block", "chunks", "one-trial"])
@pytest.mark.parametrize("law", [ChannelLaw(kind="iid_uniform"), ChannelLaw(kind="block_hold", block_len=3)],
                         ids=["iid", "hold3"])
def test_draw_scratch_stays_within_its_count(n, k, law):
    """What ``TrialBlocks`` allocates besides the received vectors it
    returns, traced from construction through one 64-trial draw (float32
    uniforms, their block_hold repeat, tap rows), stays within the draw
    term of ``decode_bytes``, for a chunk that holds the whole block, one
    that splits it, and one of a single trial past ``_DRAW_ENTRIES``."""
    spec = ChannelSpec(k=k, c=(1.0,) + (0.1,) * k, r=(1e-3,) * (k + 1))
    X = np.ones((64, n))
    tracemalloc.start()
    try:
        blocks = TrialBlocks(spec, n, law, 1)
        Y = blocks.draw(0, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(blocks._row) == {64: 330, 300: 16, 4000: 1}[n]
    assert peak - Y.nbytes <= 8 * max(4 * channel_sim._DRAW_ENTRIES, (k + 1) * (n + k) + n)


def test_codebook_and_context_make_no_float64_copy_of_the_coefficients(example_spec):
    """At n = 1024 with 4096 words (-10 dBW, a 360-column support) the
    traced peak of ``gen_codebook`` is the float32 ``S`` plus one chunk of
    float64 scratch and five per-word float64 arrays (the statistics, the
    check's sums and their temporaries), and that of ``prepare_context``
    one chunk and three per-word arrays: a float64 copy of ``S`` (about 12
    MB) would show."""
    n = 1024
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0))
    joint = build_joint(cov, build_Hc(example_spec, n))
    tracemalloc.start()
    try:
        book = gen_codebook(cov, 12 / n, 1)
        _, gen_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        prepare_context(book, joint)
        _, ctx_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    chunk, word = 8 * channel_sim._DRAW_ENTRIES, 8 * book.size
    assert book.size == 4096 and book.S.dtype == np.float32 and book.S.nbytes > 20 * chunk
    assert gen_peak <= book.S.nbytes + chunk + 5 * word
    assert ctx_peak - before <= chunk + 3 * word


def test_codebook_empirical_power(example_spec):
    cov = build_sigma(example_spec, 24, 2.0, "waterfill_gram")
    book = gen_codebook(cov, 0.5, 1)
    mean_power = float((book.codewords ** 2).sum(axis=1).mean())
    assert mean_power == pytest.approx(cov.trace, rel=0.1)


def _floor_x(book, U, i):
    """Row ``i``'s floor part by hand: ``v`` from the cell ``(STREAM_FLOOR,
    i)``, projected off the dense support columns ``U``, scaled to the
    squared norm ``POWER_FLOOR q_floor[i]``."""
    v = rng_stream(book.seed, STREAM_FLOOR, i).standard_normal(book.n)
    p = v - U @ (U.T @ v)
    return p * np.sqrt(POWER_FLOOR * book.q_floor[i] / (p @ p))


def test_codebook_q_matches_exact_statistic(example_spec):
    """``Codebook.q`` equals ``x' Sigma^{-1} x`` of the words ``x = U s +
    x_f``, ``s`` the held float32 coefficients, exactly widened, and
    ``x_f`` each row's floor as built, for ``Sigma = U diag(d) U' +
    POWER_FLOOR (I - U U')``, evaluated in exact rationals, to ``n eps``
    relative.  At n = 4 and -10 dBW water-filling leaves two of the four
    columns at the power floor, where the stored codewords' own statistic
    is off by about 1e-10 from rounding amplified by ``1 / POWER_FLOOR``."""
    n, seed = 4, 7
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0), "waterfill_gram")
    assert cov.lam_min == POWER_FLOOR and cov.floor_dim == 2
    book = gen_codebook(cov, 1.0, seed)
    fr = np.vectorize(Fraction, otypes=[object])
    U = assemble(cov.halves)
    X = fr(book.S.astype(float)) @ fr(U).T + fr(floors(book, np.arange(book.size)))
    x_stat, _ = exact_joint_statistics(
        X, np.zeros((1, n + example_spec.k)), cov.d, U, example_spec.c, POWER_FLOOR
    )
    eps = np.finfo(float).eps
    for q, exact in zip(book.q, x_stat):
        assert abs(Fraction(float(q)) - n * exact) <= n * eps * n * exact


def test_consecutive_normal_draws_continue_one_call():
    """``standard_normal`` into consecutive chunks of rows, of uneven
    sizes, on one generator gives bit for bit the doubles one call gives."""
    for width in (0, 1, 7, 90):
        whole = rng_stream(3, STREAM_CODEBOOK, 0).standard_normal((50, width))
        rng = rng_stream(3, STREAM_CODEBOOK, 0)
        parts = np.empty((50, width))
        for lo, hi in ((0, 1), (1, 14), (14, 15), (15, 50)):
            rng.standard_normal(out=parts[lo:hi])
        assert np.array_equal(parts, whole)


@pytest.mark.parametrize("p_dbw", [-10.0, 10.0])
def test_support_codebook_is_the_documented_draw(example_spec, monkeypatch, p_dbw):
    """``gen_codebook`` holds, bit for bit, the float32 rounding of the
    support Gaussians of the cell ``(STREAM_CODEBOOK, 0)``, drawn in one
    call, times ``sqrt(d)``, then takes the floor radii as that cell's next
    ``chisquare(floor_dim, size)`` draw, and ``q`` is the held statistic
    ``sum_j s_j^2 / d_j`` of the float32 coefficients, summed in float64,
    plus ``q_floor``, whatever rows a chunk holds (one, a few, or all 64).
    With no floor (10 dBW) ``S`` spans every column and the radii are zero,
    with nothing more drawn."""
    n, seed = 48, 5
    cov = build_sigma(example_spec, n, dbw_to_watts(p_dbw))
    n_floor = cov.floor_dim
    assert (n_floor > 0) == (p_dbw < 0) and cov.d.size + n_floor == n
    for entries in (1, 100, 1 << 15):
        monkeypatch.setattr(channel_sim, "_DRAW_ENTRIES", entries)
        book = gen_codebook(cov, 6 / n, seed)
        assert book.seed == seed and book.S.shape == (book.size, cov.d.size)
        assert book.S.dtype == np.float32
        rng = rng_stream(seed, STREAM_CODEBOOK, 0)
        g = rng.standard_normal((book.size, cov.d.size))
        q_floor = rng.chisquare(n_floor, book.size) if n_floor else np.zeros(book.size)
        assert np.array_equal(book.S, (g * np.sqrt(cov.d)).astype(np.float32))
        assert np.array_equal(book.q_floor, q_floor)
        S_sq = np.square(book.S, dtype=float)
        assert np.array_equal(book.q, np.einsum("ij,j->i", S_sq, 1.0 / cov.d) + q_floor)
        assert not any(a.flags.writeable for a in (book.S, book.q, book.q_floor))


def _tilt(cov):
    """``decoder``'s bound on ``||U'x_f|| / ||x_f||`` of a built floor."""
    n, eps = cov.n, np.finfo(float).eps
    omega = cov.halves.orth_defect + n * n * eps
    mu = np.sqrt(1.0 + omega)
    nu = np.sqrt(n) * mu
    return channel_sim.FLOOR_REPROJECT * (omega * mu + 2.0 * eps * (n * nu + FOLD_ULPS * mu)) + 2.0 * mu * eps


@pytest.mark.parametrize("n, p_dbw", [(2, -10.0), (33, -10.0), (64, -30.0), (256, -10.0)])
def test_built_floor_is_orthogonal_with_its_radius(example_spec, n, p_dbw):
    """Each built word's floor part ``x_f`` has, summed exactly, ``||x_f||^2``
    within ``(n + 8) eps / 2`` of ``POWER_FLOOR q_floor``, and ``||U'x_f||``,
    in exact rationals on the documented columns ``U``, within ``tilt
    ||x_f||``, the bound the guard band takes: at most ``FLOOR_REPROJECT``
    times the projection's rounding and the support's departure from
    orthonormal, plus ``2 eps``.  Cases: one floor dimension (n = 2), an
    odd order, a support of 8 columns in 64, and 90 of 256."""
    cov = build_sigma(example_spec, n, dbw_to_watts(p_dbw))
    assert cov.floor_dim > 0
    book = gen_codebook(cov, min(1.0, 5 / n), 3)
    rows = np.arange(min(book.size, 12))
    XF = floors(book, rows)
    fr = np.vectorize(Fraction, otypes=[object])
    U = fr(assemble(cov.halves))
    eps, tilt = np.finfo(float).eps, _tilt(cov)
    for x_f, i in zip(XF, rows):
        f = fr(x_f)
        f_sq = f @ f
        want = Fraction(POWER_FLOOR) * Fraction(float(book.q_floor[i]))
        assert abs(f_sq - want) <= Fraction((n + 8) * eps / 2) * want
        u = U.T @ f
        assert float(u @ u) <= tilt ** 2 * float(f_sq)


def test_short_projection_is_projected_again(example_spec, monkeypatch):
    """A floor projection whose input is more than ``FLOOR_REPROJECT`` times
    as long as its output is projected once more: with the factor at 1.01,
    every row of an n = 64 codebook with 41 floor dimensions (``||p|| /
    ||v||`` near ``sqrt(41 / 64)``) takes two passes, and its floor keeps
    its radius, its orthogonality and, within rounding, its value."""
    cov = build_sigma(example_spec, 64, dbw_to_watts(-10.0))
    assert cov.floor_dim == 41
    book = gen_codebook(cov, 6 / 64, 2)
    rows = np.arange(9)
    once = floors(book, rows)
    passes = []
    adjoint = HalfBasis.adjoint
    monkeypatch.setattr(HalfBasis, "adjoint", lambda self, V: passes.append(len(V)) or adjoint(self, V))
    monkeypatch.setattr(channel_sim, "FLOOR_REPROJECT", 1.01)
    twice = floors(book, rows)
    assert passes == [len(rows), len(rows)]
    assert np.abs(twice - once).max() <= 1e-14 * np.abs(once).max()
    eps = np.finfo(float).eps
    f_sq = np.einsum("ij,ij->i", twice, twice)
    assert np.all(np.abs(f_sq - POWER_FLOOR * book.q_floor[rows]) <= (64 + 8) * eps * f_sq)
    assert np.all(np.linalg.norm(cov.halves.adjoint(twice), axis=1) <= _tilt(cov) * np.sqrt(f_sq))


def test_words_rebuild_each_row_from_its_cells(example_spec):
    """``words(rows)`` gives row ``i`` ``U S[i] + x_f`` whatever batch holds
    it, repeats included, with ``x_f`` built by hand from the cell
    ``(STREAM_FLOOR, i)``: ``n`` normals projected off the dense support
    ``U`` and scaled to ``POWER_FLOOR q_floor[i]`` (within GEMM rounding of
    the assembled basis, whose last bits may follow the batch)."""
    n, seed = 33, 2
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0))
    assert cov.floor_dim > 0
    book = gen_codebook(cov, 5 / n, seed)
    U = assemble(cov.halves)
    batch = np.array([7, 3, 7, 0, book.size - 1, 3, 7])
    X = book.words(batch)
    for j, i in enumerate(batch):
        x = U @ book.S[i] + _floor_x(book, U, i)
        scale = np.abs(x).max()
        assert np.abs(X[j] - x).max() <= 1e-14 * scale
        assert np.abs(book.words([i])[0] - X[j]).max() <= 1e-14 * scale
    assert np.array_equal(X[0], X[2]) and np.array_equal(X[1], X[5])
    assert np.array_equal(book.codewords[batch[0]], book.words(np.arange(book.size))[batch[0]])


def test_ascending_rows_are_neither_sorted_nor_gathered(example_spec, monkeypatch):
    """Strictly ascending rows, as ``sent_words`` passes them, build their
    floors without ``np.unique``; other rows still go through it, and give
    the same words within GEMM rounding."""
    n, seed = 33, 2
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0))
    assert cov.floor_dim > 0
    book = gen_codebook(cov, 5 / n, seed)
    rows = np.array([0, 3, 7, book.size - 1])
    unique, calls = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or unique(*a, **k))
    X = book.words(rows)
    assert not calls
    Y = book.words(rows[::-1])
    assert len(calls) == 1
    assert np.abs(Y[::-1] - X).max() <= 1e-14 * np.abs(X).max()


def test_trial_block_follows_the_codebook():
    """``T`` is 512 for the small codebooks of the default config (8 words
    at n = 64, 32 at n = 128), 128 for 1024 words at n = 256 and 64 for
    4096 at n = 1024; past ``_BLOCK_ENTRIES`` entries it shrinks (32 trials
    for 2^15 words, one for 2^24).  For 4 words at any n it is a power of
    two in [64, 512] that, above 64, holds at most 2^17 entries of n."""
    shapes = {(8, 64): 512, (32, 128): 512, (1024, 256): 128, (4096, 1024): 64, (2 ** 15, 16): 32,
              (1, 1): 512, (8, 100): 512, (8, 300): 256, (2 ** 24, 16): 1}
    for (size, n), T in shapes.items():
        assert trial_block(size, n) == T, (size, n)
    for n in range(1, 3000, 7):
        T = trial_block(4, n)
        assert T & (T - 1) == 0 and 64 <= T <= 512 and (T == 64 or T * n <= 2 ** 17)


def test_few_rows_do_not_touch_the_whole_codebook(example_spec):
    """Rebuilding a few rows of a 2**16-word codebook with a floor
    allocates nothing near the size of one per-word array (traced)."""
    n = 8
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0))
    assert cov.floor_dim > 0
    book = gen_codebook(cov, 16 / n, 4)
    assert book.size == 2 ** 16
    tracemalloc.start()
    book.words(np.array([5, book.size - 1, 5]))
    book.words(np.arange(3, 7))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < book.size


def test_codebook_input_statistic_is_chi_squared(example_spec):
    """``q`` of a seeded n = 64 codebook with 41 floor dimensions (-10 dBW)
    and 2**14 words is chi-squared with n degrees of freedom: a KS test
    passes at p > 1e-3, and its mean and variance lie within four standard
    errors of n and 2n."""
    n = 64
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0))
    assert cov.floor_dim == 41
    q = gen_codebook(cov, 14 / n, 3).q
    assert q.size == 2 ** 14
    assert stats.kstest(q, stats.chi2(n).cdf).pvalue > 1e-3
    N = q.size
    assert abs(q.mean() - n) <= 4.0 * np.sqrt(2 * n / N)
    # Var of the sample variance: (mu_4 - sigma^4) / N with mu_4 = 12 n^2 + 48 n.
    assert abs(q.var(ddof=1) - 2 * n) <= 4.0 * np.sqrt((8 * n * n + 48 * n) / N)


def test_transmit_shapes_and_determinism(example_spec):
    """``transmit`` is deterministic per trial, and each output is within
    Higham's dot-product bound of the exactly summed ``H x + z``: ``k + 1``
    products and the noise are ``k + 2`` terms, so the error is at most
    ``gamma_{k+2}`` times the sum of their magnitudes."""
    H = sample_H(example_spec, 10, ChannelLaw(kind="iid_uniform"), 0, 0)
    x = np.random.default_rng(5).standard_normal(10)
    y1 = transmit(H, x, master_seed=0, trial_index=3)
    y2 = transmit(H, x, master_seed=0, trial_index=3)
    assert np.array_equal(y1, y2)
    noise = rng_stream(0, STREAM_NOISE, 0).standard_normal((4, H.m))[3]
    exact, scale = exact_channel_use(H.taps, x, noise)
    u = np.finfo(float).eps / 2
    gamma = (H.k + 2) * u / (1.0 - (H.k + 2) * u)
    assert np.all(np.abs(y1 - exact) <= gamma * scale)
    # zero input isolates the noise stream exactly
    pure_noise = transmit(H, np.zeros(10), master_seed=0, trial_index=3)
    assert np.array_equal(pure_noise, noise)
    with pytest.raises(DimensionMismatch):
        transmit(H, np.ones(11), 0, 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=3))
def test_sampled_matrix_rows_use_taps(n, k):
    spec = ChannelSpec(k=k, c=tuple([1.0] + [0.3] * k), r=tuple([0.2] * (k + 1)))
    H = sample_H(spec, n, ChannelLaw(kind="iid_uniform"), 11, 5)
    taps = sample_taps(spec, n + k, ChannelLaw(kind="iid_uniform"), 11, 5)
    dense = _dense_band(H)
    for j in range(n):
        for lag in range(k + 1):
            assert dense[j + lag, j] == taps[lag, j + lag]
