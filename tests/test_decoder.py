import math
import os
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isicap import (
    BandedChannelMatrix,
    ChannelLaw,
    ChannelSpec,
    DecodeFailure,
    TypicalParams,
    bound_report,
    build_Hc,
    build_joint,
    build_sigma,
    compute_profile,
    decode,
    default_params,
    run_error_experiment,
    thresholds,
    wilson_interval,
)
from isicap.channel_sim import (
    STREAM_MESSAGE,
    Codebook,
    CovarianceSpec,
    decode_bytes,
    gen_codebook,
    message_picks,
    rng_stream,
    sample_H,
    transmit,
    trial_block,
)
from isicap import channel_sim, decoder as decoder_mod, spectrum, waterfill
from isicap.channel_sim import FLOOR_REPROJECT
from isicap.spectrum import FOLD_ULPS, HalfBasis, _half_bands, _sym_band_apply, _tap_autocorr, gram_eigh
from isicap.decoder import DecodeContext, _guard_band, _pass_mask, prepare_context
from isicap.errors import CodebookTooLarge, DimensionMismatch
from isicap.waterfill import POWER_FLOOR, dbw_to_watts, waterfill_powers
from bases import assemble, flat_cov, floors, random_cov as _random_cov, random_halves, sigma
from oracles import (
    _dense_band,
    dense_joint_covariance,
    exact_joint_statistics,
    joint_typicality_oracle,
    pass_count_oracle,
    type1_oracle,
)


def test_params_validation():
    with pytest.raises(ValueError):
        TypicalParams(epsilon=0.0, eta=1.0)
    with pytest.raises(ValueError):
        TypicalParams(epsilon=0.1, eta=-1.0)


@pytest.mark.parametrize(
    "epsilon, eta",
    [(float("nan"), 0.3), (0.1, float("nan")), (float("inf"), 0.3), (0.1, float("inf")),
     (float("-inf"), 0.3)],
)
def test_params_refuse_non_finite_thresholds(epsilon, eta):
    """A NaN threshold would fail every candidate silently (every comparison
    with NaN is false) and an infinite one would pass every candidate; both
    are refused at construction, with the values named."""
    with pytest.raises(ValueError, match="positive and finite"):
        TypicalParams(epsilon=epsilon, eta=eta)


def test_joint_inverse_matches_dense(example_spec):
    """The closed-form inverse ``[[Sigma^{-1} + H'H, -H'], [-H, I]]``, from
    the package's centre matrix and the inverse of the dense Sigma, inverts a dense Xi
    built from Sigma and the taps alone."""
    cov = _random_cov(8, 1)
    joint = build_joint(cov, build_Hc(example_spec, 8))
    H, xi = dense_joint_covariance(sigma(cov), example_spec.c)
    G = _dense_band(joint.hc)
    assert np.array_equal(G, H)
    closed = np.block(
        [[np.linalg.inv(sigma(cov)) + G.T @ G, -G.T], [-G, np.eye(joint.hc.m)]]
    )
    assert np.abs(closed - np.linalg.inv(xi)).max() <= 1e-8


def test_joint_quadratic_split(example_spec):
    """The decoder's statistic, the input form plus the centre-channel
    residual, equals ``w' Xi^{-1} w`` for the dense Xi."""
    cov = _random_cov(6, 2)
    joint = build_joint(cov, build_Hc(example_spec, 6))
    H, xi = dense_joint_covariance(sigma(cov), example_spec.c)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(6)
        y = rng.standard_normal(joint.hc.m)
        w = np.concatenate([x, y])
        full = w @ np.linalg.solve(xi, w)
        resid = y - H @ x
        split = x @ np.linalg.solve(sigma(cov), x) + resid @ resid
        assert full == pytest.approx(split, rel=1e-10, abs=1e-10)


def test_joint_determinant(example_spec):
    cov = _random_cov(5, 4)
    _, xi = dense_joint_covariance(sigma(cov), example_spec.c)
    sign, logdet = np.linalg.slogdet(xi)
    assert sign > 0
    assert logdet == pytest.approx(float(np.log(cov.d).sum()), abs=1e-8)


def test_joint_shape_mismatch(example_spec):
    cov = _random_cov(6, 5)
    with pytest.raises(DimensionMismatch):
        build_joint(cov, build_Hc(example_spec, 7))


def test_joint_rejects_non_finite(example_spec):
    Hc = build_Hc(example_spec, 6)
    good = _random_cov(6, 5)
    with pytest.raises(ValueError, match="non-finite"):
        CovarianceSpec(n=6, d=np.full(6, np.nan), halves=good.halves)
    bad_sym = good.halves.sym.copy()
    bad_sym[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        HalfBasis(sym=bad_sym, skew=good.halves.skew)
    taps = Hc.taps.copy()
    taps[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        build_joint(good, BandedChannelMatrix(n=6, k=Hc.k, taps=taps))
    build_joint(good, Hc)


def _white_book(coefs):
    """Codebook of given coefficients, rounded to float32, for the identity
    covariance on fixed random half bases (the same for every call at one
    ``n``), whose input statistic is ``||s||^2``."""
    n = coefs.shape[1]
    S = np.asarray(coefs, dtype=np.float32)
    return Codebook(S=S, cov=flat_cov(n, random_halves(n, 0)), q_floor=np.zeros(len(coefs)), seed=0)


def _adjoint_sq(ctx, Y):
    """``||Hc'y||^2`` per row of ``Y``, from the dense channel matrix."""
    joint = ctx.joint
    B = Y @ _dense_band(joint.hc)
    return (B * B).sum(axis=1)


def _crafted_setup(example_spec):
    """Codebook where word 0 hits both typicality tests (to rounding) and
    word 1 fails the input test outright."""
    n = 8
    s0 = np.zeros(n)
    s0[0] = np.sqrt(n)  # input form == n
    s1 = 0.01 * np.ones(n)
    book = _white_book(np.stack([s0, s1]))
    Hc = build_Hc(example_spec, n)
    joint = build_joint(book.cov, Hc)
    u = np.zeros(joint.hc.m)
    u[-1] = 1.0
    y = _dense_band(Hc) @ book.words([0])[0] + np.sqrt(joint.hc.m) * u  # residual == m
    return book, joint, y


def test_decode_unique_success(example_spec):
    book, joint, y = _crafted_setup(example_spec)
    params = TypicalParams(epsilon=0.1, eta=0.1)
    assert decode(y, book, joint, params) == 0


def test_decode_none(example_spec):
    book, joint, y = _crafted_setup(example_spec)
    params = TypicalParams(epsilon=0.1, eta=0.1)
    out = decode(y + 100.0, book, joint, params)
    assert out == DecodeFailure(kind="none")


def test_decode_ambiguous(example_spec):
    book, joint, y = _crafted_setup(example_spec)
    twin = _white_book(np.stack([book.S[0]] * 2))
    params = TypicalParams(epsilon=0.1, eta=0.1)
    out = decode(y, twin, joint, params)
    assert isinstance(out, DecodeFailure)
    assert out.kind == "ambiguous" and out.count == 2


def test_decode_accepts_prepared_context(example_spec):
    book, joint, y = _crafted_setup(example_spec)
    params = TypicalParams(epsilon=0.1, eta=0.1)
    ctx = prepare_context(book, joint)
    assert decode(y, book, joint, params, ctx) == decode(y, book, joint, params)


def test_decode_rejects_wrong_length(example_spec):
    book, joint, y = _crafted_setup(example_spec)
    params = TypicalParams(epsilon=0.1, eta=0.1)
    ctx = prepare_context(book, joint)
    for bad in (y[:-1], np.append(y, 0.0), y[None], np.float64(1.0)):
        with pytest.raises(DimensionMismatch):
            decode(bad, book, joint, params, ctx)
    with pytest.raises(DimensionMismatch):
        _pass_mask(np.zeros((3, joint.hc.m + 1)), params, ctx)


def test_decode_refuses_another_context(example_spec):
    """A context prepared for another codebook, or for another joint
    covariance, is refused rather than decoded against."""
    book, joint, y = _crafted_setup(example_spec)
    params = TypicalParams(epsilon=0.1, eta=0.1)
    other_book = _white_book(book.S[::-1].copy())
    other_joint = build_joint(joint.cov, build_Hc(example_spec, joint.hc.n))
    for ctx in (prepare_context(other_book, joint), prepare_context(book, other_joint)):
        with pytest.raises(ValueError, match="another codebook"):
            decode(y, book, joint, params, ctx)


def test_decode_guard_band_follows_direct_rule(example_spec):
    """Thresholds set exactly at, and one ulp above, word 0's direct-form
    deviation: strict ``<`` makes it fail, then pass.  The received vectors
    are jittered so that the GEMM form also lands on either side of the
    direct one.  The direct form is taken from ``book.words([0])``, the
    word the decoder recomputes."""
    book, joint, y0 = _crafted_setup(example_spec)
    ctx = prepare_context(book, joint)
    n, m = joint.hc.n, joint.hc.m
    rng = np.random.default_rng(8)
    a0 = joint.hc.apply(book.words([0]))
    for scale in [0.0] + [1e-3] * 24:
        y = y0 + scale * rng.standard_normal(m)
        diff = a0 - y
        w0 = (ctx.q_sigma[0] + np.einsum("ij,ij->i", diff, diff)[0]) / (n + m)
        dev0 = abs(w0 - 1.0)
        assert dev0 > 0.0
        band = _guard_band(ctx, np.array([y @ y]), np.zeros(1), dev0)[0]  # no floor columns
        for eta in (dev0, np.nextafter(dev0, np.inf)):
            assert abs(dev0 - eta) <= band  # inside the guard band
            params = TypicalParams(epsilon=0.1, eta=eta)
            want = 0 if dev0 < eta else DecodeFailure(kind="none")
            assert decode(y, book, joint, params, ctx) == want


def test_build_joint_gains_and_residual(example_spec):
    """``build_joint``'s half-band ``GU`` agrees with the dense Gram matrix
    and the assembled basis: for the eigenbasis the gains are its
    eigenvalues and the residual is rounding-sized; for the standard half
    bases and random orthonormal ones, at an even and an odd order, the
    gains are ``u_j'G u_j`` and the residual is the dense ``||GU - U
    diag(gain)||_F``, large."""
    eps = np.finfo(float).eps
    for n in (40, 41):
        Hc = build_Hc(example_spec, n)
        G = _dense_band(Hc).T @ _dense_band(Hc)
        joint = build_joint(build_sigma(example_spec, n, 1.0, "waterfill_gram"), Hc)
        lam = np.linalg.eigvalsh(G)
        s = joint.gain.size
        assert 0 < s < n  # the support: the largest eigenvalues
        assert np.abs(np.sort(joint.gain) - lam[n - s:]).max() <= 4 * n * eps * lam.max()
        assert joint.resid <= 4 * n * eps * np.abs(G).sum(axis=0).max()
        for other in (flat_cov(n), _random_cov(n, 6)):
            U = assemble(other.halves)
            got = build_joint(other, Hc)
            gain = np.einsum("ij,ij->j", U, G @ U)
            assert got.gain == pytest.approx(gain, rel=1e-12, abs=1e-12)
            assert got.resid == pytest.approx(np.linalg.norm(G @ U - U * gain), rel=1e-10)
            assert got.resid > 1.0


def test_build_joint_refuses_a_non_centre_matrix(example_spec):
    """The half bands stand for ``Hc'Hc`` only when every row of the band
    holds the same taps; a sampled channel matrix is refused."""
    n = 12
    cov = build_sigma(example_spec, n, 1.0)
    H = sample_H(example_spec, n, ChannelLaw(kind="iid_uniform"), 0, 0)
    with pytest.raises(ValueError, match="centre matrix"):
        build_joint(cov, H)


def test_prepare_context_refuses_another_basis(example_spec):
    """Energies pair the coefficients with the joint's gains, so a codebook
    drawn in another basis, or on another support, or of another length,
    is refused."""
    n = 12
    cov = build_sigma(example_spec, n, 1.0, "waterfill_gram")
    assert cov.floor_dim > 0
    book = gen_codebook(cov, 0.5, 1)
    for other in (_random_cov(n, 2), flat_cov(n)):
        with pytest.raises(ValueError, match="basis"):
            prepare_context(book, build_joint(other, build_Hc(example_spec, n)))
    halves = cov.halves
    same = CovarianceSpec(n=n, d=np.ones(cov.d.size),
                          halves=HalfBasis(sym=halves.sym.copy(), skew=halves.skew.copy()))
    prepare_context(book, build_joint(same, build_Hc(example_spec, n)))
    with pytest.raises(DimensionMismatch):
        prepare_context(book, build_joint(_random_cov(n + 1, 2), build_Hc(example_spec, n + 1)))


def test_codeword_and_image_accessors(example_spec):
    """``book.codewords`` is every word ``U s + x_f`` (``book.words``), within
    rounding of the product with the assembled ``U`` plus the built floors,
    and ``ctx.images`` its centre-channel image, each built once, on first
    access."""
    n = 16
    cov = build_sigma(example_spec, n, 1.0, "waterfill_gram")
    assert cov.floor_dim > 0
    book = gen_codebook(cov, 0.5, 2)
    Hc = build_Hc(example_spec, n)
    ctx = prepare_context(book, build_joint(cov, Hc))
    assert "codewords" not in vars(book) and "images" not in vars(ctx)
    assert np.array_equal(book.codewords, book.words(np.arange(book.size)))
    want = book.S @ assemble(cov.halves).T + floors(book, np.arange(book.size))
    assert np.abs(book.codewords - want).max() <= 1e-14 * np.abs(want).max()
    assert book.codewords is book.codewords
    want = book.codewords @ _dense_band(Hc).T
    assert np.abs(ctx.images - want).max() <= 1e-14 * np.abs(want).max()
    assert ctx.images is ctx.images


@pytest.mark.parametrize(
    "n, R, p_dbw, widths",
    [(1, 1.0, -10.0, (1, 0)), (2, 1.0, -10.0, (1, 0)), (3, 1.0, -10.0, (1, 0)),
     (256, None, -30.0, (12, 12))],
)
def test_experiment_masks_on_degenerate_halves(example_spec, monkeypatch, n, R, p_dbw, widths):
    """``run_error_experiment`` on supports whose half bases are empty or
    one column wide (n = 1, 2, 3) or hold 24 of 256 columns (-30 dBW, the
    default rate): every pass mask it scores equals the direct rule on the
    dense words ``U s + x_f`` and the dense channel matrix, on every pair
    whose statistics are clear of ``epsilon`` and ``eta`` by 1e-9, over two
    threads and a ragged last block.  The masks score exactly the trials
    whose sent word passes the input test; at n <= 3 the default
    ``epsilon`` of 0.1 leaves at most 6 of the 70 trials live, so it is
    widened there until more sent words pass it and some still fail it."""
    P = dbw_to_watts(p_dbw)
    if R is None:
        R = 0.25 * bound_report(example_spec, P).C_LB1
    params = default_params(decoder_mod._setup(example_spec, n, P)[1])
    if n <= 3:
        params = TypicalParams(epsilon={1: 2.0, 2: 0.6, 3: 0.6}[n], eta=params.eta)
    seen = []

    def recording(Y, params, ctx, x_ok):
        mask = _pass_mask(Y, params, ctx, x_ok)
        seen.append((Y, params, ctx, mask))
        return mask

    monkeypatch.setattr(decoder_mod, "_pass_mask", recording)
    res = run_error_experiment(example_spec, n=n, R=R, P=P, trials=70, master_seed=1, params=params,
                               threads=2)
    assert res.type1 + res.type2 + res.success == 70
    book = seen[0][2].book
    live = np.abs(book.q / n - 1.0)[message_picks(1, 70, book.size)] < params.epsilon
    assert 0 < live.sum() < 70 or n > 3
    assert sum(len(Y) for Y, *_ in seen) == live.sum()
    cov = book.cov
    assert (cov.halves.sym.shape[1], cov.halves.skew.shape[1]) == widths
    Hd = _dense_band(build_Hc(example_spec, n))
    compared = 0
    for Y, params, ctx, mask in seen:
        book = ctx.book
        A = book.codewords @ Hd.T
        W = (book.q[:, None] + ((A[:, None, :] - Y[None]) ** 2).sum(axis=-1)) / (n + ctx.joint.hc.m)
        x_dev = np.abs(book.q / n - 1.0)[:, None]
        clear = (np.abs(x_dev - params.epsilon) > 1e-9) & (np.abs(np.abs(W - 1.0) - params.eta) > 1e-9)
        want = (x_dev < params.epsilon) & (np.abs(W - 1.0) < params.eta)
        assert np.array_equal(mask[clear], want[clear])
        compared += int(clear.sum())
    assert compared >= 0.99 * sum(m.size for *_, m in seen)


def test_experiment_builds_no_codewords_or_images(example_spec, monkeypatch):
    """``run_error_experiment`` decodes from the coefficients alone: with
    both accessors made to raise, it still runs, over two threads and a
    ragged last block."""

    def touched(self):
        raise AssertionError("codewords or images built")

    monkeypatch.setattr(Codebook, "codewords", property(touched))
    monkeypatch.setattr(DecodeContext, "images", property(touched))
    res = run_error_experiment(example_spec, n=32, R=0.25, P=1.0, trials=70, master_seed=4, threads=2)
    assert res.type1 + res.type2 + res.success == 70


def test_band_at_the_largest_norms_bounds_every_rows_band(example_spec):
    """``_guard_band`` of scalars is its one-row array form bit for bit, and
    at the largest ``||y||^2`` and ``||Hc'y||^2`` of a block it is at least
    every row's band (each rounded step is monotone in both), infinite when
    a row's is: ``_pass_mask`` skips a group of words beyond it."""
    cov = build_sigma(example_spec, 64, dbw_to_watts(-10.0))
    ctx = prepare_context(gen_codebook(cov, 8 / 64, 2), build_joint(cov, build_Hc(example_spec, 64)))
    rng = np.random.default_rng(12)
    for eta in (0.0, 0.3):
        for scale in (0.0, 1.0, 1e3, 1e30):
            y_sq, b_sq = scale * 10.0 ** rng.uniform(-3.0, 3.0, (2, 50))
            band = _guard_band(ctx, y_sq, b_sq, eta)
            top = _guard_band(ctx, y_sq.max(), b_sq.max(), eta)
            assert top.shape == () and top >= band.max() and np.isinf(top) == np.isinf(band).any()
            assert top == _guard_band(ctx, np.array([y_sq.max()]), np.array([b_sq.max()]), eta)[0]
            assert (band >= _guard_band(ctx, y_sq * (1.0 - 1e-15), b_sq, eta)).all()


def test_guard_band_constants_count_the_half_bases(example_spec):
    """``word_err``, ``energy_err`` and ``floor_norm`` are the documented
    bounds, at an even and an odd order.  ``max ||s||^2`` is taken as
    ``max(d) max(q) (1 + 2 (n + 3) eps)``, the first-order bound from ``q
    = fl(sum_j s_j^2 / d_j + q_floor)`` on the held float32 ``S``, at least
    the computed maximum over ``S`` (``s_norm`` is its square root); ``max
    ||x_f||^2`` as ``POWER_FLOOR max(q_floor) (1 + 2 (n + 3) eps)``;
    ``u_norm`` is ``mu``, the bound on ``||U||_2``.  ``word_err``: the
    half GEMMs (``n ||U||_F``), the band image or adjoint and the score
    (``(n + k + 1) ||U||_2``), and the J-fold add and ``1/sqrt(2)`` scale
    of the half-basis apply and adjoint (``FOLD_ULPS ||U||_2``), times
    ``eps h ||s||``.  ``energy_err``: the eigen-residual bound of ``gram_fit``,
    which adds to the computed half-band residual the rounding of the half
    bands (``k + 1`` products per lag, the J-fold add and the ``sqrt(2)`` of
    the middle row, row sums at most ``sqrt(2) h^2``) and of their products
    with the half bases, the rounding of the energies, the floor's energy
    ``h^2 max ||x_f||^2``, and its cross term with the support, ``2 max ||s||
    max ||x_f|| (max |gain| tilt + resid)`` for the bound ``tilt`` on ``||U'x_f||
    / ||x_f||`` of a built floor."""
    eps = np.finfo(float).eps
    k1 = example_spec.k + 1
    h = sum(abs(c) for c in example_spec.c)
    t = _tap_autocorr(example_spec.c)
    for n in (16, 17):
        cov = build_sigma(example_spec, n, 1.0)
        assert cov.floor_dim > 0
        book = gen_codebook(cov, 0.5, 1)
        joint = build_joint(cov, build_Hc(example_spec, n))
        ctx = prepare_context(book, joint)
        omega = cov.halves.orth_defect + n * n * eps
        mu = math.sqrt(1.0 + omega)
        nu = math.sqrt(n) * mu
        s_sq = cov.lam_max * float(book.q.max()) * (1.0 + 2 * (n + 3) * eps)
        assert s_sq >= float(np.square(book.S, dtype=float).sum(axis=1).max())
        f_sq = POWER_FLOOR * float(book.q_floor.max()) * (1.0 + 2 * (n + 3) * eps)
        lam_max = float(np.abs(joint.gain).max())
        word_err = eps * h * math.sqrt(s_sq) * (n * nu + (n + k1 + FOLD_ULPS) * mu)
        sq = 0.0
        for band, Z, gain in zip(_half_bands(t, n), (cov.halves.sym, cov.halves.skew),
                                 np.split(joint.gain, [cov.halves.sym.shape[1]])):
            R = _sym_band_apply(band, Z) - Z * gain
            sq += float(np.vdot(R, R))
        resid = math.sqrt(sq) + eps * nu * (math.sqrt(2.0) * (3 * k1 + 1) * h * h + 2.0 * lam_max)
        tilt = FLOOR_REPROJECT * (omega * mu + 2.0 * eps * (n * nu + FOLD_ULPS * mu)) + 2.0 * mu * eps
        cross = 2.0 * math.sqrt(s_sq * f_sq) * (lam_max * tilt + resid)
        energy_err = s_sq * (mu * resid + (omega + (n + 1) * eps) * lam_max) + h * h * f_sq + cross
        assert joint.resid == pytest.approx(resid, rel=1e-12, abs=0.0)
        assert ctx.word_err == pytest.approx(word_err, rel=1e-12, abs=0.0)
        assert ctx.energy_err == pytest.approx(energy_err, rel=1e-12, abs=0.0)
        assert ctx.floor_norm == pytest.approx(math.sqrt(f_sq), rel=1e-12, abs=0.0)
        assert ctx.s_norm == pytest.approx(math.sqrt(s_sq), rel=1e-12, abs=0.0)
        assert ctx.u_norm == pytest.approx(mu, rel=1e-12, abs=0.0)


def test_support_energy_within_energy_err(example_spec):
    """The energies sum over the support only; the exact image energy
    ``||Hc (U s + x_f)||^2`` of every word, its floor ``x_f`` as built, lies
    within ``energy_err`` of ``ctx.energy``, evaluated in 40-digit
    arithmetic on the assembled columns ``U``.  Of the terms the support
    sum leaves out, the floor energy ``||Hc x_f||^2`` is at most ``h^2 max
    ||x_f||^2`` and the cross term ``2 (Hc U s).(Hc x_f)``, which is zero
    for an orthonormal eigenbasis, within ``2 max ||s|| max ||x_f|| (max
    |gain| tilt + resid)``, both as ``prepare_context`` takes them.
    ``base`` is ``(energy + q) / (n + m)`` rounded to float32.  At -10 dBW
    31 of the 48 dimensions are floor; at -30 dBW 44 are, and there the
    worst 40-digit gap is about 30 times what ``energy_err`` allows without
    its floor term."""
    for p_dbw in (-10.0, -30.0):
        _check_support_energy(example_spec, 48, dbw_to_watts(p_dbw))


def _check_support_energy(example_spec, n, P):
    cov = build_sigma(example_spec, n, P)
    assert cov.floor_dim > 0
    book = gen_codebook(cov, 6 / n, 6)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    eps = np.finfo(float).eps
    Hd = _dense_band(build_Hc(example_spec, n))
    U = assemble(cov.halves)
    XF = floors(book, np.arange(book.size))
    h = sum(abs(c) for c in example_spec.c)
    omega = cov.halves.orth_defect + n * n * eps
    mu, nu = math.sqrt(1.0 + omega), math.sqrt(n * (1.0 + omega))
    tilt = FLOOR_REPROJECT * (omega * mu + 2.0 * eps * (n * nu + FOLD_ULPS * mu)) + 2.0 * mu * eps
    s_sq = cov.lam_max * float(book.q.max()) * (1.0 + 2 * (n + 3) * eps)
    f_sq = POWER_FLOOR * float(book.q_floor.max()) * (1.0 + 2 * (n + 3) * eps)
    cross_cap = 2.0 * math.sqrt(s_sq * f_sq) * (float(np.abs(joint.gain).max()) * tilt + joint.resid)
    with mpmath.workdps(40):
        mp = np.vectorize(mpmath.mpf, otypes=[object])
        Hm, Um = mp(Hd), mp(U)
        for i in range(book.size):
            a_s = Hm @ (Um @ mp(book.S[i].astype(float)))
            a_f = Hm @ mp(XF[i])
            floor_energy = a_f @ a_f
            cross = 2 * (a_s @ a_f)
            assert floor_energy <= h * h * f_sq
            assert abs(cross) <= cross_cap
            assert abs(a_s @ a_s + cross + floor_energy - mpmath.mpf(ctx.energy[i])) <= ctx.energy_err
    assert ctx.base.dtype == np.float32
    assert np.array_equal(ctx.base, ((ctx.energy + book.q) / (n + joint.hc.m)).astype(np.float32))


def test_near_threshold_pair_follows_direct_form(example_spec, monkeypatch):
    """Eigenbasis codebook, thresholds at word 0's direct-form deviation
    and one ulp above it.  With the guard band zeroed the GEMM form lands
    on the wrong side for some received vectors; with the band, every
    decision is the direct form's."""
    n, seed = 32, 3
    cov = build_sigma(example_spec, n, 1.0, "waterfill_gram")
    book = gen_codebook(cov, 4 / n, seed)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    m = joint.hc.m
    x0 = book.words([0])
    a0 = joint.hc.apply(x0)
    rng = np.random.default_rng(seed)
    wrong = 0
    for _ in range(40):
        y = a0[0] + rng.standard_normal(m)
        diff = joint.hc.apply(x0)
        diff -= y
        dev0 = abs((book.q[0] + np.einsum("ij,ij->i", diff, diff)[0]) / (n + m) - 1.0)
        for eta in (dev0, np.nextafter(dev0, np.inf)):
            params = TypicalParams(epsilon=10.0, eta=eta)
            assert _pass_mask(y[None], params, ctx)[0, 0] == (dev0 < eta)
            with monkeypatch.context() as mp:
                mp.setattr(decoder_mod, "_guard_band", lambda ctx, y_sq, b_sq, eta: np.zeros_like(y_sq))
                wrong += _pass_mask(y[None], params, ctx)[0, 0] != (dev0 < eta)
    assert wrong > 0


def test_floor_band_pair_follows_direct_form(example_spec, monkeypatch):
    """At -10 dBW water-filling leaves part of the spectrum at the power
    floor, and the score reads only the support.  With ``eta`` halfway
    between a pair's direct-form deviation and its deviation short of the
    floor's term ``2 x_f.(Hc'y) / (n + m)`` (about 1e-7 here), the pair
    lies outside the band's float64 part (its float32 terms zeroed) without
    the floor term (about 1e-12) but inside it with that term, and the pass
    mask follows the direct form.  The float32 score's own rounding, about
    1e-6 here, is larger than the floor's term, so the full band takes the
    pair in either way."""
    n, seed = 32, 3
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0))
    book = gen_codebook(cov, 4 / n, seed)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    m = joint.hc.m
    assert cov.floor_dim > 0 and cov.lam_min == POWER_FLOOR
    Hd = _dense_band(build_Hc(example_spec, n))
    a0 = joint.hc.apply(book.words([0]))[0]
    x_f = floors(book, [0])[0]
    band = decoder_mod._guard_band
    float64_part = {"_U32": 0.0, "_F32_RANGE": np.inf}
    rng = np.random.default_rng(seed)
    for _ in range(8):
        y = a0 + rng.standard_normal(m)
        diff = a0 - y
        w = (book.q[0] + diff @ diff) / (n + m)
        b = Hd.T @ y
        w_tail = w + 2.0 * (x_f @ b) / (n + m)
        dev, dev_tail = abs(w - 1.0), abs(w_tail - 1.0)
        eta = 0.5 * (dev + dev_tail)
        y_sq = np.array([y @ y])
        assert abs(dev_tail - eta) <= band(ctx, y_sq, np.zeros(1), eta)[0]
        with monkeypatch.context() as mp:
            for name, value in float64_part.items():
                mp.setattr(decoder_mod, name, value)
            assert band(ctx, y_sq, np.zeros(1), eta)[0] < abs(dev_tail - eta)
            assert abs(dev_tail - eta) <= band(ctx, y_sq, np.array([b @ b]), eta)[0]
        params = TypicalParams(epsilon=10.0, eta=eta)
        assert (dev_tail < eta) != (dev < eta)
        assert _pass_mask(y[None], params, ctx)[0, 0] == (dev < eta)


def _split_case(example_spec, n, case):
    """A covariance on columns of the Gram eigenbasis (10 dBW, where every
    column gets power), with those of ``case`` moved to the floor, and the
    support width it should hold."""
    lam, vectors = gram_eigh(example_spec, n)
    d, _ = waterfill_powers(lam, n * dbw_to_watts(10.0))
    assert d.min() > POWER_FLOOR
    r = n - n // 2
    keep = np.ones(n, dtype=bool)
    if case == "one_half":  # the whole J-skew half, none of the other
        keep[r:] = False
    elif case == "all_floor":
        keep[:] = False
    cov = CovarianceSpec(n=n, d=d[keep], halves=HalfBasis.from_eigh(vectors, keep))
    return cov, int(keep.sum())


@pytest.mark.parametrize("case", ["no_floor", "one_half", "all_floor"])
def test_support_split_matches_full_width_score(example_spec, case):
    """Covariances that hold every column, one half, or none: the codebook
    stores the support, and the pass mask equals the direct rule on the
    words ``U s + x_f``, scored densely (the assembled columns, the built
    floors and the dense channel matrix), on every pair clear of ``eta`` by
    1e-9, with thresholds that split the pairs."""
    n, size, T = 24, 64, 20
    cov, width = _split_case(example_spec, n, case)
    book = gen_codebook(cov, 0.25, 4)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    assert cov.halves.width == width and cov.floor_dim == n - width
    assert book.S.shape == (size, width)
    rng = np.random.default_rng(5)
    X = book.S @ assemble(cov.halves).T + floors(book, np.arange(book.size))
    A = X @ _dense_band(build_Hc(example_spec, n)).T
    Y = A[rng.integers(size, size=T)] + rng.standard_normal((T, joint.hc.m))
    W = (book.q[:, None] + ((A[:, None, :] - Y[None]) ** 2).sum(axis=-1)) / (n + joint.hc.m)
    dev = np.sort(np.abs(W - 1.0), axis=None)
    eta = 0.5 * (dev[dev.size // 2] + dev[dev.size // 2 + 1])
    assert np.abs(dev - eta).min() > 1e-9
    params = TypicalParams(epsilon=10.0, eta=eta)
    assert np.array_equal(_pass_mask(Y, params, ctx), np.abs(W - 1.0) < eta)


@pytest.mark.parametrize("band", [None, 1e-2, 10.0])
def test_pairs_forced_into_the_guard_band_follow_the_dense_rule(example_spec, monkeypatch, band):
    """An eigenbasis codebook at -10 dBW (a floor on most dimensions), with
    ``epsilon`` failing about half the words and ``eta`` splitting the
    pairs across their narrowest gap: the pass mask equals the direct rule
    evaluated densely (the assembled columns, the built floors and the
    dense channel matrix) on every pair clear of both thresholds by 1e-9,
    with the drawn guard band
    and with bands widened to force some or all pairs into it.  The scores
    are float32 (the coefficients are): exactly the typical words' pairs
    inside the band are recomputed from their words, up to those within the
    drawn band (the float32 form's error bound) of its edges; a band of 10
    takes all of them.  Each such word is built once, however many of its
    pairs are recomputed."""
    n, T = 32, 24
    cov = build_sigma(example_spec, n, dbw_to_watts(-10.0))
    assert cov.floor_dim > 0
    book = gen_codebook(cov, 5 / n, 8)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    N = n + joint.hc.m
    rng = np.random.default_rng(9)
    X = book.S @ assemble(cov.halves).T + floors(book, np.arange(book.size))
    A = X @ _dense_band(build_Hc(example_spec, n)).T
    Y = A[rng.integers(book.size, size=T)] + rng.standard_normal((T, joint.hc.m))
    W = np.abs((book.q[:, None] + ((A[:, None, :] - Y[None]) ** 2).sum(axis=-1)) / N - 1.0)
    x_dev = np.abs(book.q / n - 1.0)
    epsilon = float(np.median(x_dev))
    typical = x_dev < epsilon
    # eta halfway across the narrowest gap (over 4e-9) between the middle
    # half of the typical words' sorted deviations, so a slightly wrong
    # decision rule shows.
    dev = np.sort(W[typical], axis=None)
    gaps = np.diff(dev)
    mid = np.arange(dev.size // 4, 3 * dev.size // 4)
    i = mid[np.argmin(np.where(gaps[mid] > 4e-9, gaps[mid], np.inf))]
    eta = 0.5 * (dev[i] + dev[i + 1])
    assert dev[i + 1] - dev[i] < 1e-4 * eta
    params = TypicalParams(epsilon=epsilon, eta=eta)
    want = typical[:, None] & (W < eta)
    clear = (np.abs(x_dev - epsilon) > 1e-9)[:, None] & (np.abs(W - eta) > 1e-9)
    assert 0.3 < typical.mean() < 0.7 and 0.1 < want.mean() < 0.5 and clear.mean() > 0.99
    assert book.S.dtype == np.float32
    drawn = _guard_band(ctx, np.einsum("ij,ij->i", Y, Y), _adjoint_sq(ctx, Y), eta)
    built = []
    words = Codebook.words
    monkeypatch.setattr(Codebook, "words", lambda self, rows: built.extend(rows) or words(self, rows))
    if band is not None:
        monkeypatch.setattr(decoder_mod, "_guard_band", lambda ctx, y_sq, b_sq, eta: np.full_like(y_sq, band))
    mask = _pass_mask(Y, params, ctx)
    assert np.array_equal(mask[clear], want[clear])
    inside = typical[:, None] & (np.abs(W - eta) <= (band or 0.0))
    if band is not None:
        # Within the drawn band of the forced band's edges the float32 form
        # may fall either side.
        edge = typical[:, None] & (np.abs(np.abs(W - eta) - band) <= drawn)
        assert len(built) == len(set(built))
        sure, maybe = inside & ~edge, inside | edge
        assert set(np.flatnonzero(sure.any(axis=1))) <= set(built) <= set(np.flatnonzero(maybe.any(axis=1)))
        assert 0 < inside.sum()
    if band == 10.0:
        assert built == np.flatnonzero(typical).tolist()


def _float32_deviations(ctx, Y):
    """The signed deviations ``w - 1`` of every (received vector, word)
    pair, short of the floor's term, as ``_pass_mask`` forms them (a
    float32 GEMM and tail), and the same form recomputed in float64 from
    the same projection: the exactly widened coefficients, and the tail
    added in float64."""
    joint, book = ctx.joint, ctx.book
    N = joint.hc.n + joint.hc.m
    Z = book.cov.halves.adjoint(joint.hc.adjoint(Y))
    Z *= -2.0 / N
    y_term = np.einsum("ij,ij->i", Y, Y) / N - 1.0
    dev32 = Z.astype(np.float32) @ book.S.T
    dev32 += y_term.astype(np.float32)[:, None]
    dev32 += ctx.base
    dev64 = Z @ book.S.astype(float).T + y_term[:, None] + (ctx.energy + book.q) / N
    return dev32, dev64


@pytest.mark.parametrize("case", ["floor", "n256", "high_power", "standard_basis"])
def test_float32_scores_lie_within_the_band_float32_term(example_spec, monkeypatch, case):
    """Every float32 deviation lies within the band's float32 term of the
    same form recomputed in float64, for each received vector: the band at
    ``eta = 0``, less the band with the float32 unit roundoff zeroed,
    undoubled.  Cases: an eigenbasis codebook with a floor (n = 64, -10
    dBW), a wider support (n = 256, 90 columns), 20 dBW (large scores),
    and the standard half bases (every column on the support).  Received
    vectors come through the centre channel plus unit noise."""
    n, p_dbw, R = {"floor": (64, -10.0, 8 / 64), "n256": (256, -10.0, 10 / 256),
                   "high_power": (128, 20.0, 8 / 128), "standard_basis": (32, 0.0, 6 / 32)}[case]
    rng = np.random.default_rng(11)
    if case == "standard_basis":
        book = _white_book(rng.standard_normal((64, n)))
    else:
        book = gen_codebook(build_sigma(example_spec, n, dbw_to_watts(p_dbw)), R, 3)
    assert book.S.dtype == np.float32
    joint = build_joint(book.cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    A = joint.hc.apply(book.codewords)
    Y = A[rng.integers(book.size, size=40)] + rng.standard_normal((40, joint.hc.m))
    dev32, dev64 = _float32_deviations(ctx, Y)
    y_sq, b_sq = np.einsum("ij,ij->i", Y, Y), _adjoint_sq(ctx, Y)
    band = _guard_band(ctx, y_sq, b_sq, 0.0)
    monkeypatch.setattr(decoder_mod, "_U32", 0.0)
    term = (band - _guard_band(ctx, y_sq, b_sq, 0.0)) / decoder_mod._GUARD
    err = np.abs(dev32 - dev64).max(axis=1)
    assert np.all(np.isfinite(term)) and np.all(err <= term), (err / term).max()
    assert err.max() > 0.0


def test_float32_overflow_sends_every_pair_to_the_direct_rule(example_spec, monkeypatch):
    """A covariance scaled so that the codebook's most energetic word has
    ``||a||^2 / (n + m) = 2.5e38``: its per-word term fits float32, but the
    score against its own image ``y = a``, ``-2 a.y / (n + m)``, does not.
    That received vector's band is infinite, every pair is recomputed in
    float64, and the word passes, as under the direct rule (``eta = 1`` is
    above ``|q / (n + m) - 1|``), while every other word fails.  With the
    range check removed, the overflowed score fails the word."""
    n = 8
    halves = random_halves(n, 2)
    unit = gen_codebook(CovarianceSpec(n=n, d=np.ones(n), halves=halves), 0.5, 6)
    joint = build_joint(unit.cov, build_Hc(example_spec, n))
    N = n + joint.hc.m
    scale = 2.5e38 * N / prepare_context(unit, joint).energy.max()
    cov = CovarianceSpec(n=n, d=np.full(n, scale), halves=halves)
    book = gen_codebook(cov, 0.5, 6)
    ctx = prepare_context(book, build_joint(cov, build_Hc(example_spec, n)))
    i = int(np.argmax(ctx.energy))
    assert np.isfinite(ctx.base).all() and ctx.energy[i] / N == pytest.approx(2.5e38)
    # The image as the recomputation builds it: every word in one batch.
    Y = joint.hc.apply(book.codewords)[[i]]
    assert np.isinf(_guard_band(ctx, np.einsum("ij,ij->i", Y, Y), _adjoint_sq(ctx, Y), 1.0)).all()
    assert abs(book.q[i] / N - 1.0) < 1.0
    params = TypicalParams(epsilon=10.0, eta=1.0)
    built = []
    words = Codebook.words
    with monkeypatch.context() as mp:
        mp.setattr(Codebook, "words", lambda self, rows: built.append(len(rows)) or words(self, rows))
        mask = _pass_mask(Y, params, ctx)
    assert sum(built) == book.size
    assert np.array_equal(np.flatnonzero(mask[:, 0]), [i])
    monkeypatch.setattr(decoder_mod, "_F32_RANGE", np.inf)
    assert not _pass_mask(Y, params, ctx)[i, 0]


def test_standard_basis_pairs_follow_direct_form(example_spec):
    """A codebook on the standard half bases (columns ``(e_i +- e_(n-1-i))
    / sqrt(2)``), which do not diagonalise ``Hc'Hc``, so the energies
    ``sum_j u_j'G u_j s_j^2`` miss the image norms by O(1).  The measured
    eigen-residual widens the guard band past that, and every decision
    equals the direct form's, evaluated densely here."""
    n, size, T = 12, 64, 20
    rng = np.random.default_rng(5)
    S = rng.standard_normal((size, n)).astype(np.float32)
    book = Codebook(S=S, cov=flat_cov(n), q_floor=np.zeros(size), seed=5)
    Hc = build_Hc(example_spec, n)
    joint = build_joint(book.cov, Hc)
    ctx = prepare_context(book, joint)
    A = book.codewords @ _dense_band(Hc).T
    assert np.abs(ctx.energy - (A * A).sum(axis=1)).max() > 1.0
    Y = A[rng.integers(size, size=T)] + rng.standard_normal((T, joint.hc.m))
    params = TypicalParams(epsilon=10.0, eta=0.3)
    W = (book.q[:, None] + ((A[:, None, :] - Y[None]) ** 2).sum(axis=-1)) / (n + joint.hc.m)
    dev = np.abs(W - 1.0)
    assert np.abs(dev - params.eta).min() > 1e-9
    want = dev < params.eta
    assert 0.1 < want.mean() < 0.9
    assert np.array_equal(_pass_mask(Y, params, ctx), want)


def test_threshold_formulas(example_spec, example_profile):
    n, P = 32, 2.0
    cov = build_sigma(example_spec, n, P, "waterfill_gram")
    rep = thresholds(example_spec, example_profile, cov, P)
    m = n + example_spec.k
    rs, beta, alpha = example_spec.r_s, example_profile.beta, example_profile.alpha
    s = rs * (rs + 2.0 * beta)
    phis = (
        s * cov.lam_max / (1.0 + alpha ** 2 * cov.lam_min),
        s * cov.trace / m,
        1.0 / (1.0 + s * cov.lam_max),
    )
    assert (rep.phi1_n, rep.phi2_n, rep.phi3_n) == phis
    expected_eta = (
        (example_spec.k + 1) * example_spec.norm_r_sq * cov.trace / (m + n)
    )
    assert rep.eta_n == pytest.approx(expected_eta, rel=1e-12)
    k, r_sq, bs = example_spec.k, example_spec.norm_r_sq, beta + rs
    C_n = 2 * m + 2 * n + 8 * (k + 1) * n * P * r_sq + 2 * n * P * rs ** 4 * cov.lam_max
    C_prime_n = 2 * m + 4 * bs ** 2 * n * P + 2 * n * P * bs ** 4 * cov.lam_max
    assert (rep.C_n, rep.C_prime_n) == (C_n, C_prime_n)
    assert rep.C_n > 0 and rep.C_prime_n > 0


def test_default_params_scaling(example_spec, example_profile):
    cov = flat_cov(16)
    rep = thresholds(example_spec, example_profile, cov, 1.0)
    params = default_params(rep)
    assert params.epsilon == 0.1
    assert params.eta == pytest.approx(1.5 * rep.eta_n + 0.05, rel=1e-12)


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=2000), st.data())
def test_wilson_properties(trials, data):
    events = data.draw(st.integers(min_value=0, max_value=trials))
    lo, hi = wilson_interval(events, trials)
    p = events / trials
    assert 0.0 <= lo <= p + 1e-12
    assert p - 1e-12 <= hi <= 1.0
    # complement symmetry
    lo_c, hi_c = wilson_interval(trials - events, trials)
    assert lo == pytest.approx(1.0 - hi_c, abs=1e-12)
    assert hi == pytest.approx(1.0 - lo_c, abs=1e-12)


def test_wilson_ends_are_exact_with_no_events_or_no_non_events():
    """With no events the lower end is exactly 0.0, and with every trial an
    event the upper end exactly 1.0, for n = 1 ... 20,000: the closed form
    rounds the lower end to 2.8e-17 at n = 11 and the upper one to 1 -
    2**-53 at n = 6, 100 and 500."""
    for n in range(1, 20_001):
        assert wilson_interval(0, n)[0] == 0.0, n
        assert wilson_interval(n, n)[1] == 1.0, n


def test_wilson_narrows_with_trials():
    lo1, hi1 = wilson_interval(10, 20)
    lo2, hi2 = wilson_interval(100, 200)
    assert hi2 - lo2 < hi1 - lo1


def test_experiment_counts_and_thread_invariance(example_spec):
    kwargs = dict(n=16, R=0.125, P=0.1, trials=48, master_seed=11)
    serial = run_error_experiment(example_spec, **kwargs, threads=1)
    threaded = run_error_experiment(example_spec, **kwargs, threads=3)
    assert serial.type1 + serial.type2 + serial.success == 48
    assert (serial.type1, serial.type2, serial.success) == (
        threaded.type1,
        threaded.type2,
        threaded.success,
    )
    assert serial.errors == serial.type1 + serial.type2
    assert serial.error_rate == serial.errors / 48
    assert (serial.wilson_lo, serial.wilson_hi) == wilson_interval(serial.errors, 48)


def test_experiment_pool_is_capped_at_the_cores(example_spec, monkeypatch):
    """``threads`` past the cores still splits the trials into one span per
    block, but the pool gets at most ``os.cpu_count()`` workers, and
    the counts are the serial run's.  The stand-in pool maps serially, so no
    thread starts."""
    seen = []

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    kwargs = dict(n=16, R=0.125, P=0.1, master_seed=5)
    trials = 5 * trial_block(2 ** math.ceil(16 * 0.125), 16) + 1  # six blocks
    serial = run_error_experiment(example_spec, trials=trials, threads=1, **kwargs)
    monkeypatch.setattr(decoder_mod, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    wide = run_error_experiment(example_spec, trials=trials, threads=1000, **kwargs)
    assert seen == [2]
    assert (wide.type1, wide.type2, wide.success) == (serial.type1, serial.type2, serial.success)


@pytest.mark.parametrize("block", [1, 64])
def test_experiment_builds_each_sent_word_once(example_spec, monkeypatch, block):
    """Every distinct sent row (about 110 of 256 words) whose word passes
    the input test goes through ``Codebook.words`` exactly once per
    experiment, in chunks of at most 64 rows, and no other row does, at
    ``threads`` 1, 2 and 7 and at one or 64 trials per block; the calls and
    the counts are the same in all six runs.  ``epsilon`` settles about a
    third of the trials, each a type-1 error, and ``eta``, far from every
    pair's statistic, leaves no pair in the guard band and passes every
    live trial's candidates, so each live trial is a type-2 error."""
    n, trials, seed = 16, 150, 6
    calls = []
    words = Codebook.words
    monkeypatch.setattr(Codebook, "words", lambda self, rows: calls.append(list(rows)) or words(self, rows))
    monkeypatch.setattr(decoder_mod, "trial_block", lambda size, n: block)
    P = dbw_to_watts(-10.0)
    params = TypicalParams(epsilon=0.3, eta=50.0)
    book = gen_codebook(decoder_mod._setup(example_spec, n, P)[0], 0.5, seed)
    msgs = [int(rng_stream(seed, STREAM_MESSAGE, t).integers(book.size)) for t in range(trials)]
    live = [m for m in msgs if abs(book.q[m] / n - 1.0) < params.epsilon]
    sent = sorted(set(live))
    assert 0 < len(live) < trials and len(sent) > 64
    runs = []
    for threads in (1, 2, 7):
        calls.clear()
        res = run_error_experiment(example_spec, n=n, R=0.5, P=P, trials=trials, master_seed=seed,
                                   params=params, threads=threads)
        assert sorted(r for c in calls for r in c) == sent
        assert len(calls) == math.ceil(len(sent) / 64) and all(len(c) <= 64 for c in calls)
        runs.append((sorted(calls), res.type1, res.type2, res.success))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1:] == (trials - len(live), len(live), 0)


def test_counts_do_not_depend_on_block_or_threads(example_spec, monkeypatch):
    """The counts of 150 trials (two whole 64-trial cells and part of a
    third) are the same at 1, 16, 64 and 256 trials per block and at 1, 2
    and 7 threads, and every thread's first draw starts a span of whole
    blocks and whole cells.  Wide thresholds give all three outcomes."""
    cell = channel_sim._TRIAL_CELL
    starts = []

    class Recorded(channel_sim.TrialBlocks):
        def draw(self, start, X, live=None):
            if not hasattr(self, "first"):
                self.first = start
                starts.append(self.first)
            return super().draw(start, X, live)

    monkeypatch.setattr(decoder_mod, "TrialBlocks", Recorded)
    kwargs = dict(n=16, R=0.25, P=1.0, trials=150, master_seed=8,
                  params=TypicalParams(epsilon=0.5, eta=0.3))
    runs = set()
    for block in (1, 16, 64, 256):
        monkeypatch.setattr(decoder_mod, "trial_block", lambda size, n: block)
        unit = max(block, cell)
        for threads in (1, 2, 7):
            starts.clear()
            res = run_error_experiment(example_spec, threads=threads, **kwargs)
            runs.add((res.type1, res.type2, res.success))
            spans = math.ceil(math.ceil(150 / unit) / threads)
            assert sorted(starts) == list(range(0, 150, unit * spans))
    assert len(runs) == 1
    assert min(runs.pop()) > 0


def test_experiment_byte_cap_at_its_edge(example_spec, monkeypatch):
    """``run_error_experiment`` runs with the cap at exactly
    ``decode_bytes(size, n, trials, k)``, picks and held words included,
    and one byte below it is refused before any set-up."""
    n, R, trials = 16, 0.25, 100
    need = decode_bytes(2 ** 4, n, trials, example_spec.k)
    monkeypatch.setattr(channel_sim, "MAX_DECODE_BYTES", need)
    res = run_error_experiment(example_spec, n=n, R=R, P=1.0, trials=trials)
    assert res.trials == trials

    def setup_ran(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    monkeypatch.setattr(channel_sim, "MAX_DECODE_BYTES", need - 1)
    monkeypatch.setattr(decoder_mod, "checked_extrema", setup_ran)
    with pytest.raises(CodebookTooLarge, match=f"decode {trials} trials"):
        run_error_experiment(example_spec, n=n, R=R, P=1.0, trials=trials)


@pytest.mark.parametrize("n, p_dbw", [(16, 400.0), (17, 400.0), (16, -10.0)])
def test_all_in_band_blocks_build_each_word_once(example_spec, monkeypatch, n, p_dbw):
    """At 400 dBW every guard band is infinite, so every typical word's
    pair with every live trial is recomputed from its word: within each
    block (64 trials a block, so 200 trials in four) the words
    are built ascending, each distinct row once, and they are exactly the
    rows that pass the input test; the counts equal the one-cell loop's.
    The same holds at -10 dBW with the bands forced infinite, where the
    words have a floor."""
    P, R, seed, trials = dbw_to_watts(p_dbw), 0.5, 1, 200
    params = default_params(decoder_mod._setup(example_spec, n, P)[1])
    if p_dbw < 0.0:
        monkeypatch.setattr(decoder_mod, "_guard_band", lambda ctx, y_sq, b_sq, eta: np.full_like(y_sq, np.inf))
    blocks = []
    words = Codebook.words
    monkeypatch.setattr(Codebook, "words", lambda self, rows: blocks[-1].extend(rows) or words(self, rows))
    monkeypatch.setattr(decoder_mod, "trial_block", lambda size, n: 64)

    def recording(Y, params, ctx, x_ok):
        blocks.append([])
        return _pass_mask(Y, params, ctx, x_ok)

    monkeypatch.setattr(decoder_mod, "_pass_mask", recording)
    blocks.append([])  # sent_words' calls
    res = run_error_experiment(example_spec, n=n, R=R, P=P, trials=trials, master_seed=seed)
    book = gen_codebook(decoder_mod._setup(example_spec, n, P)[0], R, seed)
    typical = np.flatnonzero(np.abs(book.q / n - 1.0) < params.epsilon)
    assert 0 < len(typical) < book.size and (book.cov.floor_dim == 0) == (p_dbw > 0.0)
    assert len(blocks) == 5
    assert all(b == typical.tolist() for b in blocks[1:])
    monkeypatch.setattr(Codebook, "words", words)
    monkeypatch.setattr(decoder_mod, "_pass_mask", _pass_mask)
    law = ChannelLaw(kind="iid_uniform")
    assert [res.type1, res.type2, res.success] == _one_cell_counts(example_spec, n, R, P, seed, trials, law, params)


def test_all_in_band_block_stays_within_decode_bytes(example_spec, monkeypatch):
    """At 400 dBW every guard band is infinite, so every pair of a block is
    scanned and each typical word's pair recomputed: the traced peak from
    ``gen_codebook`` to the last block, for 2^16 words of length 16 and 16
    trials, stays within ``decode_bytes``, the scan and recomputation
    scratch included."""
    draw = decoder_mod.gen_codebook

    def traced(*args):
        tracemalloc.start()
        return draw(*args)

    monkeypatch.setattr(decoder_mod, "gen_codebook", traced)
    try:
        res = run_error_experiment(example_spec, 16, 1.0, dbw_to_watts(400.0), 16, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.type1 + res.type2 + res.success == 16
    cap = decode_bytes(2 ** 16, 16, 16, example_spec.k)
    assert peak <= cap, (peak, cap)


def test_default_n256_experiment_stays_within_decode_bytes(example_spec, monkeypatch):
    """At the default config's n = 256 (-10 dBW, a quarter of ``C_LB1``,
    1024 words, 500 trials) the trials are scored in 128-trial blocks: the
    traced peak from ``gen_codebook`` to the last block stays within
    ``decode_bytes``."""
    n, trials, P = 256, 500, dbw_to_watts(-10.0)
    R = 0.25 * bound_report(example_spec, P).C_LB1
    draw = decoder_mod.gen_codebook

    def traced(*args):
        tracemalloc.start()
        return draw(*args)

    monkeypatch.setattr(decoder_mod, "gen_codebook", traced)
    try:
        res = run_error_experiment(example_spec, n, R, P, trials, master_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.type1 + res.type2 + res.success == trials
    size = 2 ** math.ceil(n * R)
    assert size == 1024 and trial_block(size, n) == 128
    cap = decode_bytes(size, n, trials, example_spec.k)
    assert peak <= cap, (peak, cap)


def test_band_scan_in_slices_keeps_the_mask_and_the_chunks(example_spec, monkeypatch):
    """Scanning the scores for in-band pairs 55 entries at a time (two
    codewords of the 24 trials) gives the mask of the default scan, and
    builds the same words in the same order, ascending and each once, at
    most two a call where the default scan builds them in one."""
    n, T = 16, 24
    cov = build_sigma(example_spec, n, dbw_to_watts(400.0))
    book = gen_codebook(cov, 5 / n, 3)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((T, joint.hc.m)) * 1e20
    params = TypicalParams(epsilon=float(np.median(np.abs(book.q / n - 1.0))), eta=0.5)
    words = Codebook.words

    def scan():
        chunks = []
        monkeypatch.setattr(Codebook, "words", lambda self, rows: chunks.append(rows) or words(self, rows))
        return _pass_mask(Y, params, ctx), chunks

    whole, whole_chunks = scan()
    monkeypatch.setattr(decoder_mod, "_DIRECT_ENTRIES", 55)
    sliced, chunks = scan()
    assert np.array_equal(sliced, whole)
    assert len(whole_chunks) == 1 and len(chunks) > 2
    assert np.array_equal(np.concatenate(chunks), whole_chunks[0])
    assert (np.diff(whole_chunks[0]) > 0).all()
    assert all(len(c) <= 55 // T for c in chunks)


def test_experiment_rejects_zero_trials(example_spec):
    with pytest.raises(ValueError):
        run_error_experiment(example_spec, n=8, R=0.1, P=0.1, trials=0)


def test_experiment_refuses_negative_seed_before_setup(example_spec, monkeypatch):
    import isicap.decoder as decoder_mod

    def setup_ran(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    monkeypatch.setattr(decoder_mod, "checked_extrema", setup_ran)
    with pytest.raises(ValueError, match="master_seed"):
        run_error_experiment(example_spec, n=8, R=0.1, P=0.1, trials=4, master_seed=-1)


@pytest.fixture
def no_kept_setup():
    """``_setup``'s cache emptied before and after the test."""
    decoder_mod._setup.cache_clear()
    yield decoder_mod._setup
    decoder_mod._setup.cache_clear()


def _built(monkeypatch) -> list:
    """The ``n`` of each input covariance the decoder builds from here on."""
    built = []
    monkeypatch.setattr(decoder_mod, "build_sigma", lambda spec, n, P: built.append(n) or build_sigma(spec, n, P))
    return built


def test_cold_experiment_builds_no_grid(example_spec, monkeypatch, no_kept_setup):
    """A cold experiment at a given rate reads ``alpha`` and ``beta`` alone
    (``checked_extrema``): neither the FFT table nor the quadrature grid is
    touched."""
    def no_grid(*args):
        raise AssertionError("the experiment read the grid")

    monkeypatch.setattr(spectrum, "f_sq_table", no_grid)
    monkeypatch.setattr(spectrum, "quadrature_grid", no_grid)
    monkeypatch.setattr(waterfill, "compute_profile", no_grid)
    res = run_error_experiment(example_spec, n=16, R=0.125, P=0.1, trials=24, master_seed=3)
    assert res.type1 + res.type2 + res.success == 24


def test_experiment_seed_determinism(example_spec):
    kwargs = dict(n=16, R=0.125, P=0.1, trials=24)
    a = run_error_experiment(example_spec, master_seed=3, **kwargs)
    b = run_error_experiment(example_spec, master_seed=3, **kwargs)
    c = run_error_experiment(example_spec, master_seed=4, **kwargs)
    assert (a.type1, a.type2, a.success) == (b.type1, b.type2, b.success)
    # a different master seed redraws everything; identical counts across all
    # three buckets would be a (tiny-probability) coincidence we tolerate,
    # but the decoded outcomes should not be bitwise-forced to agree
    assert a.trials == c.trials == 24


@pytest.mark.parametrize("threads", [0, -1, 2.5, True])
def test_experiment_refuses_threads_not_a_positive_integer_before_setup(example_spec, monkeypatch, threads):
    """A ``threads`` that is not an integer >= 1 (a bool included) is
    refused, named, before any set-up, where it once ran on one thread."""
    def setup_ran(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    monkeypatch.setattr(decoder_mod, "checked_extrema", setup_ran)
    with pytest.raises(ValueError, match=f"threads must be .*integer, got {threads!r}"):
        run_error_experiment(example_spec, n=64, R=3 / 64, P=0.1, trials=64, master_seed=1, threads=threads)


def _counts(res) -> tuple:
    return res.type1, res.type2, res.success, res.wilson_lo, res.wilson_hi


@pytest.mark.parametrize(
    "law",
    [
        ChannelLaw(kind="iid_uniform"),
        ChannelLaw(kind="block_hold", block_len=3),
        ChannelLaw(kind="constant", offset=(1.0, -1.0, 0.5)),
    ],
    ids=lambda law: law.kind,
)
def test_kept_setup_gives_the_cold_counts(example_spec, monkeypatch, no_kept_setup, law):
    """Counts at seeds 1-3 after a warm-up at seed 9, which keeps the
    set-up of the default channel at n = 64, equal those with the kept
    set-up dropped before each call; the warm calls build no covariance."""
    kwargs = dict(n=64, R=3 / 64, P=dbw_to_watts(-10.0), trials=200, law=law)
    run_error_experiment(example_spec, master_seed=9, **kwargs)
    assert no_kept_setup.cache_info().currsize == 1
    built = _built(monkeypatch)
    warm = [_counts(run_error_experiment(example_spec, master_seed=s, **kwargs)) for s in (1, 2, 3)]
    assert built == [] and no_kept_setup.cache_info().hits == 3
    cold = []
    for s in (1, 2, 3):
        no_kept_setup.cache_clear()
        cold.append(_counts(run_error_experiment(example_spec, master_seed=s, **kwargs)))
    assert built == [64] * 3
    assert warm == cold


def test_kept_setup_is_shared_read_only_and_untouched_by_a_refusal(example_spec, monkeypatch, no_kept_setup):
    """A second call on one configuration decodes with the very same
    covariance and joint covariance objects, whose arrays refuse writes (a
    0-d array power is read as the same float), and a call at another
    power with its own; a call that raises in the set-up keeps nothing,
    and both kept set-ups are still shared after it."""
    seen = []

    def recording(book, joint):
        seen.append((book.cov, joint))
        return prepare_context(book, joint)

    monkeypatch.setattr(decoder_mod, "prepare_context", recording)
    kwargs = dict(n=64, R=3 / 64, P=dbw_to_watts(-10.0), trials=64)
    run_error_experiment(example_spec, master_seed=1, **kwargs)
    run_error_experiment(example_spec, master_seed=2, **kwargs)
    run_error_experiment(example_spec, master_seed=1, **{**kwargs, "P": dbw_to_watts(0.0)})
    run_error_experiment(example_spec, master_seed=3, **{**kwargs, "P": np.array(kwargs["P"])})
    (cov, joint), (cov2, joint2), (cov3, _), (cov4, _) = seen
    assert cov2 is cov and joint2 is joint and joint.cov is cov
    assert cov3 is not cov and cov4 is cov and no_kept_setup.cache_info().currsize == 2
    for a in (cov.d, cov.halves.sym, cov.halves.skew, joint.gain, joint.hc.taps):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    before = no_kept_setup.cache_info()
    with pytest.raises(ValueError, match="need P > 0"):
        run_error_experiment(example_spec, **{**kwargs, "P": -1.0})
    after = no_kept_setup.cache_info()
    assert (after.misses, after.currsize) == (before.misses + 1, before.currsize)
    seen.clear()
    run_error_experiment(example_spec, master_seed=4, **kwargs)
    run_error_experiment(example_spec, master_seed=4, **{**kwargs, "P": dbw_to_watts(0.0)})
    assert len(seen) == 2 and seen[0][0] is cov and seen[1][0] is cov3


def test_kept_setups_are_the_last_three_that_fit(example_spec, monkeypatch, no_kept_setup):
    """The last three set-ups used are kept: after 16, 32, 48, 16 a fourth
    key, 64, evicts the least recently used, 32's, which the next call
    rebuilds.  At 10 dBW the n = 16 support is full, so its arrays (half
    bases, ``d``, the gains and the centre taps) are the whole bound the
    keep gate reads: with ``_SETUP_BYTES`` three times their bytes the
    set-up is kept, one byte less keeps nothing.  Every count equals a
    cold one."""
    P = dbw_to_watts(10.0)
    built = _built(monkeypatch)

    def run(n, seed):
        return _counts(run_error_experiment(example_spec, n=n, R=3 / n, P=P, trials=64, master_seed=seed))

    sequence = [16, 32, 48, 16, 64, 32]
    warm = [run(n, seed) for seed, n in enumerate(sequence)]
    assert built == [16, 32, 48, 64, 32] and no_kept_setup.cache_info().currsize == 3
    cold = []
    for seed, n in enumerate(sequence):
        no_kept_setup.cache_clear()
        cold.append(run(n, seed))
    assert warm == cold
    cov, _, joint = no_kept_setup(example_spec, 16, P)
    assert cov.halves.width == 16
    full = sum(a.nbytes for a in (cov.halves.sym, cov.halves.skew, cov.d, joint.gain, joint.hc.taps))
    for bound, kept in ((3 * full, 1), (3 * full - 1, 0)):
        monkeypatch.setattr(decoder_mod, "_SETUP_BYTES", bound)
        no_kept_setup.cache_clear()
        built.clear()
        assert [run(16, seed) for seed in (0, 3)] == [cold[0], cold[3]]
        assert built == [16] * (2 - kept) and no_kept_setup.cache_info().currsize == kept


def test_experiment_constant_law_matches_centre(example_spec):
    law = ChannelLaw(kind="constant", offset=(0.0, 0.0, 0.0))
    res = run_error_experiment(
        example_spec, n=16, R=0.0625, P=0.1, trials=30, master_seed=1, law=law
    )
    assert res.type1 + res.type2 + res.success == 30


def _type1_z(spec: ChannelSpec, n: int, R: float, trials: int, seed: int) -> float:
    """z-score of ``run_error_experiment``'s type-1 count at -10 dBW under
    the iid law against ``sum_t P(type 1 | H_t, msg_t)`` from
    ``type1_oracle``: the picks from each trial's message cell, ``q`` from
    the test's own codebook, and ``lam_t = ||(H_t - Hc) x_t||^2`` summed
    tap by tap from ``sample_H``."""
    P, law, k = dbw_to_watts(-10.0), ChannelLaw(kind="iid_uniform"), spec.k
    cov = build_sigma(spec, n, P)
    params = default_params(thresholds(spec, compute_profile(spec), cov, P))
    book = gen_codebook(cov, R, seed)
    msgs = np.array([rng_stream(seed, STREAM_MESSAGE, t).integers(book.size) for t in range(trials)])
    lam = np.zeros(trials)
    if any(spec.r):
        dev = np.stack([sample_H(spec, n, law, seed, t).taps for t in range(trials)]) - np.asarray(spec.c)[:, None]
        X = np.pad(book.words(msgs), ((0, 0), (k, k)))
        out = np.arange(n + k)
        EX = sum(dev[:, d] * X[:, out + k - d] for d in range(k + 1))
        lam = np.einsum("ij,ij->i", EX, EX)
    p = type1_oracle(book.q[msgs], lam, n, n + k, params.epsilon, params.eta)
    res = run_error_experiment(spec, n=n, R=R, P=P, trials=trials, master_seed=seed, law=law)
    return (res.type1 - p.sum()) / math.sqrt((p * (1.0 - p)).sum())


@pytest.mark.parametrize("n", [64, 128])
def test_type1_count_matches_the_exact_codebook_conditional_rate(example_spec, n):
    """At zero radius every trial's channel is the centre one, so the sent
    word fails with a probability fixed by its ``q`` alone.  The type-1
    count of 6,000 trials at ``R = C0/4`` lies within 3.29 sigma (99.9 %)
    of the sum of those probabilities over the picks.  The value that does
    not condition on the drawn codebook's ``q`` (``q ~ chi^2_n``) is 8 and
    11 sigma off at seed 1: 0.824 and 0.692 against rates of 0.783 and
    0.627."""
    spec = ChannelSpec(k=example_spec.k, c=example_spec.c, r=(0.0,) * (example_spec.k + 1))
    R = bound_report(spec, dbw_to_watts(-10.0)).C0 / 4.0
    assert abs(_type1_z(spec, n, R, 6000, 1)) < 3.29


@pytest.mark.parametrize("r, rate", [(1e-3, "C_LB1"), (0.05, "C0")])
def test_type1_count_matches_the_exact_channel_conditional_rate(example_spec, r, rate):
    """With drifting taps each trial's failure probability depends on its
    drawn channel through ``lam``; 6,000 trials at n = 64 and a quarter of
    ``C_LB1`` (of ``C0`` at r = 0.05, where ``C_LB1`` is negative) give
    ``|z| < 4``."""
    spec = ChannelSpec(k=example_spec.k, c=example_spec.c, r=(r,) * (example_spec.k + 1))
    R = getattr(bound_report(spec, dbw_to_watts(-10.0)), rate) / 4.0
    assert abs(_type1_z(spec, 64, R, 6000, 1)) < 4.0


def test_type1_count_matches_the_exact_rate_on_a_longer_channel():
    """The same at k = 4 (taps 1, 0.6, 0.3, -0.2, 0.1, radius 1e-3), where
    the band kernels reach four outputs back: 6,000 trials at n = 64 and a
    quarter of ``C_LB1`` give ``|z| < 4``."""
    spec = ChannelSpec(k=4, c=(1.0, 0.6, 0.3, -0.2, 0.1), r=(1e-3,) * 5)
    R = bound_report(spec, dbw_to_watts(-10.0)).C_LB1 / 4.0
    assert abs(_type1_z(spec, 64, R, 6000, 1)) < 4.0


def test_pass_count_matches_the_exact_codebook_conditional_mean(example_spec):
    """At zero radius the number of words that pass a trial's two tests has
    an exact mean given the sent word (``pass_count_oracle``).  Over 20,000
    trials at n = 64 (8 words), -10 dBW and ``R = C0/4``, seed 1, the
    counts' sum lies within 3.29 sigma (99.9 %) of the sum of those means,
    sigma from the trials' own deviations from their means."""
    spec = ChannelSpec(k=example_spec.k, c=example_spec.c, r=(0.0,) * (example_spec.k + 1))
    n, seed, trials, P = 64, 1, 20000, dbw_to_watts(-10.0)
    cov = build_sigma(spec, n, P)
    params = default_params(thresholds(spec, compute_profile(spec), cov, P))
    book = gen_codebook(cov, bound_report(spec, P).C0 / 4.0, seed)
    assert book.size == 8
    ctx = prepare_context(book, build_joint(cov, build_Hc(spec, n)))
    msgs = channel_sim.message_picks(seed, trials, book.size)
    draws = channel_sim.TrialBlocks(spec, n, ChannelLaw(kind="iid_uniform"), seed)
    Y = draws.draw(0, book.words(msgs))
    counts = np.count_nonzero(_pass_mask(Y, params, ctx), axis=0)
    want = pass_count_oracle(book.codewords, book.q, spec.c, msgs, params.epsilon, params.eta)
    dev = counts - want
    assert abs(dev.sum()) < 3.29 * math.sqrt((dev * dev).sum())


def test_decode_and_counts_match_dense_oracle(example_spec):
    """``decode`` per trial and ``run_error_experiment`` counts equal a
    dense-Xi oracle, at trial counts on both sides of the 64-trial cell
    edges and with one or three threads.  Wide thresholds give all three
    outcomes."""
    n, R, P, seed, total = 16, 0.25, 1.0, 2, 130
    cov = build_sigma(example_spec, n, P, "waterfill_gram")
    params = TypicalParams(epsilon=0.5, eta=0.3)
    book = gen_codebook(cov, R, seed)
    joint = build_joint(cov, build_Hc(example_spec, n))
    ctx = prepare_context(book, joint)
    law = ChannelLaw(kind="iid_uniform")
    msgs, ys = [], []
    for t in range(total):
        msgs.append(int(rng_stream(seed, STREAM_MESSAGE, t).integers(book.size)))
        H = sample_H(example_spec, n, law, seed, t)
        ys.append(transmit(H, book.codewords[msgs[-1]], seed, t))
    x_stat, w_stat = joint_typicality_oracle(
        book.codewords, np.stack(ys), sigma(cov), example_spec.c
    )
    # every candidate clears both thresholds by a margin, so the oracle's
    # own rounding cannot flip a decision
    assert np.abs(np.abs(x_stat - 1.0) - params.epsilon).min() >= 1e-9
    assert np.abs(np.abs(w_stat - 1.0) - params.eta).min() >= 1e-9
    passing = (np.abs(x_stat - 1.0) < params.epsilon)[:, None] & (
        np.abs(w_stat - 1.0) < params.eta
    )
    outcome = []
    for t in range(total):
        hits = np.flatnonzero(passing[:, t])
        if len(hits) == 1:
            want = int(hits[0])
        elif len(hits) == 0:
            want = DecodeFailure(kind="none")
        else:
            want = DecodeFailure(kind="ambiguous", count=len(hits))
        assert decode(ys[t], book, joint, params, ctx) == want
        sent = bool(passing[msgs[t], t])
        outcome.append((not sent, sent and len(hits) > 1, sent and len(hits) == 1))
    counts = np.cumsum(np.array(outcome, dtype=int), axis=0)
    assert counts[-1].min() > 0  # all three outcomes occur
    for trials in (1, 63, 64, 65, 130):
        for threads in (1, 3):
            res = run_error_experiment(
                example_spec, n=n, R=R, P=P, trials=trials, master_seed=seed,
                law=law, params=params, threads=threads,
            )
            assert (res.type1, res.type2, res.success) == tuple(counts[trials - 1])


def _one_cell_counts(spec, n, R, P, seed, trials, law, params):
    """``[type1, type2, success]`` of a loop over the public one-cell path:
    ``rng_stream`` picks, ``transmit(sample_H(...))`` and ``decode``, the
    covariance ``waterfill_gram``'s.  Whether the sent word passes is
    decided without the decoder, from its input statistic and its image
    through the dense ``Hc``."""
    cov = build_sigma(spec, n, P, "waterfill_gram")
    book = gen_codebook(cov, R, seed)
    Hc = build_Hc(spec, n)
    joint = build_joint(cov, Hc)
    ctx = prepare_context(book, joint)
    counts = [0, 0, 0]
    for t in range(trials):
        msg = int(rng_stream(seed, STREAM_MESSAGE, t).integers(book.size))
        x = book.codewords[msg]
        y = transmit(sample_H(spec, n, law, seed, t), x, seed, t)
        r = _dense_band(Hc) @ x - y
        q = book.q[msg]
        if not (abs(q / n - 1.0) < params.epsilon and abs((q + r @ r) / (n + joint.hc.m) - 1.0) < params.eta):
            counts[0] += 1
        else:
            counts[2 if decode(y, book, joint, params, ctx) == msg else 1] += 1
    return counts


@pytest.mark.parametrize(
    "law",
    [
        ChannelLaw(kind="iid_uniform"),
        ChannelLaw(kind="block_hold", block_len=3),
        ChannelLaw(kind="constant", offset=(0.5, -1.0, 0.25)),
    ],
    ids=["iid", "hold3", "constant"],
)
def test_experiment_counts_match_one_cell_loop(example_spec, law):
    """``run_error_experiment`` counts, at 101 trials (not a multiple of
    the 64-trial cell) and one or three threads, equal a loop over the
    public one-cell path (``_one_cell_counts``).  ``n + k = 17`` is not a
    multiple of the hold length."""
    n, R, P, seed, trials = 15, 0.25, 1.0, 3, 101
    params = TypicalParams(epsilon=0.5, eta=0.3)
    counts = _one_cell_counts(example_spec, n, R, P, seed, trials, law, params)
    assert min(counts) > 0 or law.kind == "constant"
    for threads in (1, 3):
        res = run_error_experiment(
            example_spec, n=n, R=R, P=P, trials=trials, master_seed=seed,
            law=law, params=params, threads=threads,
        )
        assert [res.type1, res.type2, res.success] == counts


@pytest.mark.parametrize("block, epsilon", [(4, 0.15), (512, 0.15), (4, 0.01)])
def test_settled_trials_skip_the_decoder(example_spec, monkeypatch, block, epsilon):
    """A trial whose sent word fails the input test is a type-1 error
    before its channel: the counts of 101 trials still equal the one-cell
    loop's, at one and three threads, while the pass masks score only the
    other, live, trials, a block without one is not scored, and no word
    that fails the input test is built.  At ``epsilon`` 0.15 about a
    quarter of the trials are live, and with 4 trials a block seven blocks
    hold none; at 0.01 no word passes, so nothing is scored or built."""
    n, R, P, seed, trials = 15, 0.25, 1.0, 3, 101
    law = ChannelLaw(kind="iid_uniform")
    params = TypicalParams(epsilon=epsilon, eta=0.3)
    counts = _one_cell_counts(example_spec, n, R, P, seed, trials, law, params)
    book = gen_codebook(build_sigma(example_spec, n, P, "waterfill_gram"), R, seed)
    msgs = message_picks(seed, trials, book.size)
    live = (np.abs(book.q / n - 1.0) < epsilon)[msgs]
    per_block = [int(live[lo:lo + block].sum()) for lo in range(0, trials, block)]
    want = sorted(c for c in per_block if c)
    assert per_block.count(0) == {(4, 0.15): 7, (512, 0.15): 0, (4, 0.01): 26}[block, epsilon]
    scored, built = [], []
    words = Codebook.words
    monkeypatch.setattr(Codebook, "words", lambda self, rows: built.extend(rows) or words(self, rows))
    monkeypatch.setattr(decoder_mod, "trial_block", lambda size, n: block)

    def recording(Y, params, ctx, x_ok):
        scored.append(len(Y))
        return _pass_mask(Y, params, ctx, x_ok)

    monkeypatch.setattr(decoder_mod, "_pass_mask", recording)
    for threads in (1, 3):
        scored.clear()
        built.clear()
        res = run_error_experiment(
            example_spec, n=n, R=R, P=P, trials=trials, master_seed=seed,
            law=law, params=params, threads=threads,
        )
        assert [res.type1, res.type2, res.success] == counts
        assert sorted(scored) == want
        assert set(msgs[live].tolist()) <= set(built)
        assert (np.abs(book.q[built] / n - 1.0) < epsilon).all()


@pytest.mark.parametrize("p_dbw", [-10.0, 130.0, 400.0])
def test_decode_matches_exact_rational_oracle(example_spec, monkeypatch, p_dbw):
    """At n = 4, ``decode`` and the pass mask give the decisions of the
    joint test evaluated exactly, in rationals, on the dense Xi, for the
    exact codewords ``U s + x_f`` of the coefficients and the built floors.  At 130 and 400 dBW the
    dense Xi is so ill-conditioned that a floating-point log-determinant of
    it misses ``log det Sigma``; the decoder never forms Xi and its
    decisions stay exact.

    The codebook's last word is replaced by one whose input statistic is
    1, and four received vectors put its joint deviation 1e-7 (relative)
    inside and outside ``eta`` on either side of 1 where possible; the rest
    come through a drawn and through the centre channel.  Pairs whose exact
    joint deviation lies within the guard band's float64 part (its float32
    terms zeroed: a bound on the direct form's error too) of ``eta`` are
    not compared, except the crafted ones, which lie outside it unless the
    floor's term widens it (at -10 dBW); at 400 dBW a float32 score could
    overflow, so the full band takes every pair to the direct form.  The
    input test has no guard band, and its rounding error here stays below
    1e-9."""
    n, seed = 4, 7
    P = dbw_to_watts(p_dbw)
    cov = build_sigma(example_spec, n, P, "waterfill_gram")
    params = default_params(thresholds(example_spec, compute_profile(example_spec), cov, P))
    drawn = gen_codebook(cov, 1.0, seed)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    g *= np.sqrt(n) / np.linalg.norm(g)
    w = cov.d.size
    S = np.vstack([drawn.S[:-1], np.sqrt(cov.d) * g[:w]]).astype(np.float32)
    q_floor = np.append(drawn.q_floor[:-1], g[w:] @ g[w:])
    book = Codebook(S=S, cov=cov, q_floor=q_floor, seed=seed)
    Hc = build_Hc(example_spec, n)
    joint = build_joint(cov, Hc)
    ctx = prepare_context(book, joint)
    m = joint.hc.m
    centre = ChannelLaw(kind="constant", offset=(0.0, 0.0, 0.0))
    ys = [
        transmit(sample_H(example_spec, n, law, seed, t), book.codewords[t], seed, t)
        for t in range(6)
        for law in (ChannelLaw(kind="iid_uniform"), centre)
    ]
    u = rng.standard_normal(m)
    u /= np.linalg.norm(u)
    crafted = {}
    for side in (1.0, -1.0):
        for rel in (-1e-7, 1e-7):
            s2 = (n + m) * (1.0 + side * params.eta * (1.0 + rel)) - book.q[-1]
            if s2 > 0.0:
                crafted[len(ys)] = rel < 0.0
                ys.append(_dense_band(Hc) @ book.codewords[-1] + np.sqrt(s2) * u)
    Y = np.stack(ys)
    fr = np.vectorize(Fraction, otypes=[object])
    U = assemble(cov.halves)
    exact_words = fr(book.S.astype(float)) @ fr(U).T + fr(floors(book, np.arange(book.size)))
    x_stat, w_stat = exact_joint_statistics(exact_words, Y, cov.d, U, example_spec.c, POWER_FLOOR)
    eps, eta = Fraction(params.epsilon), Fraction(params.eta)
    x_dev = [abs(x - 1) for x in x_stat]
    w_dev = [[abs(w - 1) for w in row] for row in w_stat]
    exact = np.array([[x_dev[i] < eps and w < eta for w in w_dev[i]] for i in range(book.size)])
    with monkeypatch.context() as mp:
        mp.setattr(decoder_mod, "_U32", 0.0)
        mp.setattr(decoder_mod, "_F32_RANGE", np.inf)
        band = _guard_band(ctx, np.einsum("ij,ij->i", Y, Y), _adjoint_sq(ctx, Y), params.eta)
    clear = np.array([
        [abs(x_dev[i] - eps) > 1e-9 and abs(w - eta) > band[t] for t, w in enumerate(w_dev[i])]
        for i in range(book.size)
    ])
    assert len(crafted) >= 2
    for t, inside in crafted.items():
        # At -10 dBW the floor's term widens the band past them.
        assert clear[-1, t] == (cov.floor_dim == 0) and exact[-1, t] == inside
    assert clear.mean() >= 0.9
    mask = _pass_mask(Y, params, ctx)
    assert np.array_equal(mask[clear], exact[clear])
    assert all(mask[-1, t] == inside for t, inside in crafted.items())
    for t, y in enumerate(ys):
        if not clear[:, t].all():
            continue
        hits = np.flatnonzero(exact[:, t])
        if len(hits) == 1:
            want = int(hits[0])
        elif len(hits) == 0:
            want = DecodeFailure(kind="none")
        else:
            want = DecodeFailure(kind="ambiguous", count=len(hits))
        assert decode(y, book, joint, params, ctx) == want
