import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from isicap import (
    BandedChannelMatrix,
    ChannelSpec,
    build_Hc,
    compute_profile,
    gram_eigenvalues,
    gram_eigh,
)
from isicap import spectrum
from isicap.channel_sim import build_sigma
from isicap.errors import SpectrumSingular
from isicap.spectrum import (
    DEFAULT_GRID,
    FOLD_ULPS,
    MAX_GRID,
    MIN_GRID,
    SIGN_TIE_REL,
    HalfBasis,
    _f_sq,
    _half_bands,
    _tap_autocorr,
    centre_extrema,
    checked_extrema,
    f_sq_table,
    quadrature_grid,
)

from bases import assemble, eigenbasis, random_halves, standard_halves
from oracles import (
    _dense_band,
    dense_gram,
    dense_sym_band,
    f_sq_direct,
    gram_eigenvalue_oracle,
    nan_corner_taps,
    spectrum_extrema_oracle,
)
from reference_values import ALPHA_EXAMPLE, BETA_EXAMPLE, J_EXAMPLE

PROFILE_ABS_TOL = 1e-10
GRAM_MATCH_TOL = 1e-9
EXTREMA_REL_TOL = 1e-12


def _delta(c) -> float:
    """The stated bound ``centre_extrema`` widens each extremum by:
    ``(2 pi + 1)(k + 1) eps sum |c_l|``."""
    return (2.0 * math.pi + 1.0) * len(c) * float(np.finfo(float).eps) * float(np.abs(c).sum())


def assert_extrema_contained(c, alpha_true=None, beta_true=None):
    """``centre_extrema``'s ``(alpha, beta)`` hold the true extrema of
    ``|f|`` on their safe sides and within twice the stated bound:
    ``alpha <= alpha_true <= alpha + 2 delta`` and ``beta - 2 delta <=
    beta_true <= beta``, compared exactly in mpmath.  The true extrema are
    ``spectrum_extrema_oracle``'s where not given."""
    c = np.asarray(c, dtype=float)
    alpha, beta = centre_extrema(c)
    if alpha_true is None:
        alpha_true, beta_true = spectrum_extrema_oracle(c)
    two_delta = 2 * mpmath.mpf(_delta(c))
    assert alpha <= alpha_true <= alpha + two_delta, (list(c), alpha, alpha_true)
    assert beta - two_delta <= beta_true <= beta, (list(c), beta, beta_true)


def extrema_channels(seed: int, count: int, k_max: int):
    """``count`` centre taps of memory 1 to ``k_max``: every other one
    uniform in [-1, 1], the rest with a zero of the tap polynomial ``10^-u``
    inside the unit circle, ``u`` uniform in [2, 6], so that alpha / beta
    reaches 1e-6 and below."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(1, k_max + 1))
        if i % 2:
            yield _near_singular_taps(rng, k, 10.0 ** -rng.uniform(2.0, 6.0))
        else:
            yield rng.uniform(-1.0, 1.0, k + 1)


def channel_specs(max_k=4):
    """Random channels whose centre taps are not all tiny."""

    def build(k, draw_c, draw_r):
        return ChannelSpec(k=k, c=tuple(draw_c), r=tuple(draw_r))

    return st.integers(min_value=0, max_value=max_k).flatmap(
        lambda k: st.builds(
            build,
            st.just(k),
            st.lists(
                st.floats(-2.0, 2.0), min_size=k + 1, max_size=k + 1
            ).filter(lambda c: max(abs(v) for v in c) >= 0.1),
            st.lists(st.floats(0.0, 1.0), min_size=k + 1, max_size=k + 1),
        )
    )


def test_example_profile_constants(example_spec, example_profile):
    assert example_profile.alpha == pytest.approx(ALPHA_EXAMPLE, abs=PROFILE_ABS_TOL)
    # |f(0)| = 2 is exact in floats, so beta is 2 plus the stated bound
    assert example_profile.beta == BETA_EXAMPLE + _delta(example_spec.c)
    assert example_profile.J == pytest.approx(J_EXAMPLE, abs=PROFILE_ABS_TOL)
    assert example_spec.norm_r_sq == pytest.approx(3e-6)


def test_flat_channel_profile():
    prof = compute_profile(ChannelSpec(k=0, c=(1.0,), r=(0.5,)))
    assert prof.alpha == pytest.approx(1.0, abs=1e-14)
    assert prof.beta == pytest.approx(1.0, abs=1e-14)
    assert prof.J == pytest.approx(1.0, abs=1e-14)


def test_profile_is_cached(example_spec):
    """One cache, ``quadrature_grid`` on ``(c, grid_size)``, answers every
    call: ``compute_profile(spec, g)`` is its record of ``(spec.c, g)``,
    and a repeat, the default grid given explicitly and another radius each
    hit it, so radii alone compute nothing."""
    for g in (1024, DEFAULT_GRID):
        first = compute_profile(example_spec, g)
        assert first is quadrature_grid(example_spec.c, g)
        assert (first.c, first.grid_size) == (example_spec.c, g)
    before = spectrum.quadrature_grid.cache_info()
    again = [
        compute_profile(example_spec),
        compute_profile(example_spec, DEFAULT_GRID),
        compute_profile(ChannelSpec(k=2, c=example_spec.c, r=(0.2,) * 3)),
    ]
    after = spectrum.quadrature_grid.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 3)
    assert all(record is first for record in again)


def test_singular_spectrum_raises():
    # 1 - z vanishes at zero frequency
    with pytest.raises(SpectrumSingular):
        compute_profile(ChannelSpec(k=1, c=(1.0, -1.0), r=(0.0, 0.0)))


@pytest.mark.parametrize("c, what", [
    ((1e-155, 5e-156), "1/alpha^2"),
    ((1e200, 5e199), "beta^2"),
    ((1e160, 5e159, 5e159), "beta^2"),
])
def test_spectrum_out_of_float_range_is_refused(c, what):
    """Taps so small that ``1/|f|^2`` overflows, or so large that ``|f|^2``
    does, are refused naming the scale and the quantity, with no numpy
    warning; at 1e-150 the spectrum is in range and scales as ``c``
    does: ``alpha = 0.5e-150`` and ``J = 4/3 * 1e300`` for ``1 + z/2``."""
    spec = ChannelSpec(k=len(c) - 1, c=c, r=(0.0,) * len(c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumSingular, match=re.escape(f"max |c| = {c[0]:.3e}: {what} is not finite")):
            compute_profile(spec)
        prof = compute_profile(ChannelSpec(k=1, c=(1e-150, 5e-151), r=(0.0, 0.0)))
    assert prof.alpha == pytest.approx(0.5e-150, rel=1e-14)
    assert prof.beta == pytest.approx(1.5e-150, rel=1e-14)
    assert prof.J == pytest.approx(4.0 / 3.0 * 1e300, rel=1e-12)


def test_profile_of_taps_whose_derivative_terms_overflow():
    """At ``c = (7e153, 9.1e151, 0, ..., 0, 3.5e153)`` (k = 8) ``|f|^2``
    is in range but the raw derivative term ``8 t_8`` is not.  The taps are
    scaled by a power of two before the roots, so alpha is exactly ``2**e``
    times the alpha of ``c 2**-e``, below the FFT table's minimum, and the
    oracle's minimum; it was the table's, 2.5e-7 above that."""
    c = (7e153, 9.1e151, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.5e153)
    spec = ChannelSpec(k=8, c=c, r=(0.0,) * 9)
    e = math.frexp(c[0])[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = compute_profile(spec)
    scaled = compute_profile(ChannelSpec(k=8, c=tuple(math.ldexp(v, -e) for v in c), r=(0.0,) * 9))
    assert prof.alpha == math.ldexp(scaled.alpha, e)
    assert prof.alpha < math.sqrt(f_sq_table(spec.c).min())
    assert prof.alpha == pytest.approx(float(spectrum_extrema_oracle(c)[0]), rel=EXTREMA_REL_TOL)


def test_profile_degenerate_taps():
    """Closed forms where the derivative polynomial loses its end terms or
    vanishes (then omega = 0 alone gives the extrema): alpha and beta hold
    them within the stated bound, on the safe side."""
    cases = [
        ((0.0, 1.0), 1.0, 1.0, 1.0),  # one non-zero tap: no roots at all
        ((0.0, 0.0, -3.0), 3.0, 3.0, 1.0 / 9.0),
        ((1.0, 0.0, 0.0), 1.0, 1.0, 1.0),  # zero trailing taps
        ((1.0, 0.5, 0.0), 0.5, 1.5, 4.0 / 3.0),  # |1 + z/2|, J = 1/(1 - 1/4)
        ((0.0, 1.0, 0.5), 0.5, 1.5, 4.0 / 3.0),  # zero leading tap
        ((1.0, 0.5, 5e-324), 0.5, 1.5, 4.0 / 3.0),  # subnormal end tap
    ]
    for c, alpha, beta, J in cases:
        k = len(c) - 1
        prof = compute_profile(ChannelSpec(k=k, c=c, r=(0.0,) * (k + 1)))
        assert (prof.alpha, prof.beta) == centre_extrema(c)
        assert_extrema_contained(c, alpha, beta)
        assert prof.J == pytest.approx(J, rel=1e-12)
    # |0.5 + 0.5 z^2|^2 = (1 + cos 2w)/2 vanishes at w = pi/2
    with pytest.raises(SpectrumSingular):
        compute_profile(ChannelSpec(k=2, c=(0.5, 0.0, 0.5), r=(0.0, 0.0, 0.0)))


def _near_singular_taps(rng, k, delta):
    """Taps with a zero of the tap polynomial at distance ``delta`` inside the
    unit circle (a real zero for k = 1, a conjugate pair otherwise)."""
    if k == 1:
        return rng.uniform(0.5, 2.0) * np.array([1.0, rng.choice([-1.0, 1.0]) * (1.0 - delta)])
    theta, rho = rng.uniform(0.3, 2.8), 1.0 - delta
    base = np.concatenate([[1.0], rng.uniform(-0.4, 0.4, k - 2)])  # no zero near |z| = 1
    return np.convolve(base, [1.0, -2.0 * rho * math.cos(theta), rho * rho])


@pytest.mark.parametrize("c", [
    *[(1.0, a) for a in (-0.99, -0.999, -0.9999, -0.99999, -0.999999)],
    *[(a, 1.0) for a in (-0.99, -0.999, -0.9999, -0.99999, -0.999999)],
    (1.0,), (-2.5,),
], ids=lambda c: "c=" + "_".join(map(str, c)))
def test_extrema_contain_the_closed_forms(c):
    """``|1 + a z|`` (taps in either order) ranges over ``[1 - |a|, 1 +
    |a|]``, down to alpha / beta = 5e-7, and a single tap's over ``|c_0|``
    alone: both exact in mpmath."""
    a = mpmath.mpf(c[-1] if len(c) == 1 else c[0] * c[1])
    lo, hi = (abs(a), abs(a)) if len(c) == 1 else (1 - abs(a), 1 + abs(a))
    assert_extrema_contained(c, lo, hi)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_profile_matches_extrema_oracle(k):
    """alpha and beta hold the 40-digit oracle's extrema within the stated
    bound, on the safe side: 10 channels of memory up to 16 per case, half
    of them near-singular (alpha / beta down to 1e-6 and below); the
    profile reads them."""
    for c in extrema_channels(seed=100 + k, count=10, k_max=16):
        assert_extrema_contained(c)
        prof = compute_profile(ChannelSpec(k=len(c) - 1, c=tuple(c), r=(0.0,) * len(c)))
        assert (prof.alpha, prof.beta) == centre_extrema(c)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_profile_near_singular_matches_oracle(k):
    """alpha/beta near 1e-3, where one double-precision evaluation of |f|
    is off by 1e-14 to 1e-13 of alpha (the terms are O(1), the sum
    O(alpha)): alpha and beta still hold the oracle's extrema within the
    stated bound, on the safe side."""
    rng = np.random.default_rng(200 + k)
    for _ in range(3):
        c = _near_singular_taps(rng, k, 2e-3)
        prof = compute_profile(ChannelSpec(k=k, c=tuple(c), r=(0.0,) * (k + 1)))
        assert 1e-4 <= prof.alpha / prof.beta <= 1e-2
        assert (prof.alpha, prof.beta) == centre_extrema(c)
        assert_extrema_contained(c)


def test_profile_shared_by_centre_taps(example_spec):
    """Channels that differ only in their radii have equal profiles: the
    profile is a function of the centre taps and the grid alone."""
    wide = ChannelSpec(k=example_spec.k, c=example_spec.c, r=(0.3, 0.2, 0.1))
    assert compute_profile(example_spec) == compute_profile(wide)
    assert quadrature_grid(example_spec.c, DEFAULT_GRID) is quadrature_grid(wide.c, DEFAULT_GRID)


def test_grid_size_bounds():
    # even sizes from MIN_GRID to MAX_GRID; past it, refused before the FFT
    spec = ChannelSpec(k=1, c=(1.0, 0.5), r=(0.0, 0.0))
    assert f_sq_table(spec.c, MAX_GRID).shape == (MAX_GRID + 1,)
    for bad in (MIN_GRID - 2, MIN_GRID + 1, MAX_GRID + 2, 2**40):
        with pytest.raises(ValueError, match="grid_size"):
            f_sq_table(spec.c, bad)


def test_table_folds_taps_longer_than_grid():
    rng = np.random.default_rng(4)
    k = 300
    spec = ChannelSpec(k=k, c=tuple(rng.uniform(-1.0, 1.0, k + 1)), r=(0.0,) * (k + 1))
    omega = np.linspace(0.0, 2.0 * np.pi, 257)
    direct = f_sq_direct(spec.c, omega)
    assert np.abs(f_sq_table(spec.c, 256) - direct).max() <= 1e-10 * direct.max()


def test_grid_size_validation(example_spec):
    with pytest.raises(ValueError):
        f_sq_table(example_spec.c, 100)
    with pytest.raises(ValueError):
        f_sq_table(example_spec.c, 257)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(k=-1, c=(), r=())
    with pytest.raises(ValueError):
        ChannelSpec(k=1, c=(1.0,), r=(0.0, 0.0))
    with pytest.raises(ValueError):
        ChannelSpec(k=0, c=(1.0,), r=(-0.1,))
    with pytest.raises(ValueError):
        ChannelSpec(k=1, c=(0.0, 0.0), r=(0.0, 0.0))


def test_channel_spec_json_roundtrip(example_spec):
    obj = {"k": example_spec.k, "c": list(example_spec.c), "r": list(example_spec.r)}
    assert ChannelSpec.from_json(obj) == example_spec


def test_channel_spec_memory_is_an_integer():
    """A fractional, boolean or non-numeric ``k`` is refused on the API
    path too; integral values are stored as ``int``."""
    taps = {"c": [1.0, 0.5, 0.5], "r": [0.0, 0.0, 0.0]}
    for k in (2, 2.0, np.int64(2), np.float64(2.0)):
        spec = ChannelSpec.from_json({"k": k, **taps})
        assert type(spec.k) is int and spec.k == 2
    for k in (2.7, True, np.bool_(True), "2", None, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="integer"):
            ChannelSpec.from_json({"k": k, **taps})
    with pytest.raises(ValueError, match="integer"):
        ChannelSpec(k=1.5, c=(1.0, 0.5), r=(0.0, 0.0))


def test_eval_f_sq_scalar_matches_vector(example_spec):
    """The ``|f|^2`` kernel the extrema are evaluated with gives the same
    value at a scalar angle as within a vector of angles."""
    c = np.asarray(example_spec.c)
    omegas = np.linspace(-1.0, 7.0, 17)
    vec = _f_sq(c, omegas)
    for w, expected in zip(omegas, vec):
        assert float(_f_sq(c, float(w))) == pytest.approx(expected, rel=1e-14)


def test_eval_f_sq_closed_form(example_spec):
    # |1 + 0.5 z + 0.5 z^2|^2 on the circle reduces to a cosine polynomial
    c = np.asarray(example_spec.c)
    for w in (0.0, 0.3, 1.0, math.pi, 5.0):
        u = math.cos(w)
        expected = 2.0 * u * u + 1.5 * u + 0.5
        assert float(_f_sq(c, w)) == pytest.approx(expected, rel=1e-12)


def test_simpson_mean_constant(example_spec):
    assert quadrature_grid(example_spec.c, 512).table.W[-1] == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(channel_specs())
def test_profile_orders_extremes(spec):
    try:
        prof = compute_profile(spec)
    except SpectrumSingular:
        return
    assert 0.0 < prof.alpha <= prof.beta
    # J lies between the extreme values of the inverse spectrum
    assert 1.0 / prof.beta ** 2 - 1e-9 <= prof.J <= 1.0 / prof.alpha ** 2 + 1e-9


def test_build_Hc_structure(example_spec):
    n = 9
    H = build_Hc(example_spec, n)
    dense = _dense_band(H)
    assert dense.shape == (n + example_spec.k, n)
    for i in range(H.m):
        for j in range(H.n):
            lag = i - j
            expected = example_spec.c[lag] if 0 <= lag <= example_spec.k else 0.0
            assert dense[i, j] == expected


def test_banded_from_taps_validates_shape():
    """Taps are ``(k + 1, n + k)``, held as a read-only copy; ``n >= 1`` and
    ``k >= 0`` are integers (an integral float is taken as its int), and
    non-finite taps are kept."""
    with pytest.raises(ValueError, match="taps shape"):
        BandedChannelMatrix(n=4, k=1, taps=np.zeros((5, 2)))  # output-major
    t = np.ones((2, 5))
    H = BandedChannelMatrix(n=4, k=1, taps=t)
    assert H.taps is not t and t.flags.writeable and not H.taps.flags.writeable
    t[0, 0] = 7.0
    assert H.taps[0, 0] == 1.0
    for n, k, shape, what in ((-1, 1, (2, 0), "n >= 1"), (0, 1, (2, 1), "n >= 1"), (4, -1, (0, 3), "k >= 0"),
                              (4.5, 1, (2, 5), "n must be an integer"), (4, True, (2, 5), "k must be an integer"),
                              ("4", 1, (2, 5), "n must be an integer")):
        with pytest.raises(ValueError, match=what):
            BandedChannelMatrix(n=n, k=k, taps=np.ones(shape))
    H = BandedChannelMatrix(n=np.int64(4), k=1.0, taps=np.full((2, 5), np.nan))
    assert (H.n, H.k) == (4, 1) and type(H.n) is int and np.isnan(H.taps).all()
    spec = ChannelSpec(k=1, c=(1.0, 0.5), r=(0.0, 0.0))
    assert build_Hc(spec, 3.0).n == 3
    for n in (3.5, "3"):
        with pytest.raises(ValueError, match="n must be an integer"):
            build_Hc(spec, n)


@pytest.mark.parametrize("k", range(5))
def test_centre_adjoint_equals_the_band_adjoint_bit_for_bit(k):
    """The centre matrix's ``adjoint`` (scalar passes over the flat rows),
    with taps of mixed sign, equals bit for bit that of the same matrix with
    NaN corner taps, which are never read but make its outputs' taps differ
    (the per-row band form), on blocks of 0, 1 and 37 rows and one vector,
    at n = 1, k + 1 and 257; a block's result is ``n`` columns of rows of
    ``m``."""
    rng = np.random.default_rng(70 + k)
    c = rng.uniform(-1.0, 1.0, k + 1)
    c[0] = -abs(c[0])
    for n in (1, k + 1, 257):
        taps = np.repeat(c[:, None], n + k, axis=1)
        H = BandedChannelMatrix(n=n, k=k, taps=taps)
        for d in range(1, k + 1):
            taps[d, :d] = np.nan
        banded = BandedChannelMatrix(n=n, k=k, taps=taps)
        assert H.same_taps and (k == 0 or not banded.same_taps)
        for shape in ((0, n + k), (1, n + k), (37, n + k), (n + k,)):
            Y = rng.standard_normal(shape)
            got = H.adjoint(Y)
            assert got.shape == shape[:-1] + (n,)
            assert len(shape) == 1 or shape[0] < 2 or got.strides[0] == 8 * (n + k)
            assert got.tobytes() == banded.adjoint(Y).tobytes(), (n, shape)


@pytest.mark.parametrize("k", range(5))
def test_band_products_match_dense_oracle(k):
    """With every corner tap NaN, for ``n = k + 1, k + 2, 64, 257``, each
    product of a band channel matrix against its entrywise dense matrix
    ``D`` (``oracles._dense_band``): ``apply`` (with and without ``out``)
    and ``adjoint`` within ``2 (k + 2) eps`` times the sum of their terms'
    magnitudes (both sides add at most ``k + 1`` non-zero products and
    ``out``'s entry, so each is within ``gamma_(k+2)`` of it), ``scaled``
    bit for bit ``D diag(w)`` with its corner taps left NaN, and ``gram``
    and ``output_cov`` ``D'D`` and ``I + D D'`` to 1e-14 (sums of at most
    ``k + 1`` products below 1)."""
    rng = np.random.default_rng(40 + k)
    tol = 2 * (k + 2) * np.finfo(float).eps
    for n in (k + 1, k + 2, 64, 257):
        M = BandedChannelMatrix(n=n, k=k, taps=nan_corner_taps(rng, n, k))
        D = _dense_band(M)
        X, Y, out = rng.standard_normal((3, n)), rng.standard_normal((3, n + k)), rng.standard_normal((3, n + k))
        for got, want, scale in (
            (M.apply(X), X @ D.T, np.abs(X) @ np.abs(D.T)),
            (M.apply(X[0]), D @ X[0], np.abs(D) @ np.abs(X[0])),
            (M.apply(X, out.copy()), out + X @ D.T, np.abs(out) + np.abs(X) @ np.abs(D.T)),
            (M.adjoint(Y), Y @ D, np.abs(Y) @ np.abs(D)),
        ):
            assert got.shape == want.shape and (np.abs(got - want) <= tol * scale).all(), n
        target = out.copy()
        assert M.apply(X, target) is target
        w = 10.0 ** rng.uniform(-2.0, 1.0, n)
        W = M.scaled(w)
        assert _dense_band(W).tobytes() == (D * w).tobytes()
        corner = np.isnan(M.taps)
        assert np.isnan(W.taps[corner]).all() and not np.isnan(W.taps[~corner]).any()
        np.testing.assert_allclose(dense_sym_band(M.gram()), D.T @ D, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(dense_sym_band(M.output_cov()), np.eye(n + k) + D @ D.T, rtol=0.0, atol=1e-14)


def test_gram_matches_product(example_spec):
    """The oracle Gram and the eigenpairs of ``gram_eigh`` both give
    ``Hc' Hc``, at an odd and an even order."""
    for n in (17, 18):
        Hc = _dense_band(build_Hc(example_spec, n))
        assert np.abs(dense_gram(example_spec.c, n) - Hc.T @ Hc).max() <= 1e-12
        lam, halves = eigenbasis(example_spec, n)
        U = assemble(halves)
        assert np.abs((U * lam) @ U.T - Hc.T @ Hc).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(channel_specs(max_k=3), st.integers(min_value=1, max_value=40))
def test_gram_eigenvalues_match_dense(spec, n):
    lam = gram_eigenvalues(spec, n)
    dense = np.linalg.eigvalsh(dense_gram(spec.c, n))
    assert np.all(np.diff(lam) >= -1e-12)
    assert np.abs(lam - dense).max() <= GRAM_MATCH_TOL * max(1.0, dense[-1])


@settings(max_examples=25, deadline=None)
@given(channel_specs(max_k=3), st.integers(min_value=2, max_value=48))
def test_gram_eigenvalues_inside_spectrum_range(spec, n):
    try:
        prof = compute_profile(spec)
    except SpectrumSingular:
        return
    lam = gram_eigenvalues(spec, n)
    tol = 1e-8 * prof.beta ** 2
    assert lam[0] >= prof.alpha ** 2 - tol
    assert lam[-1] <= prof.beta ** 2 + tol


# Backward-error multiple: residual, orthogonality defect and eigenvalue
# error of ``gram_eigh`` stay within GRAM_EIGH_ULPS * n * eps * ||G||_1.
GRAM_EIGH_ULPS = 4.0
_GRAM_EIGH_TAPS = np.random.default_rng(11).uniform(-1.0, 1.0, (5, 5))
_GRAM_EIGH_CASES = [(n, k) for k in range(1, 5) for n in range(1, 41)] + [
    (1023, 3), (1024, 4), (2048, 2)
]


def _gram_eigh_spec(k):
    return ChannelSpec(k=k, c=tuple(_GRAM_EIGH_TAPS[k, : k + 1]), r=(0.0,) * (k + 1))


def _mirror_sign(U):
    """Per column: +1 when ``U[::-1, j] == U[:, j]`` bitwise, -1 when it
    equals ``-U[:, j]`` bitwise, 0 otherwise."""
    flipped = U[::-1]
    return np.where((flipped == U).all(axis=0), 1, np.where((flipped == -U).all(axis=0), -1, 0))


@pytest.mark.parametrize("n,k", _GRAM_EIGH_CASES)
def test_gram_eigh_matches_dense_gram(n, k):
    """Every order 1..40 (odd, even and n <= k) at k = 1..4, and three large
    orders, on the basis ``U`` assembled from the half bases' documented
    columns: ``G U = U Lambda`` and ``U' U = I`` to ``4 n eps ||G||``, the
    eigenvalues in the halves' order (ascending within each half) and,
    sorted, within that of ``eigvalsh`` on the oracle Gram, the first ``n -
    n // 2`` columns exactly mirror-symmetric and the rest exactly
    mirror-skew, and the half vector of each column has its
    largest-magnitude entry positive, the first one on ties.  At k = 1 the
    sine eigenvectors have exactly tied entries of opposite sign."""
    spec = _gram_eigh_spec(k)
    G = dense_gram(spec.c, n)
    lam, halves = eigenbasis(spec, n)
    U = assemble(halves)
    h = n // 2
    tol = GRAM_EIGH_ULPS * n * np.finfo(float).eps * np.abs(G).sum(axis=0).max()
    assert U.shape == (n, n) and lam.shape == (n,)
    assert np.all(np.diff(lam[: n - h]) >= 0.0) and np.all(np.diff(lam[n - h:]) >= 0.0)
    assert np.abs(G @ U - U * lam).max() <= tol
    assert np.abs(U.T @ U - np.eye(n)).max() <= GRAM_EIGH_ULPS * n * np.finfo(float).eps
    assert np.abs(np.sort(lam) - np.linalg.eigvalsh(G)).max() <= tol
    mirror = _mirror_sign(U)
    assert np.all(mirror[: n - h] == 1) and np.all(mirror[n - h:] == -1)
    half = U[: n - n // 2].copy()
    half[: n // 2] *= math.sqrt(2.0)
    mag = np.abs(half)
    top = np.argmax(mag >= (1.0 - SIGN_TIE_REL) * mag.max(axis=0), axis=0)
    assert np.all(half[top, np.arange(n)] > 0.0)


@pytest.mark.parametrize("n", [64, 1024, 1025])
def test_gram_eigenvalues_agree_with_gram_eigh(n):
    """``gram_eigenvalues`` is ascending and equals the sorted eigenvalues
    of ``gram_eigh`` bit for bit: one eigensolve, at an even and an odd
    large order, on the default and a k = 4 channel."""
    for spec in (ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(1e-3,) * 3), _gram_eigh_spec(4)):
        lam = gram_eigenvalues(spec, n)
        assert np.all(np.diff(lam) >= 0.0)
        assert np.array_equal(lam, np.sort(gram_eigh(spec, n)[0]))


def _root_channels():
    """Random channels of memory 0 to 4, then ones with a zero first tap,
    a zero last tap, and both (one non-zero tap: a Gram matrix ``t_0 I``)."""
    rng = np.random.default_rng(37)
    taps = [tuple(rng.uniform(-1.0, 1.0, k + 1)) for k in range(5)]
    taps += [(0.0,) + taps[2][1:], taps[3][:-1] + (0.0,), (0.0, 0.7, 0.0)]
    return [ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c)) for c in taps]


ROOT_CHANNELS = _root_channels()
ROOT_ORTH_TOL = 1e-8


def root_basis_gate(spec, n, p_dbws=(-30.0, -10.0, 10.0)):
    """The covariance bases ``build_sigma`` keeps at each power in
    ``p_dbws`` against the dense Gram ``G`` and the ``eig_banded`` oracle
    on its whole band:

    - the eigenvalues are ``eigvals_banded``'s on the two half bands (up
      to the last non-zero lag), bit for bit, and within ``4 n eps
      ||G||_1`` of the oracle's;
    - each kept column ``u`` of the assembled ``U``, with its gain ``g``
      from ``gram_fit``, has ``||G u - g u||`` within ``gram_fit``'s bound
      and no entry of ``G u - g u`` past ``4 n eps ||G||_1``;
    - no entry of ``U'U - I`` exceeds 1e-8;
    - the sorted gains are the oracle's largest eigenvalues, one per
      kept column, to ``4 n eps ||G||_1``.

    Returns the number of kept columns at each power."""
    eps = np.finfo(float).eps
    G = dense_gram(spec.c, n)
    tol = GRAM_EIGH_ULPS * n * eps * np.abs(G).sum(axis=0).max()
    t = np.trim_zeros(_tap_autocorr(spec.c), "b")
    halves = [scipy.linalg.eigvals_banded(band, lower=False) for band in _half_bands(t, n)]
    lam = gram_eigenvalues(spec, n)
    assert np.array_equal(lam, np.sort(np.concatenate(halves)))
    lam_o = gram_eigenvalue_oracle(spec.c, n)
    assert np.abs(lam - lam_o).max() <= tol
    kept = []
    for p_dbw in p_dbws:
        cov = build_sigma(spec, n, 10.0 ** (p_dbw / 10.0))
        U = assemble(cov.halves)
        gain, bound = cov.halves.gram_fit(spec.c)
        R = G @ U - U * gain
        assert np.all(np.linalg.norm(R, axis=0) <= bound), p_dbw
        assert np.abs(R).max(initial=0.0) <= tol, p_dbw
        assert np.abs(U.T @ U - np.eye(U.shape[1])).max(initial=0.0) <= ROOT_ORTH_TOL, p_dbw
        s = U.shape[1]
        assert np.abs(np.sort(gain) - lam_o[n - s:]).max(initial=0.0) <= tol, p_dbw
        kept.append(s)
    return kept


def eig_banded_halves(spec, n):
    """Every eigenpair of the two half bands, one ``eig_banded`` call each:
    the full eigenbasis the root route replaced, which the CI step at
    n = 2048 and 4096 times beside ``build_sigma``."""
    return [scipy.linalg.eig_banded(band, lower=False) for band in _half_bands(_tap_autocorr(spec.c), n)]


@pytest.fixture
def lapack_calls(monkeypatch):
    """The calls ``GramVectors.columns`` makes to LAPACK's band eigensolver."""
    calls = []
    solve = spectrum.eig_banded
    monkeypatch.setattr(spectrum, "eig_banded", lambda *args, **kw: calls.append(args) or solve(*args, **kw))
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 1024])
@pytest.mark.parametrize("spec", ROOT_CHANNELS, ids=lambda spec: "c=" + ",".join(f"{v:.2f}" for v in spec.c))
def test_root_basis_matches_band_oracle(spec, n, lapack_calls):
    """``root_basis_gate`` at -30, -10 and 10 dBW (from most columns on the
    floor to none), on random channels of memory 0 to 4 and ones with a
    zero end tap, at orders with an empty, a one-row and a large half;
    every column comes from the root route, none from LAPACK."""
    root_basis_gate(spec, n)
    assert not lapack_calls


@pytest.mark.parametrize("n", [6, 255, 1023])
@pytest.mark.parametrize(
    "c",
    [(1.0, 0.0, 0.0, 0.5), (1.0, 1e-13, 0.0, 0.5), (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3)],
    ids=["g3", "g3-split", "g6"],
)
def test_root_basis_splits_repeated_eigenvalues(c, n, lapack_calls):
    """Taps non-zero only at lags divisible by ``g >= 3`` make the Gram
    matrix ``g`` interleaved copies of one Toeplitz chain; where the
    reversal ``J`` swaps copies of equal length (n = 6, 255 and 1023 for
    ``g = 3``), a half's eigenvalues repeat, up to threefold for ``g =
    6``, and a tiny inner tap splits them by about 1e-13.  Tied columns
    overlap, so the half takes LAPACK's eigenbasis, which passes
    ``root_basis_gate`` like any other."""
    spec = ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c))
    vectors = gram_eigh(spec, n)[1]
    scale = np.abs(dense_gram(c, n)).sum(axis=0).max()
    assert any((np.diff(lam) <= 1e-12 * scale).any() for lam in (vectors.lam_sym, vectors.lam_skew))
    root_basis_gate(spec, n)
    assert lapack_calls


# Channels whose root columns break down on a negligible end tap: each
# made ``build_sigma`` refuse the basis at n = 255 before LAPACK took over
# (the last, a subnormal tap, through a root solve refusing an infinity).
# At n = 3 the first four keep one root column, a unit vector that no
# overlap can flag: only its residual shows it is no eigenvector of its
# eigenvalue.
TINY_END_TAPS = [(1.0, 0.5, 1e-12), (1e-12, 0.5, 1.0), (1.0, 0.5, 1e-10),
                 (0.609, 0.388, 1.18e-38, -0.255, 4.55e-76), (1.0, 1e-12), (1.471, 0.0215, 3.26e-111),
                 (1.0, 0.5, 5e-324)]


@pytest.mark.parametrize(
    "c, n", [(c, n) for c in TINY_END_TAPS for n in (1, 2, 3, 64, 255, 256, 1023)],
    ids=lambda v: "c=" + ",".join(f"{x:.3g}" for x in v) if isinstance(v, tuple) else str(v),
)
def test_root_basis_falls_back_on_a_negligible_end_tap(c, n):
    """A last (or first) tap far below the others loses the route's roots:
    the half's columns overlap past 1e-7, are not finite, are never
    formed, or a lone column is no eigenvector of its eigenvalue, and
    LAPACK's eigenbasis of that half band passes ``root_basis_gate`` in
    their place."""
    root_basis_gate(ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c)), n)


@pytest.mark.parametrize("c", [(1.0, 1e-9, 0.0, 0.5), (1.0, 1e-7, 0.0, 0.5)], ids=["1e-9", "1e-7"])
def test_root_basis_falls_back_on_near_coalescing_roots(c, lapack_calls):
    """A tiny inner tap beside a zero one puts roots of ``p(x) = lam`` close
    together, where only the most sensitive is pinned: at n = 1023 the
    columns miss ``4 n eps ||G||_1`` by about 10x (13x at -30 dBW for
    1e-9), so the residual sends a half to LAPACK, whose eigenbasis passes
    ``root_basis_gate``."""
    root_basis_gate(ChannelSpec(k=3, c=c, r=(1e-3,) * 4), 1023)
    assert lapack_calls


@pytest.mark.parametrize("c, p_dbw", [
    ((0.41469920814360894, 0.12633885222819874, 0.5035772685450053, 0.8694753327550491), -30.0),
    ((-0.8556060783373773, -0.8763320564765438, -0.5539668720737163, -0.7906267898194417,
      -0.030560301437416504), -10.0),
], ids=["k3", "k4"])
def test_root_basis_counts_top_rows_as_they_fold(c, p_dbw, lapack_calls):
    """The residual of a half's column counts its top ``n // 2`` rows at
    ``1 / sqrt(2)``, as they enter ``U``: at n = 64 and ``p_dbw`` these
    random channels keep root columns whose largest half-band residual
    entry, a top one, is 1.3x and 1.08x ``4 n eps ||G||_1``, while every
    entry of ``G u - g u`` is within it."""
    root_basis_gate(ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c)), 64, (p_dbw,))
    assert not lapack_calls


def test_eigencolumns_refuse_overlap_the_eigenvalue_cannot_see():
    """Unit columns in the eigenspace of a tied eigenvalue far below
    ``tol`` each have a zero residual and ``g - lam`` within ``tol``, so
    only the overlap test refuses two that overlap by 0.6; orthogonal ones
    are kept as they are."""
    band = np.array([[1e-20, 1e-20, 1.0]])  # diag(1e-20, 1e-20, 1) in upper band form
    lam, keep = np.array([1e-20, 1e-20]), np.eye(3)[:, :2]
    assert spectrum._eigencolumns(np.array([[1.0, 0.6], [0.0, 0.8], [0.0, 0.0]]), band, lam, 1, 1e-15) is None
    assert np.array_equal(spectrum._eigencolumns(keep, band, lam, 1, 1e-15), keep)


@st.composite
def _negligible_tap_channels(draw):
    """Taps of memory 1 to 6, the largest at least 0.1 in magnitude, with
    one or two others set to 0 or scaled by 10^-3 ... 10^-300."""
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=7).filter(
        lambda c: max(map(abs, c)) >= 0.1))
    top = int(np.argmax(np.abs(c)))
    others = [i for i in range(len(c)) if i != top]
    for i in draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True)):
        e = draw(st.none() | st.integers(3, 300))
        c[i] = 0.0 if e is None else c[i] * 10.0 ** -e
    return tuple(c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(c=_negligible_tap_channels(), n=st.integers(1, 64))
@example(c=(0.9458729236934151, 0.01753574739431918, 0.7212830161596624, 4.391328255339397e-98, 0.0), n=39)
@example(c=(1e-20, 0.7, -0.6), n=5)
@example(c=(-0.2778911686216372, 0.0, -0.7974981726651993, -0.5823663510627117, 0.7642511340281988,
            -5.927070167039816e-49, -0.34452011362102275), n=3)
def test_root_basis_gate_holds_with_negligible_taps(c, n):
    """``root_basis_gate`` wherever the spectrum is not singular, on
    channels with zeroed or negligible taps, where the route loses or
    misplaces roots.  At (1e-20, 0.7, -0.6) and n = 5 the one column kept
    at -30 dBW, built for the eigenvalue 1.577, is an exact eigenvector of
    0.85: only ``g - lam`` shows it.  At the memory-6 example and n = 3,
    where ``||G||_1`` is below ``t_0 + 2 sum |t_d|``, a column misses the
    gate by less than their ratio."""
    spec = ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c))
    try:
        checked_extrema(spec.c)
    except SpectrumSingular:
        assume(False)
    root_basis_gate(spec, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 65])
def test_half_basis_apply_and_adjoint_match_assembled(n):
    """``apply`` is ``S U'`` and ``adjoint`` is ``V U`` for ``U`` assembled
    from the documented columns (``tests/bases.py``, no shared code), row
    by row within the rounding of both (``2 (n sqrt(n) + FOLD_ULPS + 1)
    eps`` per unit of the row's norm), for the Gram eigenbasis and for
    random half bases, at orders with and without a middle entry and with
    an empty or a one-column half; ``orth_defect`` is that of the
    assembled ``U``."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(n)
    for halves in (eigenbasis(_gram_eigh_spec(3), n)[1], random_halves(n, n), _tall(n)):
        U = assemble(halves)
        s = halves.width
        assert U.shape == (n, s)
        S, V = rng.standard_normal((9, s)), rng.standard_normal((9, n))
        for got, want, norm in ((halves.apply(S), S @ U.T, S), (halves.adjoint(V), V @ U, V)):
            tol = 2.0 * (n * math.sqrt(n) + FOLD_ULPS + 1.0) * eps * np.linalg.norm(norm, axis=1)
            assert got.shape == want.shape
            assert np.all(np.linalg.norm(got - want, axis=1) <= tol)
        assert halves.orth_defect == pytest.approx(
            np.linalg.norm(U.T @ U - np.eye(s)), abs=4 * n * eps
        )


def _tall(n):
    """Tall half bases: the Gram eigenbasis without its first column and
    every third column after it (an empty half at n = 1 and 2)."""
    lam, vectors = gram_eigh(_gram_eigh_spec(3), n)
    keep = np.arange(n) % 3 != 0
    return HalfBasis.from_eigh(vectors, keep)


def _exact_basis(halves):
    """The ``U`` of ``halves`` as an mpmath matrix, from the documented
    columns with the exact ``1/sqrt(2)`` at the working precision."""
    n, h, ss = halves.n, len(halves.skew), halves.sym.shape[1]
    r = 1 / mpmath.sqrt(2)
    U = mpmath.matrix(n, max(halves.width, 1))
    for j, z in enumerate(halves.sym.T):
        for i in range(h):
            U[i, j] = U[n - 1 - i, j] = mpmath.mpf(z[i]) * r
        if n > 2 * h:
            U[h, j] = mpmath.mpf(z[h])
    for j, w in enumerate(halves.skew.T):
        for i in range(h):
            U[i, ss + j] = mpmath.mpf(w[i]) * r
            U[n - 1 - i, ss + j] = -mpmath.mpf(w[i]) * r
    return U


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9])
def test_gram_fit_bounds_the_exact_residual(n):
    """``gram_fit``'s gains are ``u_j'G u_j`` of the ``U`` the halves stand
    for, to ``4 n eps ||G||_1``, and its residual bounds the exact ``||GU -
    U diag(gain)||_F`` from above, both evaluated in 40-digit arithmetic
    on the exact ``U`` and ``G``, for the Gram eigenbasis and tall columns
    of it (rounding-sized residual) and for random half bases (a residual
    of order one)."""
    spec = _gram_eigh_spec(3)
    G1 = np.abs(dense_gram(spec.c, n)).sum(axis=0).max()
    with mpmath.workdps(40):
        c = [mpmath.mpf(v) for v in spec.c]
        t = [mpmath.fsum(c[l] * c[l + d] for l in range(len(c) - d)) for d in range(len(c))]
        G = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                if abs(i - j) < len(t):
                    G[i, j] = t[abs(i - j)]
        for halves in (eigenbasis(spec, n)[1], random_halves(n, n), _tall(n)):
            gain, resid = halves.gram_fit(spec.c)
            U = _exact_basis(halves)
            s = halves.width
            GU = G * U
            exact_gain = [mpmath.fsum(U[i, j] * GU[i, j] for i in range(n)) for j in range(s)]
            assert max((abs(float(g - e)) for g, e in zip(gain, exact_gain)), default=0.0) <= (
                4 * n * np.finfo(float).eps * G1
            )
            exact = mpmath.sqrt(mpmath.fsum(
                (GU[i, j] - U[i, j] * mpmath.mpf(gain[j])) ** 2 for i in range(n) for j in range(s)
            ))
            assert resid >= exact


def test_half_basis_refuses_unpaired_halves():
    """The symmetric half has ``n - n // 2`` rows and the skew half ``n //
    2``, so their row counts differ by 0 or 1, and orthonormal columns are
    no more than rows; any other pair, or a half that is not a matrix,
    stands for no basis.  Tall halves, or an empty one, are held."""
    for sym, skew in ((np.eye(1), np.eye(2)), (np.eye(3), np.eye(1)), (np.eye(2), np.eye(0)),
                      (np.eye(2), np.eye(2, 3)), (np.eye(1, 2), np.eye(1)), (np.eye(2), np.ones(1))):
        with pytest.raises(ValueError, match="shapes"):
            HalfBasis(sym=sym, skew=skew)
    for order in range(1, 6):
        h = order // 2
        assert HalfBasis(sym=np.eye(order - h), skew=np.eye(h)).n == order
        tall = HalfBasis(sym=np.eye(order - h)[:, 1:], skew=np.eye(h)[:, :0])
        assert (tall.n, tall.width) == (order, order - h - 1)


# 1/sqrt(2) to 40 digits, as an exact rational.
_R2_EXACT = Fraction(math.isqrt(2 * 10 ** 80), 2 * 10 ** 40)


@pytest.mark.parametrize("n", [2, 3, 64, 65])
def test_fold_rounding_within_fold_ulps(n):
    """On the standard half bases every GEMM is exact, so ``apply`` and
    ``adjoint`` round only in the J-fold add and the ``1/sqrt(2)`` scale:
    each entry is within ``FOLD_ULPS eps`` (relative) of the exact
    ``(s_i +- s_j) / sqrt(2)``, and the middle entry of odd ``n`` is
    exact.  The largest error seen is above ``1 eps``, so ``FOLD_ULPS = 1``
    would be wrong."""
    eps = Fraction(np.finfo(float).eps)
    h = n // 2
    halves = standard_halves(n)
    S = np.random.default_rng(n).standard_normal((1024 // n + 16, n))
    # apply pairs s_i with the skew coefficient s_(n-h+i) and puts the
    # difference at n-1-i; adjoint pairs v_i with v_(n-1-i) and puts it at n-h+i.
    worst = Fraction(0)
    for got, partner, diff_at in (
        (halves.apply(S), lambda i: n - h + i, lambda i: n - 1 - i),
        (halves.adjoint(S), lambda i: n - 1 - i, lambda i: n - h + i),
    ):
        for s, x in zip(S, got):
            if n > 2 * h:
                assert x[h] == s[h]
            for i in range(h):
                a, b = Fraction(s[i]), Fraction(s[partner(i)])
                for value, exact in ((x[i], (a + b) * _R2_EXACT), (x[diff_at(i)], (a - b) * _R2_EXACT)):
                    worst = max(worst, abs(Fraction(value) - exact) / abs(exact))
    assert worst <= FOLD_ULPS * eps
    assert worst > eps
