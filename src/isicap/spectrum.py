"""Channel description and spectral analysis of the tap-centre filter.

The channel is a length-(k+1) tapped delay line whose tap ``i`` lives in the
interval ``[c_i - r_i, c_i + r_i]``.  Everything downstream is driven by the
transfer function of the centre taps,

    f(omega) = sum_l c_l * exp(1j * l * omega),

through its squared magnitude ``|f|^2``: the extreme values ``alpha^2`` and
``beta^2``, the inverse-spectrum mean ``J``, and the eigenpairs of the Gram
matrix of the tall banded convolution matrix built from the centre taps.
That Gram matrix is symmetric banded Toeplitz and is never formed densely:
its eigenpairs come from one eigensolve of two half-size band problems
(``gram_eigh``), and the columns a caller keeps are held as two half bases
in their own column order (``HalfBasis``, the one place that knows how
they fold into the basis and that measures them against the Gram
matrix).

All integrals over ``[0, 2*pi]`` are composite-Simpson sums on one shared
grid so that quantities which are equal in exact arithmetic (e.g. the
water-filling integral above the highest inverse-spectrum value) stay equal
to machine precision.  The grid values of ``|f|^2`` come from one FFT of the
taps.  The extrema are exact: ``|f|^2 = t_0 + 2 sum_d t_d cos(d omega)``
(``t`` the tap autocorrelation) is stationary where a degree-2k polynomial
vanishes on the unit circle, and ``|f|^2`` is evaluated at the angles of its
roots.  The table, the extrema and ``J`` depend on the centre taps alone and
are cached on ``(c, grid_size)``, so channels that differ only in their
radii share them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eig_banded

from .errors import SpectrumSingular

__all__ = [
    "ChannelSpec",
    "SpectrumProfile",
    "BandedChannelMatrix",
    "compute_profile",
    "f_sq_table",
    "simpson_weights",
    "build_Hc",
    "gram_eigenvalues",
    "HalfBasis",
    "gram_eigh",
]

DEFAULT_GRID = 8192
MIN_GRID = 256
MAX_GRID = 2 ** 20  # refused past this, before the FFT's padded array is allocated
SINGULAR_REL_TOL = 1e-12
SIGN_TIE_REL = 1e-8
# Relative rounding, in units of eps, that the J-fold add and the 1/sqrt(2)
# scale of ``HalfBasis.apply`` and ``.adjoint`` put on each entry: one add,
# one multiply and the representation of 1/sqrt(2), 1.4 eps, rounded up.
FOLD_ULPS = 2.0
_R2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class ChannelSpec:
    """Interval channel: tap ``i`` ranges over ``[c[i] - r[i], c[i] + r[i]]``.

    ``k`` is the memory (number of past inputs each output depends on), so
    ``c`` and ``r`` both have ``k + 1`` entries.  Instances are immutable and
    hashable, which lets the spectral tables below be cached per channel.
    """

    k: int
    c: tuple[float, ...]
    r: tuple[float, ...]

    def __post_init__(self) -> None:
        k = int(self.k) if isinstance(self.k, float) and self.k.is_integer() else self.k
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError(f"memory k must be an integer, got {self.k!r}")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        if self.k < 0:
            raise ValueError(f"memory k must be >= 0, got {self.k}")
        if len(self.c) != self.k + 1:
            raise ValueError(f"need {self.k + 1} tap centres, got {len(self.c)}")
        if len(self.r) != self.k + 1:
            raise ValueError(f"need {self.k + 1} tap radii, got {len(self.r)}")
        if not all(math.isfinite(v) for v in self.c + self.r):
            raise ValueError("tap centres and radii must be finite")
        if any(v < 0.0 for v in self.r):
            raise ValueError("tap radii must be non-negative")
        if all(v == 0.0 for v in self.c):
            raise ValueError("all tap centres are zero")

    @property
    def r_s(self) -> float:
        return float(sum(self.r))

    @property
    def norm_c_sq(self) -> float:
        return float(sum(v * v for v in self.c))

    @property
    def norm_r_sq(self) -> float:
        return float(sum(v * v for v in self.r))

    @classmethod
    def from_json(cls, obj: dict) -> "ChannelSpec":
        return cls(k=obj["k"], c=tuple(obj["c"]), r=tuple(obj["r"]))


@dataclass(frozen=True)
class SpectrumProfile:
    """Scalar summary of the centre spectrum, a function of the centre taps
    and the grid alone (the radii are the spec's).

    alpha, beta   -- min resp. max of |f| over the unit circle
    J             -- mean of 1/|f|^2 over the circle
    """

    alpha: float
    beta: float
    J: float


def _f_sq(c: np.ndarray, omega):
    phase = np.multiply.outer(np.asarray(omega, dtype=float), np.arange(len(c), dtype=float))
    re = np.cos(phase) @ c
    im = np.sin(phase) @ c
    return re * re + im * im


def f_sq_table(spec: ChannelSpec, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """``|f|^2`` sampled at the ``grid_size + 1`` uniform Simpson nodes on
    ``[0, 2*pi]`` (endpoints included), from one FFT of the taps and cached
    on ``(spec.c, grid_size)``.  The returned array is read-only."""
    return _f_sq_table(spec.c, grid_size)


@lru_cache(maxsize=2)  # its readers cache what they derive from it
def _f_sq_table(c: tuple[float, ...], grid_size: int) -> np.ndarray:
    if not MIN_GRID <= grid_size <= MAX_GRID or grid_size % 2 != 0:
        raise ValueError(f"grid_size must be even and in [{MIN_GRID}, {MAX_GRID}]")
    taps = np.asarray(c)
    if taps.size > grid_size:
        # The DFT sees tap l only through l mod grid_size: fold, not truncate.
        taps = np.bincount(np.arange(taps.size) % grid_size, weights=taps)
    F = np.fft.fft(taps, grid_size)
    vals = F.real * F.real + F.imag * F.imag
    vals = np.append(vals, vals[0])
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=16)
def simpson_weights(grid_size: int) -> np.ndarray:
    """Composite-Simpson weights for the ``grid_size + 1`` shared nodes on
    ``[0, 2*pi]``; they sum to ``2*pi``.  The returned array is read-only."""
    h = 2.0 * np.pi / grid_size
    w = np.full(grid_size + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    w.setflags(write=False)
    return w


def _critical_angles(c: np.ndarray) -> np.ndarray:
    """Angles of the roots of ``sum_d d t_d (z^(k+d) - z^(k-d))``, which on
    the unit circle vanishes exactly where ``d|f|^2/domega`` does.

    Terms below ``eps`` times the largest are dropped, so a subnormal end
    term cannot overflow the companion matrix.  With no term left (``k = 0``
    or one non-zero tap) ``|f|^2`` is constant and there are no roots; a zero
    end tap lowers the degree and adds roots at ``z = 0`` (angle 0).
    """
    t = _tap_autocorr(c)
    g = np.arange(len(t)) * t
    g[np.abs(g) <= np.finfo(float).eps * np.abs(g).max()] = 0.0
    return np.angle(np.roots(np.concatenate([g[:0:-1], [0.0], -g[1:]])))


@lru_cache(maxsize=128)
def _centre_profile(c: tuple[float, ...], grid_size: int) -> SpectrumProfile:
    with np.errstate(over="ignore", divide="ignore"):
        table = _f_sq_table(c, grid_size)
        f_sq_min, f_sq_max = float(table.min()), float(table.max())
        if math.isfinite(f_sq_max):  # else the roots' polynomial overflows too
            # Every candidate is |f|^2 at some angle, so none lies below the
            # true minimum (up to rounding): alpha keeps its direction of error.
            taps = np.asarray(c)
            at_roots = _f_sq(taps, _critical_angles(taps))
            f_sq_min = min(f_sq_min, float(at_roots.min(initial=np.inf)))
            f_sq_max = max(f_sq_max, float(at_roots.max(initial=-np.inf)))
        J = float(simpson_weights(grid_size) @ (1.0 / table)) / (2.0 * np.pi)

    scale = f"the centre spectrum overflows a float at tap scale max |c| = {max(map(abs, c)):.3e}"
    if not math.isfinite(f_sq_max):
        raise SpectrumSingular(f"{scale}: beta^2 is not finite")
    beta = math.sqrt(f_sq_max)
    if f_sq_min <= 0.0 or math.sqrt(f_sq_min) <= SINGULAR_REL_TOL * beta:
        raise SpectrumSingular(
            f"min |f| = {math.sqrt(max(f_sq_min, 0.0)):.3e} is negligible against "
            f"max |f| = {beta:.3e}"
        )
    for name, value in (("1/alpha^2", 1.0 / f_sq_min), ("J", J)):
        if not math.isfinite(value):
            raise SpectrumSingular(f"{scale}: {name} is not finite")
    return SpectrumProfile(alpha=math.sqrt(f_sq_min), beta=beta, J=J)


def compute_profile(spec: ChannelSpec, grid_size: int = DEFAULT_GRID) -> SpectrumProfile:
    """Exact extrema of ``|f|`` and the Simpson mean ``J`` of ``1/|f|^2``
    from the FFT table.

    ``alpha`` and ``beta`` are the smaller resp. larger of the table's
    extremes and ``|f|`` at the angles of the roots of the derivative
    polynomial (one ``np.roots`` call).  The profile depends only on
    ``(spec.c, grid_size)`` and is cached on that key, the one cache of
    the profile.

    Raises SpectrumSingular when the minimum of ``|f|`` is at or below
    ``1e-12 * beta`` (the inverse spectrum, and hence ``J``, is then
    meaningless), and when ``beta^2``, ``1/alpha^2`` or ``J`` overflows a
    float, as at taps near 1e-155 or 1e155 and beyond.
    """
    return _centre_profile(spec.c, grid_size)


@dataclass(frozen=True)
class BandedChannelMatrix:
    """Tall banded convolution matrix of shape ``(n + k, n)``, held in band
    form: ``taps`` has shape ``(n + k, k + 1)`` and row ``i`` holds the taps
    output ``i`` applies, so entry ``(i, j)`` is ``taps[i, i - j]`` for
    ``0 <= i - j <= k`` and zero elsewhere.  Taps whose column would fall
    outside ``0 <= j < n`` are never used.  ``taps`` is read-only after
    build; ``dense()`` materialises the matrix."""

    n: int
    k: int
    taps: np.ndarray

    def __post_init__(self) -> None:
        taps = np.ascontiguousarray(np.asarray(self.taps, dtype=float))
        object.__setattr__(self, "taps", taps)
        if taps.shape != (self.m, self.k + 1):
            raise ValueError(f"taps shape {taps.shape} != ({self.m}, {self.k + 1})")
        taps.setflags(write=False)

    @property
    def m(self) -> int:
        return self.n + self.k

    def dense(self) -> np.ndarray:
        H = np.zeros((self.m, self.n))
        cols = np.arange(self.n)
        for d in range(self.k + 1):
            H[cols + d, cols] = self.taps[cols + d, d]
        return H


def build_Hc(spec: ChannelSpec, n: int) -> BandedChannelMatrix:
    """Banded matrix of the centre taps (every output uses ``c``)."""
    if n < 1:
        raise ValueError("need n >= 1")
    taps = np.tile(np.asarray(spec.c), (n + spec.k, 1))
    return BandedChannelMatrix(n=n, k=spec.k, taps=taps)


def _tap_autocorr(c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    return np.array([c[: len(c) - d] @ c[d:] for d in range(len(c))])


def _toeplitz_band(t: np.ndarray, order: int) -> np.ndarray:
    """Upper band form of the symmetric Toeplitz matrix of order ``order``
    with ``t[d]`` on diagonal ``d`` (``t[d]`` beyond ``order - 1`` unused):
    row ``u - d`` holds diagonal ``d``, ``u = min(k, order - 1)``."""
    u = min(len(t) - 1, max(order - 1, 0))
    band = np.zeros((u + 1, order))
    for d in range(u + 1):
        band[u - d, d:] = t[d]
    return band


def _half_bands(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper band forms of the J-symmetric half ``A + C J`` (order
    ``n - n // 2``) and the J-skew half ``A - C J`` (order ``n // 2``) of
    the Gram matrix, where ``A`` and ``C`` are its top-left and top-right
    ``n // 2`` blocks.  ``(C J)[i, j] = t[n - 1 - i - j]``, non-zero only in
    the bottom-right corner where that lag is at most ``k``.  For odd
    ``n`` the symmetric half also holds the middle row and column of the
    Gram matrix, the off-diagonal part scaled by ``sqrt(2)``."""
    h, k = n // 2, len(t) - 1
    sym, skew = _toeplitz_band(t, n - h), _toeplitz_band(t, h)
    for band, sign in ((sym, 1.0), (skew, -1.0)):
        u = band.shape[0] - 1
        for j in range(max(h - k, 0), h):
            for i in range(max(n - 1 - k - j, 0), j + 1):
                band[u - (j - i), j] += sign * t[n - 1 - i - j]
    if n > 2 * h:
        sym[:-1, h] *= math.sqrt(2.0)
    return sym, skew


def _sym_band_apply(band: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``A Z`` for the symmetric matrix ``A`` in upper band form ``band``
    (row ``u - l`` holds ``A[j - l, j]`` in column ``j``): ``2u + 1``
    shifted multiply-adds of the rows of ``Z``."""
    u = band.shape[0] - 1
    AZ = np.multiply(band[u][:, None], Z)
    tmp = np.empty_like(AZ)
    for l in range(1, u + 1):
        t = np.multiply(band[u - l, l:][:, None], Z[l:], out=tmp[l:])
        AZ[:-l] += t  # A[i, i + l] z_(i + l), above the diagonal
        t = np.multiply(band[u - l, l:][:, None], Z[:-l], out=tmp[l:])
        AZ[l:] += t  # and its mirror below
    return AZ


def _signed(Z: np.ndarray) -> np.ndarray:
    """``Z`` with each column flipped so that its largest-magnitude entry is
    positive, in C order (``eig_banded`` returns Fortran order).  Entries
    within ``SIGN_TIE_REL`` of the largest magnitude count as tied and the
    first of them decides, so ties that are exact in exact arithmetic (the
    sine eigenvectors of a tridiagonal Gram) are broken by index, not by
    rounding."""
    if not Z.size:
        return Z
    mag = np.abs(Z)
    top = np.argmax(mag >= (1.0 - SIGN_TIE_REL) * mag.max(axis=0), axis=0)
    return np.multiply(Z, np.where(Z[top, np.arange(Z.shape[1])] < 0.0, -1.0, 1.0), order="C")


@dataclass(frozen=True, eq=False)
class HalfBasis:
    """Orthonormal columns ``U`` (``n`` rows, at most ``n`` columns), each
    J-symmetric or J-skew (``J`` the reversal), held as two tall half bases
    and never as an ``n``-row array.

    With ``h = n // 2``, column ``j`` of ``sym`` (``n - h`` rows) is column
    ``j`` of ``U``, ``[z_top / sqrt(2); z_mid; J z_top / sqrt(2)]`` for
    ``z = sym[:, j]``, ``z_top = z[:h]`` and ``z_mid = z[h]``; column ``j``
    of ``skew`` (``h`` rows) is column ``s_sym + j`` of ``U``, with ``s_sym``
    the columns of ``sym``, ``[w / sqrt(2); 0; -J w / sqrt(2)]`` for ``w =
    skew[:, j]``.  The middle entries exist only for odd ``n``; halves whose
    row counts differ by other than 0 or 1, or with more columns than rows,
    pair into no such ``U`` and are refused.  With an exact ``1/sqrt(2)``,
    ``U'U`` is ``blockdiag(sym'sym, skew'skew)``, so its cross block is
    exactly zero, and ``orth_defect``, the Frobenius norm of the computed
    ``sym'sym - I`` and ``skew'skew - I``, is that of the computed ``U'U -
    I``.  A defect entry past 1e-8 is refused.

    ``apply`` and ``adjoint`` round more than one GEMM with ``U`` would:
    besides their two half GEMMs, the J-fold add and the scale by the
    rounded ``1/sqrt(2)`` put each entry they produce within ``FOLD_ULPS *
    eps`` (relative) of the exact ``(a +- b) / sqrt(2)`` of its two inputs,
    an error the decoder's guard band counts.  Arrays are read-only after
    construction."""

    sym: np.ndarray
    skew: np.ndarray
    orth_defect: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        parts = [np.ascontiguousarray(a, dtype=float) for a in (self.sym, self.skew)]
        if any(Z.ndim != 2 or Z.shape[1] > Z.shape[0] for Z in parts) or (
            len(parts[0]) - len(parts[1]) not in (0, 1)
        ):
            raise ValueError(
                f"half bases have shapes {parts[0].shape} and {parts[1].shape}: need halves "
                "of n - n // 2 and n // 2 rows, with no more columns than rows"
            )
        if not all(np.isfinite(Z).all() for Z in parts):
            raise ValueError("basis has non-finite entries")
        sq, worst = 0.0, 0.0
        for Z in parts:
            D = Z.T @ Z  # Z'Z - I in place
            D[np.diag_indices(len(D))] -= 1.0
            sq += float(np.vdot(D, D))
            worst = max(worst, float(np.abs(D, out=D).max(initial=0.0)))
        if worst > 1e-8:
            raise ValueError(f"basis is not orthonormal (defect {worst:.2e})")
        for name, a in (("sym", parts[0]), ("skew", parts[1])):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "orth_defect", math.sqrt(sq))

    @classmethod
    def from_eigh(cls, vectors: tuple[np.ndarray, np.ndarray], keep: np.ndarray) -> "HalfBasis":
        """The columns of ``gram_eigh``'s ``vectors`` that the boolean mask
        ``keep`` (in ``lam``'s order) marks, each flipped so that its
        largest-magnitude entry is positive (the first one on ties to
        ``SIGN_TIE_REL``): the basis then does not depend on the LAPACK
        build, and every column ``u`` of ``U`` satisfies ``u[::-1] == +-u``
        exactly.  Columns left out are never signed or checked."""
        (Zs, Zk), r = vectors, vectors[0].shape[1]
        return cls(sym=_signed(Zs[:, keep[:r]]), skew=_signed(Zk[:, keep[r:]]))

    @property
    def n(self) -> int:
        return len(self.sym) + len(self.skew)

    def same_as(self, other: "HalfBasis") -> bool:
        """Whether ``other`` holds the same basis, entry for entry."""
        return self is other or (
            np.array_equal(self.sym, other.sym) and np.array_equal(self.skew, other.skew)
        )

    @property
    def width(self) -> int:
        return self.sym.shape[1] + self.skew.shape[1]

    def apply(self, S: np.ndarray) -> np.ndarray:
        """``S U'``: the vector ``U s`` of each row ``s`` of ``S``, from one
        GEMM per half, ``Zs s_sym`` and ``Zk s_skew``, whose sum and
        difference (times ``1/sqrt(2)``) are the top half and the reversed
        bottom half; the middle entry of odd ``n`` is ``Zs s_sym``'s."""
        n, h, ss = self.n, len(self.skew), self.sym.shape[1]
        A = S[:, :ss] @ self.sym.T
        B = S[:, ss:] @ self.skew.T
        X = np.empty((len(S), n))
        top, bot = X[:, :h], X[:, n - h:][:, ::-1]
        np.add(A[:, :h], B, out=top)
        np.subtract(A[:, :h], B, out=bot)
        top *= _R2
        bot *= _R2
        if n > 2 * h:
            X[:, h] = A[:, h]
        return X

    def adjoint(self, V: np.ndarray) -> np.ndarray:
        """``V U``: the coefficients ``U'v`` of each row ``v`` of ``V``,
        ``Zs'(v_top + J v_bot) / sqrt(2)`` (with the middle entry of odd
        ``n`` unscaled) followed by ``Zk'(v_top - J v_bot) / sqrt(2)``."""
        n, h, ss = self.n, len(self.skew), self.sym.shape[1]
        top, bot = V[:, :h], V[:, n - h:][:, ::-1]
        P = np.empty((len(V), n - h))
        np.add(top, bot, out=P[:, :h])
        P[:, :h] *= _R2
        if n > 2 * h:
            P[:, h] = V[:, h]
        Q = np.subtract(top, bot)
        Q *= _R2
        C = np.empty((len(V), self.width))
        np.matmul(P, self.sym, out=C[:, :ss])
        np.matmul(Q, self.skew, out=C[:, ss:])
        return C

    def gram_fit(self, c) -> tuple[np.ndarray, float]:
        """Gains ``u_j'G u_j`` of the columns of ``U`` for ``G = Hc'Hc`` of
        the centre taps ``c``, and a bound, first order in eps, on the
        eigen-residual ``||GU - U diag(gain)||_F``, in O(n k) per column: in
        the halves' coordinates ``G`` is ``blockdiag(Gs, Gk)``, the half bands
        ``gram_eigh`` solves.  The bound is the computed residual plus the
        rounding of the half bands (``k + 1`` products per lag, the J-fold
        add and the ``sqrt(2)`` of the middle row, row sums at most
        ``sqrt(2) h^2`` for ``h = sum |c|``), of ``G Z`` and of ``G Z - Z
        diag(gain)``, with ``||U||_F^2 <= n (1 + orth_defect + n^2 eps)``."""
        c = np.asarray(c, dtype=float)
        n = self.n
        gains, sq = [], 0.0
        for band, Z in zip(_half_bands(_tap_autocorr(c), n), (self.sym, self.skew)):
            GZ = _sym_band_apply(band, Z)
            gain = np.einsum("ij,ij->j", Z, GZ)
            GZ -= np.multiply(Z, gain)
            gains.append(gain)
            sq += float(np.vdot(GZ, GZ))
        gain = np.concatenate(gains)
        eps = float(np.finfo(float).eps)
        h = float(np.abs(c).sum())
        nu = math.sqrt(n * (1.0 + self.orth_defect + n * n * eps))
        lam_max = float(np.abs(gain).max(initial=0.0))
        rounding = eps * nu * (math.sqrt(2.0) * (3 * len(c) + 1) * h * h + 2.0 * lam_max)
        return gain, math.sqrt(sq) + rounding


def gram_eigh(spec: ChannelSpec, n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues ``lam`` of the centre Gram matrix ``Hc' Hc`` and its
    eigenvectors as the two half arrays ``(Zs, Zk)``, in the halves' own
    column order: the J-symmetric half's eigenvalues ascending, then the
    J-skew half's.  ``HalfBasis.from_eigh`` signs and holds those a caller
    keeps.

    The Gram matrix is symmetric Toeplitz, hence centrosymmetric, so it
    splits exactly into a J-symmetric and a J-skew half of order about
    ``n / 2`` (Cantoni & Butler, Lin. Alg. Appl. 13, 1976), each banded
    with bandwidth ``k`` and built in band form in O(n k).  One
    ``eig_banded`` call per half gives the eigenpairs.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    (lam_s, Zs), (lam_k, Zk) = (
        eig_banded(band, lower=False) for band in _half_bands(_tap_autocorr(spec.c), n)
    )
    return np.concatenate([lam_s, lam_k]), (Zs, Zk)


def gram_eigenvalues(spec: ChannelSpec, n: int) -> np.ndarray:
    """Ascending eigenvalues of the centre Gram matrix: ``gram_eigh``'s, the
    ones ``build_sigma`` water-fills, sorted."""
    return np.sort(gram_eigh(spec, n)[0])
