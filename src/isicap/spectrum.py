"""Channel description and spectral analysis of the tap-centre filter.

The channel is a length-(k+1) tapped delay line whose tap ``i`` lives in the
interval ``[c_i - r_i, c_i + r_i]``.  Everything downstream is driven by the
transfer function of the centre taps,

    f(omega) = sum_l c_l * exp(1j * l * omega),

through its squared magnitude ``|f|^2``: the extreme values ``alpha^2`` and
``beta^2``, the inverse-spectrum mean ``J``, and the eigenpairs of the Gram
matrix of the tall banded convolution matrix built from the centre taps.
That Gram matrix ``G`` is symmetric banded Toeplitz, never formed densely:
it splits into two half-size band problems (``gram_eigh``), whose
eigenvalues come from LAPACK's band solver and whose eigenvectors are
computed only for the columns a caller keeps, each from the roots of
``|f|^2 = lam`` (eigenvalues of numpy's ``chebcompanion``), or by LAPACK
for a half whose root columns overlap or are not each an eigenvector of
their own ``lam`` to ``4 n eps ||G||_1`` (``GramVectors``).  They are held
as two half bases in their own column order (``HalfBasis``, the one place
that knows how they fold into the basis and measures them against ``G``).

All integrals over ``[0, 2*pi]`` are composite-Simpson sums on one shared
grid so that quantities which are equal in exact arithmetic (e.g. the
water-filling integral above the highest inverse-spectrum value) stay equal
to machine precision.  The grid has one owner, ``quadrature_grid``, cached
on ``(c, grid_size)``: its record, the profile, holds that key, the checked
extrema and, from one FFT and one reciprocal, ``J`` and ``waterfill``'s
water table.  The extrema have one source, ``centre_extrema``, and no grid:
``|f|^2 = t_0 + 2 sum_d t_d cos(d omega)`` (``t`` the tap autocorrelation)
is stationary where a degree-2k polynomial vanishes on the unit circle,
``|f|^2`` is evaluated at the angles of its roots and at ``omega = 0``, and
the least and greatest ``|f|`` are widened by a stated rounding bound, so
that each lies on its safe side of the true extremum, within twice that
bound; ``checked_extrema`` refuses them out of range.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.chebyshev import chebcompanion
from scipy.linalg import eig_banded, eigvals_banded

from .errors import SpectrumSingular

__all__ = [
    "ChannelSpec",
    "QuadratureGrid",
    "Extrema",
    "BandedChannelMatrix",
    "centre_extrema",
    "checked_extrema",
    "compute_profile",
    "f_sq_table",
    "quadrature_grid",
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
LN2 = math.log(2.0)
# Relative rounding, in units of eps, that the J-fold add and the 1/sqrt(2)
# scale of ``HalfBasis.apply`` and ``.adjoint`` put on each entry: one add,
# one multiply and the representation of 1/sqrt(2), 1.4 eps, rounded up.
FOLD_ULPS = 2.0
_R2 = 1.0 / math.sqrt(2.0)
_TABLE = 32  # fine steps of the two-level exponential table of ``_root_values``
_SCRATCH = 1 << 20  # bytes of complex scratch ``_root_columns`` may take at small n


def _as_int(value, what: str) -> int:
    """``value`` as an int, or ``ValueError`` naming ``what`` for a bool or a non-integral value."""
    v = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(v)


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
        object.__setattr__(self, "k", _as_int(self.k, "memory k"))
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


def _f_sq(c: np.ndarray, omega):
    phase = np.multiply.outer(np.asarray(omega, dtype=float), np.arange(len(c), dtype=float))
    re = np.cos(phase) @ c
    im = np.sin(phase) @ c
    return re * re + im * im


def check_grid_size(grid_size: int) -> int:
    """``grid_size``, or ``ValueError`` unless even and in ``[MIN_GRID, MAX_GRID]``."""
    if not MIN_GRID <= grid_size <= MAX_GRID or grid_size % 2 != 0:
        raise ValueError(f"grid_size must be even and in [{MIN_GRID}, {MAX_GRID}]")
    return grid_size


def f_sq_table(c: tuple[float, ...], grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """``|f|^2`` of the centre taps ``c`` at the ``grid_size + 1`` uniform
    Simpson nodes on ``[0, 2*pi]`` (endpoints included), from one FFT."""
    check_grid_size(grid_size)
    taps = np.asarray(c)
    if taps.size > grid_size:
        # The DFT sees tap l only through l mod grid_size: fold, not truncate.
        taps = np.bincount(np.arange(taps.size) % grid_size, weights=taps)
    F = np.fft.fft(taps, grid_size)
    vals = F.real * F.real + F.imag * F.imag
    return np.append(vals, vals[0])


class _WaterTable(NamedTuple):
    """Ascending breakpoints ``v`` with weights ``w``: ``W = [0, cumsum(w)]``,
    ``S = [0, cumsum(w*v)]``, the water ``at = v W[1:] - S[1:]`` at each
    breakpoint and the rate prefix ``D_k = sum_{j<k} w_j log2(v_{k-1}/v_j)``."""

    v: np.ndarray
    W: np.ndarray
    S: np.ndarray
    at: np.ndarray
    D: np.ndarray


def _water_table(v: np.ndarray, w: np.ndarray) -> _WaterTable:
    """The table of ascending ``v`` and weights ``w``; ``D`` sums its
    non-negative steps ``W_k log2(v_k/v_{k-1})``, each a ``log1p``."""
    W = np.concatenate(([0.0], np.cumsum(w)))
    S = np.concatenate(([0.0], np.cumsum(w * v)))
    D = np.cumsum(W[1:-1] * np.log1p(np.diff(v) / v[:-1]) / LN2)
    return _WaterTable(v, W, S, v * W[1:] - S[1:], np.concatenate(([0.0, 0.0], D)))


class QuadratureGrid(NamedTuple):
    """The profile of the centre taps ``c`` on ``grid_size`` Simpson panels:
    the checked ``alpha`` and ``beta`` (``checked_extrema``), ``J``, the
    Simpson mean of ``1/|f|^2``, and the water table of its nodes."""

    c: tuple[float, ...]
    grid_size: int
    alpha: float
    beta: float
    J: float
    table: _WaterTable


@lru_cache(maxsize=2)
def quadrature_grid(c: tuple[float, ...], grid_size: int) -> QuadratureGrid:
    """The one owner of the quadrature grid: ``v = 1/|f|^2`` formed once from
    ``f_sq_table``, ``J`` its Simpson dot in node order, ``checked_extrema``
    given that ``J`` (it refuses what overflowed silently here, so every
    ``v`` in the table is finite), and the table of ``v`` sorted with the
    weights over ``2 pi``.  Five grid-sized arrays each, so two are kept."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        v = 1.0 / f_sq_table(c, grid_size)
        w = np.full(grid_size + 1, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= (2.0 * np.pi / grid_size) / 3.0
        J = float(w @ v) / (2.0 * np.pi)
    ext = checked_extrema(c, J)
    order = np.argsort(v)
    return QuadratureGrid(c, grid_size, *ext, J, _water_table(v[order], w[order] / (2.0 * np.pi)))


def _critical_angles(c: np.ndarray) -> np.ndarray:
    """Angles of the roots of ``sum_d d t_d (z^(k+d) - z^(k-d))``, which on
    the unit circle vanishes exactly where ``d|f|^2/domega`` does.

    The taps are first scaled by the power of two that puts the largest in
    ``[1/2, 1)``: exact, and the angles do not depend on scale, so no term
    ``d t_d`` can overflow.  Terms below ``eps`` times the largest are
    dropped, so a subnormal end term cannot overflow the companion matrix.
    With no term left (``k = 0`` or one non-zero tap) ``|f|^2`` is constant
    and there are no roots; a zero end tap lowers the degree and adds roots
    at ``z = 0`` (angle 0).
    """
    t = _tap_autocorr(np.ldexp(c, -math.frexp(float(np.abs(c).max()))[1]))
    g = np.arange(len(t)) * t
    g[np.abs(g) <= np.finfo(float).eps * np.abs(g).max()] = 0.0
    return np.angle(np.roots(np.concatenate([g[:0:-1], [0.0], -g[1:]])))


class Extrema(NamedTuple):
    """Least and greatest ``|f|`` over the unit circle."""

    alpha: float
    beta: float


def centre_extrema(c) -> Extrema:
    """``(alpha, beta)``, the one source of both: the least and greatest
    ``|f|`` over the critical angles (``_critical_angles``) and ``omega =
    0``, from one ``_f_sq`` call, widened to ``alpha - delta`` and ``beta +
    delta`` with ``delta = (2 pi + 1)(k + 1) eps sum_l |c_l|``.  So alpha is
    at most the true minimum of ``|f|`` and beta at least its maximum.

    ``delta`` bounds, to first order in eps (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, 3.1), the rounding of ``|f|``
    evaluated at a double angle ``omega`` in ``[-pi, pi]``: each phase ``l
    omega`` is off by up to ``k pi eps / 2``, which cos and sin carry into
    each term, and each adds an ulp; the ``k + 1`` products and the sum of
    each of the real and imaginary parts add ``(k + 1) eps / 2`` of ``sum
    |c_l|``; both parts together, and the square, sum and root, give at most
    ``((pi + 1) k + 5) eps sum |c_l|``, which ``delta`` exceeds.  The
    computed angles' own error moves ``|f|`` only to second order, ``|f|``
    being stationary there.  ``omega = 0`` gives a candidate where there are
    no roots (``k = 0``, or a constant spectrum).
    """
    c = np.asarray(c, dtype=float)
    at = _f_sq(c, np.append(_critical_angles(c), 0.0))
    delta = (2.0 * math.pi + 1.0) * len(c) * float(np.finfo(float).eps) * float(np.abs(c).sum())
    return Extrema(math.sqrt(float(at.min())) - delta, math.sqrt(float(at.max())) + delta)


def checked_extrema(c: tuple[float, ...], J: float = 0.0) -> Extrema:
    """``centre_extrema(c)``, or SpectrumSingular when min ``|f|`` is at or
    below ``1e-12 * beta`` (the inverse spectrum, and ``J``, then
    meaningless), or when ``beta^2``, ``1/alpha^2`` or a profile's ``J``
    overflows a float, as at taps near 1e-155 or 1e155 and beyond."""
    with np.errstate(over="ignore"):
        alpha, beta = ext = centre_extrema(c)
    scale = f"the centre spectrum overflows a float at tap scale max |c| = {max(map(abs, c)):.3e}"
    if not math.isfinite(beta * beta):
        raise SpectrumSingular(f"{scale}: beta^2 is not finite")
    if alpha <= SINGULAR_REL_TOL * beta:
        raise SpectrumSingular(
            f"min |f| = {max(alpha, 0.0):.3e} is negligible against max |f| = {beta:.3e}"
        )
    for name, value in (("1/alpha^2", 1.0 / alpha / alpha), ("J", J)):  # alpha > 0 here
        if not math.isfinite(value):
            raise SpectrumSingular(f"{scale}: {name} is not finite")
    return ext


def compute_profile(spec: ChannelSpec, grid_size: int = DEFAULT_GRID) -> QuadratureGrid:
    """The record of ``(spec.c, grid_size)`` from ``quadrature_grid``."""
    return quadrature_grid(spec.c, grid_size)


@dataclass(frozen=True)
class BandedChannelMatrix:
    """Tall banded convolution matrix of shape ``(n + k, n)`` in band form:
    ``taps``, ``(k + 1, n + k)``, holds tap ``d`` of every output in row
    ``d``, so entry ``(i, j)`` is ``taps[i - j, i]`` for ``0 <= i - j <= k``
    and zero elsewhere; the corner taps, whose column would fall outside
    ``[0, n)``, are never read.  ``taps`` is a read-only copy of what is
    given; ``n >= 1`` and ``k >= 0`` are integers.  Every product runs on
    the band, one shifted multiply-add per tap row: ``apply`` (``H x``),
    ``adjoint`` (``H'y``), ``gram`` (``H'H``) and ``output_cov`` (``I + H
    H'``) in lower band form (row ``d`` holds diagonal ``d``),
    ``scaled`` (``H diag(w)``) and ``H - G``."""

    n: int
    k: int
    taps: np.ndarray

    def __post_init__(self) -> None:
        n, k = _as_int(self.n, "n"), _as_int(self.k, "memory k")
        if n < 1 or k < 0:
            raise ValueError(f"need n >= 1 and k >= 0, got n = {n}, k = {k}")
        taps = np.array(self.taps, dtype=float, order="C")
        if taps.shape != (k + 1, n + k):
            raise ValueError(f"taps shape {taps.shape} != ({k + 1}, {n + k})")
        taps.setflags(write=False)
        for name, value in (("n", n), ("k", k), ("taps", taps)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return self.n + self.k

    def apply(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``H x`` for every row ``x`` of ``X``, ``(..., n)``, added onto
        ``out``, ``(..., m)``, when given, else onto zeros."""
        out = np.zeros(X.shape[:-1] + (self.m,)) if out is None else out
        for d, row in enumerate(self.taps):
            out[..., d:d + self.n] += row[d:d + self.n] * X
        return out

    @cached_property
    def same_taps(self) -> bool:
        """Whether every output applies the same taps, as the centre matrix's do."""
        return bool((self.taps == self.taps[:, :1]).all())

    def adjoint(self, Y: np.ndarray) -> np.ndarray:
        """``H'y`` for every row ``y`` of ``Y``, ``(..., m)``: each tap row's
        products summed in tap order.  When every output applies the same
        taps ``c`` (``same_taps``) that is ``k + 1`` scalar multiply-adds
        over the flat rows, ``b[p] = sum_d c_d y[p + d]``, the same bits,
        whose entries ``p = t m + j``, ``j < n``, are row ``t``'s: returned
        as the leading ``n`` of rows of ``m``."""
        n, t = self.n, self.taps
        if not self.same_taps:
            out = t[0, :n] * Y[..., :n]
            for d in range(1, self.k + 1):
                out += t[d, d:d + n] * Y[..., d:d + n]
            return out
        y = np.ascontiguousarray(Y, dtype=float).reshape(-1)
        out = np.empty(np.shape(Y))
        flat, L = out.reshape(-1), max(y.size - self.k, 0)
        np.multiply(y[:L], t[0, 0], out=flat[:L])
        tmp = np.empty(L)
        for d in range(1, self.k + 1):
            flat[:L] += np.multiply(y[d:d + L], t[d, 0], out=tmp)
        return out[..., :n]

    def gram(self) -> np.ndarray:
        """``H'H``, bandwidth ``min(k, n - 1)``: ``(H'H)[j + d, j]`` sums
        ``taps[d + e, i] taps[e, i]``, ``i = j + d + e``, over ``e <= k - d``."""
        n, k, t = self.n, self.k, self.taps
        band = np.zeros((min(k, n - 1) + 1, n))
        for d in range(len(band)):
            for e in range(k - d + 1):
                band[d, : n - d] += t[d + e, d + e : n + e] * t[e, d + e : n + e]
        return band

    def output_cov(self) -> np.ndarray:
        """``I + H H'``, bandwidth ``k``, identity first: ``(H H')[i + e, i]``
        sums ``taps[f + e, i + e] taps[f, i]`` over ``f <= k - e``, ``0 <= i - f < n``."""
        n, k, t = self.n, self.k, self.taps
        band = np.zeros((k + 1, self.m))
        band[0] = 1.0
        for e in range(k + 1):
            for f in range(k - e + 1):
                band[e, f : f + n] += t[f + e, f + e : f + e + n] * t[f, f : f + n]
        return band

    def __sub__(self, other: BandedChannelMatrix) -> BandedChannelMatrix:
        return BandedChannelMatrix(n=self.n, k=self.k, taps=self.taps - other.taps)

    def scaled(self, w: np.ndarray) -> BandedChannelMatrix:
        """``H diag(w)``: tap ``d`` of output ``j + d`` times ``w[j]``, the
        corner taps kept as they are."""
        n = self.n
        rows = [np.concatenate((t[:d], t[d:d + n] * w, t[d + n:])) for d, t in enumerate(self.taps)]
        return BandedChannelMatrix(n=n, k=self.k, taps=rows)


def build_Hc(spec: ChannelSpec, n: int) -> BandedChannelMatrix:
    """Banded matrix of the centre taps (every output uses ``c``)."""
    n = _as_int(n, "n")
    taps = np.repeat(np.asarray(spec.c)[:, None], max(n + spec.k, 0), axis=1)
    return BandedChannelMatrix(n=n, k=spec.k, taps=taps)  # which refuses n < 1


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
    positive, in C order.  Entries within ``SIGN_TIE_REL`` of the largest
    magnitude count as tied and the first of them decides, so ties that are
    exact in exact arithmetic (the sine eigenvectors of a tridiagonal Gram)
    are broken by index, not by rounding."""
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
    def from_eigh(cls, vectors: "GramVectors", keep: np.ndarray) -> "HalfBasis":
        """The columns of ``gram_eigh``'s ``vectors`` that the boolean mask
        ``keep`` (in ``lam``'s order) marks, each flipped so that its
        largest-magnitude entry is positive (the first one on ties to
        ``SIGN_TIE_REL``): no column's sign is left to the arithmetic that
        built it, and every column ``u`` of ``U`` satisfies ``u[::-1] ==
        +-u`` exactly.  Columns left out are never computed."""
        Zs, Zk = vectors.columns(keep)
        return cls(sym=_signed(Zs), skew=_signed(Zk))

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
        top, Q = V[:, :h], V[:, n - h:][:, ::-1].copy()  # J v_bot, read reversed once
        P = np.empty((len(V), n - h))
        np.add(top, Q, out=P[:, :h])
        P[:, :h] *= _R2
        if n > 2 * h:
            P[:, h] = V[:, h]
        np.subtract(top, Q, out=Q)
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


def _colleague(coef: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The ``(s, k', k')`` colleague matrices of ``p(x) - lam``, ``p`` the
    Chebyshev series ``coef`` of degree ``k' >= 1``, whose eigenvalues are
    the roots (I. J. Good, Quart. J. Math. 12, 1961): numpy's
    ``chebcompanion`` of ``p``, in which ``lam`` moves only the entry that
    reads ``coef[0]``, ``[0, -1]``, by ``lam / (sqrt(2) coef[-1])`` (by
    ``lam / coef[-1]`` at ``k' = 1``)."""
    mats = np.repeat(chebcompanion(coef)[None], len(lam), axis=0)
    mats[:, 0, -1] += lam * ((_R2 if len(coef) > 2 else 1.0) / coef[-1])
    return mats


def _ghost_rows(zeta: np.ndarray, n: int, sign: np.ndarray) -> np.ndarray:
    """The ``(s, k', k')`` ghost systems: row ``j`` (``1..k'``) holds the
    ``k'`` terms ``cosh((M + j) zeta_l)`` (``sinh`` where ``sign`` is -1),
    ``M = (n - 1) / 2``, of the recurrence's extension to index ``n - 1 +
    j``, each scaled by ``2 exp(-(M + k') zeta_l)``."""
    kp = zeta.shape[1]
    j = np.arange(1, kp + 1)
    far = np.exp(-zeta[:, :, None] * (n - 1 + kp + j)) * sign[:, None, None]
    return (np.exp(-zeta[:, :, None] * (kp - j)) + far).transpose(0, 2, 1)


def _pinned_roots(coef: np.ndarray, lam: np.ndarray, n: int, sign: np.ndarray) -> np.ndarray:
    """Roots ``zeta`` (``(s, k')``) of ``p(x) = lam`` for each ``lam``, with
    the root that a rounding of ``lam`` moves most pinned by the ghost
    system itself.

    The root ``x`` with the smallest ``|dlam/dzeta| = |p'(x) sinh(zeta)|``
    (a real ``x`` near +-1 or near a turning point of ``p``) moves far for
    an ulp of ``lam``: at the top of the spectrum ``x`` is ``1 - O(1/n^2)``
    and its phase across ``n`` entries carries ``O(n^2)`` ulps of ``lam``.
    Where that slope is below ``sum |coef| / 16`` (a bound on ``|lam|``),
    the root is taken as ``w`` on its real line (``x = cos w``, ``cosh w``
    or ``-cosh w``) and one secant step on ``w`` zeros the ghost system's
    determinant, the other roots held (a rounding of ``lam`` moves them
    little).  The pin is not checked here: a column whose pin goes astray
    is no eigenvector of its ``lam``, and ``GramVectors.columns`` sends its
    half to LAPACK.  The roots are the eigenvalues of one batch of
    colleague matrices (``_colleague``, numpy's ``chebcompanion``)."""
    x = np.linalg.eigvals(_colleague(coef, lam)).astype(complex)
    zeta = np.arccosh(x)  # the principal branch: Re zeta >= 0
    lags = np.arange(1, len(coef))
    slope = np.abs(np.sinh(zeta[:, :, None] * lags) @ (lags * coef[1:]))  # |p'(x) sinh(zeta)|
    slope[x.imag != 0.0] = np.inf
    pick = np.argmin(slope, axis=1)
    idx = np.flatnonzero(slope[np.arange(len(lam)), pick] < np.abs(coef).sum() / 16.0)
    z, col = zeta[idx], pick[idx]
    xp = x[idx, col].real
    osc = np.abs(xp) <= 1.0
    turn = np.where(xp < -1.0, math.pi, 0.0)

    def pinned(w):
        z[np.arange(len(w)), col] = np.where(osc, 1j * w, w + 1j * turn)
        return z

    w0 = np.where(osc, np.arccos(np.clip(xp, -1.0, 1.0)), np.arccosh(np.maximum(np.abs(xp), 1.0)))
    w1 = w0 + 1e-7 * np.maximum(w0, 1.0 / n)
    g0, g1 = (np.linalg.det(_ghost_rows(pinned(w), n, sign[idx])) for w in (w0, w1))
    d = g1 - g0
    zeta[idx] = pinned(w1 - (g1 * (w1 - w0) / np.where(d == 0.0, 1.0, d)).real * (d != 0.0))
    return zeta


def _root_values(zeta: np.ndarray, a: np.ndarray, n: int, sign: np.ndarray) -> np.ndarray:
    """The complex vectors ``sum_l a_l (exp(m zeta_l) + sign exp(-m
    zeta_l)) / 2``, one per row of ``zeta`` and ``a`` (``(s, k')``), on the
    centred indices ``m = i - M``, ``M = (n - 1) / 2``, of the top ``n - n
    // 2`` entries ``i``, each term scaled by ``exp(-(M + k') zeta_l)``: so
    that with ``Re zeta >= 0`` no exponential exceeds 1, they are read off a
    table of ``exp(-p zeta)``, ``p = 32 a + b``, built as ``exp(-32 a
    zeta)`` times ``exp(-b zeta)`` in one batched complex ``matmul``."""
    kp, rows = zeta.shape[1], n - n // 2
    blocks = -(-(n + 2 * kp) // _TABLE)
    coarse = np.exp(-zeta[:, :, None] * (_TABLE * np.arange(blocks))) * a[:, :, None]
    fine = np.exp(-zeta[:, :, None] * np.arange(_TABLE))
    W = np.matmul(coarse.transpose(0, 2, 1), fine).reshape(len(zeta), -1)
    V = W[:, kp:kp + rows]
    V += W[:, n + kp - rows:n + kp][:, ::-1] * sign[:, None]
    return V


def _real_part(V: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``Re(V conj(top))`` into ``out``, ``top`` each row's largest entry:
    a vector real up to one phase rotated to real, up to rounding."""
    top = V[np.arange(len(V)), np.argmax(V.real ** 2 + V.imag ** 2, axis=1)]
    np.multiply(V.real, top.real[:, None], out=out)
    out += V.imag * top.imag[:, None]
    return out


def _root_columns(zeta: np.ndarray, a: np.ndarray, n: int, sign: np.ndarray) -> np.ndarray:
    """Unit vectors, one per row, in ``HalfBasis``'s layout of the
    J-symmetric half (``n - n // 2`` entries), of ``_root_values`` for the
    roots ``zeta`` and coefficients ``a``, each J-symmetric (``sign = 1``)
    or J-skew (``sign = -1``; its middle entry, for odd ``n``, is exactly
    0): each is rotated to real (``_real_part``), its top ``n // 2``
    entries scaled by ``sqrt(2)``, and normalised.  The values come a chunk
    of rows at a time, so that the complex scratch stays below half the
    float64 vectors it fills, about one half basis (or below ``_SCRATCH``
    where that is smaller)."""
    h, kp, s = n // 2, zeta.shape[1], len(zeta)
    rows = n - h
    blocks = -(-(n + 2 * kp) // _TABLE)
    out = np.empty((s, rows))
    step = max(1, max(4 * rows * s, _SCRATCH) // (16 * (_TABLE * blocks + kp * (blocks + _TABLE))))
    for lo in range(0, s, step):
        part = slice(lo, lo + step)
        _real_part(_root_values(zeta[part], a[part], n, sign[part]), out[part])
    out[:, :h] *= math.sqrt(2.0)
    out /= np.linalg.norm(out, axis=1)[:, None]
    return out


def _eigencolumns(Z: np.ndarray, band: np.ndarray, lam: np.ndarray, h: int, tol: float) -> np.ndarray | None:
    """``Z (I - D / 2)`` for ``D = Z'Z - I`` (orthonormal to second order in
    ``D``) if each column ``u`` is an eigenvector of its ``lam`` for the
    half band's matrix ``G``: no entry of ``G u - g u`` (the top ``h`` rows
    at ``1 / sqrt(2)``, as ``HalfBasis`` folds them) nor ``g - lam``, ``g =
    u'G u``, past ``tol``.  Else None, as where an entry of ``D`` exceeds
    1e-7, the overlap the correction is valid for, or is NaN."""
    D = Z.T @ Z
    D[np.diag_indices(len(D))] -= 1.0
    if not np.abs(D).max(initial=0.0) <= 1e-7:
        return None
    Z = Z - Z @ (0.5 * D)
    R = _sym_band_apply(band, Z)
    g = np.einsum("ij,ij->j", Z, R)
    R -= Z * g
    R[:h] *= _R2
    return Z if np.abs(R).max(initial=0.0) <= tol and np.abs(g - lam).max(initial=0.0) <= tol else None


@dataclass(frozen=True, eq=False)
class GramVectors:
    """Eigenvectors of the Gram matrix of the centre taps at order ``n``,
    computed only for the columns a caller asks for: ``columns(keep)``
    gives them as the two half arrays ``(Zs, Zk)`` in ``HalfBasis``'s
    layout, for the boolean mask ``keep`` in ``lam``'s order (the
    J-symmetric half's eigenvalues first, ``len(lam_sym)`` of them)."""

    t: np.ndarray
    n: int
    lam_sym: np.ndarray
    lam_skew: np.ndarray

    def columns(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each half's columns for its kept eigenvalues, ascending, both
        halves in one batch.  In the centred index ``m = i - M``, ``M = (n -
        1) / 2``, the interior rows of ``(G - lam) v = 0`` hold for every
        ``sum_l a_l cosh(m zeta_l)`` (``sinh`` in the skew half),
        ``cosh(zeta_l)`` the ``k'`` roots of ``p(x) = lam``
        (``_pinned_roots``); the truncated rows hold exactly when the
        extension vanishes at the ``k'`` indices past each end, and ``a`` is
        the null vector of that ghost system (one batched SVD; W. F.
        Trench, Linear Algebra Appl. 64, 1985).  Two such columns whose
        eigenvalues are ``g`` apart overlap by about ``4 eps ||G||_1 / g``
        (measured).  Each half's columns are then measured together
        (``_eigencolumns``): where no entry of ``D = Z'Z - I`` exceeds 1e-7
        they are corrected to ``Z - Z (D / 2)``, and kept if one pass over
        the half band shows each to be an eigenvector of its own ``lam``,
        every entry of ``G u - g u`` and ``g - lam`` within ``4 n eps
        ||G||_1`` (a residual bounds the distance to an eigenvector: B. N.
        Parlett, *The Symmetric Eigenvalue Problem*, 1998, ch. 11).
        Elsewhere the half takes the kept columns of LAPACK's full
        eigenbasis of its band (``eig_banded``, dsbevd): where eigenvalues
        tie (a zero inner tap can repeat them up to ``k'``-fold), or where
        the route loses or misplaces roots, as at a negligible end tap or
        near-coalescing roots.  At ``k' = 0`` the Gram matrix is ``t_0 I``
        and the columns are those of ``I``."""
        r, n, t = len(self.lam_sym), self.n, self.t
        h = n // 2
        if len(t) == 1 or not keep.any():
            return np.eye(r)[:, keep[:r]], np.eye(h)[:, keep[r:]]
        lam = np.concatenate([self.lam_sym, self.lam_skew])[keep]
        sym = int(keep[:r].sum())
        sign = np.where(np.arange(len(lam)) < sym, 1.0, -1.0)
        coef = np.concatenate([t[:1], 2.0 * t[1:]])  # |f|^2 = t_0 + 2 sum_d t_d T_d(cos omega)
        kernel = np.abs(np.concatenate([t[:0:-1], t]))  # |G|'s column sums: ones(n) convolved with it
        tol = 4.0 * n * np.finfo(float).eps * float(np.convolve(np.ones(n), kernel)[len(t) - 1:][:n].max())
        bands = _half_bands(t, n)
        with np.errstate(all="ignore"):  # what the route gives is measured before it is used
            try:
                zeta = _pinned_roots(coef, lam, n, sign)
                V = _root_columns(zeta, np.linalg.svd(_ghost_rows(zeta, n, sign))[2][:, -1].conj(), n, sign)
                parts = [_eigencolumns(Z, band, lz, h, tol) for Z, band, lz in
                         zip((V[:sym].T, V[sym:, :h].T), bands, (lam[:sym], lam[sym:]))]
            except np.linalg.LinAlgError:  # a root solve that refused what the route lost
                parts = [None, None]
        return tuple(Z if Z is not None else eig_banded(band, lower=False)[1][:, kept]
                     for Z, band, kept in zip(parts, bands, (keep[:r], keep[r:])))


def _gram_halves(spec: ChannelSpec, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The lag coefficients of the Gram matrix up to its last non-zero lag
    ``k'`` (a zero first or last tap makes ``k' < k``; ``t_0`` is kept even
    where it underflows to 0), and the ascending eigenvalues of its two
    half bands, one ``eigvals_banded`` call each."""
    if n < 1:
        raise ValueError("need n >= 1")
    t = _tap_autocorr(spec.c)
    t = t[: np.flatnonzero(t).max(initial=0) + 1]
    return t, [eigvals_banded(band, lower=False) for band in _half_bands(t, n)]


def gram_eigh(spec: ChannelSpec, n: int) -> tuple[np.ndarray, GramVectors]:
    """Eigenvalues ``lam`` of the centre Gram matrix ``Hc' Hc``, in the
    halves' own column order (the J-symmetric half's ascending, then the
    J-skew half's), and its eigenvectors as a ``GramVectors``, which
    computes only the columns asked of it.  ``HalfBasis.from_eigh`` signs
    and holds those a caller keeps.

    The Gram matrix is symmetric Toeplitz, hence centrosymmetric, so it
    splits exactly into a J-symmetric and a J-skew half of order about
    ``n / 2`` (Cantoni & Butler, Lin. Alg. Appl. 13, 1976), each banded
    with bandwidth ``k`` and built in band form in O(n k).  One
    ``eigvals_banded`` call per half gives the eigenvalues; a kept
    column's vector comes from the roots of ``|f|^2 = lam`` in O(n k) (see
    ``GramVectors.columns``), and the kept columns of a half are
    orthonormalised by one product of their Gram unless they overlap past
    1e-7 or one is not an eigenvector of its own ``lam`` to ``4 n eps
    ||G||_1`` (tied eigenvalues, lost or misplaced roots): then LAPACK's
    full eigenbasis of its band gives them.  No ``n x n`` array is formed.
    """
    t, (lam_s, lam_k) = _gram_halves(spec, n)
    return np.concatenate([lam_s, lam_k]), GramVectors(t=t, n=n, lam_sym=lam_s, lam_skew=lam_k)


def gram_eigenvalues(spec: ChannelSpec, n: int) -> np.ndarray:
    """Ascending eigenvalues of the centre Gram matrix: ``gram_eigh``'s, the
    ones ``build_sigma`` water-fills, sorted, from the same two
    ``eigvals_banded`` calls and without a vector."""
    return np.sort(np.concatenate(_gram_halves(spec, n)[1]))
