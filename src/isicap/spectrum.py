"""Channel description and spectral analysis of the tap-centre filter.

The channel is a length-(k+1) tapped delay line whose tap ``i`` lives in the
interval ``[c_i - r_i, c_i + r_i]``.  Everything downstream is driven by the
transfer function of the centre taps,

    f(omega) = sum_l c_l * exp(1j * l * omega),

through its squared magnitude ``|f|^2``: the extreme values ``alpha^2`` and
``beta^2``, the inverse-spectrum mean ``J``, and the Gram matrix of the tall
banded convolution matrix built from the centre taps.

All integrals over ``[0, 2*pi]`` are composite-Simpson sums on one shared,
cached grid so that quantities which are equal in exact arithmetic (e.g. the
water-filling integral above the highest inverse-spectrum value) stay equal
to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvals_banded, toeplitz

from .errors import SpectrumSingular

__all__ = [
    "ChannelSpec",
    "SpectrumProfile",
    "BandedChannelMatrix",
    "eval_f_sq",
    "compute_profile",
    "f_sq_table",
    "simpson_mean",
    "simpson_weights",
    "banded_from_taps",
    "build_Hc",
    "gram_matrix",
    "gram_eigenvalues",
]

DEFAULT_GRID = 8192
MIN_GRID = 256
REFINE_REL_TOL = 1e-10
SINGULAR_REL_TOL = 1e-12
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        return cls(k=int(obj["k"]), c=tuple(obj["c"]), r=tuple(obj["r"]))

    def to_json(self) -> dict:
        return {"k": self.k, "c": list(self.c), "r": list(self.r)}


@dataclass(frozen=True)
class SpectrumProfile:
    """Scalar summary of the centre spectrum.

    alpha, beta   -- min resp. max of |f| over the unit circle
    J             -- mean of 1/|f|^2 over the circle
    r_s           -- sum of the tap radii
    norm_c_sq     -- squared 2-norm of the tap centres
    norm_r_sq     -- squared 2-norm of the tap radii
    """

    alpha: float
    beta: float
    J: float
    r_s: float
    norm_c_sq: float
    norm_r_sq: float


def eval_f_sq(spec: ChannelSpec, omega):
    """Squared magnitude of the centre transfer function at ``omega``.

    ``omega`` may be a scalar or an ndarray; the return matches its shape.
    """
    w = np.asarray(omega, dtype=float)
    ell = np.arange(spec.k + 1, dtype=float)
    phase = np.multiply.outer(w, ell)
    c = np.asarray(spec.c)
    re = np.cos(phase) @ c
    im = np.sin(phase) @ c
    out = re * re + im * im
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


@lru_cache(maxsize=128)
def f_sq_table(spec: ChannelSpec, grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """``|f|^2`` sampled at the ``grid_size + 1`` uniform Simpson nodes on
    ``[0, 2*pi]`` (endpoints included).  The returned array is read-only."""
    if grid_size < MIN_GRID or grid_size % 2 != 0:
        raise ValueError(f"grid_size must be even and >= {MIN_GRID}")
    omega = np.linspace(0.0, 2.0 * np.pi, grid_size + 1)
    vals = eval_f_sq(spec, omega)
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


def simpson_mean(values: np.ndarray) -> float:
    """``(1/2pi) * integral over [0, 2pi]`` of a function given by its values
    on the shared uniform grid (``len(values)`` must be odd)."""
    n = len(values) - 1
    return float(simpson_weights(n) @ values) / (2.0 * np.pi)


def _golden_min(fn, a: float, b: float, rel_tol: float) -> float:
    """Golden-section minimum of a unimodal ``fn`` on ``[a, b]``; returns the
    minimum *value*."""
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    while (b - a) > rel_tol * max(1.0, abs(a) + abs(b)):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = fn(x2)
    return min(f1, f2)


@lru_cache(maxsize=128)
def compute_profile(spec: ChannelSpec, grid_size: int = DEFAULT_GRID) -> SpectrumProfile:
    """Scan ``|f|^2`` on the shared grid, refine each extremum by golden
    section inside its bracketing cell, and average ``1/|f|^2``.

    Raises SpectrumSingular when the refined minimum of ``|f|`` is at or
    below ``1e-12 * beta`` (the inverse spectrum, and hence ``J``, is then
    meaningless).
    """
    table = f_sq_table(spec, grid_size)
    h = 2.0 * np.pi / grid_size
    # Periodic wrap: node grid_size duplicates node 0, so bracket indices
    # modulo grid_size keep both extrema interior to their cell.
    j_min = int(np.argmin(table[:-1]))
    j_max = int(np.argmax(table[:-1]))

    def fsq(w: float) -> float:
        return eval_f_sq(spec, w)

    refined_min = _golden_min(fsq, (j_min - 1) * h, (j_min + 1) * h, REFINE_REL_TOL)
    refined_max = -_golden_min(lambda w: -fsq(w), (j_max - 1) * h, (j_max + 1) * h, REFINE_REL_TOL)
    f_sq_min = min(float(table[j_min]), refined_min)
    f_sq_max = max(float(table[j_max]), refined_max)

    beta = math.sqrt(f_sq_max)
    if f_sq_min <= 0.0 or math.sqrt(max(f_sq_min, 0.0)) <= SINGULAR_REL_TOL * beta:
        raise SpectrumSingular(
            f"min |f| = {math.sqrt(max(f_sq_min, 0.0)):.3e} is negligible against "
            f"max |f| = {beta:.3e}"
        )
    alpha = math.sqrt(f_sq_min)
    J = simpson_mean(1.0 / table)
    return SpectrumProfile(
        alpha=alpha,
        beta=beta,
        J=J,
        r_s=spec.r_s,
        norm_c_sq=spec.norm_c_sq,
        norm_r_sq=spec.norm_r_sq,
    )


@dataclass(frozen=True)
class BandedChannelMatrix:
    """Tall banded convolution matrix: shape ``(n + k, n)`` with entry
    ``(i, j)`` equal to tap ``i - j`` of column ``j``'s realization, zero
    outside ``0 <= i - j <= k``.  ``entries`` is read-only after build."""

    m: int
    n: int
    k: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.shape != (self.m, self.n):
            raise ValueError(
                f"entries shape {self.entries.shape} != ({self.m}, {self.n})"
            )
        if self.m != self.n + self.k:
            raise ValueError("need m == n + k")


def banded_from_taps(taps: np.ndarray, n: int, k: int) -> BandedChannelMatrix:
    """Assemble the banded matrix from per-output tap rows.

    ``taps`` has shape ``(n + k, k + 1)``; row ``i`` holds the taps applied
    by output ``i``, and entry ``(i, j)`` of the result is ``taps[i, i - j]``.
    """
    taps = np.asarray(taps, dtype=float)
    m = n + k
    if taps.shape != (m, k + 1):
        raise ValueError(f"taps shape {taps.shape} != ({m}, {k + 1})")
    H = np.zeros((m, n))
    cols = np.arange(n)
    for d in range(k + 1):
        H[cols + d, cols] = taps[cols + d, d]
    H.setflags(write=False)
    return BandedChannelMatrix(m=m, n=n, k=k, entries=H)


def build_Hc(spec: ChannelSpec, n: int) -> BandedChannelMatrix:
    """Banded matrix of the centre taps (every output uses ``c``)."""
    if n < 1:
        raise ValueError("need n >= 1")
    taps = np.tile(np.asarray(spec.c), (n + spec.k, 1))
    return banded_from_taps(taps, n, spec.k)


def _tap_autocorr(spec: ChannelSpec) -> np.ndarray:
    c = np.asarray(spec.c)
    return np.array(
        [c[: len(c) - d] @ c[d:] for d in range(spec.k + 1)]
    )


def gram_matrix(spec: ChannelSpec, n: int) -> np.ndarray:
    """Gram matrix of the centre banded matrix: symmetric Toeplitz with the
    tap autocorrelation on diagonals ``0..k`` and zeros beyond.

    Because the banded matrix has ``n + k`` rows, no boundary truncation
    occurs and this equals the exact product of the matrix with itself.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    t = _tap_autocorr(spec)
    col = np.zeros(n)
    w = min(spec.k + 1, n)
    col[:w] = t[:w]
    return toeplitz(col)


def gram_eigenvalues(spec: ChannelSpec, n: int) -> np.ndarray:
    """Ascending eigenvalues of the Gram matrix, via its band form."""
    if n < 1:
        raise ValueError("need n >= 1")
    t = _tap_autocorr(spec)
    u = min(spec.k, n - 1)
    band = np.zeros((u + 1, n))
    for d in range(u + 1):
        band[u - d, d:] = t[d]
    return eigvals_banded(band, lower=False)
