"""Independent numerical oracles used by the tests.

These deliberately avoid the package's own algorithms: the shell minimizer
is a projected-gradient descent with retraction and restarts, not an
eigenvalue solve, the spectrum extrema come from high-precision Newton
steps, not from polynomial roots or an FFT, the grid's water and rate
integral are summed node by node (the rate in 30 digits), not from prefix
tables, a channel use is summed exactly, entry by entry of the dense
matrix, the centre Gram matrix is filled lag by lag from the taps and its
eigenvalues come from LAPACK's band eigensolver on the whole band, and the
``verify`` checks are evaluated in their dense textbook form (whole block
matrices, ``np.diag`` covariances, full eigenvalue lists), the pencil's
sums run over every generalized eigenvalue, not a tridiagonal form, the
shell volume is a difference of two ball volumes in 30 digits, not of logs,
and the decoder's type-1 probability and mean number of passing candidates
are noncentral chi-squared laws (scipy.stats), not Monte Carlo counts.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg
import scipy.stats


def shell_min_oracle(
    omega_c: np.ndarray,
    omega_h: np.ndarray,
    rho: float,
    seed: int = 0,
    restarts: int = 10,
    iters: int = 4000,
) -> float:
    """Minimize ``y' omega_h^{-1} y`` over ``{y : y' omega_c^{-1} y = rho}``
    by Armijo projected gradient with rescaling retraction."""
    if rho <= 0.0:
        return 0.0
    A = np.linalg.inv(omega_h)
    B = np.linalg.inv(omega_c)
    m = A.shape[0]
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        y = rng.standard_normal(m)
        y *= math.sqrt(rho / (y @ B @ y))
        f = float(y @ A @ y)
        for _ in range(iters):
            g = 2.0 * (A @ y)
            normal = B @ y
            g_t = g - (g @ normal) / (normal @ normal) * normal
            gn = float(g_t @ g_t)
            if gn <= 1e-26 * max(1.0, f * f):
                break
            t = 1.0
            improved = False
            for _ in range(60):
                y_new = y - t * g_t
                y_new *= math.sqrt(rho / (y_new @ B @ y_new))
                f_new = float(y_new @ A @ y_new)
                if f_new < f - 1e-4 * t * gn:
                    y, f = y_new, f_new
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
        best = min(best, f)
    return best


def f_sq_direct(c, omega) -> np.ndarray:
    """``|f(omega)|^2`` for ``f(w) = sum_l c_l e^{i l w}``, from the complex
    exponentials term by term."""
    omega = np.asarray(omega, dtype=float)
    f = sum(cl * np.exp(1j * l * omega) for l, cl in enumerate(c))
    return np.abs(f) ** 2


def _simpson_node_weights(grid_size: int) -> np.ndarray:
    """Composite-Simpson weights ``1, 4, 2, ..., 2, 4, 1`` over
    ``3 grid_size``: a function's circle mean from its values at the
    ``grid_size + 1`` nodes ``2 pi j / grid_size``."""
    w = np.full(grid_size + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w / (3.0 * grid_size)


def g_grid_oracle(c, theta: float, grid_size: int = 8192) -> float:
    """Total water at level ``theta``: the Simpson circle mean of
    ``max(theta - 1/|f|^2, 0)``, summed directly over ``f_sq_direct`` at
    the grid's nodes."""
    omega = np.arange(grid_size + 1) * (2.0 * math.pi / grid_size)
    water = np.maximum(theta - 1.0 / f_sq_direct(c, omega), 0.0)
    return float(_simpson_node_weights(grid_size) @ water)


def cap_grid_oracle(v, theta: float, digits: int = 30) -> float:
    """Half the Simpson circle mean of ``log2(max(theta / v, 1))`` from the
    inverse-spectrum node values ``v = 1/|f|^2`` (``grid_size + 1`` of them,
    both endpoints), with every value and ``theta`` taken exactly.  Each
    weight class's wet ratios ``theta / v_j > 1`` are multiplied in
    ``digits`` digits and the product's log taken once, so nothing
    cancels."""
    v = np.asarray(v, dtype=float)
    n = len(v) - 1
    classes = {1: v[[0, n]], 4: v[1:n:2], 2: v[2:n:2]}
    with mpmath.workdps(digits):
        th = mpmath.mpf(float(theta))
        total = mpmath.mpf(0)
        for weight, nodes in classes.items():
            ratios = [th / mpmath.mpf(x) for x in nodes[nodes < theta].tolist()]
            total += weight * mpmath.log(mpmath.fprod(ratios), 2)
        return float(total / (6 * n))


def dense_gram(c, n: int) -> np.ndarray:
    """Gram matrix ``H' H`` of the ``(n + k) x n`` convolution matrix of
    taps ``c``: entry ``(i, j)`` is ``sum_l c_l c_{l + |i - j|}``, each lag's
    sum taken with ``math.fsum``."""
    c = [float(v) for v in c]
    lags = [math.fsum(c[l] * c[l + d] for l in range(len(c) - d)) for d in range(len(c))]
    lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.array(lags + [0.0])[np.minimum(lag, len(c))]


def gram_eigenvalue_oracle(c, n: int) -> np.ndarray:
    """Ascending eigenvalues of ``dense_gram(c, n)``, from LAPACK's band
    eigensolver (``scipy.linalg.eig_banded``) on the whole band of the Gram
    matrix: no J-split into halves, no roots."""
    G = dense_gram(c, n)
    u = min(len(c) - 1, n - 1)
    band = np.zeros((u + 1, n))
    for d in range(u + 1):
        band[u - d, d:] = np.diagonal(G, d)
    return scipy.linalg.eig_banded(band, lower=False, eigvals_only=True)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """``a * b`` as an exact sum ``p + e`` of two doubles (Dekker's split)."""
    p = a * b
    s = 134217729.0  # 2**27 + 1
    ah = a * s - (a * s - a)
    bh = b * s - (b * s - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def exact_channel_use(taps: np.ndarray, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``y = H x + z`` correctly rounded, and ``sum_j |h_ij x_j| + |z_i|`` per
    row, for the ``(n + k) x n`` matrix with ``h_ij = taps[i - j, i]`` on
    ``0 <= i - j <= k``.  Each product is split exactly into two doubles and
    ``math.fsum`` adds a row's pieces and its noise without rounding."""
    width, m = taps.shape
    n = len(x)
    y, scale = np.empty(m), np.empty(m)
    for i in range(m):
        terms = [float(z[i])]
        mag = abs(float(z[i]))
        for j in range(max(0, i - width + 1), min(n, i + 1)):
            terms.extend(_two_product(float(taps[i - j, i]), float(x[j])))
            mag += abs(float(taps[i - j, i]) * float(x[j]))
        y[i] = math.fsum(terms)
        scale[i] = mag
    return y, scale


def dense_joint_covariance(sigma: np.ndarray, taps) -> tuple[np.ndarray, np.ndarray]:
    """The centre matrix ``H`` (``m x n``, column ``j`` holds the taps from
    row ``j``) and the joint covariance of ``(x, Hx + z)``,
    ``Xi = [[Sigma, Sigma H'], [H Sigma, I + H Sigma H']]``, both dense and
    of ``sigma``'s dtype (object arrays of ``Fraction`` stay exact)."""
    n = sigma.shape[0]
    taps = np.asarray(taps, dtype=sigma.dtype)
    m = n + len(taps) - 1
    H = np.zeros((m, n), dtype=sigma.dtype)
    for j in range(n):
        H[j:j + len(taps), j] = taps
    cross = sigma @ H.T
    xi = np.block([[sigma, cross], [cross.T, np.eye(m, dtype=sigma.dtype) + H @ cross]])
    return H, xi


def joint_typicality_oracle(
    codewords: np.ndarray,
    Y: np.ndarray,
    sigma: np.ndarray,
    taps,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalised input statistics ``x' Sigma^{-1} x / n`` per codeword and
    joint statistics ``w' Xi^{-1} w / (n + m)`` per (codeword, row of Y).

    Builds ``Xi`` with ``dense_joint_covariance`` and evaluates each
    quadratic form with ``np.linalg.solve``; no closed-form inverse and no
    residual split."""
    n = sigma.shape[0]
    _, xi = dense_joint_covariance(sigma, taps)
    m = xi.shape[0] - n
    x_stat = np.einsum("ij,ji->i", codewords, np.linalg.solve(sigma, codewords.T)) / n
    size, T = len(codewords), len(Y)
    W = np.concatenate([np.repeat(codewords, T, axis=0), np.tile(Y, (size, 1))], axis=1)
    w_stat = np.einsum("ij,ji->i", W, np.linalg.solve(xi, W.T)) / (n + m)
    return x_stat, w_stat.reshape(size, T)


def _exact_quad_forms(A: list, vectors: list) -> list:
    """``v' A^{-1} v`` for each vector, in rationals: Gauss-Jordan
    elimination of ``[A | v_1 ... v_r]`` with the first nonzero pivot."""
    dim = len(A)
    rows = [list(A[i]) + [v[i] for v in vectors] for i in range(dim)]
    for col in range(dim):
        piv = next(i for i in range(col, dim) if rows[i][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col]
        inv = 1 / p[col]
        p[:] = [v * inv for v in p]
        for i in range(dim):
            f = rows[i][col]
            if i != col and f != 0:
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
    return [
        sum(v[i] * rows[i][dim + j] for i in range(dim))
        for j, v in enumerate(vectors)
    ]


def exact_joint_statistics(
    codewords: np.ndarray,
    Y: np.ndarray,
    d: np.ndarray,
    basis: np.ndarray,
    taps,
    floor: float = 0.0,
) -> tuple[list, list]:
    """``joint_typicality_oracle`` in exact rational arithmetic.

    Every float input is converted to a ``Fraction`` exactly; ``Sigma`` is
    ``U diag(d - floor) U' + floor I`` for the orthonormal columns ``basis``
    ``U`` (``U diag(d) U'`` plus ``floor`` on the rest) and ``Xi`` comes
    from ``dense_joint_covariance`` on it, with no rounding anywhere.
    Returns the input statistics per codeword and the joint statistics as
    one list per codeword, each a ``Fraction``."""
    n = len(basis)
    fr = np.vectorize(Fraction, otypes=[object])
    U = fr(np.asarray(basis))
    floor = Fraction(floor)
    sigma = (U * (fr(np.asarray(d)) - floor)) @ U.T + floor * np.eye(n, dtype=int).astype(object)
    _, xi = dense_joint_covariance(sigma, fr(np.asarray(taps, dtype=float)))
    m = xi.shape[0] - n
    X = [list(fr(x)) for x in codewords]
    Yf = [list(fr(y)) for y in Y]
    x_stat = [q / n for q in _exact_quad_forms(sigma.tolist(), X)]
    w = [x + y for x in X for y in Yf]
    q = _exact_quad_forms(xi.tolist(), w)
    T = len(Yf)
    w_stat = [[v / (n + m) for v in q[i * T:(i + 1) * T]] for i in range(len(X))]
    return x_stat, w_stat


def exact_waterfill_level(lam, total: float, eps: float) -> Fraction:
    """The level ``theta`` with ``sum_i max(theta - 1/lam_i, eps) = total``,
    in exact rationals: every float input is converted to a ``Fraction``
    exactly, and active sets (the ``j`` smallest inverse gains above the
    floor) are tried in turn until one yields a level consistent with it."""
    inv = sorted(1 / Fraction(float(v)) for v in lam)
    total, eps = Fraction(total), Fraction(eps)
    n = len(inv)
    for j in range(1, n + 1):
        theta = (total - (n - j) * eps + sum(inv[:j])) / j
        if theta - inv[j - 1] > eps and (j == n or theta - inv[j] <= eps):
            return theta
    raise ValueError("total power does not clear the per-channel floor")


def shell_volume_oracle(n: int, eta: float, digits: int = 30) -> float:
    """``log2`` of the volume of the shell ``{a in R^n : | ||a||^2 / n - 1 |
    < eta}``, ``V_n (n (1 + eta))^(n/2) - V_n (n (1 - eta))^(n/2)`` with the
    unit-ball volume ``V_n = pi^(n/2) / Gamma(n/2 + 1)``, the inner ball
    dropped once ``eta >= 1``, in ``digits`` digits."""
    with mpmath.workdps(digits):
        half = mpmath.mpf(n) / 2
        unit = mpmath.pi ** half / mpmath.gamma(half + 1)
        eta = mpmath.mpf(float(eta))
        vol = unit * (n * (1 + eta)) ** half
        if eta < 1:
            vol -= unit * (n * (1 - eta)) ** half
        return float(mpmath.log(vol, 2))


def spectrum_extrema_oracle(c, digits: int = 40) -> tuple:
    """``(min |f|, max |f|)`` over the circle for ``f(w) = sum_l c_l e^{i l
    w}``, as ``digits``-digit mpmath numbers.

    Every strict local extremum of ``|f|^2`` on a grid of ``max(4096, 64 (k
    + 1))`` angles brackets a stationary point between its two neighbours.
    Newton steps on ``d|f|^2/dw`` in double precision, clipped to the
    bracket, find each one (on the taps scaled by the power of two that puts
    the largest near 1, so that no derivative overflows).  Those whose
    ``|f|^2`` lies within ``1e-8 max |f|^2`` of the least or the greatest
    (far more than double rounding moves it) are refined again in
    ``digits``-digit arithmetic, by Newton steps kept in the bracket by
    bisection on the derivative's sign.  There ``f`` and its
    ``w``-derivatives come from one Horner pass of ``p(z) = sum c_l z^l``
    and its first two ``z``-derivatives at ``z = e^{iw}``: ``f' = i z p'``
    and ``f'' = -z p' - z^2 p''``, so ``(|f|^2)' = 2 Re(conj(f) f')`` and
    ``(|f|^2)'' = 2 (|f'|^2 + Re(conj(f) f''))``.  The extremes of those
    values and of ``|f|^2`` at the grid's own extreme nodes (all a constant
    spectrum has) are returned.
    """
    c = np.asarray(c, dtype=float)
    unit = np.ldexp(c, -math.frexp(float(np.abs(c).max()))[1])
    ell = np.arange(len(c))
    grid = max(4096, 64 * len(c))
    h = 2.0 * math.pi / grid

    def derivs_double(x):
        E = np.exp(1j * np.outer(x, ell))
        f, f1, f2 = E @ unit, E @ (1j * ell * unit), E @ (-(ell * ell) * unit)
        return np.abs(f) ** 2, 2.0 * (f.conj() * f1).real, 2.0 * (np.abs(f1) ** 2 + (f.conj() * f2).real)

    w = np.arange(grid) * h
    vals = derivs_double(w)[0]
    prev, nxt = np.roll(vals, 1), np.roll(vals, -1)
    idx = np.flatnonzero(((vals < prev) & (vals <= nxt)) | ((vals > prev) & (vals >= nxt)))
    x = w[idx]
    for _ in range(20):
        _, d1, d2 = derivs_double(x)
        x = np.clip(x - d1 / np.where(d2 == 0.0, np.inf, d2), w[idx] - h, w[idx] + h)
    v = derivs_double(x)[0]
    margin = 1e-8 * vals.max()
    keep = (v <= v.min(initial=np.inf) + margin) | (v >= v.max(initial=-np.inf) - margin)
    with mpmath.workdps(digits):
        cm = [mpmath.mpf(float(t)) for t in c[::-1]]

        def derivs(x):
            z = mpmath.expj(x)
            p = d1 = d2 = mpmath.mpc(0)
            for cl in cm:
                d2 = d2 * z + d1
                d1 = d1 * z + p
                p = p * z + cl
            f1 = 1j * z * d1
            f2 = -z * d1 - 2 * z * z * d2
            fc = mpmath.conj(p)
            return abs(p) ** 2, 2 * mpmath.re(fc * f1), 2 * (abs(f1) ** 2 + mpmath.re(fc * f2))

        found = [derivs(mpmath.mpf(float(w[j])))[0] for j in (np.argmin(vals), np.argmax(vals))]
        tol = mpmath.mpf(10) ** (5 - digits)
        for j, start in zip(idx[keep], x[keep]):
            lo, hi = mpmath.mpf(float(w[j]) - h), mpmath.mpf(float(w[j]) + h)
            below = derivs(lo)[1] < 0  # the derivative's sign at the bracket's low end
            y = mpmath.mpf(float(start))
            for _ in range(200):
                _, d1, d2 = derivs(y)
                if (d1 < 0) == below:
                    lo = y
                else:
                    hi = y
                step = d1 / d2 if d2 != 0 else y - (lo + hi) / 2
                if not lo < y - step < hi:
                    step = y - (lo + hi) / 2
                y -= step
                if abs(step) <= tol:
                    break
            found.append(derivs(y)[0])
        return mpmath.sqrt(min(found)), mpmath.sqrt(max(found))


def _dense_band(band) -> np.ndarray:
    """The ``(n + k) x n`` matrix of a band channel matrix, entry by entry:
    ``h_ij = taps[i - j, i]`` on ``0 <= i - j <= k``."""
    n, k, taps = band.n, band.k, band.taps
    H = np.zeros((n + k, n))
    for i in range(n + k):
        for j in range(max(0, i - k), min(n, i + 1)):
            H[i, j] = taps[i - j, i]
    return H


def nan_corner_taps(rng, n: int, k: int) -> np.ndarray:
    """Random band taps ``(k + 1, n + k)`` whose corner taps, those whose
    column would fall outside ``[0, n)``, are NaN: a product that reads one
    gives NaN."""
    taps = rng.uniform(-1.0, 1.0, (k + 1, n + k))
    e, i = np.indices(taps.shape)
    taps[(i < e) | (i - e >= n)] = np.nan
    return taps


def dense_sym_band(band) -> np.ndarray:
    """The dense symmetric matrix of a lower band form (row ``e`` holds
    diagonal ``e``)."""
    m = band.shape[1]
    D = np.diag(band[0])
    for e in range(1, len(band)):
        D += np.diag(band[e, : m - e], -e) + np.diag(band[e, : m - e], e)
    return D


def pencil_oracle(omega_c: np.ndarray, omega_h: np.ndarray) -> tuple[int, float, float, float]:
    """``(m, sum lam^2, sum log lam, max lam)`` over every eigenvalue ``lam``
    of the pencil ``Omega_h v = lam Omega_c v``, from scipy's
    symmetric-definite eigensolver (LAPACK dsygvd), not from a tridiagonal
    form or its pivots."""
    lam = scipy.linalg.eigh(omega_h, omega_c, eigvals_only=True)
    return len(lam), float(lam @ lam), float(np.log(lam).sum()), float(lam[-1])


def _dense_cov(cov) -> tuple[np.ndarray, np.ndarray]:
    """``Sigma`` and its symmetric square root from a drawn covariance's
    spectrum ``d`` and basis ``Q`` (``None``: the standard basis)."""
    Q = np.eye(len(cov.d)) if cov.Q is None else cov.Q
    return Q @ np.diag(cov.d) @ Q.T, Q @ np.diag(np.sqrt(cov.d)) @ Q.T


def dense_check_oracle(name: str, inst) -> tuple[float, float]:
    """``(lhs, rhs)`` of a ``verify`` channel suite's inequality
    ``lhs <= rhs`` on one drawn instance, by dense linear algebra: the
    operator norm from every eigenvalue of the dense Gram matrix, the
    stacked and whitened block matrices formed whole, the whitened one by a
    general solve against all ``n + m`` right-hand sides.  A channel
    instance's band matrices (a standard-basis draw) are made dense first."""
    if name in ("centre_matrix_norm", "deviation_matrix_norm"):
        band, cap = inst
        M = _dense_band(band)
        top = np.linalg.eigvalsh(M.T @ M)[-1]
        return math.sqrt(max(float(top), 0.0)), float(cap)
    H, Hc, cov, rep = inst[:4]
    H, Hc = (M if isinstance(M, np.ndarray) else _dense_band(M) for M in (H, Hc))
    sigma, root = _dense_cov(cov)
    m, n = H.shape
    omega_c = np.eye(m) + Hc @ sigma @ Hc.T
    omega_h = np.eye(m) + H @ sigma @ H.T
    if name == "stacked_deviation_trace":
        ES = (H - Hc) @ root
        phi = np.block([[np.eye(n) + ES.T @ ES, ES.T], [ES, np.eye(m)]])
        return 2.0 * float(np.linalg.norm(phi)) ** 2, rep.C_n
    if name == "whitened_output_trace":
        B = np.hstack([H @ root, np.eye(m)])
        psi = B.T @ np.linalg.solve(omega_c, B)
        return 2.0 * float(np.linalg.norm(psi)) ** 2, rep.C_prime_n
    if name == "determinant_floor":
        floor = m * math.log(1.0 - rep.phi1_n) + np.linalg.slogdet(omega_c)[1]
        return float(floor), float(np.linalg.slogdet(omega_h)[1])
    if name == "eigenvalue_stability":
        A = root @ (H.T @ H) @ root
        B = root @ (Hc.T @ Hc) @ root
        gap = np.abs(np.linalg.eigvalsh(A) - np.linalg.eigvalsh(B)).max()
        return float(gap), float(np.abs(np.linalg.eigvalsh(A - B)).max())
    if name == "shell_minimum_floor":
        eta_prime = inst[4]
        radius = m * max(1.0 - eta_prime, 0.0)
        pencil_min = scipy.linalg.eigh(omega_c, omega_h, eigvals_only=True)[0]
        return radius * rep.phi3_n, radius * float(pencil_min)
    raise ValueError(f"no dense oracle for suite {name!r}")


def type1_oracle(q, lam, n: int, m: int, epsilon: float, eta: float) -> np.ndarray:
    """Exact probability that the sent word fails the joint-typicality
    decoder, given its squared norm ``q`` and ``lam = ||(H - Hc) x||^2``
    (arrays of one entry per trial).  The residual ``Hc x - y = (Hc - H) x
    - z`` under unit Gaussian noise has ``||Hc x - y||^2 ~ chi'^2_m(lam)``,
    so with ``N = n + m`` and ``F`` its CDF (central when ``lam = 0``)

        ``1 - 1(|q/n - 1| < epsilon) [F(N (1 + eta) - q) - F(N (1 - eta) - q)]``.
    """
    q, lam = np.asarray(q, dtype=float), np.asarray(lam, dtype=float)
    N = n + m
    cdf = lambda x: scipy.stats.ncx2.cdf(x, m, lam)
    window = cdf(N * (1.0 + eta) - q) - cdf(N * (1.0 - eta) - q)
    return 1.0 - (np.abs(q / n - 1.0) < epsilon) * window


def pass_count_oracle(codewords, q, taps, picks, epsilon: float, eta: float) -> np.ndarray:
    """Expected number of codewords that pass the joint-typicality decoder
    at zero radius, per trial, given the trial's pick ``i`` (an array of
    one entry per trial).  With ``a_j = Hc x_j`` each word's centre image
    (``np.convolve`` with the taps), ``y = a_i + z`` under unit Gaussian
    noise gives ``||a_j - y||^2 ~ chi'^2_m(lam_ij)`` with ``lam_ij = ||a_i
    - a_j||^2``, taken from the Gram of the images as ``||a_i||^2 +
    ||a_j||^2 - 2 a_i.a_j``; with ``N = n + m`` the count's expectation is

        ``sum_j 1(|q_j/n - 1| < epsilon) [F_{m,lam_ij}(N (1 + eta) - q_j)
        - F_{m,lam_ij}(N (1 - eta) - q_j)]``.
    """
    X, q = np.asarray(codewords, dtype=float), np.asarray(q, dtype=float)
    A = np.array([np.convolve(x, taps) for x in X])
    n, m = X.shape[1], A.shape[1]
    G = A @ A.T
    sq = np.diagonal(G)
    lam = np.maximum(sq[:, None] + sq[None, :] - 2.0 * G, 0.0)
    np.fill_diagonal(lam, 0.0)
    N = n + m
    cdf = lambda x: scipy.stats.ncx2.cdf(x, m, lam)
    window = cdf(N * (1.0 + eta) - q[None, :]) - cdf(N * (1.0 - eta) - q[None, :])
    ok = np.abs(q / n - 1.0) < epsilon
    return (window * ok[None, :]).sum(axis=1)[np.asarray(picks)]
