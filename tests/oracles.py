"""Independent numerical oracles used by the tests.

These deliberately avoid the package's own algorithms: the shell minimizer
is a projected-gradient descent with retraction and restarts, not an
eigenvalue solve.
"""

import math

import numpy as np


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


def joint_typicality_oracle(
    codewords: np.ndarray,
    Y: np.ndarray,
    sigma: np.ndarray,
    taps,
) -> tuple[np.ndarray, np.ndarray]:
    """Normalised input statistics ``x' Sigma^{-1} x / n`` per codeword and
    joint statistics ``w' Xi^{-1} w / (n + m)`` per (codeword, row of Y).

    Builds the centre matrix ``H`` from the taps and the joint covariance
    ``Xi = [[Sigma, Sigma H'], [H Sigma, I + H Sigma H']]`` densely, and
    evaluates each quadratic form with ``np.linalg.solve``; no closed-form
    inverse and no residual split."""
    n = sigma.shape[0]
    taps = np.asarray(taps, dtype=float)
    m = n + len(taps) - 1
    H = np.zeros((m, n))
    for j in range(n):
        H[j:j + len(taps), j] = taps
    xi = np.block([[sigma, sigma @ H.T], [H @ sigma, np.eye(m) + H @ sigma @ H.T]])
    x_stat = np.einsum("ij,ji->i", codewords, np.linalg.solve(sigma, codewords.T)) / n
    size, T = len(codewords), len(Y)
    W = np.concatenate([np.repeat(codewords, T, axis=0), np.tile(Y, (size, 1))], axis=1)
    w_stat = np.einsum("ij,ji->i", W, np.linalg.solve(xi, W.T)) / (n + m)
    return x_stat, w_stat.reshape(size, T)
