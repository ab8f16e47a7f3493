"""Half bases for tests: covariances whose basis is not the Gram eigenbasis.

A ``HalfBasis`` holds only J-structured bases, so the tests' stand-ins for
"any other basis" are random orthonormal half bases and the standard half
bases (``sym = I``, ``skew = I``: columns ``(e_i +- e_(n-1-i)) / sqrt(2)``).
Neither diagonalises a channel's Gram matrix.
"""

import numpy as np

from isicap.channel_sim import CovarianceSpec
from isicap.spectrum import HalfBasis


def _orthonormal(rng, order):
    if order == 0:
        return np.zeros((0, 0))
    return np.linalg.qr(rng.standard_normal((order, order)))[0]


def random_halves(n, seed):
    """QR bases of Gaussian matrices as both halves, in a random column
    order."""
    rng = np.random.default_rng(seed)
    h = n // 2
    return HalfBasis(sym=_orthonormal(rng, n - h), skew=_orthonormal(rng, h), order=rng.permutation(n))


def standard_halves(n):
    """Identity half bases in their natural order: every GEMM with them is
    exact, so ``apply`` and ``adjoint`` round only in the J-fold."""
    h = n // 2
    return HalfBasis(sym=np.eye(n - h), skew=np.eye(h), order=np.arange(n))


def random_cov(n, seed):
    """Spectrum uniform in [0.5, 2] on random half bases."""
    d = np.random.default_rng([seed, 1]).uniform(0.5, 2.0, n)
    return CovarianceSpec(n=n, d=d, halves=random_halves(n, seed))


def flat_cov(n, halves=None):
    """Identity spectrum, on the standard half bases unless given."""
    return CovarianceSpec(n=n, d=np.ones(n), halves=standard_halves(n) if halves is None else halves)
