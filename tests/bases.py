"""Half bases for tests: covariances whose basis is not the Gram eigenbasis,
the full Gram eigenbasis, and the dense basis a ``HalfBasis`` stands for.

A ``HalfBasis`` holds only J-structured bases, so the tests' stand-ins for
"any other basis" are random orthonormal half bases and the standard half
bases (``sym = I``, ``skew = I``: columns ``(e_i +- e_(n-1-i)) / sqrt(2)``).
Neither diagonalises a channel's Gram matrix.
"""

import math

import numpy as np

from isicap.channel_sim import Codebook, CovarianceSpec
from isicap.spectrum import HalfBasis, gram_eigh
from isicap.waterfill import POWER_FLOOR


def eigenbasis(spec, n):
    """Eigenvalues and every column of the Gram eigenbasis, as ``gram_eigh``
    and ``HalfBasis.from_eigh`` give them."""
    lam, vectors = gram_eigh(spec, n)
    return lam, HalfBasis.from_eigh(vectors, np.ones(n, dtype=bool))


def assemble(halves):
    """The dense ``n x s`` columns ``U`` of ``halves``, column by column
    from the documented formula: column ``j < s_sym`` is ``[z_top /
    sqrt(2); z_mid; J z_top / sqrt(2)]`` for ``z = sym[:, j]``, column
    ``s_sym + j`` is ``[w / sqrt(2); 0; -J w / sqrt(2)]`` for ``w = skew[:,
    j]``, with ``h = n // 2`` and the middle entries only for odd ``n``.  It
    shares no code with ``HalfBasis.apply`` or ``.adjoint``."""
    n, h = halves.n, len(halves.skew)
    r = 1.0 / math.sqrt(2.0)
    cols = []
    for z in halves.sym.T:
        cols.append(np.concatenate([z[:h] * r, z[h:], z[:h][::-1] * r]))
    for w in halves.skew.T:
        cols.append(np.concatenate([w * r, np.zeros(n - 2 * h), -w[::-1] * r]))
    return np.column_stack(cols) if cols else np.zeros((n, 0))


def sigma(cov):
    """The dense covariance ``U diag(d) U' + POWER_FLOOR (I - U U')``."""
    U = assemble(cov.halves)
    return (U * (cov.d - POWER_FLOOR)) @ U.T + POWER_FLOOR * np.eye(cov.n)


def _orthonormal(rng, order):
    if order == 0:
        return np.zeros((0, 0))
    return np.linalg.qr(rng.standard_normal((order, order)))[0]


def random_halves(n, seed):
    """QR bases of Gaussian matrices as both halves."""
    rng = np.random.default_rng(seed)
    h = n // 2
    return HalfBasis(sym=_orthonormal(rng, n - h), skew=_orthonormal(rng, h))


def standard_halves(n):
    """Identity half bases: every GEMM with them is exact, so ``apply`` and
    ``adjoint`` round only in the J-fold."""
    h = n // 2
    return HalfBasis(sym=np.eye(n - h), skew=np.eye(h))


def random_cov(n, seed):
    """Spectrum uniform in [0.5, 2] on random half bases."""
    d = np.random.default_rng([seed, 1]).uniform(0.5, 2.0, n)
    return CovarianceSpec(n=n, d=d, halves=random_halves(n, seed))


def flat_cov(n, halves=None):
    """Identity spectrum, on the standard half bases unless given."""
    return CovarianceSpec(n=n, d=np.ones(n), halves=standard_halves(n) if halves is None else halves)


def floors(book, rows):
    """The floor parts ``x_f`` of ``rows`` as ``words`` builds them: the
    words of the same codebook with ``S`` zeroed, where ``fl(U 0) = 0`` and
    the floor's add is exact."""
    zero = Codebook(S=np.zeros_like(book.S), cov=book.cov, q_floor=book.q_floor, seed=book.seed)
    return zero.words(rows)
