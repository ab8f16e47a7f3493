"""Randomized numerical certification of the matrix facts behind the bounds.

Each suite draws a few hundred random channel/covariance/realization
triples, evaluates one inequality exactly (dense linear algebra, no banded
shortcuts), and records the worst margin.  An inequality ``lhs <= rhs``
passes with slack ``rhs * (1 + 1e-9) + 1e-12`` in the linear domain; the
determinant suite works in the log domain with an absolute-scaled slack.
Everything is driven by one master seed, so a reported worst instance can
be regenerated exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh, eigvalsh

from .errors import BoundInapplicable, SpectrumSingular
from .spectrum import (
    BandedChannelMatrix,
    ChannelSpec,
    SpectrumProfile,
    build_Hc,
    compute_profile,
)
from .waterfill import LN2, phi_terms
from .channel_sim import ChannelLaw, CovarianceSpec, rng_stream, sample_H
from .decoder import trace_budgets

__all__ = [
    "SLACK_REL",
    "SLACK_ABS",
    "holds",
    "NormBundle",
    "norms",
    "check_lemma1",
    "check_banded_norm_bounds",
    "check_trace_bounds",
    "check_weyl_det",
    "qcqp_min",
    "VolumeResult",
    "typical_volume",
    "ConverseReport",
    "converse_rate_bound",
    "LemmaReport",
    "SUITE_NAMES",
    "run_suite",
    "run_all_suites",
    "verify_report",
]

SLACK_REL = 1e-9
SLACK_ABS = 1e-12
VERIFY_STREAM_BASE = 16
TWO_PI_E = 2.0 * math.pi * math.e


def holds(lhs: float, rhs: float) -> bool:
    """Inequality check ``lhs <= rhs`` with multiplicative-plus-absolute
    slack, for non-negative right-hand sides."""
    return lhs <= rhs * (1.0 + SLACK_REL) + SLACK_ABS


def _holds_signed(lhs: float, rhs: float) -> bool:
    """Slacked check for quantities of either sign (log-domain margins)."""
    return lhs <= rhs + SLACK_REL * abs(rhs) + SLACK_ABS


@dataclass(frozen=True)
class NormBundle:
    """Operator (spectral) norm, Frobenius norm, and the largest absolute
    row sum of a matrix."""

    op: float
    fro: float
    max_row_sum: float


def norms(M: np.ndarray) -> NormBundle:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise ValueError("need a non-empty 2-d array")
    G = M @ M.T if M.shape[0] <= M.shape[1] else M.T @ M
    top = float(eigvalsh(G)[-1])
    return NormBundle(
        op=math.sqrt(max(top, 0.0)),
        fro=float(np.linalg.norm(M)),
        max_row_sum=float(np.abs(M).sum(axis=1).max()),
    )


def check_lemma1(M1: np.ndarray, M2: np.ndarray) -> tuple[bool, float]:
    """Frobenius norm of a product against operator-times-Frobenius in both
    orders; returns (ok, worst margin)."""
    prod = float(np.linalg.norm(np.asarray(M1) @ np.asarray(M2)))
    rhs1 = norms(M1).op * norms(M2).fro
    rhs2 = norms(M2).op * norms(M1).fro
    ok = holds(prod, rhs1) and holds(prod, rhs2)
    return ok, min(rhs1, rhs2) - prod


def qcqp_min(omega_c: np.ndarray, omega_h: np.ndarray, eta_prime: float) -> float:
    """Minimum of ``y' omega_h^{-1} y`` over the shell
    ``y' omega_c^{-1} y = m * (1 - eta_prime)``.

    The minimum equals the shell radius times the smallest generalized
    eigenvalue of the (omega_c, omega_h) pencil.  Returns 0.0 when
    ``eta_prime >= 1`` (the shell collapses).
    """
    omega_c = np.asarray(omega_c, dtype=float)
    omega_h = np.asarray(omega_h, dtype=float)
    if omega_c.shape != omega_h.shape or omega_c.ndim != 2:
        raise ValueError("need two square matrices of equal shape")
    m = omega_c.shape[0]
    if eta_prime >= 1.0:
        return 0.0
    lam_min = float(
        eigh(omega_c, omega_h, eigvals_only=True, subset_by_index=[0, 0])[0]
    )
    return m * (1.0 - eta_prime) * lam_min


@dataclass(frozen=True)
class VolumeResult:
    """Log-domain volume of a typicality shell and its two-sided
    Gaussian-entropy estimates (the lower one is asserted only for
    ``eta >= 1``, where no inner ellipsoid is carved out)."""

    n: int
    eta: float
    log2_exact: float
    log2_upper: float
    log2_lower: float


def _log2_ellipsoid_volume(n: int, log2_det: float, radius_sq_scale: float) -> float:
    # Volume of {a : a' Sigma^{-1} a <= n * radius_sq_scale} in log2.
    if radius_sq_scale <= 0.0:
        return -math.inf
    return (
        0.5 * n * math.log2(math.pi * n * radius_sq_scale)
        - math.lgamma(0.5 * n + 1.0) / LN2
        + 0.5 * log2_det
    )


def typical_volume(sigma: np.ndarray, eta: float) -> VolumeResult:
    """Volume of ``{a : |a' Sigma^{-1} a / n - 1| < eta}`` with entropy-based
    bounds, all in log2 to dodge overflow at large ``n``."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("need a square covariance")
    if eta <= 0.0:
        raise ValueError("need eta > 0")
    n = sigma.shape[0]
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise ValueError("covariance must be positive definite")
    log2_det = logdet / LN2
    outer = _log2_ellipsoid_volume(n, log2_det, 1.0 + eta)
    if eta < 1.0:
        inner = _log2_ellipsoid_volume(n, log2_det, 1.0 - eta)
        log2_exact = outer + math.log2(1.0 - 2.0 ** (inner - outer))
    else:
        log2_exact = outer
    h_gauss = 0.5 * n * math.log2(TWO_PI_E) + 0.5 * log2_det
    log2_upper = h_gauss + 0.5 * n * math.log2(1.0 + eta)
    log2_lower = log2_upper - 0.5 * math.log2(math.pi * (n + 2.0))
    return VolumeResult(
        n=n,
        eta=float(eta),
        log2_exact=log2_exact,
        log2_upper=log2_upper,
        log2_lower=log2_lower,
    )


@dataclass(frozen=True)
class ConverseReport:
    """Rate ceiling for a concrete codebook: the power-only lead term minus
    the codeword-dependent penalty ``kappa``; ``ceiling_xmin`` specializes
    the penalty to the smallest codeword magnitude (absent when some entry
    is zero)."""

    P: float
    kappa: float
    ceiling: float
    ceiling_xmin: Optional[float]


def converse_rate_bound(
    spec: ChannelSpec, P: float, codewords: np.ndarray
) -> ConverseReport:
    """Upper bound on reliable rate for the given codebook under the
    interval channel, in bits per input symbol.

    The penalty sums, over codewords and output times, the log of one plus
    the radius-weighted sliding energy of the codeword.
    """
    X = np.asarray(codewords, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("need a non-empty (size, n) codeword array")
    size, n = X.shape
    mean_power = float((X * X).sum(axis=1).mean())
    if mean_power > n * P * (1.0 + SLACK_REL):
        raise ValueError(
            f"codebook spends {mean_power:.6g} > n*P = {n * P:.6g} on average"
        )
    r2 = np.asarray(spec.r, dtype=float) ** 2
    gauss_gap = 2.0 / (math.pi * math.e)
    acc = 0.0
    for row in X:
        energy = np.convolve(row * row, r2)
        acc += float(np.log2(1.0 + gauss_gap * energy).sum())
    kappa = 0.5 * acc / (n * size)
    lead = 0.5 * math.log2(
        1.0 + (spec.k + 1) * (spec.norm_c_sq + spec.norm_r_sq / 3.0) * P
    )
    x_min = float(np.abs(X).min())
    ceiling_xmin = None
    if x_min > 0.0:
        ceiling_xmin = 0.5 * math.log2(
            (1.0 + (spec.k + 1) * (spec.norm_c_sq + spec.norm_r_sq / 3.0) * P)
            / (1.0 + gauss_gap * spec.norm_r_sq * x_min ** 2)
        )
    return ConverseReport(P=P, kappa=kappa, ceiling=lead - kappa, ceiling_xmin=ceiling_xmin)


@dataclass
class LemmaReport:
    """Outcome of one randomized suite: sample count, violation count, and
    the worst (smallest) margin with the instance index that produced it."""

    name: str
    samples: int
    violations: int
    worst_margin: float
    worst_index: int
    details: dict = field(default_factory=dict)


def _random_channel(rng: np.random.Generator, k_max: int = 4):
    while True:
        k = int(rng.integers(1, k_max + 1))
        c = rng.uniform(-1.0, 1.0, k + 1)
        if np.abs(c).max() < 0.1:
            continue
        r = rng.uniform(0.0, 0.5, k + 1)
        if r.sum() == 0.0:
            continue
        spec = ChannelSpec(k=k, c=tuple(c), r=tuple(r))
        try:
            profile = compute_profile(spec)
        except SpectrumSingular:
            continue
        if profile.alpha < 0.05 * profile.beta:
            continue
        return spec, profile


def _random_cov(rng: np.random.Generator, n: int) -> CovarianceSpec:
    d = 10.0 ** rng.uniform(-2.0, 1.0, n)
    if rng.random() < 0.5:
        return CovarianceSpec(n=n, d=d)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return CovarianceSpec(n=n, d=d, basis=basis)


def _rescale_radii_for_phi1(
    spec: ChannelSpec,
    profile: SpectrumProfile,
    cov: CovarianceSpec,
    target: float,
):
    """Scale all radii so the leading penalty ratio hits ``target`` < 1 for
    this covariance, keeping the suite instances non-trivial."""
    s_target = target * (1.0 + profile.alpha ** 2 * cov.lam_min) / cov.lam_max
    rs = spec.r_s
    t = (-profile.beta + math.sqrt(profile.beta ** 2 + s_target)) / rs
    scaled = ChannelSpec(k=spec.k, c=spec.c, r=tuple(t * v for v in spec.r))
    return scaled, compute_profile(scaled)


def _sample_banded(rng: np.random.Generator, spec: ChannelSpec, n: int) -> np.ndarray:
    m = n + spec.k
    u = rng.uniform(-1.0, 1.0, (m, spec.k + 1))
    taps = np.asarray(spec.c) + u * np.asarray(spec.r)
    return BandedChannelMatrix(n=n, k=spec.k, taps=taps).dense()


def _suite_rng(master_seed: int, suite_index: int, instance: int) -> np.random.Generator:
    return rng_stream(master_seed, VERIFY_STREAM_BASE + suite_index, instance)


def _report(name, margins_ok):
    samples = len(margins_ok)
    violations = sum(1 for _, ok in margins_ok if not ok)
    worst_index = min(range(samples), key=lambda i: margins_ok[i][0])
    margins = np.array([m for m, _ in margins_ok])
    quantiles = [float(v) for v in np.quantile(margins, (0.0, 0.25, 0.5, 0.75, 1.0))]
    return LemmaReport(
        name=name,
        samples=samples,
        violations=violations,
        worst_margin=float(margins_ok[worst_index][0]),
        worst_index=worst_index,
        details={"margin_quantiles": quantiles},
    )


def _stacked_trace_lhs(E: np.ndarray, cov: CovarianceSpec) -> float:
    n = cov.n
    m = E.shape[0]
    ES = E @ cov.sqrt_matrix()
    phi = np.block([[np.eye(n) + ES.T @ ES, ES.T], [ES, np.eye(m)]])
    return 2.0 * float(np.linalg.norm(phi) ** 2)


def _whitened_trace_lhs(H: np.ndarray, Hc: np.ndarray, cov: CovarianceSpec) -> float:
    m = H.shape[0]
    omega_c = np.eye(m) + Hc @ cov.dense() @ Hc.T
    B = np.hstack([H @ cov.sqrt_matrix(), np.eye(m)])
    psi = B.T @ np.linalg.solve(omega_c, B)
    return 2.0 * float(np.linalg.norm(psi) ** 2)


def _det_floor_pair(
    H: np.ndarray, Hc: np.ndarray, cov: CovarianceSpec, phi1: float
) -> tuple[float, float]:
    """Log-domain (floor, value) for the worst-case determinant bound."""
    m = H.shape[0]
    sigma = cov.dense()
    logdet_c = np.linalg.slogdet(np.eye(m) + Hc @ sigma @ Hc.T)[1]
    logdet_h = np.linalg.slogdet(np.eye(m) + H @ sigma @ H.T)[1]
    return m * math.log(1.0 - phi1) + logdet_c, logdet_h


def _eig_stability_pair(
    H: np.ndarray, Hc: np.ndarray, cov: CovarianceSpec
) -> tuple[float, float]:
    """(largest eigenvalue shift, operator norm of the perturbation)."""
    S = cov.sqrt_matrix()
    A = S @ (H.T @ H) @ S
    B = S @ (Hc.T @ Hc) @ S
    gap = float(np.abs(eigvalsh(A) - eigvalsh(B)).max())
    return gap, norms(A - B).op


_DEFAULT_LAW = ChannelLaw(kind="iid_uniform")


def check_banded_norm_bounds(
    spec: ChannelSpec,
    n: int,
    samples: int,
    master_seed: int = 0,
    law: ChannelLaw = _DEFAULT_LAW,
) -> LemmaReport:
    """Certify the operator-norm caps of the centre matrix (by ``beta``) and
    of the deviation matrix (by ``r_s``) over sampled realizations of one
    channel.  Realizations are the same ones ``sample_H`` would produce for
    the given seed, so a worst instance can be regenerated directly."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    profile = compute_profile(spec)
    Hc = build_Hc(spec, n).dense()
    op_hc = norms(Hc).op
    out = []
    for i in range(samples):
        op_e = norms(sample_H(spec, n, law, master_seed, i).dense() - Hc).op
        ok = holds(op_hc, profile.beta) and holds(op_e, profile.r_s)
        out.append((min(profile.beta - op_hc, profile.r_s - op_e), ok))
    return _report("banded_norm_bounds", out)


def check_trace_bounds(
    spec: ChannelSpec,
    cov: CovarianceSpec,
    P: float,
    samples: int,
    master_seed: int = 0,
    law: ChannelLaw = _DEFAULT_LAW,
) -> LemmaReport:
    """Certify both squared-Frobenius trace budgets for one channel and one
    input covariance at power ``P`` (which must fund the covariance:
    ``cov.trace <= n * P``)."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    if cov.trace > cov.n * P * (1.0 + SLACK_REL):
        raise ValueError(
            f"covariance trace {cov.trace:.6g} exceeds the budget n*P = {cov.n * P:.6g}"
        )
    profile = compute_profile(spec)
    Hc = build_Hc(spec, cov.n).dense()
    c_n, c_prime_n = trace_budgets(spec, profile, cov, P)
    out = []
    for i in range(samples):
        H = sample_H(spec, cov.n, law, master_seed, i).dense()
        lhs_phi = _stacked_trace_lhs(H - Hc, cov)
        lhs_psi = _whitened_trace_lhs(H, Hc, cov)
        ok = holds(lhs_phi, c_n) and holds(lhs_psi, c_prime_n)
        out.append((min(c_n - lhs_phi, c_prime_n - lhs_psi), ok))
    return _report("trace_bounds", out)


def check_weyl_det(
    spec: ChannelSpec,
    cov: CovarianceSpec,
    samples: int,
    master_seed: int = 0,
    law: ChannelLaw = _DEFAULT_LAW,
) -> LemmaReport:
    """Certify the worst-case output-covariance determinant floor (log
    domain) and spot-check eigenvalue stability of the whitened Gram pair
    for one channel/covariance.  Requires the leading penalty ratio below 1;
    raises BoundInapplicable otherwise."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    profile = compute_profile(spec)
    m = cov.n + spec.k
    phi1 = phi_terms(profile, cov.lam_min, cov.lam_max, cov.trace, m)[0]
    if phi1 >= 1.0:
        raise BoundInapplicable(
            f"leading penalty ratio {phi1:.4g} >= 1; determinant floor is vacuous"
        )
    Hc = build_Hc(spec, cov.n).dense()
    out = []
    for i in range(samples):
        H = sample_H(spec, cov.n, law, master_seed, i).dense()
        floor, value = _det_floor_pair(H, Hc, cov, phi1)
        gap, op = _eig_stability_pair(H, Hc, cov)
        ok = _holds_signed(floor, value) and holds(gap, op)
        out.append((min(value - floor, op - gap), ok))
    return _report("weyl_det", out)


def _run_lemma1(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        p, q, r = (int(v) for v in rng.integers(1, n_max + 1, 3))
        scale1, scale2 = 10.0 ** rng.uniform(-1.0, 2.0, 2)
        M1 = scale1 * rng.standard_normal((p, q))
        M2 = scale2 * rng.standard_normal((q, r))
        ok, margin = check_lemma1(M1, M2)
        out.append((margin, ok))
    return _report("lemma1_product_norms", out)


def _run_hc_norm(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        spec, profile = _random_channel(rng)
        n = int(rng.integers(spec.k + 1, n_max + 1))
        op = norms(build_Hc(spec, n).dense()).op
        out.append((profile.beta - op, holds(op, profile.beta)))
    return _report("centre_matrix_norm", out)


def _run_error_norm(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        spec, profile = _random_channel(rng)
        n = int(rng.integers(spec.k + 1, n_max + 1))
        E = _sample_banded(rng, spec, n) - build_Hc(spec, n).dense()
        op = norms(E).op
        out.append((profile.r_s - op, holds(op, profile.r_s)))
    return _report("deviation_matrix_norm", out)


def _run_phi_trace(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        spec, profile = _random_channel(rng)
        n = int(rng.integers(spec.k + 1, n_max + 1))
        cov = _random_cov(rng, n)
        E = _sample_banded(rng, spec, n) - build_Hc(spec, n).dense()
        lhs = _stacked_trace_lhs(E, cov)
        budget = trace_budgets(spec, profile, cov, cov.trace / n)[0]
        out.append((budget - lhs, holds(lhs, budget)))
    return _report("stacked_deviation_trace", out)


def _run_psi_trace(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        spec, profile = _random_channel(rng)
        n = int(rng.integers(spec.k + 1, n_max + 1))
        cov = _random_cov(rng, n)
        lhs = _whitened_trace_lhs(
            _sample_banded(rng, spec, n), build_Hc(spec, n).dense(), cov
        )
        budget = trace_budgets(spec, profile, cov, cov.trace / n)[1]
        out.append((budget - lhs, holds(lhs, budget)))
    return _report("whitened_output_trace", out)


def _weyl_instance(rng, n_max):
    spec, profile = _random_channel(rng)
    n = int(rng.integers(spec.k + 1, n_max + 1))
    cov = _random_cov(rng, n)
    spec, profile = _rescale_radii_for_phi1(
        spec, profile, cov, target=float(rng.uniform(0.05, 0.9))
    )
    Hc = build_Hc(spec, n).dense()
    H = _sample_banded(rng, spec, n)
    return spec, profile, n, cov, Hc, H


def _run_weyl_det(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        spec, profile, n, cov, Hc, H = _weyl_instance(rng, n_max)
        m = n + spec.k
        phi1 = phi_terms(profile, cov.lam_min, cov.lam_max, cov.trace, m)[0]
        lhs, rhs = _det_floor_pair(H, Hc, cov, phi1)
        out.append((rhs - lhs, _holds_signed(lhs, rhs)))
    return _report("determinant_floor", out)


def _run_weyl_eigs(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        spec, profile, n, cov, Hc, H = _weyl_instance(rng, n_max)
        gap, op = _eig_stability_pair(H, Hc, cov)
        out.append((op - gap, holds(gap, op)))
    return _report("eigenvalue_stability", out)


def _run_qcqp(samples, master_seed, n_max, suite_index):
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        spec, profile, n, cov, Hc, H = _weyl_instance(rng, n_max)
        m = n + spec.k
        sigma = cov.dense()
        omega_c = np.eye(m) + Hc @ sigma @ Hc.T
        omega_h = np.eye(m) + H @ sigma @ H.T
        eta_prime = float(rng.uniform(0.0, 1.2))
        val = qcqp_min(omega_c, omega_h, eta_prime)
        phi3 = phi_terms(profile, cov.lam_min, cov.lam_max, cov.trace, m)[2]
        floor = m * max(1.0 - eta_prime, 0.0) * phi3
        out.append((val - floor, holds(floor, val)))
    return _report("shell_minimum_floor", out)


def _run_volume(samples, master_seed, n_max, suite_index):
    etas = (0.1, 0.5, 0.9, 1.0, 1.5, 3.0)
    out = []
    for i in range(samples):
        rng = _suite_rng(master_seed, suite_index, i)
        n = int(rng.integers(1, min(n_max, 50) + 1))
        cov = _random_cov(rng, n)
        eta = etas[i % len(etas)] if rng.random() < 0.5 else float(rng.uniform(0.05, 3.0))
        res = typical_volume(cov.dense(), eta)
        margin = res.log2_upper - res.log2_exact
        ok = _holds_signed(res.log2_exact, res.log2_upper)
        if eta >= 1.0:
            margin = min(margin, res.log2_exact - res.log2_lower)
            ok = ok and _holds_signed(res.log2_lower, res.log2_exact)
        out.append((margin, ok))
    return _report("shell_volume_bounds", out)


_SUITES = (
    ("lemma1_product_norms", _run_lemma1),
    ("centre_matrix_norm", _run_hc_norm),
    ("deviation_matrix_norm", _run_error_norm),
    ("stacked_deviation_trace", _run_phi_trace),
    ("whitened_output_trace", _run_psi_trace),
    ("determinant_floor", _run_weyl_det),
    ("eigenvalue_stability", _run_weyl_eigs),
    ("shell_minimum_floor", _run_qcqp),
    ("shell_volume_bounds", _run_volume),
)

SUITE_NAMES = tuple(name for name, _ in _SUITES)


def run_suite(name: str, samples: int = 200, master_seed: int = 0, n_max: int = 64) -> LemmaReport:
    for idx, (suite_name, fn) in enumerate(_SUITES):
        if suite_name == name:
            return fn(samples, master_seed, n_max, idx)
    raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")


def run_all_suites(
    samples: int = 200, master_seed: int = 0, n_max: int = 64
) -> dict[str, LemmaReport]:
    return {
        name: fn(samples, master_seed, n_max, idx)
        for idx, (name, fn) in enumerate(_SUITES)
    }


def verify_report(samples: int = 200, master_seed: int = 0, n_max: int = 64) -> dict:
    """JSON-ready summary of every suite, including reproduction data for
    the worst instance of each."""
    reports = run_all_suites(samples=samples, master_seed=master_seed, n_max=n_max)
    return {
        "master_seed": master_seed,
        "samples": samples,
        "n_max": n_max,
        "violations_total": int(sum(r.violations for r in reports.values())),
        "suites": {name: asdict(rep) for name, rep in reports.items()},
    }
