"""Traced replay: the workload's ops re-run through isicap's public
functions with a span around each call, then a fixed layer panel.

Spans are recorded here, in the benchmark, around calls into each module;
nothing inside the package is instrumented.  The panel exercises every
layer at fixed sizes (including n = 2048, which no end-to-end op uses), so
every per-layer metric is measured on every workload: a workload that never
calls a layer reports the panel's value for it.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import defaultdict

import numpy as np

from isicap import (
    BoundInapplicable,
    ChannelLaw,
    ChannelSpec,
    DecodeFailure,
    bound_report,
    build_Hc,
    build_joint,
    build_sigma,
    capacity_C0,
    compute_profile,
    dbw_to_watts,
    decode,
    default_params,
    gen_codebook,
    gram_eigenvalues,
    pillow_terms,
    rng_stream,
    run_suite,
    sample_H,
    solve_theta2,
    thresholds,
    transmit,
    SUITE_NAMES,
)
from isicap.channel_sim import STREAM_MESSAGE
from isicap.decoder import prepare_context
from isicap.spectrum import DEFAULT_GRID as GRID
from isicap.waterfill import waterfill_powers

from workloads import DECODE_SMALL_N, DECODE_SMALL_TRIALS, CERTIFY, sweep_channel, sweep_grid_values

# The CLI's defaults, restated so the replay needs no private names; the
# replay-versus-CLI count check fails if they drift apart.  Every call passes
# the grid size positionally, as the CLI does, so the package's caches see
# the same keys.
DEFAULT_SPEC = ChannelSpec(k=2, c=(1.0, 0.5, 0.5), r=(1e-3, 1e-3, 1e-3))
DEFAULT_P_DBW = -10.0
DEFAULT_RATE_FRACTION = 0.25
FIGURE1_RS_LOG10 = np.linspace(-4.0, 0.0, 33)
FIGURE1_P_DBW = (10.0, 30.0, 50.0)
FIGURE2_P_DBW = np.linspace(20.0, 56.0, 73)
LAW = ChannelLaw(kind="iid_uniform")

# Calls made once per simulate block before its trials: its set-up.
DECODE_SETUP = {
    "spectrum.compute_profile",
    "waterfill.bound_report",
    "channel_sim.build_sigma",
    "decoder.thresholds",
    "channel_sim.gen_codebook",
    "spectrum.build_Hc",
    "decoder.build_joint",
    "decoder.prepare_context",
}
PANEL_SMALL_TRIALS = 16
PANEL_LARGE_TRIALS = 8
PANEL_LARGE_N = (1024, 2048)
PANEL_REPEATS = 5
PANEL = "panel."  # op id prefix of the panel's spans
PANEL_VERIFY_SAMPLES = 4


class Tracer:
    """In-memory spans: ``[name, start, end, parent, op_id, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = ""

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return dict(out)


class _Span:
    """Context manager for one span; yields its attribute dict."""

    __slots__ = ("tr", "rec")

    def __init__(self, tr: Tracer, name: str, attrs: dict) -> None:
        self.tr = tr
        self.rec = [name, 0.0, 0.0, tr.stack[-1] if tr.stack else -1, tr.op_id, attrs]

    def __enter__(self) -> dict:
        tr = self.tr
        tr.stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[1] = time.perf_counter()
        return self.rec[5]

    def __exit__(self, *exc) -> None:
        self.rec[2] = time.perf_counter()
        self.tr.stack.pop()


class Replay:
    def __init__(self) -> None:
        self.tr = Tracer()
        self.cold: set = set()
        self.violations = 0

    def profile(self, spec: ChannelSpec):
        cold = spec not in self.cold
        self.cold.add(spec)
        with self.tr.span("spectrum.compute_profile", cold=cold):
            return compute_profile(spec, GRID)

    def bound_row(self, spec: ChannelSpec, p_w: float) -> None:
        try:
            with self.tr.span("waterfill.bound_report", regime=_regime(spec, p_w)):
                bound_report(spec, p_w, GRID)
        except BoundInapplicable:
            prof = self.profile(spec)
            with self.tr.span("waterfill.capacity_C0"):
                capacity_C0(prof, spec, p_w, GRID)

    def sweep_op(self, command: str, spec: ChannelSpec) -> None:
        if command == "bounds":
            self.profile(spec)
            for p in sweep_grid_values():
                self.bound_row(spec, dbw_to_watts(p))
        elif command == "figure1":
            prof = self.profile(spec)
            for p in FIGURE1_P_DBW:
                for rs in 10.0 ** FIGURE1_RS_LOG10:
                    try:
                        with self.tr.span("waterfill.pillow_terms"):
                            pillow_terms(prof, spec, dbw_to_watts(p), float(rs), GRID)
                    except BoundInapplicable:
                        pass
        else:
            for p in FIGURE2_P_DBW:
                self.bound_row(spec, dbw_to_watts(float(p)))

    def simulate_block(self, spec, n: int, R: float, P: float, trials: int, seed: int) -> tuple[int, int, int]:
        """``run_error_experiment`` through its public parts; returns
        (type1, type2, success)."""
        span = self.tr.span
        prof = self.profile(spec)
        with span("channel_sim.build_sigma", n=n):
            cov = build_sigma(spec, n, P, "waterfill_gram")
        with span("decoder.thresholds"):
            params = default_params(thresholds(spec, prof, cov, P))
        with span("channel_sim.gen_codebook", n=n) as a:
            book = gen_codebook(cov, R, seed)
        a["bytes"] = _array_bytes(book)
        with span("spectrum.build_Hc"):
            hc = build_Hc(spec, n)
        with span("decoder.build_joint", n=n) as a:
            joint = build_joint(cov, hc)
        a["bytes"] = _array_bytes(joint)
        with span("decoder.prepare_context", n=n) as a:
            ctx = prepare_context(book, joint)
        a["bytes"] = _array_bytes(ctx)
        images, q_sigma = ctx.images, ctx.q_sigma
        m = images.shape[1]
        flops = 3 * images.size
        scan_bytes = images.nbytes + q_sigma.nbytes
        t1 = t2 = ok = 0
        for t in range(trials):
            with span("channel_sim.rng_stream"):
                gen = rng_stream(seed, STREAM_MESSAGE, t)
            msg = int(gen.integers(book.size))
            with span("channel_sim.sample_H", n=n):
                H = sample_H(spec, n, LAW, seed, t)
            with span("channel_sim.transmit", n=n):
                y = transmit(H, book.codewords[msg], seed, t)
            with span("decoder.decode", n=n, flops=flops, bytes=scan_bytes, size=book.size) as a:
                res = decode(y, book, joint, params, ctx)
            if isinstance(res, DecodeFailure):
                a["passing"] = res.count
                sent_passes = res.kind == "ambiguous" and _passes(msg, y, ctx, params, n, m)
            else:
                a["passing"] = 1
                sent_passes = res == msg
            if not sent_passes:
                t1 += 1
            elif res == msg:
                ok += 1
            else:
                t2 += 1
        return t1, t2, ok

    def simulate_op(self, config: dict, seed: int) -> list[tuple[int, int, int]]:
        section = config.get("simulate", {})
        P = dbw_to_watts(float(section.get("p_dbw", DEFAULT_P_DBW)))
        spec = DEFAULT_SPEC
        if section.get("rate_bits") is not None:
            R = float(section["rate_bits"])
        else:
            self.profile(spec)
            with self.tr.span("waterfill.bound_report", regime=_regime(spec, P)):
                R = DEFAULT_RATE_FRACTION * bound_report(spec, P, GRID).C_LB1
        n_list = section.get("n_list", DECODE_SMALL_N)
        trials = section.get("trials", DECODE_SMALL_TRIALS)
        return [self.simulate_block(spec, n, R, P, trials, seed) for n in n_list]

    def suites(self, samples: int, seed: int, n_max: int) -> int:
        violations = 0
        for name in SUITE_NAMES:
            with self.tr.span(f"verify.{name}", samples=samples):
                violations += run_suite(name, samples, seed, n_max).violations
        self.violations += violations
        return violations

    def run_op(self, op) -> dict:
        """Replay one op inside an ``op`` span; returns its counts."""
        self.tr.op_id = op.op_id
        out: dict = {"id": op.op_id}
        op_idx = len(self.tr.spans)
        with self.tr.span("op", command=op.command):
            if op.command == "simulate":
                out["counts"] = self.simulate_op(op.config, op.seed)
            elif op.command == "verify":
                section = op.config["verify"]
                out["violations"] = self.suites(section["samples"], op.seed, section["n_max"])
            else:
                self.sweep_op(op.command, ChannelSpec.from_json(op.config["channel"]))
        rec = self.tr.spans
        out["span_s"] = rec[op_idx][2] - rec[op_idx][1]
        out["lib_s"] = sum(s[2] - s[1] for s in rec[op_idx + 1:] if s[3] == op_idx)
        # Keep the collector from re-scanning the span records inside later spans.
        gc.freeze()
        if op.command == "bounds":
            # One saturation solve per channel, outside the op: the CLI
            # calls it only inside bound_report.
            spec = ChannelSpec.from_json(op.config["channel"])
            prof = compute_profile(spec, GRID)
            with self.tr.span("waterfill.solve_theta2"):
                solve_theta2(prof, spec, GRID)
        return out

    def panel(self, seed: int) -> None:
        """Every layer at fixed sizes, on inputs drawn from ``seed``."""
        span = self.tr.span
        rng = np.random.default_rng([seed, 99])
        for k in range(1, 5):
            self.tr.op_id = f"{PANEL}k{k}"
            spec = ChannelSpec.from_json(sweep_channel(rng, k))
            prof = self.profile(spec)
            level = 1.0 / prof.alpha ** 2 - prof.J
            for p_w in (0.5 * level, 2.0 * level + 1.0):
                self.bound_row(spec, p_w)
            with span("waterfill.solve_theta2"):
                solve_theta2(prof, spec, GRID)
            try:
                with span("waterfill.pillow_terms"):
                    pillow_terms(prof, spec, 1.0, None, GRID)
            except BoundInapplicable:
                pass
        P = dbw_to_watts(DEFAULT_P_DBW)
        spec = DEFAULT_SPEC
        self.profile(spec)
        lam = gram_eigenvalues(spec, 1024)
        for _ in range(PANEL_REPEATS):
            with span("waterfill.waterfill_powers", n=1024):
                waterfill_powers(lam, 1024 * P)
        block_seed = int(rng.integers(2**31))
        R_small = DEFAULT_RATE_FRACTION * bound_report(spec, P, GRID).C_LB1
        for n in DECODE_SMALL_N:
            self.tr.op_id = f"{PANEL}n{n}"
            with span("op", command="simulate"):
                self.simulate_block(spec, n, R_small, P, PANEL_SMALL_TRIALS, block_seed)
        for n in PANEL_LARGE_N:
            self.tr.op_id = f"{PANEL}n{n}"
            with span("op", command="simulate"):
                self.simulate_block(spec, n, 12 / n, P, PANEL_LARGE_TRIALS, block_seed)
        self.tr.op_id = f"{PANEL}verify"
        self.suites(PANEL_VERIFY_SAMPLES, block_seed, CERTIFY["n_max"])


def _regime(spec, P: float) -> str:
    """Water-level regime of a bound row, from the public profile."""
    prof = compute_profile(spec, GRID)
    return "bisect" if P < 1.0 / prof.alpha ** 2 - prof.J else "closed"


def _array_bytes(obj) -> int:
    """Bytes of the ndarrays an object holds directly (from their shapes)."""
    return int(sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)))


def _passes(msg: int, y, ctx, params, n: int, m: int) -> bool:
    """Both typicality tests for the sent codeword alone."""
    q = ctx.q_sigma[msg]
    diff = ctx.images[msg:msg + 1] - y
    resid = float(np.einsum("ij,ij->i", diff, diff)[0])
    return abs(q / n - 1.0) < params.epsilon and abs((q + resid) / (n + m) - 1.0) < params.eta


def layer_metrics(tr: Tracer, violations: int) -> dict[str, float]:
    """Per-layer metrics from the spans.  Each one is taken from the
    workload's own ops, or from the panel when the workload never makes
    that call."""
    by: dict[str, list] = defaultdict(list)
    for i, rec in enumerate(tr.spans):
        by[rec[0]].append((i, rec))

    def select(name, **match) -> list:
        hits = [(i, r) for i, r in by[name] if all(r[5].get(k) == v for k, v in match.items())]
        own = [(i, r) for i, r in hits if not r[4].startswith(PANEL)]
        return own or hits

    def ms(name, **match) -> float:
        return 1e3 * statistics.median(r[2] - r[1] for _, r in select(name, **match))

    def attr(name, key, **match):
        return select(name, **match)[0][1][5][key]

    out = {
        "spectrum.compute_profile.ms": ms("spectrum.compute_profile", cold=True),
        "spectrum.compute_profile.calls": len(select("spectrum.compute_profile", cold=True)),
        "waterfill.bound_report.bisect_ms": ms("waterfill.bound_report", regime="bisect"),
        "waterfill.bound_report.closed_ms": ms("waterfill.bound_report", regime="closed"),
        "waterfill.bound_report.calls": len(select("waterfill.bound_report")),
        "waterfill.solve_theta2.ms": ms("waterfill.solve_theta2"),
        "waterfill.pillow_terms.ms": ms("waterfill.pillow_terms"),
        "waterfill.waterfill_powers.ms.n1024": ms("waterfill.waterfill_powers", n=1024),
        "channel_sim.build_sigma.ms.n1024": ms("channel_sim.build_sigma", n=1024),
        "channel_sim.build_sigma.ms.n2048": ms("channel_sim.build_sigma", n=2048),
        "channel_sim.gen_codebook.ms.n1024": ms("channel_sim.gen_codebook", n=1024),
        "channel_sim.gen_codebook.computed_bytes": attr("channel_sim.gen_codebook", "bytes", n=1024),
        "channel_sim.sample_H.ms.n256": ms("channel_sim.sample_H", n=256),
        "channel_sim.sample_H.ms.n1024": ms("channel_sim.sample_H", n=1024),
        "channel_sim.transmit.ms.n256": ms("channel_sim.transmit", n=256),
        "channel_sim.transmit.ms.n1024": ms("channel_sim.transmit", n=1024),
        "channel_sim.rng_stream.us": 1e3 * ms("channel_sim.rng_stream"),
        "decoder.build_joint.ms.n1024": ms("decoder.build_joint", n=1024),
        "decoder.build_joint.ms.n2048": ms("decoder.build_joint", n=2048),
        "decoder.build_joint.computed_bytes": attr("decoder.build_joint", "bytes", n=1024),
        "decoder.prepare_context.ms.n1024": ms("decoder.prepare_context", n=1024),
        "decoder.prepare_context.computed_bytes": attr("decoder.prepare_context", "bytes", n=1024),
    }
    for n in (64, 128, 256, 1024, 2048):
        out[f"decoder.decode.ms.n{n}"] = ms("decoder.decode", n=n)
    out["decoder.decode.computed_flops"] = attr("decoder.decode", "flops", n=1024)
    out["decoder.decode.computed_bytes"] = attr("decoder.decode", "bytes", n=1024)
    decodes = [r[5] for _, r in select("decoder.decode")]
    out["decoder.pass_ratio"] = sum(a["passing"] for a in decodes) / sum(a["size"] for a in decodes)
    # Set-up share of simulate ops: the once-per-block calls over op wall.
    sim_ops = dict(select("op", command="simulate"))
    setup = sum(r[2] - r[1] for r in tr.spans if r[3] in sim_ops and r[0] in DECODE_SETUP)
    out["decoder.setup_share"] = setup / sum(r[2] - r[1] for r in sim_ops.values())
    for name in SUITE_NAMES:
        out[f"verify.{name}.ms_per_sample"] = statistics.median(
            1e3 * (r[2] - r[1]) / r[5]["samples"] for _, r in select(f"verify.{name}")
        )
    out["verify.violations"] = violations
    return out
