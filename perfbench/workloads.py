"""Seeded workload generators for the isicap benchmark.

Every workload is a fixed list of CLI operations (ops) built from the
workload seed and the run length.  The program under test only ever sees
the generated config files and argument lists; nothing here imports isicap.

Op counts scale with ``--seconds`` through per-op costs measured on the
commit that added this benchmark (2 cores, numpy 2.4.6, scipy 1.17.1,
OpenBLAS 0.3.31, one BLAS thread), so a run measures about that long there
and every later commit runs the very same op list.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep", "decode_small", "decode_large", "certify")

# Seconds per unit of work when this benchmark was added; they only size op lists.
_SWEEP_S_PER_CHANNEL = 0.10
_DECODE_SMALL_S_PER_OP = 0.70
_DECODE_LARGE_S_PER_OP = 6.0
_CERTIFY_S_PER_OP = 2.35

SWEEP_BOUNDS_GRID = "-20:60:161"
SWEEP_FIGURE1_ROWS = 3 * 33  # default figure1 sweep: 3 powers x 33 radius sums
SWEEP_FIGURE2_ROWS = 73  # default figure2 grid 20:56:73
MIN_ALPHA_OVER_BETA = 0.05
FFT_POINTS = 4096
# Knees of unscaled random taps span about -8..23 dB (5-95 %).  With
# [-10, 20] dB, a third of the channels need bisection at figure1's 10 dBW
# rows, which keeps the median op latency inside one cluster of op costs
# instead of at the gap between figure1's two regimes.
SWEEP_KNEE_DB = (-10.0, 20.0)

DECODE_SMALL_TRIALS = 500
DECODE_SMALL_N = (64, 128, 256)
DECODE_LARGE = {"n_list": [1024], "rate_bits": 12 / 1024, "trials": 256, "p_dbw": -10.0}
CERTIFY = {"n_max": 256, "samples": 50}


@dataclass
class Op:
    """One CLI call: ``argv`` without ``--out``/``--threads``, plus what the
    output checks need to know about it."""

    op_id: str
    command: str
    argv: list
    config: dict = field(default_factory=dict)
    seed: int = 0
    items: int = 0  # rows, trials or suite samples the op produces


def _n_ops(seconds: float, per_op: float) -> int:
    return max(1, round(seconds / per_op))


def _taps(rng: np.random.Generator, k: int) -> tuple[np.ndarray, float]:
    """Random centre taps with min|f| >= 0.05 max|f| (own FFT check), and
    their water-filling knee ``1/alpha^2 - J``: below that power the water
    level needs bisection, above it a closed form."""
    while True:
        c = rng.uniform(-1.0, 1.0, k + 1)
        f_sq = np.abs(np.fft.fft(c, FFT_POINTS)) ** 2
        if f_sq.min() >= MIN_ALPHA_OVER_BETA ** 2 * f_sq.max():
            return c, float(1.0 / f_sq.min() - np.mean(1.0 / f_sq))


def sweep_channel(rng: np.random.Generator, k: int) -> dict:
    """One random channel; radii log-uniform in [1e-4, 1e-2]."""
    c, _ = _taps(rng, k)
    r = 10.0 ** rng.uniform(-4.0, -2.0, k + 1)
    return {"k": k, "c": [float(v) for v in c], "r": [float(v) for v in r]}


def _latin(rng: np.random.Generator, count: int, lo: float, hi: float) -> np.ndarray:
    """One value per stratum of ``[lo, hi]``, in random order."""
    return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count


def sweep_channels(rng: np.random.Generator, count: int) -> list[dict]:
    """``count`` channels whose mix barely moves with the seed.  A channel's
    cost follows its memory k, its knee and its radii, so k comes in equal
    shares, and the knee (set by scaling random taps) and each tap's radius
    come from Latin hypercubes on the dB and log scales."""
    ks = rng.permutation(np.resize(np.arange(1, 5), count))
    knee_db = _latin(rng, count, *SWEEP_KNEE_DB)
    log_r = [_latin(rng, count, -4.0, -2.0) for _ in range(5)]
    out = []
    for i, k in enumerate(ks):
        c, knee = _taps(rng, int(k))
        c *= math.sqrt(knee / 10.0 ** (knee_db[i] / 10.0))
        r = 10.0 ** np.array([log_r[t][i] for t in range(k + 1)])
        out.append({"k": int(k), "c": [float(v) for v in c], "r": [float(v) for v in r]})
    return out


def build_ops(workload: str, seed: int, seconds: float) -> list[Op]:
    """The fixed op list of one run."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: list[Op] = []
    if workload == "sweep":
        channels = max(1, round(seconds / _SWEEP_S_PER_CHANNEL))
        for i, channel in enumerate(sweep_channels(rng, channels)):
            cfg = {"channel": channel}
            ops.append(Op(f"c{i}.bounds", "bounds", ["bounds", f"--grid={SWEEP_BOUNDS_GRID}"], cfg, items=161))
            ops.append(Op(f"c{i}.figure1", "figure1", ["figure1"], cfg, items=SWEEP_FIGURE1_ROWS))
            ops.append(Op(f"c{i}.figure2", "figure2", ["figure2"], cfg, items=SWEEP_FIGURE2_ROWS))
    elif workload == "decode_small":
        for i in range(_n_ops(seconds, _DECODE_SMALL_S_PER_OP)):
            s = int(rng.integers(2**31))
            ops.append(Op(f"d{i}", "simulate", ["simulate", "--seed", str(s)], {}, s,
                          DECODE_SMALL_TRIALS * len(DECODE_SMALL_N)))
    elif workload == "decode_large":
        cfg = {"simulate": dict(DECODE_LARGE)}
        for i in range(_n_ops(seconds, _DECODE_LARGE_S_PER_OP)):
            s = int(rng.integers(2**31))
            ops.append(Op(f"d{i}", "simulate", ["simulate", "--seed", str(s)], cfg, s,
                          DECODE_LARGE["trials"] * len(DECODE_LARGE["n_list"])))
    elif workload == "certify":
        cfg = {"verify": dict(CERTIFY)}
        for i in range(_n_ops(seconds, _CERTIFY_S_PER_OP)):
            s = int(rng.integers(2**31))
            ops.append(Op(f"v{i}", "verify", ["verify", "--seed", str(s)], cfg, s, 9 * CERTIFY["samples"]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


def write_configs(ops: list[Op], workdir: str) -> None:
    """Write each distinct config once and point its ops at the file."""
    paths: dict[str, str] = {}
    for op in ops:
        if not op.config:
            continue
        text = json.dumps(op.config, sort_keys=True)
        if text not in paths:
            paths[text] = os.path.join(workdir, f"cfg{len(paths)}.json")
            with open(paths[text], "w") as fh:
                fh.write(text)
        op.argv = op.argv + ["--config", paths[text]]


def sweep_grid_values() -> list[float]:
    start, stop, count = (float(v) for v in SWEEP_BOUNDS_GRID.split(":"))
    return [float(v) for v in np.linspace(start, stop, int(count))]
