#!/usr/bin/env python3
"""isicap benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the repository root; the package is imported from ``src``, as
the tests do.  Each op is one in-process ``isicap.cli.main([...])`` call
with ``--threads 1``, in a worker process whose BLAS is pinned to one
thread, on one CPU that it shares with a speed gauge (gauge.py); op and
set-up times are scaled to the gauge's full speed.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs the ops once more untraced, then
replays them through the public functions with spans (replay.py) and prints
the per-layer metrics.  ``--workload all`` runs every workload in turn.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

This harness imports nothing outside the standard library, so it works
before any BLAS is loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from gauge import Gauge, now

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "decode_small", "decode_large", "certify")
ITEMS = {"sweep": "rows", "decode_small": "trials", "decode_large": "trials", "certify": "certs"}
# Each run makes PASSES worker processes, one after another, each running
# the whole op list cold from its own start, on one CPU shared with a speed
# gauge (gauge.py).  An op's latency is the median over the passes of its
# wall time scaled to the gauge's full speed; setup_s is the median of the
# passes' scaled start-up times.
PASSES = 3
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_DIR = ".perfbench_run"


class WorkerError(RuntimeError):
    pass


def _env(root: str) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _readline(proc: subprocess.Popen, deadline: float) -> str:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(max(0.0, deadline - time.monotonic())):
            raise WorkerError("worker did not get ready in time")
    finally:
        sel.close()
    return proc.stdout.readline()


def _pinned(cpu: int):
    return lambda: os.sched_setaffinity(0, {cpu})


def _bench_cpu() -> int:
    """The CPU the workers and the gauge share."""
    return max(os.sched_getaffinity(0))


def _worker(root: str, role: str, args, workdir: str, deadline: float, extra=()) -> tuple[tuple, dict]:
    """Start one worker on one pass's share of the run; returns (its start
    and its ready line on the gauge's clock, its JSON result).  The worker
    is always waited for."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PASSES), "--workdir", workdir, *extra]
    t0 = now()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE, text=True,
                            preexec_fn=_pinned(_bench_cpu()))
    try:
        setup = None
        if role != "replay":
            if _readline(proc, deadline).strip() != "ready":
                raise WorkerError(f"{role} worker failed during set-up")
            setup = (t0, now())
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise WorkerError(f"{role} worker exited with {proc.returncode}")
        lines = out.strip().splitlines()
        return setup, json.loads(lines[-1]) if lines else {}
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{role} worker ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def environment(root: str, args, libs: dict) -> dict:
    """What the numbers depend on besides the code; ``libs`` comes from a
    worker, which has numpy loaded."""
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "isicap")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(), **libs,
            "blas_threads": BLAS_ENV, "commit": commit, "src_sha256": digest.hexdigest(), "clients": 1}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _stop(proc: subprocess.Popen) -> str:
    """Close the gauge's stdin, which stops it; returns its output."""
    try:
        out, _ = proc.communicate(input="", timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"the speed gauge exited with {proc.returncode}")
    return out


def run_passes(root: str, args, workdir: str, deadline: float) -> tuple[list, dict]:
    """PASSES ops workers beside the speed gauge; returns their scaled
    start-up times and one merged result whose op walls are the median of
    each op's scaled walls over the passes (``raw_s``: its fastest unscaled
    wall, to set against the replay's fastest pass)."""
    spans, passes = [], []
    gauge = subprocess.Popen([sys.executable, os.path.join(HERE, "gauge.py")], cwd=root, text=True,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, preexec_fn=_pinned(_bench_cpu()))
    try:
        for i in range(PASSES):
            extra = ("--check-threads",) if i == PASSES - 1 else ()
            span, res = _worker(root, "ops", args, workdir, deadline, extra)
            spans.append(span)
            passes.append(res)
    finally:
        out = _stop(gauge)
    g = Gauge(json.loads(out.strip().splitlines()[-1]))
    setups = [(end - start) * g.scale(start, end) for start, end in spans]
    merged = passes[-1]
    for i, rec in enumerate(merged["ops"]):
        runs = [p["ops"][i] for p in passes]
        rec["wall_s"] = statistics.median((r["end"] - r["start"]) * g.scale(r["start"], r["end"]) for r in runs)
        rec["raw_s"] = min(r["end"] - r["start"] for r in runs)
        rec["ok"] = all(r["ok"] for r in runs) and all(r.get("counts") == rec.get("counts") for r in runs)
        if not rec["ok"]:
            rec.setdefault("error", next((r["error"] for r in runs if "error" in r), "passes disagree"))
    merged["rss_mib"] = statistics.median(p["rss_mib"] for p in passes)
    merged["executed"] = sum(len(p["ops"]) + len(p["checks"]) for p in passes)
    return setups, merged


def end_to_end(root: str, args, workdir: str, deadline: float) -> tuple[dict, dict]:
    setups, res = run_passes(root, args, workdir, deadline)
    walls = [r["wall_s"] for r in res["ops"]]
    wall = sum(walls)
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[8] if len(walls) > 1 else walls[0]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(wall, "s"),
        "op_ms.p50": _metric(1e3 * statistics.median(walls), "ms"),
        "op_ms.p90": _metric(1e3 * p90, "ms"),
        "items_per_s": _metric(sum(r["items"] for r in res["ops"]) / wall, "1/s"),
        "peak_rss_mib": _metric(res["rss_mib"], "MiB"),
    }
    return metrics, res


def per_layer(root: str, args, workdir: str, deadline: float) -> tuple[dict, dict]:
    """The untraced passes, then as many traced replay passes; the last one
    also runs the layer panel and writes the spans.  Each op's replay times
    are its fastest pass, set against its fastest untraced pass."""
    _, res = run_passes(root, args, workdir, deadline)
    trace_file = os.path.join(root, RUN_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    reps = [_worker(root, "replay", args, workdir, deadline, ("--trace-file", trace_file) if i == PASSES - 1 else ())[1]
            for i in range(PASSES)]
    rep = reps[-1]
    metrics = {name: _metric(v, _layer_unit(name)) for name, v in rep["metrics"].items()}
    overhead, traced = [], 0.0
    for i, op in enumerate(res["ops"]):
        runs = [p["ops"][i] for p in reps]
        overhead.append(op["raw_s"] - min(r["lib_s"] for r in runs))
        traced += min(r["span_s"] for r in runs)
        if op.get("counts") or "violations" in runs[0]:
            ok = all(r.get("counts", []) == op.get("counts", []) and not r.get("violations") for r in runs)
            res["checks"].append({"id": op["id"] + ".replay", "ok": ok,
                                  **({} if ok else {"error": "traced replay counts differ from the CLI's"})})
            res["executed"] += 1
    metrics["cli.overhead_ms"] = _metric(1e3 * statistics.median(overhead), "ms")
    metrics["cli.out_bytes"] = _metric(statistics.median(r["out_bytes"] for r in res["ops"]), "bytes")
    metrics["trace.overhead_s"] = _metric(traced - sum(r["raw_s"] for r in res["ops"]), "s")
    res["self_s"] = rep["self_s"]
    res["trace_file"] = os.path.relpath(trace_file, root)
    return metrics, res


def _layer_unit(name: str) -> str:
    if ".ms" in name or name.endswith("_ms"):
        return "ms"
    if name.endswith(".us"):
        return "us"
    for suffix, unit in (("bytes", "bytes"), ("flops", "flop"), ("calls", "count"), ("violations", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def run_one(root: str, args, deadline: float) -> dict:
    workdir = os.path.join(root, RUN_DIR, f"work-{os.getpid()}-{args.workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        metrics, res = (per_layer if args.trace else end_to_end)(root, args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(root, args, res["libs"])
    failures = [r for r in res["ops"] + res["checks"] if not r["ok"]]
    print("env " + json.dumps(env, sort_keys=True))
    for f in failures[:20]:
        print(f"FAILED {f['id']}: {f.get('error')}")
    if args.trace:
        layers = defaultdict(float)
        for name, secs in res["self_s"].items():
            layers[name.split(".")[0]] += secs
        print(f"self time in s per layer, then per span name (spans in {res['trace_file']}):")
        for table in (layers, res["self_s"]):
            for name, secs in sorted(table.items(), key=lambda kv: -kv[1]):
                print(f"  {name:45s} {secs:10.4f}")
    return {"correct": not failures, "attempted": res["executed"], "failed": len(failures), "metrics": metrics,
            "ops": len(res["ops"])}


def print_rows(rows: dict) -> None:
    """One row per workload: every metric by name and unit."""
    first = next(iter(rows.values()))["metrics"]
    print("workload       items   ops clients " + " ".join(f"{n}[{m['unit']}]" for n, m in first.items())
          + " failed_ops")
    for workload, out in rows.items():
        cells = " ".join(f"{m['value']:.6g}" for m in out["metrics"].values())
        share = out["failed"] / out["attempted"]
        print(f"{workload:14s} {ITEMS[workload]:6s} {out['ops']:5d} {1:7d} {cells} {share:.3g}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isicap", "__init__.py")):
        print("run.py: no src/isicap here; run it from the repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rows = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            rows[name] = run_one(root, one, time.monotonic() + DEADLINE_S)
    except (WorkerError, subprocess.SubprocessError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print_rows(rows)
    if len(rows) == 1:
        out = rows[args.workload]
        metrics = out["metrics"]
    else:
        out = {"correct": all(r["correct"] for r in rows.values()),
               "attempted": sum(r["attempted"] for r in rows.values()),
               "failed": sum(r["failed"] for r in rows.values())}
        metrics = {f"{w}.{n}": m for w, r in rows.items() for n, m in r["metrics"].items()}
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
