"""Benchmark worker: one process that imports isicap and plays one role.

    ops     import, generate the op list, report ready, then every op
            through ``isicap.cli.main`` in a closed loop with one client,
            each output checked
    replay  the traced replay; with ``--trace-file`` also the layer panel,
            the per-layer metrics and the span file (see replay.py)

``run.py`` starts it with BLAS pinned to one thread and ``src`` on the
path; the last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback

import numpy as np
import scipy
from isicap import cli

import checks
import replay
from gauge import now
from workloads import build_ops, write_configs

# Sweep channels whose bound rows are compared with the oracle, and rows
# per channel (spread over the grid); outside the timed region.
ORACLE_CHANNELS = 8
ORACLE_ROWS = 4


def _call(argv: list) -> tuple:
    """One op: ``cli.main`` with its stderr notes (partly flagged sweeps)
    discarded; returns the exit code (None if it raised) and the op's start
    and end on the gauge's clock."""
    with contextlib.redirect_stderr(io.StringIO()):
        t0 = now()
        try:
            rc = cli.main(argv)
        except Exception:  # a crashing op counts as failed; the run goes on
            traceback.print_exc(file=sys.__stderr__)
            rc = None
        return rc, t0, now()


def _check(op, rc, text: str, rec: dict, oracle_rows: bool) -> None:
    if op.command == "simulate":
        rec["counts"] = checks.check_simulate(rc, text, op.config)
    elif op.command == "verify":
        checks.check_verify(rc, text, op.config)
    else:
        rows = checks.check_sweep(op.command, rc, text)
        if oracle_rows and op.command == "bounds":
            step = len(rows) // ORACLE_ROWS
            problem = checks.oracle_mismatch(op.config["channel"]["c"], rows[step // 2::step])
            if problem:
                raise ValueError(problem)


def run_ops(ops, workdir: str, check_threads: bool) -> dict:
    out_path = os.path.join(workdir, "out")
    oracle_ops = {f"c{i}.bounds" for i in range(ORACLE_CHANNELS)}
    sim = [op for op in ops if op.command == "simulate"][:1] if check_threads else []
    first_sim = None
    records = []
    for op in ops:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)  # so a check never reads the previous op's file
        rc, t0, t1 = _call(op.argv + ["--threads", "1", "--out", out_path])
        rec = {"id": op.op_id, "start": t0, "end": t1, "items": op.items, "ok": True}
        try:
            with open(out_path, "rb") as fh:
                raw = fh.read()
            if sim and op is sim[0]:
                first_sim = raw
            text = raw.decode()
            rec["out_bytes"] = len(raw)
            _check(op, rc, text, rec, op.op_id in oracle_ops)
        except (OSError, ValueError, KeyError) as exc:
            rec["ok"] = False
            rec["error"] = f"{type(exc).__name__}: {exc}"
        records.append(rec)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra = []
    for op in sim:
        # The first simulate op again with two worker threads: the CSV must
        # be byte-identical.
        rc, _, _ = _call(op.argv + ["--threads", "2", "--out", out_path])
        with open(out_path, "rb") as fh:
            ok = rc == 0 and first_sim is not None and fh.read() == first_sim
        extra.append({"id": op.op_id + ".threads2", "ok": ok,
                      **({} if ok else {"error": "CSV differs between --threads 1 and 2"})})
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    libs = {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}
    return {"ops": records, "checks": extra, "rss_mib": rss_mib, "libs": libs}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("ops", "replay"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--check-threads", action="store_true")
    args = ap.parse_args()
    ops = build_ops(args.workload, args.seed, args.seconds)
    if args.role == "replay":
        rp = replay.Replay()
        out = {"ops": [rp.run_op(op) for op in ops]}
        if args.trace_file:
            rp.panel(args.seed)
            out["metrics"] = replay.layer_metrics(rp.tr, rp.violations)
            out["self_s"] = rp.tr.self_times()
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "self_s": out["self_s"],
                           "spans": rp.tr.spans}, fh)
        print(json.dumps(out))
        return 0
    write_configs(ops, args.workdir)
    print("ready", flush=True)
    print(json.dumps(run_ops(ops, args.workdir, args.check_threads)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
