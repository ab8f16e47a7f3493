#!/usr/bin/env python3
"""Error rate of the joint-typicality decoder versus blocklength.

Runs the Monte Carlo experiment at a rate set to a fraction of the
achievable bound and prints one row per blocklength with Wilson intervals,
e.g.

    python3 scripts/decoder_trend.py --trials 500 --threads 8
"""

import argparse
import sys
import time

from isicap import ChannelSpec, bound_report, dbw_to_watts, run_error_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--c", type=float, nargs="+", default=[1.0, 0.5, 0.5])
    ap.add_argument("--r", type=float, nargs="+", default=[1e-3, 1e-3, 1e-3])
    ap.add_argument("--n", type=int, nargs="+", default=[64, 128, 256])
    ap.add_argument("--p-dbw", type=float, default=-10.0)
    ap.add_argument("--rate-fraction", type=float, default=0.25)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    spec = ChannelSpec(k=args.k, c=tuple(args.c), r=tuple(args.r))
    P = dbw_to_watts(args.p_dbw)
    c_lb1 = bound_report(spec, P).C_LB1
    if c_lb1 is None:
        ap.error(f"C_LB1 is undefined at {args.p_dbw} dBW; no rate to derive")
    R = args.rate_fraction * c_lb1
    print(f"P = {args.p_dbw} dBW, R = {R:.5f} bits/symbol, {args.trials} trials")
    print(f"{'n':>6} {'p_e':>8} {'type1':>6} {'type2':>6} {'wilson':>17} {'sec':>6}")
    for n in args.n:
        t0 = time.perf_counter()
        res = run_error_experiment(
            spec, n=n, R=R, P=P, trials=args.trials,
            master_seed=args.seed, threads=args.threads,
        )
        dt = time.perf_counter() - t0
        print(
            f"{n:>6} {res.error_rate:>8.4f} {res.type1:>6} {res.type2:>6} "
            f"[{res.wilson_lo:.4f}, {res.wilson_hi:.4f}] {dt:>6.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
