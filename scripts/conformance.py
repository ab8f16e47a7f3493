"""Conformance gate: the CLI's bytes do not depend on --threads, BLAS threads or a warm process, and
the oracle gates that tier-1 runs only at small sizes hold at full size.

    python scripts/conformance.py [PARENT]

Each check runs in turn and prints its verdict and wall time.  A CLI call runs in a fresh process
with PYTHONPATH=<tree>/src, one per core at a time, and leaves its config, output, stderr and exit
code in an output tree as <name>.json, .out, .err and .rc; the other checks run in this process.
With PARENT, another checkout's root, every CLI call made and perfbench's decode_small and
decode_large op lists at seeds 1-3 run in both trees, and each file that differs is printed with
its first differing line and cell and the cell's relative move.  A closing report prints the line
count per module and the fresh-process import time of isicap.cli against numpy.  Exits 0 when
every check passes and every file matches, 1 otherwise; under python -O, whose asserts are off,
it refuses to run.
"""

import contextlib
import csv
import json
import os
import subprocess
import sys
import tempfile
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
MAIN = "import sys; from isicap.cli import main; sys.exit(main())"

LARGE = {"n_list": [1024], "rate_bits": 0.01171875, "trials": 64, "p_dbw": -10.0}  # decode_large's
# Every config a check runs, each once; None is the default config.
CONFIGS = {
    "default": None,
    "hold": {"simulate": {"n_list": [64, 100], "trials": 301, "law": {"kind": "block_hold", "block_len": 3}}},
    "const": {"simulate": {"n_list": [64, 100], "trials": 301,
                           "law": {"kind": "constant", "offset": [1.0, -1.0, 0.5]}}},
    # 8 words: every word is sent in every span, so the held sent words are shared by all threads
    "many": {"simulate": {"n_list": [64], "trials": 5000}},
    # 2^15 words: 32-trial blocks, two to each 64-trial cell of taps and noise
    "cell": {"simulate": {"n_list": [16], "rate_bits": 0.9375, "trials": 100}},
    # one word, 512-trial blocks: at seed 1 it passes the input test at n = 32 (every trial scored) and
    # fails it at n = 64 (every trial settled before its channel); 700 trials end each span in a part block
    "one": {"simulate": {"n_list": [32, 64], "rate_bits": 0.0, "trials": 700}},
    # seven taps held over 5 outputs at n = 300, where a draw's scratch grows with k; at seed 1 about a
    # fifth of the trials are settled, so each block draws every trial but adds taps to the rest
    "k6": {"channel": {"k": 6, "c": [1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05], "r": [1e-3] * 7},
           "simulate": {"n_list": [300], "trials": 301, "law": {"kind": "block_hold", "block_len": 5}}},
    # block lengths unsorted and repeated, which share their cells' draws; 150 trials end in a part cell
    "multi": {"simulate": {"n_list": [128, 32, 256, 32, 64], "trials": 150}},
    # block lengths in descending order: the first listed runs first, as the widest
    "desc": {"simulate": {"n_list": [256, 64, 128], "trials": 150}},
    "split": {"simulate": {"n_list": [63, 64]}},
    # a memoryless channel (k = 0): no tap to shift, so Hc'y and the tap terms are one scalar pass
    "memoryless": {"channel": {"k": 0, "c": [0.8], "r": [0.1]},
                   "simulate": {"n_list": [64, 200], "rate_bits": 0.05, "trials": 300}},
    # five taps of mixed sign, the first negative, at odd n: half bases with a middle row
    "k4neg": {"channel": {"k": 4, "c": [-0.9, 0.5, -0.4, 0.3, -0.2], "r": [1e-3, 2e-3, 1e-3, 5e-4, 1e-3]},
              "simulate": {"n_list": [65, 129], "trials": 301}},
    # a negligible last tap: the root route's columns overlap, so each half takes LAPACK's eigenbasis
    "tinytap": {"channel": {"k": 2, "c": [1.0, 0.5, 1e-12], "r": [1e-3] * 3},
                "simulate": {"n_list": [64, 255], "trials": 200}},
    # decode_large, n = 2048, odd n, n = 1, 2, 3 (an empty or one-column half), both edges of the support
    # split (no floor at 10 dBW, 232 of 256 dimensions at -30 dBW) and 400 dBW (every guard band
    # infinite, so the direct rule makes every decision)
    "large": {"simulate": LARGE},
    "n2048": {"simulate": {"n_list": [2048], "rate_bits": 0.005859375, "trials": 64, "p_dbw": -10.0}},
    "odd": {"simulate": {"n_list": [1025], "rate_bits": 0.01, "trials": 64, "p_dbw": -10.0}},
    "tiny": {"simulate": {"n_list": [1, 2, 3], "rate_bits": 1.0, "trials": 64}},
    "nofloor": {"simulate": {"n_list": [256], "rate_bits": 0.0390625, "trials": 64, "p_dbw": 10.0}},
    "allfloor": {"simulate": {"n_list": [256], "trials": 64, "p_dbw": -30.0}},
    "inband": {"simulate": {"n_list": [16, 17], "rate_bits": 0.5, "trials": 200, "p_dbw": 400.0}},
    "small": {"verify": {"samples": 20, "n_max": 32}},
    # zero radii: no saturation route, and a delta1 of 0.0, not -0.0
    "zero": {"channel": {"k": 2, "c": [1.0, 0.5, 0.5], "r": [0.0, 0.0, 0.0]}},
    # every bounds and figure2 row flagged: exit 3
    "flat": {"channel": {"k": 0, "c": [1.0], "r": [5.0]}},
    # a second quadrature grid size: the grid's J and water table at 1024 nodes
    "grid1024": {"channel": {"k": 3, "c": [1.0, -0.6, 0.3, 0.1], "r": [2e-4] * 4}, "grid_size": 1024},
    # the default channel's taps and radii times 2^40, P_sat at -187.4 dBW: the rows below it leave C_LB2
    # and delta2 empty, the saturation margin being relative to the saturation water
    "big": {"channel": {"k": 2, "c": [1099511627776.0, 549755813888.0, 549755813888.0], "r": [1099511627.776] * 3},
            "bounds": {"p_dbw": "-260:-180:5"}, "figure2": {"p_dbw": "-260:-180:17"}},
    "verify256": {"verify": {"samples": 20, "n_max": 256}},
}


class Call(NamedTuple):
    name: str  # its files' stem in an output tree
    argv: tuple  # without --config and --out
    config: dict | None
    blas: int | None  # OPENBLAS_NUM_THREADS, None to inherit it


def call(command, config, seed=1, threads=1, blas=None, n=None) -> Call:
    """``command`` on ``CONFIGS[config]``, at ``n_list = [n]`` if ``n`` is given; no ``--threads``
    if ``threads`` is None."""
    cfg, tag = CONFIGS[config], [command, config] + ([f"n{n}"] if n is not None else [])
    if n is not None:
        cfg = json.loads(json.dumps(cfg or {}))
        cfg.setdefault("simulate", {})["n_list"] = [n]
    argv = (command, "--seed", str(seed)) + (("--threads", str(threads)) if threads else ())
    tag += [f"s{seed}"] + ([f"t{threads}"] if threads else []) + ([f"b{blas}"] if blas else [])
    return Call(".".join(tag), argv, cfg, blas)


class Tree:
    """CLI calls on the package of the checkout ``root``, kept in ``out``; a kept call is not rerun."""

    def __init__(self, root: Path, out: Path):
        self.root, self.out, self.made = root, out, {}
        out.mkdir()

    def _run(self, c: Call) -> None:
        args = [*c.argv, "--out", f"{c.name}.out"]
        if c.config is not None:
            (self.out / f"{c.name}.json").write_text(json.dumps(c.config))
            args += ["--config", f"{c.name}.json"]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        env.update({} if c.blas is None else {"OPENBLAS_NUM_THREADS": str(c.blas)})
        done = subprocess.run([sys.executable, "-c", MAIN, *args], cwd=self.out, env=env, capture_output=True,
                              text=True)
        (self.out / f"{c.name}.err").write_text(done.stderr)
        (self.out / f"{c.name}.rc").write_text(f"{done.returncode}\n")

    def run(self, calls) -> list:
        """``(name, output bytes or None, stderr, exit code)`` of each call."""
        calls = list(calls)
        todo = {c.name: c for c in calls if c.name not in self.made}
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            list(pool.map(self._run, todo.values()))
        self.made.update(todo)
        files = [(self.out / f"{c.name}.out", self.out / f"{c.name}.err", self.out / f"{c.name}.rc") for c in calls]
        return [(c.name, out.read_bytes() if out.exists() else None, err.read_text(), int(rc.read_text()))
                for c, (out, err, rc) in zip(calls, files)]


def identical(runs, k, want=0) -> None:
    """Each run exited ``want``, and each group of ``k`` runs wrote its first run's bytes."""
    for i, (name, out, err, rc) in enumerate(runs):
        assert rc == want, f"{name} exited {rc}, want {want}: {err[-500:]}"
        assert out == runs[i - i % k][1], f"{name} differs from {runs[i - i % k][0]}"


def simulate_threads(tree):
    """simulate CSVs byte-identical at --threads 1, 2 and 64 (more threads than cores)."""
    names = ("default", "hold", "const", "many", "cell", "one", "k6", "multi", "desc", "memoryless", "k4neg",
             "tinytap")
    identical(tree.run(call("simulate", name, threads=t) for name in names for t in (1, 2, 64)), 3)
    return f"{len(names)} configs"


def simulate_rows_alone(tree):
    """Every row of a command over several block lengths equals that length's command alone."""
    from isicap.cli import _DEFAULTS
    n_lists = {name: (CONFIGS[name] or {"simulate": _DEFAULTS["simulate"]})["simulate"]["n_list"]
               for name in ("default", "hold", "const", "one", "multi", "desc")}
    whole = tree.run(call("simulate", name) for name in n_lists)
    alone = iter(tree.run(call("simulate", name, n=n) for name, ns in n_lists.items() for n in ns))
    for (name, ns), (_, out, _, _) in zip(n_lists.items(), whole):
        rows = out.decode().splitlines()[2:]
        assert len(rows) == len(ns), name
        for n, row in zip(ns, rows):
            _, got, _, rc = next(alone)
            assert rc == 0 and got.decode().splitlines()[2:] == [row], (name, n)
    return f"{len(n_lists)} configs"


def sweeps_threads(tree):
    """bounds, figure1, figure2 (and verify on small) byte-identical at --threads 1 and 2, exiting 3
    where every row is flagged; zero radii give delta1 0.0 and no saturation; no C_LB exceeds C0."""
    runs = [(name, cmd) for name in ("small", "zero", "flat", "grid1024", "big")
            for cmd in ("bounds", "figure1", "figure2") + (("verify",) if name == "small" else ())]
    got = tree.run(call(cmd, name, threads=t) for name, cmd in runs for t in (1, 2))
    rows = {}
    for i, (name, cmd) in enumerate(runs):
        identical(got[2 * i:2 * i + 2], 2, 3 if name == "flat" and cmd != "figure1" else 0)
        if cmd in ("bounds", "figure2"):
            rows[name, cmd] = list(csv.DictReader(got[2 * i][1].decode().splitlines()[1:]))
    zero = rows["zero", "bounds"]
    assert zero and all(r["delta1"] == "0.0" and r["C_LB1"] == r["C0"] for r in zero)
    assert all(r[c] == "" for r in zero for c in ("C_LB2", "delta2", "Psat_dBW", "gap_cor2", "Psat_W"))
    for (name, cmd), table in rows.items():
        assert table, (name, cmd)
        for r in table:
            for col in ("C_LB1", "C_LB2"):
                assert r[col] == "" or float(r[col]) <= float(r["C0"]), (name, cmd, col, r)
    return f"{len(runs)} commands"


def verify_suites_alone(tree):
    """verify passes at n_max = 256, and each suite of its JSON equals the suite run alone."""
    from dataclasses import asdict
    from isicap import SUITE_NAMES, run_suite
    (_, out, err, rc), = tree.run([call("verify", "verify256", threads=None)])
    assert rc == 0, err
    suites, section = json.loads(out)["suites"], CONFIGS["verify256"]["verify"]
    assert set(suites) == set(SUITE_NAMES)
    for name in SUITE_NAMES:
        alone = json.loads(json.dumps(asdict(run_suite(name, section["samples"], 1, section["n_max"]))))
        assert suites[name] == alone, name
    return f"{len(SUITE_NAMES)} suites"


def simulate_blas(tree):
    """simulate CSVs byte-identical at OPENBLAS_NUM_THREADS=1 and 2."""
    identical(tree.run(call("simulate", name, blas=b) for name in ("split", "cell") for b in (1, 2)), 2)
    return "2 configs"


def simulate_edges(tree):
    """simulate CSVs byte-identical at decode_large's and the edge configs, --threads and
    OPENBLAS_NUM_THREADS 1 and 2."""
    names = ("large", "n2048", "odd", "tiny", "nofloor", "allfloor", "inband")
    runs = tree.run(call("simulate", name, threads=t, blas=b) for name in names for b in (1, 2) for t in (1, 2))
    identical(runs, 4)
    return f"{len(names)} configs"


def warm_equals_fresh(tree):
    """simulate CSVs from one process at seeds 1, 2, 1 equal fresh-process CSVs, at the default and
    decode_large configs, and the later two calls of each build no covariance: they reuse the kept
    seed-free set-up."""
    from isicap import cli, decoder
    built, build = [], decoder.build_sigma
    decoder.build_sigma = lambda *args: built.append(args[1]) or build(*args)
    try:
        with tempfile.TemporaryDirectory() as warm:
            for name in ("default", "large"):
                fresh = tree.run(call("simulate", name, seed=s) for s in (1, 2))
                for i, seed in enumerate((1, 2, 1)):
                    c, out = call("simulate", name, seed=seed), Path(warm) / f"{name}.{i}.csv"
                    cfg = ["--config", str(tree.out / f"{c.name}.json")] if c.config else []
                    built.clear()
                    assert cli.main([*c.argv, *cfg, "--out", str(out)]) == 0, c
                    assert out.read_bytes() == fresh[seed - 1][1], (name, seed, i)
                    assert i == 0 or not built, f"{name} at seed {seed}, call {i + 1}, built n = {built}"
    finally:
        decoder.build_sigma = build
    return "2 configs"


def decode_peak(tree):
    """At decode_large's config with 64 trials the coefficients are float32 and the traced peak from
    gen_codebook to the last block stays within decode_bytes."""
    import tracemalloc
    import numpy as np
    from isicap import decoder
    from isicap.channel_sim import decode_bytes
    from isicap.waterfill import dbw_to_watts
    (n,), trials, books, draw = LARGE["n_list"], LARGE["trials"], [], decoder.gen_codebook

    def traced(*args):
        tracemalloc.start()
        books.append(draw(*args))
        return books[-1]

    decoder.gen_codebook = traced
    try:
        res = decoder.run_error_experiment(example(), n, LARGE["rate_bits"], dbw_to_watts(LARGE["p_dbw"]), trials,
                                           master_seed=1, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        decoder.gen_codebook = draw
    cap = decode_bytes(4096, n, trials, example().k)
    assert res.type1 + res.type2 + res.success == trials
    assert books[0].size == 4096 and books[0].S.dtype == np.float32, books[0].S.dtype
    assert peak <= cap, (peak, cap)
    return f"traced peak {peak} of {cap} bytes"


def trial_blocks_draw(tree):
    """At n = 1024 TrialBlocks.draw(0, X) equals transmit(sample_H(...)) bit for bit for trials 0-69,
    across the cell boundary at 64, under all three laws, and refuses a first trial inside a cell."""
    import numpy as np
    from isicap import ChannelLaw, sample_H, transmit
    from isicap.channel_sim import TrialBlocks
    (n,), spec = LARGE["n_list"], example()
    X = np.random.default_rng(0).standard_normal((70, n))
    for law in (ChannelLaw(kind="iid_uniform"), ChannelLaw(kind="block_hold", block_len=4),
                ChannelLaw(kind="constant", offset=(1.0, -1.0, 0.5))):
        Y = TrialBlocks(spec, n, law, 1).draw(0, X)
        for t in range(70):
            assert Y[t].tobytes() == transmit(sample_H(spec, n, law, 1, t), X[t], 1, t).tobytes(), (law, t)
        try:
            TrialBlocks(spec, n, law, 1).draw(5, X)
        except ValueError as e:
            assert "neither starts a cell" in str(e), e
        else:
            raise AssertionError(f"draw(5, X) on a fresh TrialBlocks ran under {law.kind}")
    return "70 trials, 3 laws"


def readme_examples(tree):
    """README's python examples run, and its trial-130 noise is row 2 of rng_stream's cell 2."""
    import re
    import numpy as np
    from isicap import rng_stream
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        scope = {}
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), scope)
        assert i or np.array_equal(scope["z"], rng_stream(0, 1, 2).standard_normal((3, 66))[2])
    return f"{len(blocks)} blocks"


def root_basis(tree):
    """Gram bases meet the eig_banded oracle gate at n = 2048 and 4096 on the default channel, (1, .7,
    .2, -.3, .1) and the near-coalescing (1, 1e-9, 0, .5), whose root columns miss the residual rule,
    so that its halves take LAPACK; build_sigma is timed beside eig_banded (ms)."""
    from isicap import ChannelSpec
    from isicap.channel_sim import build_sigma
    from test_spectrum import eig_banded_halves, root_basis_gate
    lines = []
    for spec in (example(), *(ChannelSpec(k=len(c) - 1, c=c, r=(1e-3,) * len(c))
                              for c in ((1.0, 0.7, 0.2, -0.3, 0.1), (1.0, 1e-9, 0.0, 0.5)))):
        for n in (2048, 4096):
            kept, new = root_basis_gate(spec, n), min(timed(build_sigma, spec, n, 0.1) for _ in range(3))
            lines.append(f"c={spec.c} n={n}: kept {kept}, build_sigma {1e3 * new:.0f}, "
                         f"eig_banded {1e3 * timed(eig_banded_halves, spec, n):.0f}")
    return "\n  ".join(lines)


def band_route(tree):
    """verify's band route meets the dense-route gate at n_max = 256, 50 samples, seeds 1 and 2."""
    from test_verify import band_route_gate
    counts = [band_route_gate(seed, 256, 50) for seed in (1, 2)]
    assert all(counts), counts
    return f"{counts} of 50 samples took the band route"


def dense_oracle(tree):
    """Every verify channel check meets dense_check_oracle at n_max = 256, 50 samples, seeds 1 and 2."""
    from test_verify import CHANNEL_SUITES, dense_oracle_gate
    for seed in (1, 2):
        assert dense_oracle_gate(seed, 256, 50) == 50 * len(CHANNEL_SUITES), seed
    return f"{50 * len(CHANNEL_SUITES)} checks a seed"


def suite_peaks(tree):
    """One sample of each verify suite at n_max = 256 (the first seed whose channel sample is a drawn
    basis within 8 of n_max, and seeds 2018, 3357 and 3562) peaks below _sample_bytes(256), and the
    channel suites below the _DENSE_ARRAYS count."""
    import tracemalloc
    from isicap import SUITE_NAMES, verify
    n_max, top = 256, 0
    cap, dense = verify._sample_bytes(n_max), verify._DENSE_ARRAYS * 8 * (n_max + verify.K_MAX) ** 2
    first = verify._DRAWN_BY[SUITE_NAMES.index("stacked_deviation_trace")]

    def dense_near(seed):
        cov = verify._channel_instance(verify._suite_rng(seed, first, 0), 0, n_max)[2]
        return cov.Q is not None and cov.n >= n_max - 8

    for seed in (next(filter(dense_near, range(1000))), 2018, 3357, 3562):
        for j, name in enumerate(SUITE_NAMES):
            tracemalloc.start()
            try:
                verify.run_suite(name, 1, seed, n_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cap, (name, seed, peak, cap)
            assert verify._DRAWN_BY[j] != first or peak < dense, (name, seed, peak, dense)
            top = max(top, peak)
    return f"highest traced peak {top} of {cap} bytes"


def frozen_constants(tree):
    """Every frozen test constant matches its standalone recomputation to 1e-12 relative."""
    import math
    import reference_values as frozen
    printed = {}
    exec(subprocess.run([sys.executable, str(ROOT / "scripts" / "compute_reference_values.py")], check=True,
                        capture_output=True, text=True).stdout, printed)
    names = {name for name in vars(frozen) if name.isupper()}
    assert names == {name for name in printed if name.isupper()}, names ^ set(printed)
    for name in sorted(names):
        want, got = getattr(frozen, name), printed[name]
        assert not isinstance(want, tuple) or len(want) == len(got), name
        for w, g in zip(want, got) if isinstance(want, tuple) else [(want, got)]:
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0), (name, g, w)
    return f"{len(names)} constants"


def centre_extrema(tree):
    """centre_extrema holds the 40-digit oracle's extrema within its rounding bound, on the safe side,
    on 200 channels of memory 1 to 64, half of them near-singular down to alpha / beta = 1e-6."""
    from test_spectrum import assert_extrema_contained, extrema_channels
    for c in extrema_channels(seed=1, count=200, k_max=64):
        assert_extrema_contained(c)
    return "200 channels"


CHECKS = (simulate_threads, simulate_rows_alone, sweeps_threads, verify_suites_alone, simulate_blas,
          simulate_edges, warm_equals_fresh, decode_peak, trial_blocks_draw, readme_examples, root_basis,
          band_route, dense_oracle, suite_peaks, frozen_constants, centre_extrema)


def example():
    from isicap import ChannelSpec
    from reference_values import EXAMPLE_C, EXAMPLE_K, EXAMPLE_R
    return ChannelSpec(k=EXAMPLE_K, c=EXAMPLE_C, r=EXAMPLE_R)


def timed(f, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    f(*args, **kwargs)
    return time.perf_counter() - t0


def bench_calls() -> list:
    """perfbench's decode_small and decode_large op lists at seeds 1-3 as one pass of a benchmark run
    builds them, at --threads 1 and BLAS on one thread, as perfbench runs them."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import PASSES
    from workloads import build_ops
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"] / PASSES
    return [Call(f"{w}.s{seed}.{op.op_id}", (*op.argv, "--threads", "1"), op.config or None, 1)
            for w in ("decode_small", "decode_large") for seed in (1, 2, 3) for op in build_ops(w, seed, seconds)]


def compare(this: Path, other: Path) -> list:
    """A line for each file of either output tree that the other lacks or holds other bytes of: the
    first differing line and comma-separated cell, and in an output the cell's relative move."""
    report = []
    for name in sorted({p.name for p in this.iterdir()} | {p.name for p in other.iterdir()}):
        a, b = this / name, other / name
        if not (a.exists() and b.exists()):
            report.append(f"{name}: missing from {b if a.exists() else a}")
        elif a.read_bytes() != b.read_bytes():
            x, y = (p.read_bytes().decode(errors="replace").splitlines() + [""] for p in (a, b))
            i = next((i for i, (s, t) in enumerate(zip(x, y)) if s != t), 0)  # 0: line ends differ
            p, q = x[i].split(",") + [""], y[i].split(",") + [""]
            j = next((j for j, (s, t) in enumerate(zip(p, q)) if s != t), 0)
            line = f"{name}: line {i + 1}, column {j + 1}: {p[j].strip()!r} against {q[j].strip()!r}"
            with contextlib.suppress(ValueError, ZeroDivisionError):
                u, v = (float(cell.rsplit(":", 1)[-1].strip(' "')) for cell in (p[j], q[j]))
                line += f", relative move {(v - u) / abs(u):+.3e}" if name.endswith(".out") else ""
            report.append(line)
    return report


def closing_report() -> None:
    sizes = {p.name: p.read_text().count("\n") for p in sorted((ROOT / "src" / "isicap").glob("*.py"))}
    print(f"lines of src/isicap: {sum(sizes.values())} ({', '.join(f'{k} {v}' for k, v in sizes.items())})")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for module in ("isicap.cli", "numpy"):
        cold = min(timed(subprocess.run, [sys.executable, "-c", f"import {module}"], env=env, check=True)
                   for _ in range(5))
        print(f"fresh-process import {module}: {1e3 * cold:.0f} ms (min of 5)")


def main() -> int:
    parent = Path(sys.argv[1]).resolve() if len(sys.argv) == 2 else None
    if len(sys.argv) > 2 or not __debug__ or parent is not None and not (parent / "src" / "isicap").is_dir():
        print(__doc__)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    start, failed = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="isicap-conformance-") as tmp:
        tree = Tree(ROOT, Path(tmp) / "this")
        for check in CHECKS:
            t0 = time.perf_counter()
            try:
                verdict, detail = "pass", check(tree)
            except Exception:  # a failed check is reported with its traceback, and the rest still run
                verdict, detail, failed = "FAIL", traceback.format_exc()[-3000:], failed + 1
            print(f"{verdict} {check.__name__} ({time.perf_counter() - t0:.1f} s): {detail}", flush=True)
        if parent is not None:
            t0, calls = time.perf_counter(), [*tree.made.values(), *bench_calls()]
            tree.run(calls)
            Tree(parent, Path(tmp) / "parent").run(calls)
            report = compare(tree.out, Path(tmp) / "parent")
            print(f"{'FAIL' if report else 'pass'} parent ({time.perf_counter() - t0:.1f} s): {len(calls)} calls, "
                  f"{len(report)} of {len(list(tree.out.iterdir()))} files differ or are missing in {parent}")
            print("".join(f"  {line}\n" for line in report), end="")
            failed += bool(report)
        closing_report()
    print(f"{failed} failed; {time.perf_counter() - start:.0f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
