"""Reachability gate: every function defined in ``src/isicap`` runs when the
CLI's five commands run on small configs and README's python blocks run, or
sits on ``UNREACHED`` with its reason.

The run is traced in-process with ``sys.settrace`` (call events only), at
``--threads 1`` so that every call is on this thread.  Functions are listed
from the source with ``ast`` (methods, properties and nested functions
included; dataclass-generated methods have no ``def`` and are not listed),
and a code object is matched to its ``def`` by file and first line, which
for a decorated function is its first decorator's.
"""

import ast
import json
import re
import sys
from pathlib import Path

import pytest

import isicap
from isicap import cli

# Unresolved, so that a file's path is spelled as its code objects spell it.
PKG = Path(isicap.__file__).parent
REPO = Path(__file__).resolve().parent.parent
REPLAY = REPO / "perfbench" / "replay.py"

# Named in perfbench/replay.py, which perfbench/worker.py imports in every
# benchmark worker: these stay until the replay runs the CLI itself.
BENCHMARK = "named in perfbench/replay.py, which every benchmark worker imports"
# A paper result that no output column reports yet.
RESULT = "a paper result that no CLI column reports yet"

UNREACHED = {
    "spectrum.ChannelSpec.from_json": BENCHMARK,
    "spectrum.gram_eigenvalues": BENCHMARK,
    "channel_sim.sample_H": BENCHMARK,
    "channel_sim.transmit": BENCHMARK,
    "channel_sim.Codebook.codewords": BENCHMARK,
    "decoder.DecodeContext.images": BENCHMARK,
    "decoder.DecodeContext.q_sigma": BENCHMARK,
    "decoder.decode": BENCHMARK,
    "waterfill.capacity_C0": BENCHMARK,
    "waterfill.pillow_terms": BENCHMARK,
    "verify.run_suite": BENCHMARK + "; CI's per-suite step calls it too",
    "waterfill.finite_n_bound": RESULT + " (the finite-n achievability bound)",
    "verify.converse_rate_bound": RESULT + " (the converse, per codebook)",
    "spectrum.ChannelSpec.norm_c_sq": RESULT + ": only the converse reads it",
    "verify._suite_rng": "regenerates a reported worst instance; tests compare the runner's draws with it",
}

CHANNELS = {
    "default": {},
    "zero_radii": {"channel": {"k": 2, "c": [1.0, 0.5, 0.5], "r": [0.0, 0.0, 0.0]}},
    "all_flagged": {"channel": {"k": 0, "c": [1.0], "r": [5.0]}},
}
SIMULATE_LAWS = (
    {"kind": "iid_uniform"},
    {"kind": "block_hold", "block_len": 3},
    {"kind": "constant", "offset": [1.0, -1.0, 0.5]},
)


def _defs():
    """``{(file, first line): "module.Qual.name"}`` for every ``def`` in the
    package."""
    found = {}
    for path in sorted(PKG.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef):
                        first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                        found[(str(path), first)] = name
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), module)
    return found


def _clear_caches():
    """Empty every ``lru_cache`` in the package, so that a cache warmed by
    an earlier test cannot hide the function behind it."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("isicap"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _cli_runs(tmp_path):
    """argv lists that drive every command on small configs."""
    def config(name, payload):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        return ["--config", str(path), "--out", str(tmp_path / f"{name}.out"), "--threads", "1"]

    runs = []
    for name, payload in CHANNELS.items():
        runs.append(["bounds", "--grid", "0:60:7"] + config(f"bounds_{name}", payload))
        runs.append(["figure1", "--grid=-4:0:5"] + config(f"figure1_{name}", payload))
        runs.append(["figure2", "--grid", "20:56:7"] + config(f"figure2_{name}", payload))
    for i, law in enumerate(SIMULATE_LAWS):
        section = {"n_list": [15, 16], "trials": 40, "law": law}
        runs.append(["simulate"] + config(f"simulate_{i}", {"simulate": section}))
    # every guard band infinite at 400 dBW, so the direct rule makes every decision
    inband = {"n_list": [16], "rate_bits": 0.5, "trials": 16, "p_dbw": 400.0}
    runs.append(["simulate"] + config("simulate_inband", {"simulate": inband}))
    runs.append(["verify"] + config("verify", {"verify": {"samples": 3, "n_max": 12}}))
    return runs


def _readme_blocks():
    text = (REPO / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def _traced_run(tmp_path):
    """The ``(file, first line)`` of every package code object called while
    the CLI runs and README's python blocks run."""
    prefix = str(PKG)
    called = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))

    _clear_caches()
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        codes = [cli.main(argv) for argv in _cli_runs(tmp_path)]
        for i, block in enumerate(_readme_blocks()):
            exec(compile(block, f"README.md python block {i + 1}", "exec"), {})
    finally:
        sys.settrace(previous)
    assert set(codes) <= {cli.EXIT_OK, cli.EXIT_EMPTY}, codes
    return called


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    defs = _defs()
    called = _traced_run(tmp_path_factory.mktemp("reach"))
    ran = {name for key, name in defs.items() if key in called}
    return set(defs.values()), ran


def test_every_function_runs_or_is_allow_listed(reach):
    defined, ran = reach
    missing = sorted(defined - ran - set(UNREACHED))
    assert not missing, f"never run from the CLI or README, and not on UNREACHED: {missing}"


def test_allow_list_entries_are_unreached_functions(reach):
    """An entry the traced run reaches, or that names no function, is
    stale."""
    defined, ran = reach
    assert not sorted(set(UNREACHED) - defined), "UNREACHED names a function that is gone"
    assert not sorted(set(UNREACHED) & ran), "UNREACHED names a function the CLI runs"


def test_benchmark_entries_are_named_in_the_replay():
    """An entry held for the benchmark must be named, as a whole word, in
    the replay's text (read, not imported)."""
    text = REPLAY.read_text()
    held = [name for name, reason in UNREACHED.items() if reason.startswith(BENCHMARK)]
    assert held
    absent = [name for name in held if not re.search(rf"\b{name.rsplit('.', 1)[1]}\b", text)]
    assert not absent, f"held for the benchmark but not named in {REPLAY.name}: {absent}"
