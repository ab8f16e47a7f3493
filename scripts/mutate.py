"""Mutation gate: every mutant of ``tests/mutants.py`` must be killed.

    python scripts/mutate.py

Each mutant is applied to its own copy of ``src/isicap`` in a temporary
directory, and only its tests run, with ``-x`` and ``PYTHONPATH`` pointing
at the copy: the mutant is killed when one of them fails (pytest exits 1).
The mutants run one per core at a time, each in its own process.
Before that, every snippet must occur exactly once in its module, every
test id must exist, and every named test must pass on an unchanged copy.
Exits 0 when every mutant is killed and 1 otherwise, naming each stale
snippet, missing test id and surviving mutant.
Needs only the standard library and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "isicap"
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS  # noqa: E402


def run_python(package_parent: Path, args: list) -> subprocess.CompletedProcess:
    """Python with ``args`` from the repository root, importing ``isicap``
    from ``package_parent``."""
    env = dict(os.environ, PYTHONPATH=str(package_parent), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def run_pytest(package_parent: Path, args: list) -> subprocess.CompletedProcess:
    return run_python(package_parent, ["-m", "pytest", "-q", "-p", "no:cacheprovider", *args])


def copy_package(dest: Path, mutant=None) -> None:
    """``src/isicap`` copied to ``dest / "isicap"``, with ``mutant`` applied."""
    shutil.copytree(PACKAGE, dest / "isicap", ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = dest / "isicap" / mutant.module
        path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))


def stale(mutants) -> list:
    """Problems with the table itself: snippets not found exactly once,
    unknown modules, and test ids that do not collect."""
    problems = []
    for m in mutants:
        path = PACKAGE / m.module
        count = path.read_text().count(m.snippet) if path.is_file() else 0
        if count != 1 or m.snippet == m.replacement:
            problems.append(f"{m.name}: snippet found {count} times in src/isicap/{m.module}")
    ids = sorted({t for m in mutants for t in m.tests})
    done = run_pytest(PACKAGE.parent, ["--collect-only", *ids])
    if done.returncode != 0:
        missing = [line for line in (done.stdout + done.stderr).splitlines() if "not found" in line]
        problems.extend(missing or [f"collecting the named tests exited {done.returncode}:\n{done.stdout[-2000:]}"])
    return problems


def main() -> int:
    problems = stale(MUTANTS)
    for p in problems:
        print(f"STALE {p}")
    if problems:
        return 1
    failed = []
    with tempfile.TemporaryDirectory(prefix="isicap-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_package(clean)
        found = run_python(clean, ["-c", "import isicap; print(isicap.__file__)"]).stdout.strip()
        if not found.startswith(str(clean)):
            print(f"isicap is imported from {found!r}, not from the copy {clean}")
            return 1
        ids = sorted({t for m in MUTANTS for t in m.tests})
        done = run_pytest(clean, ids)
        if done.returncode != 0:
            print(f"the named tests fail on the unchanged package:\n{done.stdout[-3000:]}")
            return 1

        def attempt(i: int, m) -> tuple:
            where = Path(tmp) / f"m{i}"
            copy_package(where, m)
            t0 = time.perf_counter()
            return run_pytest(where, ["-x", *m.tests]), time.perf_counter() - t0

        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            results = list(pool.map(attempt, range(len(MUTANTS)), MUTANTS))
        for m, (done, took) in zip(MUTANTS, results):
            if done.returncode == 1:
                first = next((line for line in done.stdout.splitlines() if line.startswith("FAILED")), "")
                print(f"killed    {m.name} ({took:.1f} s): {first[len('FAILED '):]:.100}")
            else:
                what = "SURVIVED" if done.returncode == 0 else f"ERROR {done.returncode}"
                print(f"{what:9} {m.name} ({took:.1f} s)\n{done.stdout[-2000:]}")
                failed.append(m.name)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
