"""Output checks for every benchmark op, and an independent water-filling
oracle.  Nothing here imports isicap: the checks parse the CLI's files and
recompute what they test with their own numerics."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import SWEEP_FIGURE1_ROWS, SWEEP_FIGURE2_ROWS, sweep_grid_values

EXIT_OK = 0
EXIT_EMPTY = 3
FLAG_INAPPLICABLE = "bound_inapplicable"

HEADERS = {
    "bounds": "P_dBW,C0,C_LB1,C_LB2,delta1,delta2,Psat_dBW,gap_cor1,gap_cor2,P_W,Psat_W,flag",
    "figure1": "r_s,P_dBW,bound,term1,term2,term3,P_W,flag",
    "figure2": "P_dBW,C0,C_LB1,C_LB2,P_W,flag",
    "simulate": "n,R_bits,P_dBW,trials,type1,type2,success,wilson_lo,wilson_hi,P_W",
}
SUITES = 9

# C0 from the package (Simpson, 8193 nodes) against the oracle (periodic
# trapezoid, 2**15 nodes, bisection).  Both carry O(h^2) error from the kink
# of max(theta - 1/|f|^2, 0) in the bisection regime; the largest gap seen
# on generated sweep channels from -20 to 60 dBW was 3e-10.
ORACLE_REL_TOL = 1e-8
ORACLE_POINTS = 1 << 15
ORACLE_STEPS = 200


def parse_csv(text: str, command: str) -> list[dict]:
    """Rows of a CLI CSV after checking the schema line and header."""
    lines = text.split("\n")
    if lines[0] != f"#schema=isicap.{command}.v1":
        raise ValueError(f"bad schema line {lines[0]!r}")
    if lines[1] != HEADERS[command]:
        raise ValueError(f"bad header {lines[1]!r}")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _cell(row: dict, key: str):
    return None if row[key] == "" else float(row[key])


def check_sweep(command: str, rc: int, text: str) -> list[dict]:
    """Schema, row count, exit code against the flags, and the lower
    bounds never above the centre capacity.  Returns the parsed rows."""
    rows = parse_csv(text, command)
    want = {"bounds": len(sweep_grid_values()), "figure1": SWEEP_FIGURE1_ROWS,
            "figure2": SWEEP_FIGURE2_ROWS}[command]
    if len(rows) != want:
        raise ValueError(f"{len(rows)} rows, grid has {want}")
    inapplicable = sum(1 for row in rows if row["flag"] == FLAG_INAPPLICABLE)
    expected_rc = EXIT_EMPTY if inapplicable == len(rows) else EXIT_OK
    if rc != expected_rc:
        raise ValueError(f"exit code {rc} with {inapplicable}/{len(rows)} rows inapplicable")
    if command == "bounds":
        got = [float(row["P_dBW"]) for row in rows]
        if not np.allclose(got, sweep_grid_values(), rtol=0, atol=1e-12):
            raise ValueError("power column does not match the grid")
    if command in ("bounds", "figure2"):
        for row in rows:
            c0 = float(row["C0"])
            for key in ("C_LB1", "C_LB2"):
                v = _cell(row, key)
                if v is not None and v > c0:
                    raise ValueError(f"{key}={v} above C0={c0} at P={row['P_dBW']} dBW")
    else:
        for row in rows:
            if row["flag"] == "" and not math.isclose(
                float(row["bound"]),
                float(row["term1"]) + float(row["term2"]) + float(row["term3"]),
                rel_tol=1e-12,
                abs_tol=1e-15,
            ):
                raise ValueError(f"bound is not the sum of its terms at r_s={row['r_s']}")
    return rows


def check_simulate(rc: int, text: str, config: dict) -> list[tuple[int, int, int]]:
    """Schema, one row per blocklength, and type1 + type2 + success =
    trials.  Returns the (type1, type2, success) counts per row."""
    if rc != EXIT_OK:
        raise ValueError(f"exit code {rc}")
    rows = parse_csv(text, "simulate")
    section = config.get("simulate", {})
    n_list = section.get("n_list", [64, 128, 256])
    trials = section.get("trials", 500)
    if [int(row["n"]) for row in rows] != list(n_list):
        raise ValueError("blocklength column does not match n_list")
    counts = []
    for row in rows:
        t1, t2, ok = int(row["type1"]), int(row["type2"]), int(row["success"])
        if int(row["trials"]) != trials or t1 + t2 + ok != trials:
            raise ValueError(f"counts {t1}+{t2}+{ok} do not add up to {trials} trials")
        counts.append((t1, t2, ok))
    return counts


def check_verify(rc: int, text: str, config: dict) -> dict:
    """No violation, and all nine suites present with the requested sample
    count."""
    report = json.loads(text)
    samples = config["verify"]["samples"]
    if rc != EXIT_OK or report["violations_total"] != 0:
        raise ValueError(f"exit code {rc}, {report['violations_total']} violations")
    suites = report["suites"]
    if len(suites) != SUITES or any(s["samples"] != samples for s in suites.values()):
        raise ValueError("suites missing or with the wrong sample count")
    return report


def _f_sq(c, points: int) -> np.ndarray:
    omega = 2.0 * np.pi * np.arange(points) / points
    ell = np.arange(len(c))
    re = np.cos(np.outer(omega, ell)) @ np.asarray(c)
    im = np.sin(np.outer(omega, ell)) @ np.asarray(c)
    return re * re + im * im


def oracle_c0(c, p_watts: float) -> float:
    """Water-filling capacity of taps ``c`` at power ``p_watts`` (bits):
    bisection for the level on a periodic trapezoid mean of the water."""
    inv = 1.0 / _f_sq(c, ORACLE_POINTS)
    lo, hi = float(inv.min()), float(inv.max()) + p_watts
    for _ in range(ORACLE_STEPS):
        mid = 0.5 * (lo + hi)
        if np.maximum(mid - inv, 0.0).mean() < p_watts:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    theta = 0.5 * (lo + hi)
    return 0.5 * float(np.log2(np.maximum(theta / inv, 1.0)).mean())


def oracle_mismatch(c, rows: list[dict]) -> str | None:
    """Compare the C0 column of the given bound rows with the oracle."""
    for row in rows:
        want = oracle_c0(c, float(row["P_W"]))
        got = float(row["C0"])
        if abs(got - want) > ORACLE_REL_TOL * max(1.0, abs(want)):
            return f"C0={got!r} but oracle {want!r} at P={row['P_dBW']} dBW"
    return None
