import contextlib
import io
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from isicap import channel_sim, cli, decoder, spectrum, waterfill
from isicap.cli import (
    BOUNDS_HEADER,
    EXIT_CONFIG,
    EXIT_EMPTY,
    EXIT_OK,
    EXIT_VIOLATION,
    FLAG_INAPPLICABLE,
    FLAG_NEAR_PSAT,
    MAX_GRID_POINTS,
    _cells,
    main,
    parse_grid,
)
from isicap.errors import ConfigError
from isicap.verify import SUITE_NAMES
from isicap.waterfill import solve_theta1, solve_theta2

from reference_values import P_SAT_DBW


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _read_csv(path):
    lines = path.read_text().splitlines()
    schema, header = lines[0], lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return schema, header, rows


def test_parse_grid_forms():
    assert parse_grid("0:10:3") == [0.0, 5.0, 10.0]
    assert parse_grid("1,2.5, 4") == [1.0, 2.5, 4.0]
    assert parse_grid("-4:0:2") == [-4.0, 0.0]
    assert parse_grid("7:7:1") == [7.0]


@pytest.mark.parametrize("bad", ["1:2", "0:10:0", "a,b", "1:2:3:4"])
def test_parse_grid_rejects(bad):
    with pytest.raises(ConfigError):
        parse_grid(bad)


def test_parse_grid_count_cap_at_its_edge():
    assert len(parse_grid(f"0:1:{MAX_GRID_POINTS}")) == MAX_GRID_POINTS
    with pytest.raises(ConfigError, match=f"over the cap of {MAX_GRID_POINTS}"):
        parse_grid(f"0:1:{MAX_GRID_POINTS + 1}")


@pytest.mark.parametrize("command, section", [("bounds", "p_dbw"), ("figure1", "rs_log10")])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_oversized_grid_refused_before_allocating(tmp_path, capsys, command, section, given):
    """A 10**12-point grid, given by ``--grid`` or in the command's config
    section, exits 2 naming the grid, with nothing written and under 1 MiB
    traced."""
    grid = "0:1:1000000000000"
    out = tmp_path / "x.csv"
    argv = [command, "--out", str(out)]
    if given == "flag":
        argv += ["--grid", grid]
    else:
        argv += ["--config", _write_config(tmp_path, {command: {section: grid}})]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert peak < 1 << 20
    assert grid in capsys.readouterr().err
    assert not out.exists()


def test_parse_grid_empty_string_is_empty():
    # emptiness is diagnosed by the subcommands, not the parser
    assert parse_grid("") == []


def test_fmt_cells():
    # one column of every cell kind, then float and int arrays with a mask
    assert _cells([None, "near_psat", 3, 0.5, -0.0]) == ["", "near_psat", "3", "0.5", "-0.0"]
    ok = np.array([True, False, True])
    assert _cells(np.array([-0.0, 1.0, 1e-300]), ok) == ["-0.0", "", "1e-300"]
    assert _cells(np.array([64, 128, 256]), ok) == ["64", "", "256"]


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv",
    [["plot"], ["bounds", "--seed", "x"], ["simulate", "--threads", "1.5"], ["bounds", "figure1"]],
    ids=["unknown_command", "seed", "threads", "two_commands"],
)
def test_bad_arguments_exit(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG


def test_successive_calls_share_one_parser_and_leak_no_flags(tmp_path, monkeypatch):
    """``main`` builds its parser once per process, and a flag given to one
    call is absent from the next: ``--grid`` and ``--seed`` on the first
    ``bounds`` call leave the second with the defaults."""
    seen = []
    load = cli.load_config
    monkeypatch.setattr(cli, "load_config", lambda args: seen.append(vars(args).copy()) or load(args))
    out = str(tmp_path / "x.csv")
    assert main(["bounds", "--grid", "40:60:5", "--seed", "3", "--out", out]) == EXIT_OK
    assert main(["bounds", "--out", out]) == EXIT_OK
    assert (seen[0]["grid"], seen[0]["seed"]) == ("40:60:5", 3)
    assert (seen[1]["grid"], seen[1]["seed"]) == (None, 0)
    assert len(open(out).read().splitlines()) > 5 + 2  # the default grid, not the first call's
    assert cli._parser() is cli._parser()


def test_flags_before_or_after_the_command(tmp_path):
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert main(["--grid", "40:60:5", "--out", str(before), "bounds"]) == EXIT_OK
    assert main(["bounds", "--grid", "40:60:5", "--out", str(after)]) == EXIT_OK
    assert before.read_bytes() == after.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_grid_is_refused_off_the_sweeps(tmp_path, capsys, command):
    """``--grid`` overrides a sweep's grid; ``simulate`` and ``verify`` have
    none, so it exits 2 with one line and writes nothing."""
    out = tmp_path / "x.out"
    assert main([command, "--grid", "0:1:2", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == f"isicap: --grid applies to bounds, figure1 and figure2, not {command}\n"


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"bounds": 5}, "bounds"),
        ({"figure1": []}, "figure1"),
        ({"simulate": 3}, "simulate"),
        ({"verify": []}, "verify"),
        ({"simulate": {"law": []}}, "simulate.law"),
        ({"simulate": {"law": None}}, "simulate.law"),
    ],
    ids=["bounds", "figure1", "simulate", "verify", "law", "null_law"],
)
def test_non_object_section_exits_config(tmp_path, capsys, payload, field):
    """A config section that is not a JSON object exits 2 with one line
    naming it, from the command that reads it; no traceback, no file."""
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "x.out"
    assert main([field.split(".")[0], "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"isicap: {field} must be a JSON object, got ")


@pytest.mark.parametrize(
    "command, payload, field",
    [
        ("verify", {"verfy": {"samples": 3}}, "verfy"),
        ("bounds", {"channel": {"k": 0, "c": [1.0], "r": [0.1], "radii": [0.5]}}, "channel.radii"),
        ("verify", {"verify": {"sample": 3, "n_max": 8}}, "verify.sample"),
        ("simulate", {"simulate": {"trails": 10, "n_list": [16], "rate_bits": 0.5}}, "simulate.trails"),
        ("simulate", {"simulate": {"n_list": [16], "trials": 10, "rate_bits": 0.5,
                                   "law": {"kind": "block_hold", "blok_len": 4}}}, "simulate.law.blok_len"),
    ],
    ids=["top_level", "channel", "verify_section", "simulate_section", "law"],
)
def test_unknown_config_key_exits_config(tmp_path, monkeypatch, capsys, command, payload, field):
    """A key the config does not know, at the top level, in the channel, in
    the command's own section or in ``simulate.law``, exits 2 with one line naming it, before
    any work and with no file written: a misspelt key is not left to fall
    back on its default."""
    def work_ran(*args, **kwargs):
        raise AssertionError("work ran before the refusal")

    for name in ("bound_report", "run_error_experiment", "verify_report"):
        monkeypatch.setattr(cli, name, work_ran)
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "x.out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"isicap: unknown config key {field}; known: "), err


def test_bounds_csv_layout(tmp_path):
    out = tmp_path / "bounds.csv"
    rc = main(["bounds", "--out", str(out), "--grid", "40:60:5"])
    assert rc == EXIT_OK
    schema, header, rows = _read_csv(out)
    assert schema == "#schema=isicap.bounds.v1"
    assert header == list(BOUNDS_HEADER)
    assert len(rows) == 5
    assert [float(r[0]) for r in rows] == [40.0, 45.0, 50.0, 55.0, 60.0]
    # route-2 bound appears only above saturation
    below = {float(r[0]): r[header.index("C_LB2")] for r in rows}
    assert below[40.0] == "" and below[45.0] == "" and below[50.0] == ""
    assert below[55.0] != "" and below[60.0] != ""
    for r in rows:
        assert float(r[header.index("Psat_dBW")]) == pytest.approx(P_SAT_DBW, abs=1e-9)


def test_bounds_near_saturation_flag(tmp_path):
    out = tmp_path / "near.csv"
    assert main(["bounds", "--out", str(out), "--grid", "53:53:1"]) == EXIT_OK
    _, header, rows = _read_csv(out)
    assert rows[0][header.index("flag")] == FLAG_NEAR_PSAT


def test_bounds_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bounds", "--out", str(a), "--grid", "0:60:7", "--seed", "1"])
    main(["bounds", "--out", str(b), "--grid", "0:60:7", "--seed", "1"])
    assert a.read_bytes() == b.read_bytes()


def test_bounds_thread_count_does_not_change_output(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t4.csv"
    main(["bounds", "--out", str(a), "--grid", "10:50:9", "--threads", "1"])
    main(["bounds", "--out", str(b), "--grid", "10:50:9", "--threads", "4"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["bounds", "figure2"])
def test_sweep_solves_saturation_level_once(tmp_path, monkeypatch, command):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_theta2(*args, **kwargs)

    monkeypatch.setattr(waterfill, "solve_theta2", counted)
    waterfill._saturation.cache_clear()
    out = tmp_path / "x.csv"
    assert main([command, "--out", str(out), "--grid", "0:60:13"]) == EXIT_OK
    assert len(calls) == 1


def test_figure1_solves_one_water_level_per_power(tmp_path, monkeypatch):
    """The default figure1 sweep (3 powers x 33 radius sums) solves the
    theta1 water level once per power, all three in one ``solve_theta1``
    call of its one ``pillow_grid`` pass."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return solve_theta1(*args, **kwargs)

    monkeypatch.setattr(waterfill, "solve_theta1", counted)
    out = tmp_path / "f1.csv"
    assert main(["figure1", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2 + 3 * 33
    assert calls == [(3, 1)]


def test_flagged_bounds_rows_solve_one_water_level(tmp_path, monkeypatch):
    """A flagged row takes C0 from the same grid pass as any other row: 11
    flagged rows are one theta1 level lookup, and each keeps its C0."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return solve_theta1(*args, **kwargs)

    monkeypatch.setattr(waterfill, "solve_theta1", counted)
    cfg = _write_config(tmp_path, {"channel": {"k": 0, "c": [1.0], "r": [5.0]}})
    out = tmp_path / "flat.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out), "--grid", "0:50:11"]) == EXIT_EMPTY
    _, header, rows = _read_csv(out)
    assert [r[header.index("flag")] for r in rows] == [FLAG_INAPPLICABLE] * 11
    assert all(float(r[header.index("C0")]) > 0.0 for r in rows)
    assert calls == [(11,)]


def test_route2_empty_below_psat_at_large_tap_scale(tmp_path):
    """Taps and radii 2^40 times the default channel's: the four rows below
    P_sat (-187.4 dBW) leave ``C_LB2`` and ``delta2`` empty, the margin on
    the saturation water being relative to it, and no printed ``C_LB1`` or
    ``C_LB2`` exceeds the row's ``C0``."""
    s = 2.0 ** 40
    channel = {"k": 2, "c": [s, s / 2, s / 2], "r": [s * 1e-3] * 3}
    cfg = _write_config(tmp_path, {"channel": channel, "bounds": {"p_dbw": "-260:-180:5"}})
    out = tmp_path / "big.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_csv(out)
    col = {name: [r[header.index(name)] for r in rows] for name in header}
    below = [float(p) < float(q) for p, q in zip(col["P_dBW"], col["Psat_dBW"])]
    assert below == [True] * 4 + [False]
    assert [c == "" for c in col["C_LB2"]] == [c == "" for c in col["delta2"]] == below
    for name in ("C_LB1", "C_LB2"):
        assert all(float(v) <= float(c0) for v, c0 in zip(col[name], col["C0"]) if v)


@pytest.mark.parametrize(
    "a, psat_w", [(-0.999, "499010.02648275654"), (-0.99999, ""), (-0.999999, "")], ids=str
)
def test_psat_w_is_empty_where_p_sat_is_not_positive(tmp_path, a, psat_w):
    """The near-singular channel c = (1, a), r = (1e-3, 1e-3): at a = -0.99999
    and -0.999999 the saturation power comes out negative (-1.13e6 and -1.62e8
    W), so ``Psat_W`` is left empty on every row, as ``Psat_dBW`` is; at a =
    -0.999 it is positive and printed on the unflagged rows."""
    cfg = _write_config(tmp_path, {"channel": {"k": 1, "c": [1.0, a], "r": [1e-3, 1e-3]}})
    out = tmp_path / "x.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_csv(out)
    col = {name: [r[header.index(name)] for r in rows] for name in header}
    unflagged = [f != FLAG_INAPPLICABLE for f in col["flag"]]
    assert any(unflagged)
    assert col["Psat_W"] == [psat_w if u else "" for u in unflagged]
    assert [c == "" for c in col["Psat_dBW"]] == [c == "" for c in col["Psat_W"]]


_RADII = st.floats(-6.0, -1.0).map(lambda e: 10.0 ** e)
_CHANNELS = st.one_of(
    st.integers(0, 4).flatmap(lambda k: st.tuples(
        st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k).map(lambda tail: [1.0, *tail]),
        st.lists(_RADII, min_size=k + 1, max_size=k + 1),
    )),
    st.tuples(  # near-singular two-tap channels, where P_sat loses its sign to rounding
        st.floats(-1.0, -0.999, exclude_min=True, exclude_max=True).map(lambda a: [1.0, a]),
        st.lists(_RADII, min_size=2, max_size=2),
    ),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(channel=_CHANNELS)
def test_bounds_rows_keep_the_p_sat_invariants(tmp_path_factory, channel):
    """On every unflagged ``bounds`` row, for k = 0-4 and radii 1e-6 to 1e-1,
    near-singular two-tap channels included: ``Psat_W`` is empty or positive,
    and a printed ``Psat_dBW`` is ``10 log10(Psat_W)`` bit for bit.  A
    channel whose spectrum has a null is refused, writing no row."""
    c, r = channel
    tmp = tmp_path_factory.mktemp("psat")
    cfg = _write_config(tmp, {"channel": {"k": len(c) - 1, "c": c, "r": r}})
    out = tmp / "x.csv"
    rc = main(["bounds", "--config", cfg, "--out", str(out), "--grid=-20:80:21"])
    if rc == EXIT_CONFIG:  # a spectral null, refused with no row written
        assert not out.exists()
        return
    assert rc in (EXIT_OK, EXIT_EMPTY)
    _, header, rows = _read_csv(out)
    for row in rows:
        cell = dict(zip(header, row))
        if cell["flag"] == FLAG_INAPPLICABLE:
            continue
        assert cell["Psat_W"] == "" or float(cell["Psat_W"]) > 0.0, (c, r, cell)
        if cell["Psat_dBW"]:
            assert float(cell["Psat_dBW"]) == 10.0 * math.log10(float(cell["Psat_W"])), (c, r, cell)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(channel=_CHANNELS, rs_log10=st.lists(st.floats(-6.0, 1.0), min_size=1, max_size=4),
       p_dbw=st.lists(st.floats(-30.0, 60.0), min_size=1, max_size=3))
@example(channel=([1.0], [0.1]), rs_log10=[0.0], p_dbw=[-0.0])
def test_figure1_rows_keep_the_gap_bound_invariants(tmp_path_factory, channel, rs_log10, p_dbw):
    """``figure1`` on drawn channels, radius sums and powers exits 0, 3 when
    every row is flagged, or 2 for a refused channel (a spectral null), with
    no row written.  No cell reads ``-0.0``; on an unflagged row every term
    is non-negative and ``bound`` is ``term1 + term2 + term3`` of the printed
    terms, bit for bit; a flagged row keeps only ``r_s``, ``P_dBW``, ``P_W``
    and its flag."""
    c, r = channel
    tmp = tmp_path_factory.mktemp("fig1")
    cfg = _write_config(tmp, {"channel": {"k": len(c) - 1, "c": c, "r": r},
                              "figure1": {"rs_log10": rs_log10, "p_dbw": p_dbw}})
    out = tmp / "x.csv"
    rc = main(["figure1", "--config", cfg, "--out", str(out)])
    if rc == EXIT_CONFIG:
        assert not out.exists()
        return
    _, header, rows = _read_csv(out)
    assert len(rows) == len(rs_log10) * len(p_dbw)
    assert not any(cell == "-0.0" for row in rows for cell in row), (channel, rows)
    flagged = [dict(zip(header, row))["flag"] == FLAG_INAPPLICABLE for row in rows]
    assert rc == (EXIT_EMPTY if all(flagged) else EXIT_OK)
    for row, flag in zip(rows, flagged):
        cell = dict(zip(header, row))
        if flag:
            assert [name for name in header if cell[name]] == ["r_s", "P_dBW", "P_W", "flag"], cell
            continue
        assert cell["flag"] == "", cell
        t1, t2, t3 = (float(cell[name]) for name in ("term1", "term2", "term3"))
        assert min(t1, t2, t3) >= 0.0, (channel, cell)
        assert float(cell["bound"]) == t1 + t2 + t3, (channel, cell)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(samples=st.integers(1, 4), n_max=st.integers(5, 20), seed=st.integers(0, 1000))
def test_verify_reports_keep_their_schema_and_exit(tmp_path_factory, samples, n_max, seed):
    """``verify`` at 1-4 samples, ``n_max`` 5-20 and seeds 0-1000 writes the
    same bytes at --threads 1 and 2, exits 0 exactly when
    ``violations_total`` is 0 and 4 otherwise, and its JSON has the
    documented keys, with ``violations_total`` the sum of the suites'
    counts, each ``worst_index`` one of the samples and the margin
    quantiles ascending."""
    tmp = tmp_path_factory.mktemp("verify")
    cfg = _write_config(tmp, {"verify": {"samples": samples, "n_max": n_max}})
    outs, codes = [], []
    for threads in (1, 2):
        out = tmp / f"t{threads}.json"
        codes.append(main(["verify", "--config", cfg, "--out", str(out), "--seed", str(seed),
                           "--threads", str(threads)]))
        outs.append(out.read_bytes())
    assert codes[0] == codes[1] and outs[0] == outs[1]
    blob = json.loads(outs[0])
    assert set(blob) == {"master_seed", "samples", "n_max", "violations_total", "suites"}
    assert (blob["master_seed"], blob["samples"], blob["n_max"]) == (seed, samples, n_max)
    assert list(blob["suites"]) == sorted(SUITE_NAMES)
    assert blob["violations_total"] == sum(rep["violations"] for rep in blob["suites"].values())
    assert codes[0] == (EXIT_OK if blob["violations_total"] == 0 else EXIT_VIOLATION)
    for name, rep in blob["suites"].items():
        assert set(rep) == {"name", "samples", "violations", "worst_margin", "worst_index", "details"}
        assert rep["name"] == name and rep["samples"] == samples
        assert 0 <= rep["violations"] <= samples and 0 <= rep["worst_index"] < samples
        q = rep["details"]["margin_quantiles"]
        assert len(q) == 5 and q == sorted(q) and q[0] == rep["worst_margin"], (name, q)


@pytest.mark.parametrize("command", ["bounds", "figure2"])
def test_subnormal_radii_have_no_saturation_route(tmp_path, command):
    """|r|^2 = 1e-310 is subnormal and b = (2/3)/|r|^2 overflows: no power
    saturates, so the route-2 cells are empty, as at zero radii, and no cell
    reads nan or inf."""
    cfg = _write_config(tmp_path, {"channel": {"r": [1e-155, 0.0, 0.0]}})
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_csv(out)
    assert rows and not any(cell in ("nan", "inf") for r in rows for cell in r)
    route2 = [c for c in ("C_LB2", "delta2", "Psat_dBW", "gap_cor2", "Psat_W") if c in header]
    assert all(r[header.index(c)] == "" for r in rows for c in route2)
    assert all(r[header.index("C_LB1")] != "" for r in rows)


@pytest.mark.parametrize("grid_size", [2**40, 1e300])
def test_oversized_grid_size_refused_before_allocating(tmp_path, capsys, grid_size):
    """A spectral grid past ``MAX_GRID`` exits 2 on one line naming
    ``grid_size``, with nothing written and under 1 MiB traced."""
    cfg = _write_config(tmp_path, {"grid_size": grid_size})
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code = main(["bounds", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    assert peak < 1 << 20
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("isicap: ") and "grid_size" in err[0]
    assert not out.exists()


@st.composite
def _simulate_configs(draw):
    """A ``simulate`` config on an unusual shape: k = 0-4 with a first tap of
    either sign and mixed-sign later taps, one or two block lengths from 1 to
    300, trials that need not fill a block or a 64-trial cell, a codebook of
    1 to 2**12 words at the widest length, and any of the three laws."""
    k = draw(st.integers(0, 4))
    c = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 1.5))]
    c += draw(st.lists(st.floats(-0.45, 0.45), min_size=k, max_size=k))
    r = draw(st.lists(st.floats(1e-4, 0.1), min_size=k + 1, max_size=k + 1))
    n_list = draw(st.lists(st.integers(1, 300), min_size=1, max_size=2))
    law = draw(st.sampled_from(["iid_uniform", "constant", "block_hold"]))
    if law == "constant":
        law = {"kind": law, "offset": draw(st.lists(st.floats(-1.0, 1.0), min_size=k + 1, max_size=k + 1))}
    elif law == "block_hold":
        law = {"kind": law, "block_len": draw(st.integers(1, 5))}
    else:
        law = {"kind": law}
    section = {"n_list": n_list, "trials": draw(st.integers(1, 400)), "law": law,
               "rate_bits": draw(st.integers(0, 12)) / max(n_list), "p_dbw": draw(st.floats(-20.0, 20.0))}
    return {"channel": {"k": k, "c": c, "r": r}, "simulate": section}


def _negligible_end_tap(c, n, p_dbw):
    """A ``simulate`` config on a channel whose last tap is far below eps."""
    return {"channel": {"k": len(c) - 1, "c": list(c), "r": [1e-3] * len(c)},
            "simulate": {"n_list": [n], "trials": 64, "law": {"kind": "iid_uniform"},
                         "rate_bits": 0.02, "p_dbw": p_dbw}}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(config=_simulate_configs())
@example(config=_negligible_end_tap((0.609, 0.388, 1.18e-38, -0.255, 4.55e-76), 284, 19.0))
@example(config=_negligible_end_tap((1.471, 0.0215, 3.26e-111), 227, 10.5))
def test_simulate_rows_keep_their_invariants_on_unusual_shapes(tmp_path_factory, config):
    """``simulate`` at --threads 1 and 2 on each drawn config: both exit 0,
    or 2 for a config it refuses (a spectral null, say, but never its own
    Gram basis: that is a defect, not a config error), with the same bytes
    and no ``RuntimeWarning``; each row's type-1, type-2 and success counts
    sum to its trials, and ``0 <= wilson_lo <= rate <= wilson_hi <= 1``."""
    tmp = tmp_path_factory.mktemp("sim")
    cfg = _write_config(tmp, config)
    outs, codes = [], []
    for threads in (1, 2):
        out, err = tmp / f"t{threads}.csv", io.StringIO()
        with contextlib.redirect_stderr(err):
            codes.append(main(["simulate", "--config", cfg, "--out", str(out), "--threads", str(threads)]))
        outs.append(out.read_bytes() if out.exists() else None)
        assert not err.getvalue().startswith("isicap: basis"), (config, err.getvalue())
    assert codes[0] == codes[1] in (EXIT_OK, EXIT_CONFIG), (config, codes)
    assert outs[0] == outs[1], config
    if codes[0] == EXIT_CONFIG:
        return
    _, header, rows = _read_csv(tmp / "t1.csv")
    assert len(rows) == len(config["simulate"]["n_list"])
    for row in rows:
        cell = dict(zip(header, row))
        trials, type1, type2, success = (int(cell[k]) for k in ("trials", "type1", "type2", "success"))
        assert trials == config["simulate"]["trials"] and type1 + type2 + success == trials, (config, cell)
        lo, hi, rate = float(cell["wilson_lo"]), float(cell["wilson_hi"]), (type1 + type2) / trials
        assert 0.0 <= lo <= rate <= hi <= 1.0, (config, cell)


_SMALL_SIMULATE = {"n_list": [8], "trials": 5, "rate_bits": 0.5}


@pytest.mark.parametrize("grid_size", [100, 257, 2**40])
@pytest.mark.parametrize("command", ["bounds", "figure1", "figure2", "simulate", "verify"])
def test_bad_grid_size_exits_config_for_every_command(tmp_path, monkeypatch, capsys, command, grid_size):
    """A grid size below ``MIN_GRID``, odd, or past ``MAX_GRID`` exits 2 with
    one ``isicap:`` line naming ``grid_size`` and no file, before any work,
    in every command: ``simulate`` at ``rate_bits``, which reads no grid,
    and ``verify`` too."""
    def work_ran(*args, **kwargs):
        raise AssertionError("work ran before the refusal")

    for name in ("bound_grid", "bound_report", "compute_profile", "run_error_experiment", "verify_report"):
        monkeypatch.setattr(cli, name, work_ran)
    cfg = _write_config(tmp_path, {"grid_size": grid_size, "simulate": _SMALL_SIMULATE})
    out = tmp_path / "x.out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("isicap: ") and "grid_size" in err[0]


def test_cold_bounds_reads_the_fft_once_per_channel(tmp_path, monkeypatch):
    """Cold ``bounds``, ``figure1`` and ``figure2`` ops take one FFT table
    and one ``centre_extrema`` per channel: ``alpha``, ``beta``, ``J`` and
    every row's water table come from one ``quadrature_grid`` record."""
    tables, extrema = [], []
    table, centre = spectrum.f_sq_table, spectrum.centre_extrema
    monkeypatch.setattr(spectrum, "f_sq_table", lambda *args: tables.append(args) or table(*args))
    monkeypatch.setattr(spectrum, "centre_extrema", lambda c: extrema.append(c) or centre(c))
    for cache in (spectrum.quadrature_grid, waterfill._saturation):
        cache.cache_clear()
    channels = ((1.0, -0.6, 0.3, 0.1), (1.0, 0.25))
    for i, c in enumerate(channels):
        cfg = _write_config(tmp_path, {"channel": {"k": len(c) - 1, "c": c, "r": [2e-4] * len(c)}})
        for command in ("bounds", "figure1", "figure2"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "x.csv")]) == EXIT_OK
        assert [args[0] for args in tables] == list(channels[:i + 1])
        assert [tuple(c) for c in extrema] == list(channels[:i + 1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["bounds", "figure1", "figure2", "simulate"])
@pytest.mark.parametrize("c", [[1e-155, 5e-156], [1e200, 5e199], [1e160, 5e159, 5e159]])
def test_spectrum_out_of_float_range_exits_config(tmp_path, capsys, command, c):
    """A centre spectrum whose ``1/|f|^2`` or ``|f|^2`` overflows exits 2
    with one ``isicap:`` line naming the tap scale, no warning and no
    file, where it used to print ``nan`` cells or scipy's complaint."""
    cfg = _write_config(tmp_path, {
        "channel": {"k": len(c) - 1, "c": c, "r": [1e-3] * len(c)},
        "simulate": _SMALL_SIMULATE,
    })
    out = tmp_path / "x.out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("isicap: ") and f"max |c| = {c[0]:.3e}" in err[0]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["bounds", "figure1", "figure2", "simulate"])
def test_tiny_taps_in_float_range_still_run(tmp_path, command):
    """Taps near 1e-150 are in float range: every command runs and prints
    no NaN.  Radii of 1e-3 dwarf such taps: at 1 W the water over the
    spectral peak is about 1e100 deep (1e300 times that of the taps (1,
    0.5) at 1e-300 W), so the radius penalty's ratio is far past 1, and
    every bound row is flagged (exit 3)."""
    cfg = _write_config(tmp_path, {
        "channel": {"k": 1, "c": [1e-150, 5e-151], "r": [1e-3, 1e-3]},
        "simulate": _SMALL_SIMULATE,
    })
    out = tmp_path / "x.out"
    want = EXIT_OK if command == "simulate" else EXIT_EMPTY
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == want
    assert "nan" not in out.read_text()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c, n", [([1e-154], 8), ([1e-153], 1024)])
def test_simulate_refuses_gains_past_the_float_range(tmp_path, capsys, c, n):
    """Flat taps whose ``1/alpha^2`` is finite but whose Gram eigenvalues
    ``lam`` make ``2 n / lam`` overflow exit 2 with one ``isicap:`` line, no
    warning and no file, where the finite-n water table's sums would
    overflow: ``simulate`` at ``rate_bits`` reads no ``J`` to refuse them."""
    cfg = _write_config(tmp_path, {
        "channel": {"k": 0, "c": c, "r": [0.0]},
        "simulate": {"n_list": [n], "trials": 5, "rate_bits": 4 / n},
    })
    out = tmp_path / "x.out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("isicap: ") and "overflow a water table" in err[0]


def test_simulate_refuses_undefined_derived_rate(tmp_path, capsys):
    """Where C_LB1 is undefined there is no rate to derive: exit 2, no file."""
    cfg = _write_config(tmp_path, {"channel": {"k": 0, "c": [1.0], "r": [5.0]}})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    assert "C_LB1 is undefined" in capsys.readouterr().err


def test_simulate_decodes_where_the_penalty_is_undefined(tmp_path):
    """Radii this large leave the finite-n penalty undefined (phi1 >= 1),
    but decoding reads only the typicality scales: one row, exit 0."""
    cfg = _write_config(tmp_path, {
        "channel": {"r": [0.5, 0.5, 0.5]},
        "simulate": {"n_list": [64], "rate_bits": 0.05, "trials": 20},
    })
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_OK
    _, header, rows = _read_csv(out)
    assert len(rows) == 1
    assert sum(int(rows[0][header.index(c)]) for c in ("type1", "type2", "success")) == 20


def test_bounds_all_rows_inapplicable(tmp_path):
    cfg = _write_config(
        tmp_path, {"channel": {"k": 0, "c": [1.0], "r": [5.0]}}
    )
    out = tmp_path / "flat.csv"
    rc = main(["bounds", "--config", cfg, "--out", str(out), "--grid", "0:20:3"])
    assert rc == EXIT_EMPTY
    _, header, rows = _read_csv(out)
    for r in rows:
        assert r[header.index("flag")] == FLAG_INAPPLICABLE
        assert r[header.index("C0")] != ""  # power-only bound survives
        assert r[header.index("C_LB1")] == ""


def test_bounds_partial_inapplicability_warns(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, {"channel": {"k": 0, "c": [1.0], "r": [5.0]}}
    )
    out = tmp_path / "part.csv"
    rc = main(["bounds", "--config", cfg, "--out", str(out), "--grid=-20:0:2"])
    assert rc == EXIT_OK  # flagged rows are not an error
    assert "inapplicable at 1 of 2" in capsys.readouterr().err
    _, header, rows = _read_csv(out)
    flags = [r[header.index("flag")] for r in rows]
    assert flags == ["", FLAG_INAPPLICABLE]


def test_figure2_stdout(capsys):
    rc = main(["figure2", "--grid", "30:40:2"])
    assert rc == EXIT_OK
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert lines[0] == "#schema=isicap.figure2.v1"
    assert lines[1].split(",") == ["P_dBW", "C0", "C_LB1", "C_LB2", "P_W", "flag"]
    assert len(lines) == 4


def test_figure1_sweep(tmp_path):
    out = tmp_path / "fig1.csv"
    rc = main(["figure1", "--out", str(out), "--grid=-2:-1:2"])
    assert rc == EXIT_OK
    schema, header, rows = _read_csv(out)
    assert schema == "#schema=isicap.figure1.v1"
    assert len(rows) == 6  # three default powers x two radii
    r_s = sorted({float(r[0]) for r in rows})
    assert r_s == pytest.approx([1e-2, 1e-1])
    for r in rows:
        if r[header.index("flag")]:
            continue
        total = float(r[header.index("bound")])
        parts = sum(float(r[header.index(t)]) for t in ("term1", "term2", "term3"))
        assert total == pytest.approx(parts, rel=1e-12)


def test_figure1_vanishing_radius_prints_no_negative_zero(tmp_path):
    """At r_s = 1e-20 the penalty ratio rounds ``1 - ratio`` to 1, so the
    log term is a zero, printed ``0.0``, not ``-0.0``."""
    cfg = _write_config(tmp_path, {"figure1": {"rs_log10": [-20], "p_dbw": [10]}})
    out = tmp_path / "fig1.csv"
    assert main(["figure1", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_csv(out)
    assert [r[header.index("term2")] for r in rows] == ["0.0"]
    assert all(not cell.startswith("-") for r in rows for cell in r)


def test_simulate_tiny(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"simulate": {"n_list": [16], "trials": 10, "p_dbw": -10.0}},
    )
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--seed", "2"])
    assert rc == EXIT_OK
    schema, header, rows = _read_csv(out)
    assert schema == "#schema=isicap.simulate.v1"
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert int(row["n"]) == 16 and int(row["trials"]) == 10
    assert int(row["type1"]) + int(row["type2"]) + int(row["success"]) == 10
    assert 0.0 <= float(row["wilson_lo"]) <= float(row["wilson_hi"]) <= 1.0


def test_simulate_explicit_rate(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"simulate": {"n_list": [16], "trials": 6, "p_dbw": -10.0, "rate_bits": 0.125}},
    )
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_csv(out)
    assert float(rows[0][header.index("R_bits")]) == 0.125


def test_simulate_channel_with_repeated_gram_eigenvalues(tmp_path):
    """Taps at lags 0 and 3 only give the Gram matrix eigenvalues that
    repeat within one half at n = 6 and 255; simulate builds its basis
    there and runs every trial."""
    cfg = _write_config(tmp_path, {
        "channel": {"k": 3, "c": [1.0, 0.0, 0.0, 0.5], "r": [1e-3] * 4},
        "simulate": {"n_list": [6, 255], "trials": 8, "rate_bits": 0.03},
    })
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, header, rows = _read_csv(out)
    assert [int(r[header.index("n")]) for r in rows] == [6, 255]
    assert all(int(r[header.index("trials")]) == 8 for r in rows)


def test_verify_json(tmp_path):
    cfg = _write_config(tmp_path, {"verify": {"samples": 5, "n_max": 16}})
    out = tmp_path / "verify.json"
    rc = main(["verify", "--config", cfg, "--out", str(out), "--seed", "3"])
    assert rc == EXIT_OK
    blob = json.loads(out.read_text())
    assert blob["violations_total"] == 0
    assert blob["master_seed"] == 3
    assert all(rep["samples"] == 5 for rep in blob["suites"].values())


def test_verify_violation_exit(tmp_path, monkeypatch):
    import isicap.cli as cli_mod

    monkeypatch.setattr(
        cli_mod,
        "verify_report",
        lambda **kw: {"violations_total": 2, "suites": {}},
    )
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == EXIT_VIOLATION


@pytest.mark.parametrize(
    "section, field",
    [({"samples": 0}, "samples"), ({"n_max": 3}, "n_max"), ({"n_max": 10**6}, "n_max")],
    ids=["zero_samples", "small_n_max", "huge_n_max"],
)
def test_verify_refuses_bad_config(tmp_path, capsys, section, field):
    cfg = _write_config(tmp_path, {"verify": section})
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert field in capsys.readouterr().err


def test_exit_code_bad_config_path(tmp_path):
    assert main(["bounds", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_exit_code_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["bounds", "--config", str(path)]) == EXIT_CONFIG


def test_exit_code_bad_channel(tmp_path):
    cfg = _write_config(tmp_path, {"channel": {"k": 2, "c": [1.0], "r": [0.1]}})
    assert main(["bounds", "--config", cfg]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["bounds", "simulate"])
def test_exit_code_non_finite_radius(tmp_path, command):
    cfg = _write_config(
        tmp_path,
        {
            "channel": {"k": 1, "c": [1.0, 0.5], "r": [1e-3, float("nan")]},
            "bounds": {"p_dbw": "0:10:3"},
            "simulate": {"n_list": [16], "rate_bits": 0.25, "trials": 10},
        },
    )
    out = tmp_path / "x.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, payload, says",
    [
        (["--seed", "-1"], {}, "--seed"),
        ([], {"simulate": {"law": {"kind": "constant", "offset": [0.0, 0.5]}}}, "offset"),
    ],
    ids=["negative_seed", "offset_length"],
)
def test_simulate_refuses_before_setup(tmp_path, monkeypatch, capsys, argv, payload, says):
    """A negative seed and a constant law whose offsets do not match the
    taps exit 2 before any profile, covariance or trial is computed, and
    write no file."""
    def setup_ran(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    monkeypatch.setattr(cli, "bound_report", setup_ran)
    monkeypatch.setattr(cli, "run_error_experiment", setup_ran)
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "x.csv"
    argv = ["simulate", "--config", cfg, "--out", str(out), "--threads", "1", *argv]
    assert main(argv) == EXIT_CONFIG
    assert not out.exists()
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_config(tmp_path, monkeypatch, capsys, threads):
    """``--threads`` sets the worker threads, so 0 and a negative count
    are refused with exit 2 and one ``isicap:`` line naming the value,
    before any set-up runs and before the output file is written."""
    def setup_ran(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    monkeypatch.setattr(cli, "bound_report", setup_ran)
    monkeypatch.setattr(cli, "run_error_experiment", setup_ran)
    out = tmp_path / "x.csv"
    assert main(["--threads", threads, "simulate", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("isicap: ") and f"got {threads}" in err[0]


@pytest.mark.parametrize(
    "payload, says",
    [
        ({"simulate": {"n_list": [3000], "rate_bits": 1.0}}, "2**3000"),
        ({"simulate": {"n_list": [64], "rate_bits": 0.375}}, "GiB"),
        ({"simulate": {"n_list": [64], "rate_bits": 1e308}}, "2**ceil(64 * 1e+308)"),
    ],
    ids=["bit_cap", "byte_cap", "rate_overflow"],
)
def test_simulate_refuses_oversized_codebook_before_setup(
    tmp_path, monkeypatch, capsys, payload, says
):
    """A codebook past the bit cap, or within it but past the decoding byte
    cap, exits 2 before the profile or the covariance is computed."""
    def setup_ran(*args, **kwargs):
        raise AssertionError("set-up ran before the refusal")

    monkeypatch.setattr(decoder, "checked_extrema", setup_ran)
    monkeypatch.setattr(decoder, "build_sigma", setup_ran)
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    assert says in capsys.readouterr().err


def test_simulate_names_the_first_entrys_fault(tmp_path, monkeypatch, capsys):
    """Of two faulty ``n_list`` entries the first listed is named: n = 0
    before a 2**52-word codebook at n = 256, although the widest length
    runs first.  Exit 2, one ``isicap:`` line, no run and no file."""
    def run_ran(*args, **kwargs):
        raise AssertionError("a run started before the refusal")

    monkeypatch.setattr(cli, "run_error_experiment", run_ran)
    cfg = _write_config(tmp_path, {"simulate": {"n_list": [0, 256], "rate_bits": 0.2}})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == "isicap: need n >= 1\n"


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"simulate": {"trials": None}}, "simulate.trials"),
        ({"simulate": {"trials": 2.5}}, "simulate.trials"),
        ({"simulate": {"n_list": [64, 128.5]}}, "simulate.n_list[1]"),
        ({"simulate": {"n_list": None}}, "simulate.n_list"),
        ({"simulate": {"p_dbw": None}}, "simulate.p_dbw"),
        ({"simulate": {"rate_bits": "0.25"}}, "simulate.rate_bits"),
        ({"simulate": {"rate_fraction": None}}, "simulate.rate_fraction"),
        ({"simulate": {"law": {"kind": "block_hold", "block_len": 1.5}}}, "simulate.law.block_len"),
        ({"grid_size": None}, "grid_size"),
        ({"verify": {"samples": 2.7}}, "verify.samples"),
        ({"verify": {"samples": None}}, "verify.samples"),
        ({"verify": {"n_max": True}}, "verify.n_max"),
        ({"channel": {"k": 2.7}}, "channel.k"),
        ({"channel": {"k": None}}, "channel.k"),
        ({"channel": {"c": [1.0, "0.5", 0.5]}}, "channel.c[1]"),
        ({"channel": {"c": None}}, "channel.c"),
        ({"channel": {"r": [1e-3, 1e-3, True]}}, "channel.r[2]"),
        ({"simulate": {"law": {"kind": "constant", "offset": [float("nan"), 0.0, 0.0]}}},
         "simulate.law"),
        ({"simulate": {"law": {"kind": "constant", "offset": [True, 0.0, 0.0]}}},
         "simulate.law.offset[0]"),
        ({"simulate": {"law": {"kind": "constant", "offset": [0.0, "0.5", 0.0]}}},
         "simulate.law.offset[1]"),
        ({"simulate": {"n_list": [64], "trials": 5,
                       "law": {"kind": "iid_uniform", "offset": [5, float("nan"), 0], "block_len": -3}}},
         "simulate.law"),
        ({"simulate": {"law": {"kind": "constant", "offset": [0.1, 0, 0], "block_len": -3}}},
         "simulate.law"),
        ({"simulate": {"law": {"kind": "block_hold", "offset": [9, 9, 9], "block_len": 2}}},
         "simulate.law"),
    ],
)
def test_typed_config_numbers(tmp_path, monkeypatch, capsys, payload, field):
    """A null, a non-number or a fractional integer in a numeric config
    field exits 2 with the field named, before any work and with no file
    written."""
    def work_ran(*args, **kwargs):
        raise AssertionError("work ran before the refusal")

    for name in ("bound_report", "run_error_experiment", "verify_report"):
        monkeypatch.setattr(cli, name, work_ran)
    command = "verify" if "verify" in payload else "simulate"
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "x.out"
    assert main([command, "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    assert field in capsys.readouterr().err


def test_number_parser():
    assert cli._number(3.0, "f", integer=True) == 3
    assert type(cli._number(3.0, "f", integer=True)) is int
    assert type(cli._number(3, "f")) is float
    assert cli._number(-1e300, "f") == -1e300


def test_simulate_infinite_power_exits_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"simulate": {"n_list": [16], "p_dbw": float("inf"), "rate_bits": 0.25, "trials": 10}},
    )
    assert main(["simulate", "--config", cfg, "--threads", "1"]) == EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err


def test_bounds_infinite_power_exits_config(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"bounds": {"p_dbw": [float("inf")]}})
    out = tmp_path / "x.csv"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


def test_bounds_nan_grid_exits_config(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["bounds", "--grid=nan", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bounds", "figure2"])
def test_overflowing_power_grid_exits_config(tmp_path, capsys, command):
    """4000 dBW is past the largest float in watts: exit 2 with the power
    named, no traceback and no file."""
    out = tmp_path / "x.csv"
    assert main([command, "--grid", "4000", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "4000.0 dBW" in capsys.readouterr().err


def test_figure1_overflowing_grid_exits_config(tmp_path, capsys):
    """A log10 radius sum of 400 is past the largest float: exit 2 with the
    value named, no traceback and no file."""
    out = tmp_path / "x.csv"
    assert main(["figure1", "--grid", "400", "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "--grid: log10 radius sum 400.0" in capsys.readouterr().err


def test_figure1_overflowing_config_grid_exits_config(tmp_path, capsys):
    """The same refusal for ``figure1.rs_log10`` in a config file, where
    one value of the list overflows."""
    cfg = _write_config(tmp_path, {"figure1": {"rs_log10": [-2.0, 308.5]}})
    out = tmp_path / "x.csv"
    assert main(["figure1", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()
    assert "figure1.rs_log10: log10 radius sum 308.5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, says",
    [
        ({"p_dbw": 4000}, "4000.0 dBW"),
        ({"rate_bits": float("inf")}, "got inf"),
        ({"rate_bits": float("nan")}, "got nan"),
    ],
    ids=["p_dbw_4000", "rate_inf", "rate_nan"],
)
def test_simulate_overflowing_input_exits_config(tmp_path, capsys, section, says):
    """An overflowing power or a non-finite rate exits 2 with the value
    named, no traceback and no file."""
    cfg = _write_config(tmp_path, {"simulate": {"n_list": [16], "rate_bits": 0.25, "trials": 10,
                                                **section}})
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    assert says in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section",
    [
        ("bounds", None),
        ("figure1", {"figure1": {"p_dbw": [-4000]}}),
        ("simulate", {"simulate": {"n_list": [16], "rate_bits": 0.25, "trials": 10, "p_dbw": -4000}}),
    ],
)
def test_underflowing_power_exits_config(tmp_path, capsys, command, section):
    """-4000 dBW is 0 W in floating point: exit 2 with the power named, no
    traceback and no file, on the command line's grid and in a config."""
    out = tmp_path / "x.csv"
    args = ["--grid=-4000"] if section is None else ["--config", _write_config(tmp_path, section)]
    assert main([command, *args, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    assert "-4000.0 dBW underflows to 0 W" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section",
    [
        ("bounds", None),
        ("figure1", {"figure1": {"p_dbw": [-3230]}}),
        ("figure2", None),
        ("simulate", {"simulate": {"n_list": [16], "rate_bits": 0.25, "trials": 10, "p_dbw": -3230}}),
    ],
)
def test_subnormal_power_exits_config(tmp_path, capsys, command, section):
    """-3230 dBW is a subnormal 1e-323 W, which rounds every bound column
    away: exit 2 with the power named, no traceback and no file, where
    ``bounds`` and ``figure1`` printed zero bounds at exit 0."""
    out = tmp_path / "x.csv"
    args = ["--grid=-3230"] if section is None else ["--config", _write_config(tmp_path, section)]
    assert main([command, *args, "--out", str(out), "--threads", "1"]) == EXIT_CONFIG
    assert not out.exists()
    assert "-3230.0 dBW underflows to 9.88e-324 W, below the smallest normal" in capsys.readouterr().err


def test_exit_code_bad_grid(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["bounds", "--out", str(out), "--grid", "oops"]) == EXIT_CONFIG


def test_simulate_block_longer_than_the_outputs(tmp_path):
    """A hold past the ``n + k`` outputs writes the CSV of a hold of exactly
    ``n + k``: one drawn row per trial, repeated over the block."""
    outs = []
    for i, block_len in enumerate((10**30, 8 + 2)):
        law = {"kind": "block_hold", "block_len": block_len}
        cfg = _write_config(tmp_path, {"simulate": {"n_list": [8], "rate_bits": 0.25, "trials": 20,
                                                    "law": law}}, name=f"hold{i}.json")
        outs.append(tmp_path / f"hold{i}.csv")
        assert main(["simulate", "--config", cfg, "--out", str(outs[-1]), "--threads", "1"]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_simulate_negative_zero_rate_prints_zero(tmp_path):
    """A ``rate_bits`` of ``-0.0`` is the rate 0 (one word), and a
    ``p_dbw`` of ``-0.0`` is 0 dBW, each printed ``0.0`` as figure1 prints
    its zeros, not ``-0.0``."""
    cfg = _write_config(tmp_path, {"simulate": {"n_list": [16], "rate_bits": -0.0, "trials": 10,
                                                "p_dbw": -0.0}})
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "1"]) == EXIT_OK
    _, header, rows = _read_csv(out)
    assert [(r[header.index("R_bits")], r[header.index("P_dBW")]) for r in rows] == [("0.0", "0.0")]


_MULTI_N = [128, 32, 256, 32, 64]
_SHARED_CONFIGS = {
    "iid": {"n_list": _MULTI_N, "trials": 150},
    "hold3": {"n_list": _MULTI_N, "trials": 150, "law": {"kind": "block_hold", "block_len": 3}},
    "constant": {"n_list": _MULTI_N, "trials": 150, "law": {"kind": "constant", "offset": [1.0, -1.0, 0.5]}},
    # 2^15 words at n = 16: 32-trial blocks, two runs a cell; the widest
    # entry, then narrower than n = 17 (2^16 words, 16-trial blocks)
    "words15-widest": {"n_list": [8, 16], "rate_bits": 0.9375, "trials": 100},
    "words15-narrower": {"n_list": [16, 17, 8], "rate_bits": 0.9375, "trials": 100},
    "desc": {"n_list": [256, 64, 128], "trials": 150, "law": {"kind": "block_hold", "block_len": 3}},
    "repeat": {"n_list": [64, 64], "trials": 150},
}


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("name", list(_SHARED_CONFIGS))
def test_simulate_rows_equal_each_block_length_alone(tmp_path, name, threads):
    """Every row of a command over several block lengths, which shares
    their draws, equals the row of the command at that length alone: under
    the iid, block_hold and constant laws, for an unsorted list with a
    repeat, a descending list and a list of one repeated length, and with
    a 2^15-word entry as the widest and as a narrower one, at 1, 2 and 3
    threads."""
    section = _SHARED_CONFIGS[name]
    out = tmp_path / "all.csv"
    argv = ["simulate", "--seed", "1", "--threads", threads]
    assert main([*argv, "--config", _write_config(tmp_path, {"simulate": section}),
                 "--out", str(out)]) == EXIT_OK
    _, _, rows = _read_csv(out)
    assert [int(r[0]) for r in rows] == section["n_list"]
    for n, row in zip(section["n_list"], rows):
        alone = tmp_path / f"n{n}.csv"
        cfg = _write_config(tmp_path, {"simulate": {**section, "n_list": [n]}}, name=f"n{n}.json")
        assert main([*argv, "--config", cfg, "--out", str(alone)]) == EXIT_OK
        assert _read_csv(alone)[2] == [row], n


def test_default_commands_build_each_setup_once(tmp_path, monkeypatch):
    """Two default ``simulate`` commands build the set-ups of n = 64, 128 and
    256 once each: the second command's three calls reuse the kept ones and
    write the bytes of the same command with nothing kept."""
    decoder._setup.cache_clear()
    built, build = [], decoder.build_sigma
    monkeypatch.setattr(decoder, "build_sigma", lambda spec, n, P: built.append(n) or build(spec, n, P))

    def run(seed, name):
        assert main(["simulate", "--seed", seed, "--threads", "1", "--out", str(tmp_path / name)]) == EXIT_OK
        return (tmp_path / name).read_bytes()

    run("1", "a.csv")
    warm = run("2", "warm.csv")
    assert sorted(built) == [64, 128, 256]
    assert decoder._setup.cache_info()[:2] == (3, 3)  # hits, misses
    decoder._setup.cache_clear()
    assert run("2", "cold.csv") == warm and len(built) == 6
    decoder._setup.cache_clear()


def test_shared_store_stays_within_its_cap_and_goes_with_the_command(tmp_path, monkeypatch, capsys):
    """Between the runs of a command over several block lengths, one run
    per distinct length, the traced memory it holds, the set-up cache
    emptied, stays within the store's cap (set to 300 kB, under the 1.3 MB
    this command keeps uncapped), and the store holds something; after the
    command the store is gone.  A command with a refused entry (2^26 words
    at n = 256) runs nothing and opens no store."""
    monkeypatch.setattr(channel_sim, "_SHARED_BYTES", 300_000)
    run = cli.run_error_experiment
    held, stores, base = [], [], 0

    def traced(*args, **kwargs):
        res = run(*args, **kwargs)
        decoder._setup.cache_clear()
        held.append(tracemalloc.get_traced_memory()[0] - base)
        stores.append(weakref.ref(channel_sim._shared))
        return res

    monkeypatch.setattr(cli, "run_error_experiment", traced)
    cfg = _write_config(tmp_path, {"simulate": {"n_list": [64, 128, 256, 64], "rate_bits": 0.05}})
    refused = _write_config(tmp_path, {"simulate": {"n_list": [64, 128, 256], "rate_bits": 0.1}}, "refused.json")
    # a first command fills the package's small caches, so what the second holds is its own
    main(["simulate", "--config", cfg, "--seed", "9", "--threads", "1", "--out", str(tmp_path / "warm.csv")])
    decoder._setup.cache_clear()
    held.clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["simulate", "--config", cfg, "--seed", "1", "--threads", "1",
                     "--out", str(tmp_path / "a.csv")]) == EXIT_OK
        after = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(held) == 3 and 100_000 < max(held) <= 300_000 + 20_000, held
    assert after < 20_000 and channel_sim._shared is None
    assert all(ref() is None for ref in stores)
    stores.clear()
    rc = main(["simulate", "--config", refused, "--seed", "1", "--threads", "1", "--out", str(tmp_path / "b.csv")])
    assert rc == EXIT_CONFIG and not stores
    assert "2**26 codewords exceed the exhaustive-decoding cap 2**24" in capsys.readouterr().err
    assert channel_sim._shared is None


def test_refused_entry_stops_the_command_before_any_run(tmp_path, monkeypatch, capsys):
    """A ``simulate`` command refuses the first entry, in ``n_list`` order,
    whose codebook is too large (2^26 words at n = 128, where n = 256's
    2^52 would be the first refusal widest first) before any entry runs:
    it exits 2, writes no file and never starts an experiment."""
    calls = []
    monkeypatch.setattr(cli, "run_error_experiment", lambda *a, **k: calls.append(k["n"]))
    cfg = _write_config(tmp_path, {"simulate": {"n_list": [64, 128, 256], "rate_bits": 0.2}})
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--seed", "1", "--threads", "1", "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "isicap: 2**26 codewords exceed the exhaustive-decoding cap 2**24" in err and "2**52" not in err
    assert not out.exists() and calls == []
