"""CLI: JSON output, determinism, exit codes."""

import argparse
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knwznw import cli, finite_lie, sugawara, verify
from knwznw._kernel import RAT0, ZERO_FORM, Rat, canonical, rats
from knwznw.basis import Config
from knwznw.cli import (MAX_BASIS_INDEX, MAX_DEPTH, MAX_JSON_INDENT,
                        MAX_VERMA_WIDTH, MAX_WEYL_WEIGHT, MAX_WINDOW_DEGREE,
                        MAX_WINDOW_WIDTH, MAX_WORK, main)
from knwznw.errors import TruncationOverflow
from knwznw.finite_lie import make_algebra
from knwznw.modules import InducedModule, ModuleSpec, induce_module


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_subcommand(capsys):
    code, out, _ = run_cli(["basis", "--lambda", "-1", "--n", "0",
                            "--p", "1", "--points", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["num"] == ["0", "1"] and data["den"] == ["1"]
    assert data["lambda"] == -1 and data["adjusted"] is False
    assert data["orders"] == {"1": 1, "infinity": 1}


def test_output_determinism(capsys):
    args = ["table", "--algebra", "L", "--window", "-1:1", "--points", "0,1"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_output_roundtrip(capsys):
    code, out, _ = run_cli(["cocycle", "--kind", "chi", "--window=-3:3",
                            "--points", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    again = json.loads(json.dumps(data, sort_keys=True))
    assert again == data
    # classical values present
    vals = {(tuple(e["left"]), tuple(e["right"])): e["result"]
            for e in data["entries"]}
    assert vals[((-1, 2, 1), (-1, -2, 1))] == "1/2"


def test_affine_table(capsys, tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"points": ["0"], "lie_algebra": "sl2"}))
    code, out, _ = run_cli(["affine", "--config", str(cfgfile),
                            "--window=-1:1"], capsys)
    assert code == 0
    data = json.loads(out)
    by_key = {(tuple(e["left"]), tuple(e["right"])): e
              for e in data["entries"]}
    e = by_key[(("e", 1, 1), ("f", -1, 1))]
    assert e["central"] == "1"
    assert e["result"] == [["h", 0, 1, "1"]]


def test_module_subcommand(capsys, tmp_path):
    cfgfile = tmp_path / "m.json"
    cfgfile.write_text(json.dumps({
        "points": ["0"],
        "lie_algebra": "abelian1",
        "module": {"kind": "fock", "weights": ["0"], "level": "1",
                   "depth": 4},
    }))
    code, out, _ = run_cli(["module", "--config", str(cfgfile)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["slice_dimensions"] == {"0": 1, "-1": 1, "-2": 2,
                                        "-3": 3, "-4": 5}


def test_sugawara_subcommand(capsys, tmp_path):
    cfgfile = tmp_path / "s.json"
    cfgfile.write_text(json.dumps({
        "points": ["0"],
        "lie_algebra": "sl2",
        "module": {"kind": "weyl", "weights": [0], "level": "1",
                   "depth": 5},
    }))
    code, out, _ = run_cli(["sugawara", "--config", str(cfgfile),
                            "--pairs", "2,1,-2,1", "--slices", "-2"],
                           capsys)
    assert code == 0
    data = json.loads(out)
    entry = data["entries"][0]
    assert entry["is_scalar"] is True
    assert entry["ratio"] == "1"
    assert entry["chi"] == "1/2"


def test_sugawara_repeated_slice_is_audited_once(capsys, tmp_path,
                                                 monkeypatch):
    # entries do not list slices, so a repeated slice prints the same
    # bytes; it must not cost a second pass of Sugawara images either,
    # counted as reads of the image memo
    cfgfile = _write(tmp_path, "s.json", {
        "points": ["0", "1"], "lie_algebra": "sl2",
        "module": {"kind": "weyl", "weights": [1, 1], "depth": 3}})
    real = sugawara._image
    runs = []
    for slices in ("-2", "-2,-2,-2", "-2,0", "-2,0,-2,0"):
        calls = []

        def counting(module, k, r, mono, degree=None):
            calls.append((k, r))
            return real(module, k, r, mono, degree)

        monkeypatch.setattr(sugawara, "_image", counting)
        code, out, _ = run_cli(["sugawara", "--config", cfgfile, "--pairs",
                                "1,1,-1,2", "--slices=" + slices], capsys)
        assert code == 0
        runs.append((out, len(calls)))
    assert runs[0][1] > 0 and runs[1] == runs[0]
    assert runs[2][1] > runs[0][1] and runs[3] == runs[2]


def test_kz_subcommand(capsys, tmp_path):
    cfgfile = tmp_path / "kz.json"
    cfgfile.write_text(json.dumps({
        "points": ["0", "1"],
        "lie_algebra": "sl2",
        "weights": [1, 1],
        "level": "1",
        "depth": 3,
    }))
    code, out, _ = run_cli(["kz", "--config", str(cfgfile)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == "-1/3"
    assert data["sign_convention"] == "-1"
    assert data["residual_zero"] is True
    assert data["flatness"] == "ok"
    assert len(data["matrices"]) == 2
    assert data["scalar_shifts"] == ["1/2", "-1/2"]


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(["verify", "--suite", "basis"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_verify_failure_path_on_a_stub_registry(capsys, monkeypatch):
    def boom():
        raise ValueError("no such invariant")

    monkeypatch.setattr(verify, "CHECKS", [
        ("stub-pass", "basis", lambda: (True, "fine")),
        ("stub-fail", "basis", lambda: (False, "off by one")),
        ("stub-raise", "basis", boom),
        ("stub-other-suite", "kz", lambda: (False, "not run")),
    ])
    code, out, err = run_cli(["verify", "--suite", "basis"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert [(c["name"], c["passed"]) for c in data["checks"]] == [
        ("stub-pass", True), ("stub-fail", False), ("stub-raise", False)]
    assert data["checks"][2]["detail"] == \
        "error: ValueError: no such invariant"
    assert err.splitlines() == [
        "FAIL stub-fail: off by one",
        "FAIL stub-raise: error: ValueError: no such invariant"]


def test_registry_passes_each_param_to_the_checks_that_name_it(monkeypatch):
    seen = []

    def windowed(window=5):
        seen.append(("windowed", window))
        return True, ""

    def pointed(n_points=2):
        window = n_points  # a local variable is no parameter
        seen.append(("pointed", window))
        return True, ""

    monkeypatch.setattr(verify, "CHECKS", [
        ("windowed", "algebra", windowed),
        ("pointed", "algebra", pointed),
        ("bare", "algebra", lambda: (True, "")),
        ("kz-windowed", "kz", windowed),
    ])
    results = verify.suite_algebra(window=3)
    assert [(r.name, r.passed) for r in results] == [
        ("windowed", True), ("pointed", True), ("bare", True)]
    assert seen == [("windowed", 3), ("pointed", 2)]
    # a param that no check of the suite names is refused after the run
    with pytest.raises(TypeError, match=r"no algebra check takes \['widow'\]"):
        verify.suite_algebra(widow=3)
    with pytest.raises(TypeError, match="no kz check takes"):
        verify.suite_kz(n_points=3)


def test_registry_param_names_are_the_check_signatures():
    # every check takes plain parameters, so its code object names them
    for name, _suite, fn in verify.CHECKS:
        code = fn.__code__
        assert code.co_varnames[:code.co_argcount] == \
            tuple(inspect.signature(fn).parameters), name


def test_config_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(["basis", "--lambda", "0", "--n", "0"], capsys)
    assert code == 2 and "points" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["kz", "--config", str(bad)], capsys)
    assert code == 2


def test_domain_error_exit_code(capsys, tmp_path):
    cfgfile = tmp_path / "crit.json"
    cfgfile.write_text(json.dumps({
        "points": ["0", "1"],
        "lie_algebra": "sl2",
        "weights": [1, 1],
        "level": "-2",
        "depth": 2,
    }))
    code, _, err = run_cli(["kz", "--config", str(cfgfile)], capsys)
    assert code == 1 and "critical" in err


def test_unknown_command_exits_2(capsys):
    code = main(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("argv", [["affine", "--window=--"],
                                  ["module", "--config=--"],
                                  ["verify", "--suite=--"],
                                  ["table", "--json-indent=--"]])
def test_a_double_dash_option_value_exits_2(capsys, argv):
    # argparse reads `--opt=--` as an empty list, not a string
    _rejected(argv, capsys, "an option value may not be '--'")


def test_json_indent(capsys):
    code, out, _ = run_cli(["--json-indent", "2", "basis", "--lambda", "0",
                            "--n", "0", "--points", "0"], capsys)
    assert code == 0 and out.startswith("{\n  ")


def dense_route_json(form, dim):
    """The writer's former route, kept as its reference: a dense Rat
    matrix of the form, then "0" or `_rat_str` for each entry."""
    mat = [[RAT0] * dim for _ in range(dim)]
    for (r, c), v in rats(*form).items():
        mat[r][c] = v
    return [["0" if c.num == 0 else cli._rat_str(c) for c in row]
            for row in mat]


def test_matrix_json_matches_the_dense_route(capsys):
    # seeded canonical integer forms, with the zero form and 1 x 1
    # matrices among them, written through `_emit` at every indent
    rng = random.Random(3939)
    cases = [(ZERO_FORM, 1), (ZERO_FORM, 4), ((1, {(0, 0): -7}), 1),
             ((3, {(0, 0): 2}), 1)]
    for _ in range(30):
        dim = rng.randint(1, 6)
        cases.append((canonical(rng.randint(1, 12), {
            (rng.randrange(dim), rng.randrange(dim)): rng.randint(-20, 20)
            for _ in range(rng.randint(0, dim * dim))}), dim))
    values = [v for f, _ in cases for v in rats(*f).values()]
    assert any(v.num < 0 for v in values) and any(v.den > 1 for v in values)
    for form, dim in cases:
        for indent in range(-1, MAX_JSON_INDENT + 1):
            args = argparse.Namespace(json_indent=indent)
            outs = []
            for rows in (cli._matrix_json(form, dim),
                         dense_route_json(form, dim)):
                cli._emit(args, {"matrices": [rows], "n": dim})
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1], (form, dim, indent)


@pytest.mark.parametrize("first", [True, False])
def test_json_indent_bound(capsys, first):
    # the output grows with the indent, so a huge one would exhaust memory
    flag = ["--json-indent", str(MAX_JSON_INDENT + 1)]
    argv = ["basis", "--lambda", "0", "--n", "1", "--points", "0,1"]
    _rejected(flag + argv if first else argv + flag, capsys,
              "--json-indent %d exceeds %d (MAX_JSON_INDENT)"
              % (MAX_JSON_INDENT + 1, MAX_JSON_INDENT))
    code, out, _ = run_cli(argv + ["--json-indent", str(MAX_JSON_INDENT)],
                           capsys)
    assert code == 0 and out.startswith("{\n" + " " * MAX_JSON_INDENT + '"')


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_non_integer_weight_exits_2(capsys, tmp_path):
    cfg = _write(tmp_path, "w.json", {"points": ["0", "1"],
                                      "weights": [1, "1/2"], "depth": 2})
    for command in ("kz", "module"):
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "weight" in err and "Traceback" not in err


@pytest.mark.parametrize("weights,message", [
    ([1], "need one weight per marked point"),
    ([1, 1, 1], "need one weight per marked point"),
    ([1, -1], "sl2 weight must be a nonnegative integer")])
def test_malformed_weights_exit_2(capsys, tmp_path, weights, message):
    # malformed input: refused while the config is read, before any
    # module is built
    cfg = _write(tmp_path, "w.json", {"points": ["0", "1"],
                                      "lie_algebra": "sl2",
                                      "weights": weights, "depth": 2})
    for command in ("module", "sugawara", "kz"):
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert (code, out, err) == (2, "", "config error: %s\n" % message)


def test_sugawara_malformed_pairs_and_slices_exit_2(capsys, tmp_path):
    cfg = _write(tmp_path, "s.json", {
        "points": ["0"], "lie_algebra": "sl2",
        "module": {"kind": "weyl", "weights": [0], "depth": 2}})
    for extra in (["--pairs", "1,2"], ["--slices", "a"]):
        code, out, err = run_cli(["sugawara", "--config", cfg] + extra,
                                 capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error:")


def test_points_must_be_a_list(capsys, tmp_path):
    cfg = _write(tmp_path, "p.json", {"points": "01"})
    code, out, err = run_cli(["basis", "--lambda", "0", "--n", "0",
                              "--config", cfg], capsys)
    assert code == 2 and out == "" and "points" in err


def test_negative_depth_exits_2_everywhere(capsys, tmp_path):
    cfg = _write(tmp_path, "d.json", {"points": ["0", "1"],
                                      "weights": [1, 1], "depth": -1})
    for command in ("module", "sugawara"):
        code, out, err = run_cli([command, "--config", cfg], capsys)
        assert code == 2 and out == "" and "depth" in err


def test_kz_reads_no_depth(capsys, tmp_path):
    # the KZ matrices are exact Sugawara images read on degree 0; the
    # shared config's depth is a `module`/`sugawara` key
    outs = []
    for depth in (0, 4, None):
        data = {"points": ["0", "1", "-1"], "weights": [1, 1, 2]}
        if depth is not None:
            data["depth"] = depth
        code, out, err = run_cli(["kz", "--config",
                                  _write(tmp_path, "kz.json", data)], capsys)
        assert code == 0 and err == "", err
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_config_values_of_the_wrong_shape_exit_2(capsys, tmp_path):
    cases = [
        (["cocycle", "--kind", "chi", "--window=-1:1"],
         {"points": ["0"], "connection_R": "3"}, "connection_R"),
        (["cocycle", "--kind", "chi", "--window=-1:1"],
         {"points": ["0"], "connection_R": {"num": "12"}}, "num"),
        (["cocycle", "--kind", "chi", "--window=-1:1"],
         {"points": ["0"], "connection_R": {"den": ["0"]}}, "den"),
        (["module"], {"points": ["0"], "module": [1]}, "module"),
        (["module"], ["0"], "object"),
    ]
    for argv, data, word in cases:
        cfg = _write(tmp_path, "shape.json", data)
        code, out, err = run_cli(argv + ["--config", cfg], capsys)
        assert code == 2 and out == "", (data, err)
        assert err.startswith("config error:") and word in err, (data, err)


def _rejected(argv, capsys, bound):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == "", err
    assert err.startswith("config error:") and bound in err, err


@pytest.mark.parametrize("flag", ["--n", "--lambda"])
@pytest.mark.parametrize("sign", [1, -1])
def test_basis_index_bound(capsys, flag, sign):
    index = {"--lambda": 0, "--n": 0, flag: sign * (MAX_BASIS_INDEX + 1)}
    argv = ["basis", "--points", "0,1"]
    for name, value in index.items():
        argv += [name, str(value)]
    _rejected(argv, capsys, "MAX_BASIS_INDEX")


@pytest.mark.parametrize("command", ["table", "cocycle", "affine"])
def test_window_width_bound(capsys, command):
    lo = -(MAX_WINDOW_WIDTH // 2)
    window = "--window=%d:%d" % (lo, lo + MAX_WINDOW_WIDTH)
    _rejected([command, window, "--points", "0,1"], capsys,
              "MAX_WINDOW_WIDTH")


@pytest.mark.parametrize("command", ["table", "cocycle", "affine"])
@pytest.mark.parametrize("window", ["%d:%d", "-%d:-%d"])
def test_window_degree_bound(capsys, command, window):
    end = MAX_WINDOW_DEGREE + 1
    _rejected([command, "--window=" + window % (end, end), "--points", "0,1"],
              capsys, "MAX_WINDOW_DEGREE")


@pytest.mark.parametrize("command", ["table", "cocycle", "affine"])
def test_reversed_window_exits_2(capsys, command):
    _rejected([command, "--window=3:1", "--points", "0,1"], capsys,
              "empty window")


@pytest.mark.parametrize("p", [0, 3])
def test_basis_point_index_bound(capsys, p):
    _rejected(["basis", "--points", "0,1", "--lambda", "0", "--n", "0",
               "--p", str(p)], capsys, "out of range 1..2 (marked points)")


@pytest.mark.parametrize("pair", ["1,0,-1,1", "1,3,-1,1", "1,1,-1,0",
                                  "1,1,-1,3"])
def test_sugawara_pair_point_index_bound(capsys, tmp_path, pair):
    cfg = _write(tmp_path, "s.json", {"points": ["0", "1"],
                                      "weights": [1, 1], "depth": 2})
    _rejected(["sugawara", "--config", cfg, "--pairs", pair], capsys,
              "out of range 1..2 (marked points)")


@pytest.mark.parametrize("command", ["module", "sugawara"])
def test_depth_bound(capsys, tmp_path, command):
    cfg = _write(tmp_path, "d.json", {"points": ["0", "1"],
                                      "weights": [1, 1],
                                      "depth": MAX_DEPTH + 1})
    _rejected([command, "--config", cfg], capsys, "MAX_DEPTH")


@pytest.mark.parametrize("slices", ["1", "0,-5"])
def test_sugawara_slice_bound(capsys, tmp_path, slices):
    # each audited slice lies in [-depth, 0]
    cfg = _write(tmp_path, "s.json", {"points": ["0", "1"],
                                      "weights": [1, 1], "depth": 4})
    _rejected(["sugawara", "--config", cfg, "--slices", slices], capsys,
              "out of range -4..0 (module depth)")


@pytest.mark.parametrize("pair,degree", [("8,1,-2,1", 8), ("2,1,-8,1", -8)])
def test_sugawara_pair_degree_bound(capsys, tmp_path, pair, degree):
    cfg = _write(tmp_path, "s.json", {"points": ["0", "1"],
                                      "weights": [1, 1], "depth": 2})
    _rejected(["sugawara", "--config", cfg, "--pairs", pair], capsys,
              "pair degree %d is out of range -7..7 (MAX_DEPTH)" % degree)


README_CONFIG = {"points": ["0", "1", "-1"], "lie_algebra": "sl2",
                 "module": {"kind": "weyl", "weights": [1, 1, 1],
                            "level": "1", "depth": 4}}


# slices 0, -1, -2, -3 and -4 of README's module hold 8, 72, 432, 2,040
# and 8,280 monomials
README_SLICES = {0: 8, -1: 72, -2: 432, -3: 2040, -4: 8280}


def audit_work(pairs, slices):
    """The audit estimate of README's module: three points, sl2.  Per
    pair (k, m) and distinct slice d, the monomials of slice d times
    F(k, d) F(m, d + k) + F(m, d) F(k, d + m) + 30 F(k + m, d), over
    200; F(k, e) is 50 on an empty slice, 49(1 - e) for k > 0, and
    70(1 - e) + 9 max(0, 200|k| - 160) for k <= 0."""
    def cost(k, e):
        if e > 0:
            return 50
        if k > 0:
            return 49 * (1 - e)
        return 70 * (1 - e) + 9 * max(0, -200 * k - 160)
    return sum(README_SLICES[d]
               * sum(cost(k, d) * cost(m, d + k) + cost(m, d) * cost(k, d + m)
                     + 30 * cost(k + m, d) for k, m in pairs) // 200
               for d in dict.fromkeys(slices))


def test_sugawara_work_bound(capsys, tmp_path, monkeypatch):
    cfg = _write(tmp_path, "s.json", README_CONFIG)
    # README's request runs at exactly its estimate, and is refused one below
    readme = ["sugawara", "--config", cfg, "--pairs", "2,1,-2,1",
              "--slices=0,-1"]
    work = audit_work([(2, -2)], [0, -1])
    assert work == 178858
    monkeypatch.setattr(cli, "MAX_WORK", work - 1)
    _rejected(readme, capsys, "work estimate 178858 exceeds 178857 "
              "(MAX_WORK)")
    monkeypatch.setattr(cli, "MAX_WORK", work)
    code, out, err = run_cli(readme, capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["entries"][0]["ratio"] == "1"
    # a repeated slice counts once; every pair counts, a repeated one
    # again, and two negative degrees multiply: pair -7,1,-7,2 on slice -2
    # applies L(-7) to every image of L(-7), in slice -9, and is refused
    assert audit_work([(-7, -7)], [-2]) == 584097480
    for pairs, slices, degrees in (
            ("2,1,-2,1", "0,-1,-1,0", [(2, -2)]),
            ("2,1,-2,1;2,1,-2,1", "0,-1", [(2, -2)] * 2),
            ("0,1,0,2;-1,1,-1,2", "-1", [(0, 0), (-1, -1)]),
            ("1,1,-1,2", "0,-2", [(1, -1)]),
            ("0,1,0,2", "-4", [(0, 0)]),
            ("-7,1,-7,2", "-2", [(-7, -7)]),
            ("3,1,3,2;-3,1,7,2", "-4", [(3, 3), (-3, 7)])):
        monkeypatch.setattr(cli, "MAX_WORK", 0)
        slice_list = [int(d) for d in slices.split(",")]
        _rejected(["sugawara", "--config", cfg, "--pairs=" + pairs,
                   "--slices=" + slices], capsys,
                  "work estimate %d exceeds 0 (MAX_WORK)"
                  % audit_work(degrees, slice_list))
    monkeypatch.setattr(cli, "MAX_WORK", work)
    code, out, err = run_cli(readme[:-1] + ["--slices=0,-1,-1,0"], capsys)
    assert code == 0 and err == ""


@pytest.mark.parametrize("module", [
    {"kind": "weyl", "weights": [1, 1], "depth": 3},
    {"kind": "fock", "weights": ["1/2", "-1/2"], "depth": 3}])
@pytest.mark.parametrize("width", [1, 10 ** 9])
@pytest.mark.parametrize("argv", [
    ["module", "--coinvariants"],
    ["sugawara", "--pairs", "2,1,-2,1", "--slices=-1"]])
def test_a_width_on_a_weyl_or_fock_module_exits_2(capsys, tmp_path, module,
                                                  width, argv):
    # a width bounds verma strings only; on a weyl module a width of 1
    # used to cut slices -2 and -3 from 108 and 392 monomials to 24
    lie = "sl2" if module["kind"] == "weyl" else "abelian1"
    cfg = _write(tmp_path, "w.json", {
        "points": ["0", "1"], "lie_algebra": lie,
        "module": dict(module, width=width)})
    _rejected(argv + ["--config", cfg], capsys,
              "a width bound applies to verma modules only")


def test_a_huge_width_costs_nothing(capsys, tmp_path):
    # a verma module's tails are counted in closed form, so the work
    # estimate of an audit on it costs nothing in the width either
    verma = _write(tmp_path, "v.json", {
        "points": ["0", "1"],
        "module": {"kind": "verma", "weights": ["1", "1"], "depth": 2,
                   "width": 10 ** 9}})
    code, out, err = run_cli(["module", "--config", verma], capsys)
    assert code == 0 and err == "", err
    # f(0,1)^a f(0,2)^b with a + b <= 10^9
    assert json.loads(out)["slice_dimensions"]["0"] == \
        (10 ** 9 + 2) * (10 ** 9 + 1) // 2
    module = induce_module(make_algebra("sl2"), Config([Rat(0), Rat(1)]),
                           ModuleSpec("verma", (Rat(1), Rat(1)), Rat(1), 2,
                                      10 ** 9))
    start = perf_counter()
    assert cli._audit_work(module, [((1, 1), (-1, 2))], [0]) > MAX_WORK
    assert perf_counter() - start < 0.5
    # the CLI refuses to build its slices at all
    _rejected(["sugawara", "--config", verma, "--pairs", "1,1,-1,2",
               "--slices=0"], capsys, "(MAX_VERMA_WIDTH)")


@pytest.mark.parametrize("argv", [
    ["module", "--coinvariants"], ["module", "--action"],
    ["sugawara", "--pairs", "1,1,-1,1", "--slices=0"]])
def test_verma_width_bound(capsys, tmp_path, argv):
    # building the degree-0 slice of a width-1000 verma module at one
    # point overflowed the interpreter's recursion limit
    def config(width):
        return _write(tmp_path, "v%d.json" % width, {
            "points": ["0"], "module": {"kind": "verma", "weights": ["1"],
                                        "width": width}})
    _rejected(argv + ["--config", config(1000)], capsys, "MAX_VERMA_WIDTH")
    # at the bound the request runs; `--action` then reports the strings
    # it lost past the width (exit 1), as any verma action does
    code, out, err = run_cli(argv + ["--config", config(MAX_VERMA_WIDTH)],
                             capsys)
    assert (code, err) == (0, "") or (
        code == 1 and err.startswith("error: truncation overflow")), err


@pytest.mark.parametrize("points, width", [(1, 0), (2, 3), (3, 2)])
def test_verma_action_is_refused_before_any_slice_is_built(
        capsys, tmp_path, monkeypatch, points, width):
    # f(0,p) lengthens the strings of length width, so a verma module's
    # degree-0 action always loses width + 1; the CLI says so without
    # building a matrix, with the bytes the computation itself raises
    pts = ["0", "1", "-1"][:points]
    module = induce_module(make_algebra("sl2"), Config(pts),
                           ModuleSpec("verma", (Rat(1),) * points, Rat(1),
                                      0, width))
    with pytest.raises(TruncationOverflow) as ei:
        for p in range(1, points + 1):
            for i in range(3):
                module.degree_zero_action(p, i)
    assert ei.value.lost_widths == (width + 1,)
    cfg = _write(tmp_path, "v.json", {
        "points": pts, "module": {"kind": "verma", "depth": 0,
                                  "weights": ["1"] * points, "width": width}})
    monkeypatch.setattr(InducedModule, "slice_basis", _reach)
    for flags in (["--action"], ["--coinvariants", "--action"]):
        code, out, err = run_cli(["module", "--config", cfg] + flags, capsys)
        assert (code, out, err) == (1, "", "error: %s\n" % ei.value)
    # over the work bound the request still exits 2 first
    monkeypatch.setattr(cli, "MAX_WORK", 0)
    _rejected(["module", "--action", "--config", cfg], capsys, "(MAX_WORK)")


def test_abelian_verma_action_is_printed(capsys, tmp_path):
    # abelian1 has no lowering element: its verma degree-0 slice is the
    # vacuum alone, and the action is a scalar per point
    cfg = _write(tmp_path, "v.json", {
        "points": ["0", "1"], "lie_algebra": "abelian1",
        "module": {"kind": "verma", "weights": ["1", "2"], "width": 2}})
    code, out, err = run_cli(["module", "--action", "--config", cfg], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["degree0_action"] == {"u(0,1)": [["1"]],
                                                 "u(0,2)": [["2"]]}


def test_verma_work_bound(capsys, tmp_path, monkeypatch):
    # inside the width bound, the degree-0 slice of a verma module holds
    # C(width + N, N) strings, 680 at width 14 and three points; the
    # estimate counts them before the slice is built: alg.dim * N = 9
    # relation rows of 40 per string for `--coinvariants`, and 9 dense
    # 680 x 680 matrices for `--action`
    cfg = _write(tmp_path, "v.json", {
        "points": ["0", "1", "-1"],
        "module": {"kind": "verma", "weights": ["1", "1", "1"],
                   "depth": 0, "width": 14}})
    coinvariants, action = 9 * 680 * 40, 9 * 680 ** 2
    monkeypatch.setattr(cli, "MAX_WORK", 0)
    for flags, work in ((["--coinvariants"], coinvariants),
                        (["--action"], action),
                        (["--coinvariants", "--action"],
                         coinvariants + action)):
        _rejected(["module", "--config", cfg] + flags, capsys,
                  "work estimate %d exceeds 0 (MAX_WORK)" % work)
    # each runs at its estimate; `--action` then reports the strings it lost
    # past the width (exit 1), as any verma action does
    monkeypatch.setattr(cli, "MAX_WORK", coinvariants)
    code, out, err = run_cli(["module", "--coinvariants", "--config", cfg],
                             capsys)
    assert code == 0 and err == ""
    monkeypatch.setattr(cli, "MAX_WORK", action)
    code, out, err = run_cli(["module", "--action", "--config", cfg], capsys)
    assert code == 1 and err.startswith("error: truncation overflow"), err


def test_weyl_work_bound(capsys, tmp_path, monkeypatch):
    # the degree-0 slice of a weyl module holds prod (w + 1) monomials,
    # counted from the weights: 400 for (4,9,7).  `--coinvariants` counts
    # 9 rows per monomial of 5 plus 1 per 5 monomials of its weight space
    # (400 // 21 = 19); `--action` 9 dense 400 x 400 matrices; `kz` 3 of
    # them, compact, 40 + 10 * 3 per column, 3 * 400 of them, and, with 3
    # points of nonzero weight, 2 * 3^2 * 3^2
    cfg = _write(tmp_path, "w.json", {"points": ["0", "1", "-1"],
                                      "weights": [4, 9, 7], "depth": 0})
    monkeypatch.setattr(cli, "MAX_WORK", 0)
    kz_rest = 70 * 3 * 400 + 2 * 3 ** 2 * 3 ** 2
    for argv, work in ((["module", "--coinvariants"], 9 * 400 * (5 + 3)),
                       (["module", "--action"], 9 * 400 ** 2),
                       (["kz"], 3 * 400 ** 2 + kz_rest),
                       # indented, each entry weighs 2 + indent // 5
                       (["module", "--action", "--json-indent", "8"],
                        3 * 9 * 400 ** 2),
                       (["kz", "--json-indent", "8"],
                        3 * 3 * 400 ** 2 + kz_rest)):
        _rejected(argv + ["--config", cfg], capsys,
                  "work estimate %d exceeds 0 (MAX_WORK)" % work)
    # a plain listing only counts its slices
    code, out, _ = run_cli(["module", "--config", cfg], capsys)
    assert code == 0 and json.loads(out)["slice_dimensions"]["0"] == 400
    # a point of weight 0 adds to N only: (1,1,0,0,0) at five points
    cfg = _write(tmp_path, "z.json", {"points": ["0", "1", "-1", "2", "3"],
                                      "weights": [1, 1, 0, 0, 0]})
    _rejected(["kz", "--config", cfg], capsys, "work estimate %d exceeds 0"
              % (5 * 4 * (4 + 90) + 2 * 5 ** 2 * 2 ** 2))


def test_large_weyl_weights_are_refused_before_any_irrep_is_built(
        capsys, tmp_path):
    # building and checking the 351-dimensional irrep of weight 350 took
    # about 2 s before the request was refused; the weight bound reads
    # only the weights
    weight = MAX_WEYL_WEIGHT + 1
    cfg = _write(tmp_path, "w.json", {"points": ["0", "1", "-1"],
                                      "weights": [weight, 1, 1], "depth": 0})
    for argv in (["kz"], ["module", "--coinvariants"], ["module"],
                 ["sugawara", "--slices=0"]):
        start = perf_counter()
        _rejected(argv + ["--config", cfg], capsys,
                  "weyl weight %d is out of range 0..%d (MAX_WEYL_WEIGHT)"
                  % (weight, MAX_WEYL_WEIGHT))
        assert perf_counter() - start < 0.5, argv
        assert ("sl2", weight) not in finite_lie._IRREPS


class _Reached(Exception):
    """Raised in place of the work a request would do once accepted."""


def _reach(*args):
    raise _Reached


def test_requests_are_decided_by_the_estimate_alone(capsys, tmp_path,
                                                     monkeypatch):
    # each accepted request reaches its computation, stubbed out here, and
    # a refused one exits 2 before it; no slice is built either way
    for name in ("degree_zero_coinvariant_dimension", "kz_matrices",
                 "sugawara_commutator_audit"):
        monkeypatch.setattr(cli, name, _reach)
    monkeypatch.setattr(InducedModule, "slice_basis", _reach)
    weights = _write(tmp_path, "w.json", {"points": ["0", "1", "-1"],
                                          "weights": [4, 9, 7], "depth": 0})
    readme = _write(tmp_path, "s.json", README_CONFIG)
    # 0.25 s and 0.45 s unbounded, in fresh processes
    for argv in (["module", "--coinvariants", "--config", weights],
                 ["kz", "--config", weights],
                 # 8,280 monomials, 3.3 s
                 ["sugawara", "--config", readme, "--pairs", "0,1,0,2",
                  "--slices=-4"],
                 # 8 monomials, 3.6 s
                 ["sugawara", "--config", readme, "--pairs=-7,1,-7,2",
                  "--slices=0"]):
        with pytest.raises(_Reached):
            main(argv)
    # two negative degrees multiply the cost: 31 s, and over a minute
    for pair in ("-3,1,-3,2", "-7,1,-7,2"):
        start = perf_counter()
        _rejected(["sugawara", "--config", readme, "--pairs=" + pair,
                   "--slices=-2"], capsys, "(MAX_WORK)")
        assert perf_counter() - start < 0.5
    # (10,10,10) prints 9 dense 1,331 x 1,331 matrices: 3.3 s, 319 MB
    big = _write(tmp_path, "b.json", {"points": ["0", "1", "-1"],
                                      "weights": [10, 10, 10]})
    _rejected(["module", "--action", "--config", big], capsys, "(MAX_WORK)")
    # (9,9,9) prints 9 dense 1,000 x 1,000 matrices: 1.0 s and 176 MB
    # compact, but 4.8 s and 1.3 GB at --json-indent 8
    monkeypatch.setattr(InducedModule, "degree_zero_action", _reach)
    nines = _write(tmp_path, "n.json", {"points": ["0", "1", "-1"],
                                        "weights": [9, 9, 9]})
    with pytest.raises(_Reached):
        main(["module", "--action", "--config", nines])
    _rejected(["module", "--action", "--json-indent", "8", "--config",
               nines], capsys, "work estimate 27000000 exceeds")
    # kz at (1,1,0,...,0): a point of weight 0 reads no triple
    # coefficient, and the others' residues are closed forms, so 557
    # points pass (about 0.7 s) and 558 do not
    for n, accepted in ((557, True), (558, False)):
        many = _write(tmp_path, "m.json", {
            "points": [str(x) for x in range(n)],
            "weights": [1, 1] + [0] * (n - 2)})
        if accepted:
            with pytest.raises(_Reached):
                main(["kz", "--config", many])
        else:
            _rejected(["kz", "--config", many], capsys, "(MAX_WORK)")
    # every pair k,r,m,s with k, m in -3..4 at three points: 576 pairs, 39 s
    ops = ["%d,%d" % (k, r) for k in range(-3, 5) for r in (1, 2, 3)]
    pairs = ";".join(a + "," + b for a in ops for b in ops)
    assert len(pairs.split(";")) == 576
    start = perf_counter()
    _rejected(["sugawara", "--config", readme, "--pairs=" + pairs,
               "--slices=-3"], capsys, "(MAX_WORK)")
    assert perf_counter() - start < 0.5


def test_odd_weight_sums_charge_only_the_cartan_rows(capsys, tmp_path,
                                                      monkeypatch):
    # with an odd sl2 weight sum no degree-0 monomial has weight 0, so the
    # N Cartan rows per monomial fill the span: 25 each.  (1,...,1) at
    # thirteen points (0.6 s), (3,...,3) at seven (0.65 s) and (400,399)
    # at two (4.5 s, 201 MB) pass, decided without building a slice
    monkeypatch.setattr(cli, "degree_zero_coinvariant_dimension", _reach)
    monkeypatch.setattr(InducedModule, "slice_basis", _reach)
    monkeypatch.setattr(InducedModule, "_slice_codes", _reach)
    for weights, work in (([1] * 13, 13 * 2 ** 13 * 25),
                          ([3] * 7, 7 * 4 ** 7 * 25),
                          ([400, 399], 2 * 401 * 400 * 25)):
        cfg = _write(tmp_path, "w.json", {
            "points": [str(x) for x in range(len(weights))],
            "weights": weights, "depth": 0})
        argv = ["module", "--coinvariants", "--config", cfg]
        monkeypatch.setattr(cli, "MAX_WORK", work - 1)
        _rejected(argv, capsys, "work estimate %d exceeds" % work)
        monkeypatch.setattr(cli, "MAX_WORK", MAX_WORK)
        with pytest.raises(_Reached):
            main(argv)


JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                 st.integers(-10 ** 30, 10 ** 30),
                 st.lists(st.integers(-1, 2), max_size=2),
                 st.dictionaries(st.text(max_size=1), st.integers(),
                                 max_size=1))
WEIGHT = st.one_of(st.integers(-2, 3), st.floats(-3, 3), st.booleans(),
                   st.sampled_from([MAX_WEYL_WEIGHT, MAX_WEYL_WEIGHT + 1,
                                    10 ** 9, 2 ** 70, "1/2", "-1/3", "1/0",
                                    "2", "x"]), JUNK)
PAIR = st.tuples(st.integers(-7, 7), st.integers(0, 4), st.integers(-7, 7),
                 st.integers(0, 4))


@st.composite
def cli_requests(draw):
    """argv and config of a `module`, `kz`, `sugawara` or `affine`
    request, mostly well formed; one value in five of each kind is drawn
    from the junk."""
    def rarely(bad, good):
        junk = draw(st.sampled_from([False, False, False, False, True]))
        return draw(bad if junk else good)

    n = draw(st.integers(1, 4))
    lie = rarely(st.one_of(st.just("x"), JUNK),
                 st.sampled_from(["sl2", "sl2", "abelian1"]))
    kind = rarely(st.just("x"), st.sampled_from(
        ["weyl", "fock"] if lie == "abelian1" else ["weyl", "weyl", "verma"]))
    good = (st.integers(0, 3) if kind == "weyl" else
            st.sampled_from(["1", "1/2", "-1", "0"]))
    weights = rarely(st.one_of(st.lists(WEIGHT, min_size=n, max_size=n),
                               st.lists(WEIGHT, max_size=5), JUNK),
                     st.lists(good, min_size=n, max_size=n))
    module = {"kind": kind, "weights": weights}
    if kind == "verma":
        module["width"] = rarely(st.one_of(st.just(10 ** 9), JUNK),
                                 st.integers(0, 4))
    for key, values in (
            ("width", st.one_of(st.integers(-2, 40), JUNK)),
            ("depth", st.one_of(st.integers(-1, 9), JUNK)),
            ("level", st.one_of(st.sampled_from(["-2", "0", "3/2", "1/0",
                                                 "x"]), JUNK))):
        if draw(st.sampled_from([False, False, False, False, True])):
            module[key] = draw(values)
    data = {"points": rarely(JUNK, st.just(["0", "1", "-1", "2"][:n])),
            "lie_algebra": lie,
            "weights": weights, "module": rarely(JUNK, st.just(module))}
    argv = draw(st.sampled_from([["module"], ["module", "--coinvariants"],
                                 ["module", "--action"], ["kz"],
                                 ["sugawara"], ["sugawara"], ["affine"]]))
    if argv == ["sugawara"]:
        pairs = rarely(st.text("0123456789,-;x", max_size=8),
                       st.lists(PAIR, min_size=1, max_size=3).map(
                           lambda ps: ";".join(",".join(map(str, p))
                                               for p in ps)))
        slices = rarely(st.text("0123456789,-x", max_size=4),
                        st.lists(st.integers(-4, 1), min_size=1,
                                 max_size=3).map(
                            lambda ds: ",".join(map(str, ds))))
        argv = argv + ["--pairs=" + pairs, "--slices=" + slices]
    elif argv == ["affine"]:
        window = rarely(st.one_of(
            st.text("0123456789:-x ", max_size=6),
            st.tuples(st.integers(-10 ** 6, 10 ** 6),
                      st.integers(-10 ** 6, 10 ** 6)).map("%d:%d".__mod__)),
            st.tuples(st.integers(-3, 1), st.integers(0, 3)).map(
                "%d:%d".__mod__))
        argv = argv + ["--window=" + window]
        if draw(st.booleans()):
            argv.append("--points=" + rarely(
                st.text("0123456789,-/x.", max_size=8),
                st.sampled_from(["0", "0,1", "1/2,-7/3,5"])))
    return argv, data


@settings(derandomize=True, max_examples=120, deadline=None)
@given(request=cli_requests())
def test_malformed_or_costly_requests_exit_cleanly(request):
    # with the work bound lowered, every request accepted is tiny: each
    # exits 0, 1 or 2 with a message, within a second
    argv, data = request
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "MAX_WORK", 20000)
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--config", str(path)])
        assert perf_counter() - start < 1.0, (argv, data)
    assert code in (0, 1, 2), (argv, data, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), err.getvalue()


BAD_INT = st.one_of(st.integers(-10 ** 30, 10 ** 30).filter(
    lambda x: abs(x) > MAX_BASIS_INDEX), st.text("0123456789-+.xe ",
                                                 max_size=4))


@st.composite
def argv_requests(draw, command):
    """argv of a `verify`, `table`, `cocycle` or `basis` request, mostly
    well formed and small; one value in five of each kind is junk."""
    def rarely(bad, good):
        junk = draw(st.sampled_from([False, False, False, False, True]))
        return str(draw(bad if junk else good))

    points = rarely(st.one_of(
        st.text("0123456789,-/x.", max_size=8),
        st.sampled_from(["0,0", "1/0", "inf", "nan", ",", "0,1,1/1"])),
        st.lists(st.sampled_from(["0", "1", "-1", "2", "1/2", "-7/3"]),
                 min_size=1, max_size=3, unique=True).map(",".join))
    window = rarely(st.one_of(
        st.text("0123456789:-x ", max_size=6),
        st.tuples(st.integers(-10 ** 6, 10 ** 6),
                  st.integers(-10 ** 6, 10 ** 6)).map("%d:%d".__mod__)),
        st.tuples(st.integers(-3, 1), st.integers(0, 3)).map("%d:%d".__mod__))
    if command == "verify":
        argv = ["verify", "--suite=" + draw(st.text(max_size=6))]
    elif command == "basis":
        argv = ["basis", "--points=" + points,
                "--lambda=" + rarely(BAD_INT, st.integers(-4, 4)),
                "--n=" + rarely(BAD_INT, st.integers(-4, 4))]
        if draw(st.booleans()):
            argv.append("--p=" + rarely(BAD_INT, st.integers(0, 4)))
    else:
        kind = (("--algebra", "A", "L") if command == "table"
                else ("--kind", "gamma", "chi"))
        argv = [command, "--points=" + points, "--window=" + window,
                kind[0] + "=" + rarely(st.text(max_size=3),
                                       st.sampled_from(kind[1:]))]
    if draw(st.booleans()):
        argv.append("--json-indent=" + rarely(
            st.one_of(BAD_INT, st.integers(MAX_JSON_INDENT + 1, 10 ** 9)),
            st.integers(-2, MAX_JSON_INDENT)))
    return argv


@pytest.mark.parametrize("command", ["verify", "table", "cocycle", "basis"])
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_junk_argv_exits_cleanly(command, data):
    # junk suites, windows, points, lambdas and indents: each request
    # exits 0, 1 or 2 with a message and no traceback, within a second
    argv = data.draw(argv_requests(command))
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert perf_counter() - start < 1.0, argv
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == ""), (argv, err.getvalue())


def colored_partitions(colors, upto):
    """Coefficients of prod_{n >= 1} (1 - q^n)^-colors up to q^upto."""
    coeffs = [1] + [0] * upto
    for n in range(1, upto + 1):
        for _ in range(colors):
            for t in range(n, upto + 1):
                coeffs[t] += coeffs[t - n]
    return coeffs


@pytest.mark.parametrize("weights,vac_dim", [((1, 1, 1), 8),
                                             ((2, 2, 2, 2), 81)])
def test_module_lists_slices_without_building_them(capsys, tmp_path,
                                                   weights, vac_dim):
    # a degree-d slice holds the multisets of creation keys (one color per
    # point and basis element of sl2) of total degree d, per vacuum
    # vector; at 4 points the listing reaches 12,470,760 monomials at
    # slice -7, so it must count them, not build them
    points = ["0", "1", "-1", "2"][:len(weights)]
    cfg = _write(tmp_path, "m.json", {
        "points": points, "module": {"kind": "weyl", "weights": list(weights),
                                     "depth": MAX_DEPTH}})
    code, out, err = run_cli(["module", "--config", cfg], capsys)
    assert code == 0 and err == "", err
    counts = colored_partitions(3 * len(weights), MAX_DEPTH)
    assert json.loads(out)["slice_dimensions"] == {
        str(-d): vac_dim * counts[d] for d in range(MAX_DEPTH + 1)}


def test_output_past_the_int_string_limit_exits_2(capsys):
    # A_{1,1} at the points 0, P carries the factor P^-2, twice as long as
    # P; the interpreter's limit on int-to-str conversion is left as it is
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int-to-str digit limit")
    height = limit // 2 + 1
    point = "1" + "0" * height
    _rejected(["basis", "--points", "0," + point, "--lambda", "0",
               "--n", "1", "--p", "1"], capsys, "digits")


def test_action_past_the_width_bound_exits_1(capsys, tmp_path):
    # f(0,1) lengthens the degree-0 strings of length 3 past the width
    cfg = _write(tmp_path, "m.json", {"points": ["0", "1"],
                                      "module": {"kind": "verma",
                                                 "weights": ["2", "0"],
                                                 "depth": 2, "width": 3}})
    code, out, err = run_cli(["module", "--action", "--config", cfg], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "string lengths [4]" in err, err


EMPTY_SLICES = {"points": ["0", "1"],
                "module": {"kind": "verma", "weights": ["1", "1"],
                           "width": 0, "depth": 2}}


@pytest.mark.parametrize("slices,empty", [("-1,-2", -1), ("0,-1", -1),
                                          ("0,-2", -2)])
def test_sugawara_refuses_an_empty_slice(capsys, tmp_path, slices, empty):
    # at width 0 only the vacuum is left: slices -1 and -2 hold no
    # monomial, so they have no scalar to measure
    cfg = _write(tmp_path, "e.json", EMPTY_SLICES)
    _rejected(["sugawara", "--config", cfg, "--pairs", "2,1,-2,1",
               "--slices=" + slices], capsys,
              "slice %d of this module is empty" % empty)
    code, out, err = run_cli(["sugawara", "--config", cfg, "--pairs",
                              "2,1,-2,1", "--slices=0"], capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["entries"][0]["is_scalar"] is True


# The sha256 of the stdout of representative commands, each taken before
# the degree-0 operators went sparse; the JSON bytes must not change.
GOLDEN_CONFIGS = {
    "kz111": {"points": ["0", "1", "-1"], "weights": [1, 1, 1],
              "level": "1"},
    "weyl": {"points": ["0", "1", "-1"],
             "module": {"kind": "weyl", "weights": [1, 1, 2], "level": "1",
                        "depth": 2}},
    "verma": {"points": ["0", "1"],
              "module": {"kind": "verma", "weights": ["1", "1/2"],
                         "level": "1", "width": 2, "depth": 2}},
    "sug": {"points": ["0", "1"], "weights": [1, 1], "level": "1"},
    "chiR": {"points": ["0", "1", "-1"],
             "connection_R": {"num": ["3", "1"], "den": ["1", "0", "1"]}},
    "ab": {"points": ["0", "1", "-1"], "lie_algebra": "abelian1"},
    "fock": {"points": ["0", "1", "-1"], "lie_algebra": "abelian1",
             "module": {"kind": "fock", "weights": ["1/2", "-1/2", "0"],
                        "level": "3/2", "depth": 3}},
}
GOLDEN = [
    (["verify", "--suite", "all"], None,
     "66642b94bd74caa03a945eb6fc71f2e4e40208f528a33b2c7a1d448f1805e3de"),
    (["kz"], "kz111",
     "5c55cb9143c85d84c6b06221da6631b898101d3d2ddbb8d08440011ac6e2cce7"),
    (["module", "--coinvariants", "--action"], "weyl",
     "2b46cc62874ba2a6f28a234f91abfb5882ce62ec593221fa6f357c8bbbc0fbc6"),
    (["module", "--coinvariants"], "verma",
     "5b399f3e60f636628d0c7853b46da1f3bfdb82aca3c1d127010ec8706227a7ef"),
    (["sugawara"], "sug",
     "602c3cfedeada210cc22b9deb1a33c581609dc9cb15153d1fc36341fffc414ad"),
    (["table", "--algebra", "L", "--points", "0,1,-1"], None,
     "b598df45c05eeec1bf357b4fbbc1ab92d040008da0cce571fb1654b5dc84aa56"),
    (["table", "--algebra", "A", "--points", "0,1,-1"], None,
     "a991188b568e45d89256f1f49ba72e2e9d2f35b88b8d1375f56e7a61dcc99e6a"),
    (["cocycle", "--kind", "gamma", "--points", "0,1,-1"], None,
     "b387740dd19662e92334d59875922351e8713aca1b7f435bff0aa4b690c7d86b"),
    (["cocycle", "--kind", "chi"], "chiR",
     "40bde8ecf1d3b46a0d32af7deca72e6a3d0a6012d6985e2ae5fa72469ebbf176"),
    (["affine", "--points", "0,1"], None,
     "c11e5a2cca298b3960ed2fc4c40dce0f10f803ab5420c35b891a536996858a8c"),
    (["affine"], "ab",
     "c52c9e1ffbae132f60fa2bf30e8292afec1eb00afcc0805056bc6dc2e592b841"),
    (["module", "--coinvariants", "--action"], "fock",
     "cb650236b2d9b15c22d86ba679d0b7313b8dfefbe700346055e446068bd1e4e1"),
    (["sugawara", "--pairs", "2,1,-2,1;1,2,-1,3", "--slices=-2,-1"], "fock",
     "308c9b8ea3f5549735ba551c61aa0e88bf5bbede09bf1284b00a43b4ee1d3ab9"),
    (["basis", "--lambda", "2", "--n", "-3", "--p", "2",
      "--points", "1/2,-7/3,5"], None,
     "1d0e491898bc2dc348eed8d639d04e93349d5459de4a92b66b6f01d8c6f9365b"),
    (["basis", "--lambda", "-1", "--n", "4", "--p", "1",
      "--points", "0,1,-1"], None,
     "601c2bdee3621e6117282704128ba436d639122e1be3b71f331f967a51786285"),
]


@pytest.mark.parametrize("argv,config,digest", GOLDEN,
                         ids=[" ".join(g[0]) + (" " + g[1] if g[1] else "")
                              for g in GOLDEN])
def test_stdout_matches_its_golden_digest(capsys, tmp_path, argv, config,
                                          digest):
    if config is not None:
        argv = argv + ["--config", _write(tmp_path, config + ".json",
                                          GOLDEN_CONFIGS[config])]
    code, out, err = run_cli(argv, capsys)
    assert code == 0 and err == "", err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verma_action_keeps_its_error(capsys, tmp_path):
    # any degree-0 action of a verma module lengthens its longest strings
    cfg = _write(tmp_path, "v.json", GOLDEN_CONFIGS["verma"])
    code, out, err = run_cli(["module", "--coinvariants", "--action",
                              "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == "error: truncation overflow: lost string lengths [3]\n"


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_pipe_exits_1_without_a_traceback(unbuffered):
    # about 146 kB of output, more than a pipe buffer holds; the reader
    # closes its end after the first bytes, as `| head -c 10` does
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "knwznw.cli", "table", "--algebra", "L",
         "--window=-5:5", "--points", "0,1,-1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(10) == b'{"algebra"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
