"""CLI: JSON output, determinism, exit codes."""

import hashlib
import json
import sys
from time import perf_counter

import pytest

from knwznw import cli, verify
from knwznw.cli import (MAX_AUDIT_MONOMIALS, MAX_BASIS_INDEX, MAX_DEPTH,
                        MAX_JSON_INDENT, MAX_VERMA_SLICE, MAX_VERMA_WIDTH,
                        MAX_WEYL_SLICE, MAX_WEYL_WEIGHT, MAX_WINDOW_DEGREE,
                        MAX_WINDOW_WIDTH, main)


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


def test_json_indent(capsys):
    code, out, _ = run_cli(["--json-indent", "2", "basis", "--lambda", "0",
                            "--n", "0", "--points", "0"], capsys)
    assert code == 0 and out.startswith("{\n  ")


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


def test_sugawara_audit_size_bound(capsys, tmp_path, monkeypatch):
    # pair (2,1),(-2,1) shifts slice d down to d - 2: slice -2 reaches
    # slice -4 of 8 * 1,035 monomials, and must exit 2 without building it
    cfg = _write(tmp_path, "s.json", README_CONFIG)
    assert 2040 <= MAX_AUDIT_MONOMIALS < 8280
    for slices in ("-2", "0,-2"):
        _rejected(["sugawara", "--config", cfg, "--pairs", "2,1,-2,1",
                   "--slices", slices], capsys,
                  "slice -2 reaches slice -4 of 8280 monomials, more than "
                  "%d (MAX_AUDIT_MONOMIALS)" % MAX_AUDIT_MONOMIALS)
    # the most negative shift of any pair counts
    _rejected(["sugawara", "--config", cfg, "--pairs", "0,1,0,2;2,1,-2,1",
               "--slices=-2"], capsys, "(MAX_AUDIT_MONOMIALS)")
    # two negative degrees shift twice: -1 - 1 - 1 = -3 passes, -4 not
    code, _, err = run_cli(["sugawara", "--config", cfg,
                            "--pairs=-1,1,-1,2", "--slices=-1"], capsys)
    assert code == 0, err
    _rejected(["sugawara", "--config", cfg, "--pairs=-1,1,-1,2",
               "--slices=-2"], capsys, "reaches slice -4")
    # README's request reaches slice -3 (2,040 monomials): it runs at a
    # bound of 2,040 and is refused at 2,039
    readme = ["sugawara", "--config", cfg, "--pairs", "2,1,-2,1",
              "--slices=0,-1"]
    monkeypatch.setattr(cli, "MAX_AUDIT_MONOMIALS", 2039)
    _rejected(readme, capsys, "slice -1 reaches slice -3 of 2040 monomials, "
              "more than 2039 (MAX_AUDIT_MONOMIALS)")
    monkeypatch.setattr(cli, "MAX_AUDIT_MONOMIALS", 2040)
    code, out, err = run_cli(readme, capsys)
    assert code == 0 and err == ""
    assert json.loads(out)["entries"][0]["ratio"] == "1"


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
    # a verma module's tails are counted in closed form, and the audit
    # bound rejects a slice that large without allocating by the width
    verma = _write(tmp_path, "v.json", {
        "points": ["0", "1"],
        "module": {"kind": "verma", "weights": ["1", "1"], "depth": 2,
                   "width": 10 ** 9}})
    code, out, err = run_cli(["module", "--config", verma], capsys)
    assert code == 0 and err == "", err
    # f(0,1)^a f(0,2)^b with a + b <= 10^9
    assert json.loads(out)["slice_dimensions"]["0"] == \
        (10 ** 9 + 2) * (10 ** 9 + 1) // 2
    _rejected(["sugawara", "--config", verma, "--pairs", "1,1,-1,2",
               "--slices=0"], capsys, "(MAX_AUDIT_MONOMIALS)")


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


def test_verma_slice_bound(capsys, tmp_path):
    # inside the width bound, the degree-0 slice of a verma module holds
    # C(width + N, N) strings; it is counted before it is built
    def config(width):
        return _write(tmp_path, "v%d.json" % width, {
            "points": ["0", "1", "-1"],
            "module": {"kind": "verma", "weights": ["1", "1", "1"],
                       "depth": 0, "width": width}})
    for flag in ("--coinvariants", "--action"):
        _rejected(["module", flag, "--config", config(14)], capsys,
                  "slice of 680 monomials exceeds %d (MAX_VERMA_SLICE)"
                  % MAX_VERMA_SLICE)
    # 560 strings pass the bound; `--action` then reports the strings it
    # lost past the width (exit 1), as any verma action does
    assert 560 <= MAX_VERMA_SLICE < 680
    code, out, err = run_cli(["module", "--action", "--config", config(13)],
                             capsys)
    assert code == 1 and err.startswith("error: truncation overflow"), err


def test_weyl_slice_bound(capsys, tmp_path):
    # the degree-0 slice of a weyl module holds prod (w + 1) monomials; it
    # is counted before `module --coinvariants`, `--action` or `kz` builds
    # it: (2,8,12) holds 3 * 9 * 13 = 351, one past (6,6,6)'s 343
    assert 343 <= MAX_WEYL_SLICE < 351
    for weights in ((2, 8, 12), (7, 7, 7)):
        size = (weights[0] + 1) * (weights[1] + 1) * (weights[2] + 1)
        cfg = _write(tmp_path, "w.json", {"points": ["0", "1", "-1"],
                                          "weights": list(weights),
                                          "depth": 0})
        for argv in (["module", "--coinvariants"], ["module", "--action"],
                     ["kz"]):
            _rejected(argv + ["--config", cfg], capsys,
                      "weyl degree-0 slice of %d monomials exceeds %d "
                      "(MAX_WEYL_SLICE)" % (size, MAX_WEYL_SLICE))
    # a plain listing only counts its slices
    code, out, _ = run_cli(["module", "--config", cfg], capsys)
    assert code == 0 and json.loads(out)["slice_dimensions"]["0"] == 512


def test_large_weyl_weights_are_refused_before_any_irrep_is_built(
        capsys, tmp_path):
    # building and checking the 351-dimensional irrep of weight 350 took
    # about 2 s before the request was refused; the bounds read only the
    # weights
    assert MAX_WEYL_WEIGHT + 1 == MAX_WEYL_SLICE
    cfg = _write(tmp_path, "w.json", {"points": ["0", "1", "-1"],
                                      "weights": [350, 1, 1], "depth": 0})
    too_large = "weyl degree-0 slice of 1404 monomials exceeds %d " \
        "(MAX_WEYL_SLICE)" % MAX_WEYL_SLICE
    weight = "weyl weight 350 is out of range 0..%d (MAX_WEYL_WEIGHT)" \
        % MAX_WEYL_WEIGHT
    for argv, bound in ((["kz"], too_large),
                        (["module", "--coinvariants"], too_large),
                        (["module"], weight),
                        (["sugawara", "--slices=0"], weight)):
        start = perf_counter()
        _rejected(argv + ["--config", cfg], capsys, bound)
        assert perf_counter() - start < 0.5, argv


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
