import cmath
import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from halfplane import cli
from halfplane.cli import main


def write_spec(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def child_env():
    # a child process imports the same halfplane as this process
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


class TestEval:
    def test_shift_boundary_row(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json", {
            "version": 1,
            "nevanlinna": {"alpha": 1.0, "beta": 0.0,
                           "ac": [{"interval": [-300.0, 300.0], "density": 0.0}]}})
        # f = z: continuation row at x = 0 is (0, 0)
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "0:0:1"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row == [0.0, 0.0, 0.0, 0.0, "cont"]

    def test_krein_norm_at_i(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "k.json",
                          {"version": 1, "krein": {"arcs": [[0, 1]]}})
        code, out = run(capsys, ["eval", "--spec", spec,
                                 "--grid", "box:0:0:1:1:1"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert math.hypot(row[2], row[3]) == pytest.approx(1.0, abs=1e-12)

    def test_pole_sentinel_row(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "k.json",
                          {"version": 1, "krein": {"arcs": [[0, 1]]}})
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "0:1:3"])
        flags = [r[4] for r in json.loads(out)["rows"]]
        assert flags[0] == "pole"       # x = 0 is the pole
        assert flags[1] == "cont"       # midpoint continues analytically
        assert flags[2] == "cont"       # x = 1 is the zero

    def test_shared_end_is_no_pole(self, tmp_path, capsys):
        # p_(0,1)·p_(1,2) = p_(0,2), finite at x = 1
        spec = write_spec(tmp_path, "k.json",
                          {"version": 1, "krein": {"arcs": [[0, 1], [1, 2]]}})
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "1:1:1"])
        row = json.loads(out)["rows"][0]
        assert row[4] == "cont"
        assert row[2] == pytest.approx(-1.0 / math.sqrt(5.0), rel=1e-15)

    def test_eps_rows(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json",
                          {"version": 1,
                           "nevanlinna": {"alpha": 0.0, "beta": 0.0,
                                          "atoms": [[0.0, 1.0]]}})
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "0:0:1",
                                 "--eps", "1e-3"])
        row = json.loads(out)["rows"][0]
        assert row[4] == "eps" and row[1] == 1e-3
        assert row[3] == pytest.approx(1e3, rel=1e-5)

    def test_eps_row_uncertified(self, tmp_path, capsys):
        # the tail budget refuses tol 1e-9 at height 0.01: that row is flagged
        # and the rest of the grid still reports
        spec = write_spec(tmp_path, "c.json", {
            "version": 1, "krein": {"cantor": {"interval": [0, 1]}, "tol": 1e-9}})
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "2:3:2",
                                 "--eps", "0.01"])
        assert code == 0
        flags = [r[4] for r in json.loads(out)["rows"]]
        assert "uncertified" in flags

    def test_box_grid_close_above_cantor_set(self, capsys):
        # at Im z = 1e-9 over the base the generator's tail bound is past the
        # float range: those rows are uncertified, the others still report
        spec = str(pathlib.Path(__file__).parent.parent / "cli_examples" / "eval_cantor.json")
        code, out = run(capsys, ["eval", "--spec", spec, "--grid=box:-4:4:1e-9:2:9"])
        assert code == 0
        rows = json.loads(out)["rows"]
        flags = {(r[0], r[1]): r[4] for r in rows}
        assert flags[(0.0, 1e-9)] == flags[(1.0, 1e-9)] == "uncertified"
        assert all(flags[(x, 1e-9)] == "interior" for x in (-4.0, -3.0, 2.0, 4.0))
        assert all(math.isfinite(r[2]) for r in rows if r[4] == "interior")

    def test_walk_to_a_cantor_point_ends_at_the_guard_band(self, tmp_path):
        # 1/4 lies on the Cantor set; its walk ends where the gaps fall within
        # the guard band, about level 19, not at the depth of 10**9
        spec = write_spec(tmp_path, "deep.json", {
            "krein": {"cantor": {"interval": [0, 1], "depth": 10 ** 9}, "tol": 0.01},
            "options": {"grid": "0.25:0.25:1"}})
        done = subprocess.run([sys.executable, "-m", "halfplane.cli", "eval", "--spec", spec],
                              capture_output=True, text=True, env=child_env(), timeout=10)
        assert done.returncode == 0, done.stderr
        assert [r[4] for r in json.loads(done.stdout)["rows"]] == ["near-sigma"]

    def test_product_cantor_honours_tol(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "product": {"c": 2.0, "krein": {"cantor": {"interval": [0, 1]}, "tol": 1e-2}}})
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "box:0:1:0.5:1:2"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r[4] for r in rows] == ["interior"] * 4
        for r in rows:
            # the Cantor-complement product tends to −1
            assert abs(complex(r[2], r[3]) + 2.0) < 2.0 * 1e-2

    def test_csv_format(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "k.json",
                          {"version": 1, "krein": {"arcs": [[0, 1]]}})
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "2:3:2",
                                 "--format", "csv"])
        lines = out.strip().splitlines()
        assert lines[0] == "x_or_re_z,im_z,re_f,im_f,flag"
        assert len(lines) == 3

    def test_sqrt_branch_value(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json", {
            "version": 1,
            "product": {"c": 1.0, "krein": {"arcs": [["inf", -1.0]]},
                        "exp": {"gamma": 0.0,
                                "psi": [{"interval": [-1.0, 1.0], "value": 0.5}]}}})
        # composite with an exponent part: real and positive off the pieces
        code, out = run(capsys, ["eval", "--spec", spec, "--grid", "2:2:1"])
        row = json.loads(out)["rows"][0]
        assert code == 0 and row[4] == "cont"
        assert row[2] > 0 and row[3] == 0

    @pytest.mark.parametrize("flags, options, field", [
        (["--eps", "-0.5"], {}, "--eps"),
        ([], {"eps": -0.5}, "options.eps"),
        (["--grid", "box:-1:1:-2:-1:2"], {}, "--grid"),
        (["--grid", "box:-1:1:0:1:2"], {}, "--grid"),
        ([], {"grid": "box:-1:1:-2:-1:2"}, "options.grid"),
    ], ids=["eps-flag", "eps-option", "box-below", "box-touching-axis",
            "box-option"])
    def test_below_real_axis_refused(self, tmp_path, capsys, flags, options, field):
        # the functions live on the closed upper half-plane: rows below the
        # real axis are an input error naming the field, not values
        spec = write_spec(tmp_path, "f.json", {
            "version": 1, "nevanlinna": {"alpha": 1.0, "beta": 1.0},
            "options": options})
        assert main(["eval", "--spec", spec] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err and "Traceback" not in captured.err


class TestFactor:
    def test_shift_report(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json",
                          {"version": 1, "nevanlinna": {"alpha": 1.0, "beta": 0.0}})
        code, out = run(capsys, ["factor", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert rep["constant"] == pytest.approx(1.0)
        assert rep["gamma"]["arcs"] == [["inf", 0.0]]
        assert all(c["pass"] for c in rep["certifications"])

    def test_atomic_report(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json", {
            "version": 1,
            "nevanlinna": {"alpha": 0.3, "beta": -0.5,
                           "atoms": [[-2.0, 1.0], [1.0, 0.7]]}})
        code, out = run(capsys, ["factor", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert rep["constant_residual"] <= 1e-9

    @pytest.mark.parametrize("weight", [1e155, 1e160, 1e200])
    def test_huge_atom_weights_certify(self, tmp_path, capsys, weight):
        # α = 0: the root seeds' matrix overflowed past u² = w(1 + t²) ≈ 1.3e154
        # ("input error: Eigenvalues did not converge", exit 2)
        spec = write_spec(tmp_path, "f.json", {"nevanlinna": {
            "beta": 0.5, "atoms": [[-1, weight], [0, weight], [2, weight]]}})
        code, out = run(capsys, ["factor", "--spec", spec])
        assert code == 0
        assert all(c["pass"] for c in json.loads(out)["certifications"])

    def test_wrap_product_reads_as_its_representation(self, tmp_path, capsys):
        # k over (−∞, 0) ∪ (1, ∞) is p_(1,0) = √2/2·(1+z)/(1−z) − √2/2, finite
        # and negative at ∞: both forms report σ = {1} and Γ = (1, 0) through ∞
        product = write_spec(tmp_path, "k.json", {"krein": {"arcs": [["inf", 0], [1, "inf"]]}})
        rep = write_spec(tmp_path, "f.json", {"nevanlinna": {
            "beta": -math.sqrt(0.5), "atoms": [[1.0, math.sqrt(0.5)]]}})
        reports = []
        for path in (product, rep):
            code, out = run(capsys, ["factor", "--spec", path])
            assert code == 0
            reports.append(json.loads(out))
        for r in reports:
            assert r["gamma"] == {"arcs": [[1.0, 0.0]]}
            assert r["gamma_contains_infinity"] is True
            assert r["k"] == {"arcs": [[1.0, 0.0]]}


class TestSolve:
    def test_interp(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "interp": {"zeros": [1.0], "poles": [], "singular": [0.0]}})
        code, out = run(capsys, ["solve", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert rep["extra_poles"] == [0.0]
        assert rep["region"]["arcs"] == [[0.0, 1.0]]

    def test_disk_interp(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "interp": {"zeros": [[1.0, 0.0]], "poles": [[-1.0, 0.0]],
                       "singular": [], "alpha": [-1.0, 0.0],
                       "beta": [1.0, 0.0], "zeta": [0.0, 1.0]}})
        code, out = run(capsys, ["solve", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert all(c["pass"] for c in rep["certifications"])

    def test_disk_zero_close_to_a_pole_certifies(self, tmp_path, capsys):
        # the pulled zero lies 2.2e-10 from the pole, inside the pole's guard
        # band; a level-set grid that evaluated θ there exited 2
        zero, pole = cmath.exp(1j), cmath.exp(1j * (1 + 1e-10))
        spec = write_spec(tmp_path, "p.json", {"interp": {
            "zeros": [[zero.real, zero.imag]], "poles": [[pole.real, pole.imag]],
            "alpha": [0, 1], "beta": [0, -1], "zeta": [0.2, 1]}})
        code, out = run(capsys, ["solve", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert [c["name"] for c in rep["certifications"] if c["pass"]] == [
            "interior_contraction", "boundary_unimodular", "level_sets"]
        assert rep["problem"]["zeros"] == [-1.6304877217124518]
        assert rep["problem"]["poles"] == [-1.6304877214949178]

    def test_boole(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "boole": {"atoms": [[-1.0, 1.0], [1.0, 1.0]], "y": [1.0, 3.0]}})
        code, out = run(capsys, ["solve", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert rep["certifications"][0]["plus"] == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("y", [1e-7, 1e-9, 1e-200])
    def test_boole_small_level_is_certified(self, tmp_path, capsys, y):
        # the lengths are μ(R)/y = 3/y: against an absolute 1e-8, rounding
        # alone failed y = 1e-9 (residual 4.8e-7) and 1e-200 (5.5e188); the
        # tolerance bounds the roots' brackets and the sums' rounding
        spec = write_spec(tmp_path, "b.json", {"boole": {"atoms": [[0.0, 1.0], [1.0, 2.0]],
                                                         "y": [y]}})
        code, out = run(capsys, ["solve", "--spec", spec])
        (cert,) = json.loads(out)["certifications"]
        assert code == 0 and cert["pass"] and cert["residual"] <= cert["tolerance"]
        assert cert["tolerance"] <= 5e-12 * cert["target"]

    def test_letac(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "letac": {"beta": 0.0, "atoms": [[0.0, 1.0]], "interval": [0.0, 1.0]}})
        code, out = run(capsys, ["solve", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert rep["certifications"][0]["length"] == pytest.approx(1.0, abs=1e-8)

    def test_realizable_omega_through_infinity(self, tmp_path, capsys):
        # Ω₁ has a wrap arc carrying ∞, so the gap sorted last is finite
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "realizable": {
                "omega": {"arcs": [
                    [-6.471395489978533, -2.219983806782345],
                    [-0.4316717043535707, 0.16942842328625574],
                    [0.16942842328625574, 1.55977835819259],
                    [2.3046646840303833, 3.7885103347732603],
                    [3.7885103347732603, 5.541806578446369],
                    [6.336005087124985, -6.471395489978533]]},
                "o": {"arcs": [
                    [-6.471395489978533, -5.8656274585917245],
                    [0.16942842328625574, 0.8848624023435576],
                    [3.7885103347732603, 4.155468001777409]]}}})
        code, out = run(capsys, ["solve", "--spec", spec])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_realizable(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "realizable": {"omega": {"arcs": [[0.0, 1.0]]},
                           "o": {"arcs": [[2.0, 3.0]]}}})
        code, out = run(capsys, ["solve", "--spec", spec])
        assert code == 1  # O not inside Omega

    def test_realizable_int_ends_report(self, tmp_path, capsys):
        # int ends are made floats where the arc is made, so the failure
        # text names them as floats; the whole report is pinned
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "realizable": {"omega": {"arcs": [[0, 1]]}, "o": {"arcs": [[0, 2]]}}})
        code, out = run(capsys, ["solve", "--spec", spec])
        assert code == 1
        assert out == json.dumps({
            "failures": [["a", "component Arc(0.0, 2.0) of O is not inside Omega"]],
            "ok": False, "task": "realizable"}, indent=2, sort_keys=True) + "\n"


class TestCheck:
    @pytest.mark.parametrize("suite", ["krein-props", "boole", "letac"])
    def test_suites_pass(self, suite, capsys):
        code, out = run(capsys, ["check", "--suite", suite, "--seed", "3"])
        assert code == 0
        rep = json.loads(out)
        assert all(c["pass"] for c in rep["certifications"])

    def test_deterministic_output(self, capsys):
        _, out1 = run(capsys, ["check", "--suite", "boole", "--seed", "11"])
        _, out2 = run(capsys, ["check", "--suite", "boole", "--seed", "11"])
        assert out1 == out2

    def test_deterministic_eval_and_factor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json", {
            "version": 1,
            "nevanlinna": {"alpha": 0.4, "beta": -1.0, "atoms": [[0.5, 1.0]]}})
        outs = []
        for argv in (["eval", "--spec", spec, "--grid=-3:3:7"],
                     ["factor", "--spec", spec]):
            a = run(capsys, argv)[1]
            b = run(capsys, argv)[1]
            assert a == b
            outs.append(a)
        assert outs[0] != outs[1]

    def test_unknown_suite(self, capsys):
        assert main(["check", "--suite", "nope"]) == 2
        assert capsys.readouterr().err == (
            "input error: unknown suite 'nope'; choose from ('krein-props', "
            "'nevanlinna-roundtrip', 'boole', 'letac', 'factor-posts', "
            "'interp-equivalence')\n")


# each flag a command never reads, with a value it would take; a Cantor
# generator's depth and tolerance are set in its spec only, and check runs
# its suites from --seed alone
_INERT_FLAGS = [("eval", "--seed", "3"), ("eval", "--depth", "4"), ("eval", "--tol", "0.01"),
                ("factor", "--format", "csv"), ("factor", "--eps", "0.01"),
                ("factor", "--seed", "3"), ("factor", "--depth", "4"),
                ("factor", "--tol", "0.01"),
                ("solve", "--format", "csv"), ("solve", "--eps", "0.01"),
                ("solve", "--depth", "4"), ("solve", "--tol", "0.01"),
                ("solve", "--seed", "3"),
                ("check", "--format", "csv"), ("check", "--eps", "0.01"),
                ("check", "--depth", "4"), ("check", "--tol", "0.01"),
                ("check", "--spec", "cli_examples/boole_two_atoms.json")]
_EXAMPLES = pathlib.Path(__file__).parent.parent / "cli_examples"


class TestErrors:
    @pytest.mark.parametrize("command, flag, value", _INERT_FLAGS,
                             ids=[f"{c}{f}" for c, f, _ in _INERT_FLAGS])
    def test_flag_the_command_does_not_read_is_refused(self, command, flag, value, capsys):
        # `factor --format csv` printed JSON without a word: argparse exits 2
        argv = {"eval": ["eval", "--spec", str(_EXAMPLES / "eval_shift.json")],
                "factor": ["factor", "--spec", str(_EXAMPLES / "factor_atoms.json")],
                "solve": ["solve", "--spec", str(_EXAMPLES / "boole_two_atoms.json")],
                "check": ["check", "--suite", "boole"]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "factor", "solve"])
    def test_missing_spec_names_the_flag(self, command, capsys):
        # it reached open(None): "expected str, bytes or os.PathLike object"
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert "the following arguments are required: --spec" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json",
                          {"version": 1, "nevanlinna": {"alpha": 1.0}, "x": 1})
        assert main(["eval", "--spec", spec]) == 2

    def test_two_tasks(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json",
                          {"version": 1, "nevanlinna": {"alpha": 1.0},
                           "krein": {"arcs": []}})
        assert main(["eval", "--spec", spec]) == 2

    def test_missing_file(self, capsys):
        assert main(["eval", "--spec", "/nonexistent.json"]) == 2

    def test_wrong_task_kind(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json",
                          {"version": 1, "boole": {"atoms": [[0.0, 1.0]]}})
        assert main(["eval", "--spec", spec]) == 2

    def test_malformed_arc(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json", {"krein": {"arcs": [[0]]}})
        assert main(["eval", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert "[0]" in err and "Traceback" not in err

    @pytest.mark.parametrize("task", ["nevanlinna", "product"])
    def test_malformed_interval_entry(self, tmp_path, capsys, task):
        # an "ac" density piece or a "psi" piece whose interval is not a pair
        body = ({"alpha": 1.0, "ac": [{"interval": [0], "density": 1.0}]}
                if task == "nevanlinna" else
                {"krein": {"arcs": [[0, 1]]},
                 "exp": {"psi": [{"interval": [0], "value": 0.5}]}})
        spec = write_spec(tmp_path, "bad.json", {task: body})
        assert main(["eval", "--spec", spec]) == 2
        err = capsys.readouterr().err
        field = "ac" if task == "nevanlinna" else "psi"
        assert f"{field} entry 0" in err and "Traceback" not in err

    def test_unsupported_version(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json",
                          {"version": 99, "nevanlinna": {"alpha": 1.0}})
        assert main(["eval", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert "version" in err and "Traceback" not in err

    @pytest.mark.parametrize("atoms, y, named", [
        ([[0, 1]], [], "boole.y is an empty list"),
        ([[0, 1], [1, 2]], [1e-308], "boole.y: y = 1e-308 is too small"),
    ], ids=["no-level", "level-past-float-range"])
    def test_boole_level_out_of_range_is_input_error(self, tmp_path, capsys, atoms, y, named):
        # the first exited 0 with "certifications": [], a report that checks
        # nothing; the second printed numpy's "overflow encountered in
        # divide" and exited 1 with "no sign bracket for the root inf"
        path = write_spec(tmp_path, "b.json", {"boole": {"atoms": atoms, "y": y}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--spec", path]) == 2
        captured = capsys.readouterr()
        assert not caught and captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("input error: ") and named in captured.err

    @pytest.mark.parametrize("command, spec, named", [
        ("factor", {"nevanlinna": {"alpha": 1.0, "atoms": [[-1e200, 1.0], [1e200, 2.0]]}},
         "the atom (-1e+200, 1.0)"),
        ("factor", {"nevanlinna": {"atoms": [[0.0, 1.0], [1e160, 2.0]]}}, "the atom (1e+160, 2.0)"),
        ("solve", {"letac": {"atoms": [[1e200, 1.0]], "interval": [0.0, 1.0]}},
         "the atom (1e+200, 1.0)"),
        ("solve", {"letac": {"atoms": [[1e5, 1e300]], "interval": [0.0, 1.0]}},
         "the atom (100000.0, 1e+300)"),
        ("factor", {"nevanlinna": {"atoms": [[0.0, 1.0]],
                                   "ac": [{"interval": [1e103, 2e103], "density": 1.0}]}},
         "the density piece (1e+103, 2e+103, 1.0)"),
        ("factor", {"nevanlinna": {"alpha": 1.0, "ac": [{"interval": [0, 1], "density": 1e308},
                                                        {"interval": [2, 3], "density": 1.0}]}},
         "the measure"),
        ("factor", {"nevanlinna": {"ac": [{"interval": [0, 1], "density": 1e308},
                                          {"interval": [2, 3], "density": 1.0}]}},
         "the measure"),
    ], ids=["factor-pm1e200", "factor-1e160", "letac-1e200", "letac-weight1e300",
            "factor-density-1e103", "factor-density-1e308", "factor-density-1e308-alpha0"])
    def test_measure_past_the_root_kernel_range_is_input_error(self, tmp_path, capsys,
                                                                command, spec, named):
        # w(1 + t²) overflows: numpy warned, then factor exited 2 with
        # "Eigenvalues did not converge" and letac exited 1; a density's
        # ends cubed overflowed in a traceback; a density of 1e308 has a
        # finite K, but its far bracket's end (α = 1) or an exact sum of a
        # row (α = 0) overflowed in a traceback.  The root kernel reads the
        # whole measure, so the message names the task
        path = write_spec(tmp_path, "f.json", spec)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--spec", path]) == 2
        captured = capsys.readouterr()
        assert not caught and captured.out == "" and "Traceback" not in captured.err
        (task,) = spec
        assert captured.err.startswith(f"input error: {task}: {named} is past the float range")

    def test_unbracketable_root_is_certification_failure(self, tmp_path, capsys):
        # the root of G = 1 right of the 1e-30 atom lies within roundoff of
        # it, so no sign bracket can certify it: refused, with a message
        spec = write_spec(tmp_path, "b.json", {"boole": {
            "atoms": [[1000.0, 1e-30], [1001.0, 1.0]], "y": [1.0]}})
        assert main(["solve", "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert "certification failure" in err and "sign bracket" in err
        # plain floats name the target and the branch
        assert "f = -1.0 on the branch (1000.0, 1001.0)" in err
        assert "np.float64" not in err

    def test_zero_at_density_end_is_certification_failure(self, tmp_path, capsys):
        # a valid spec: Γ's zero left of the density lies within an ulp of
        # the density's left end, where no bracket resolves it; refused as
        # a certification failure naming the branch, not as bad input
        spec = write_spec(tmp_path, "f.json", {"nevanlinna": {
            "alpha": 0.7664586858766653, "beta": -2.674093864370919,
            "atoms": [[1.553162, 2.339], [3.67942, 2.283], [4.603707, 2.792]],
            "ac": [{"interval": [5.410310458959966, 5.706371881098608],
                    "density": 0.052123485666960255}]}})
        assert main(["factor", "--spec", spec]) == 1
        err = capsys.readouterr().err
        assert "certification failure" in err
        assert "on the branch (4.603707, 5.410310458959966)" in err

    def test_interlacing_failure_is_certification_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "interp": {"zeros": [0.0, 1.0], "poles": [5.0], "singular": []}})
        assert main(["solve", "--spec", spec]) == 1

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("command, spec, named", [
        ("eval", {"krein": "abc"}, "krein must be a JSON object"),
        ("eval", {"nevanlinna": [1, 2]}, "nevanlinna must be a JSON object"),
        ("solve", {"realizable": {"omega": "x", "o": {}}}, "arc set 'x'"),
        ("eval", {"nevanlinna": {"alpha": 1.0}, "options": {"grid": 5}},
         "options.grid must be a string"),
        ("factor", {"nevanlinna": {"ac": [{"interval": [0, INF], "density": 1}]}},
         "density piece (0.0, inf, 1.0) is not finite"),
        ("factor", {"nevanlinna": {"alpha": NAN}}, "alpha nan"),
        ("eval", {"nevanlinna": {"atoms": [[NAN, 1.0]]}}, "atom (nan, 1.0)"),
        ("eval", {"nevanlinna": {"alpha": NAN}}, "alpha nan"),
        ("eval", {"krein": {"arcs": [[0, NAN]]}}, "arc end is NaN"),
        ("eval", {"product": {"krein": {"arcs": [[0, 1]]},
                              "exp": {"psi": [{"interval": [2, NAN], "value": 0.5}]}}},
         "psi piece (2, nan)"),
        ("eval", {"krein": {"cantor": {"interval": [0, 1], "depth": 3}, "tol": NAN}},
         "tol must be >= 0"),
        ("solve", {"boole": {"atoms": [[0.0, 1.0]], "y": [NAN]}}, "y must be positive"),
        ("solve", {"interp": {"zeros": [[1, 0]], "poles": [[-1, 0]], "alpha": [NAN, 0],
                              "beta": [1, 0], "zeta": [0, 1]}}, "alpha must be unimodular"),
        ("factor", {"product": {"krein": {"arcs": [[0, 1]]},
                                "exp": {"psi": [{"interval": [2, 1], "value": 0.5}]}}},
         "psi piece (2, 1) is no interval l < r"),
    ])
    def test_malformed_value_is_input_error(self, tmp_path, capsys, command, spec, named):
        # bodies that are not objects and values that are not finite (∞
        # stays the circle point in arcs and ψ pieces) exit 2 with a message
        path = write_spec(tmp_path, "bad.json", spec)
        assert main([command, "--spec", path]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("spec, named", [
        ({"krein": {"arcs": [["1", 2]]}}, "an arc end '1' is not a real number"),
        ({"krein": {"arcs": [[True, 2]]}}, "an arc end True is not a real number"),
        ({"krein": {"cantor": {"interval": [0, "1"], "depth": 2}, "tol": 1e-2}},
         "an arc end '1' is not a real number"),
    ], ids=["string-end", "bool-end", "string-cantor-end"])
    def test_non_numeric_point_is_input_error(self, tmp_path, capsys, spec, named):
        # only JSON numbers and "inf", "-inf", "oo" are points
        path = write_spec(tmp_path, "bad.json", spec)
        assert main(["eval", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command, spec, named", [
        ("eval", {"krein": {"arcz": [[1, 2]]}}, "unknown krein fields: ['arcz']"),
        ("eval", {"nevanlinna": {"alpha": 1, "atom": [[0, 1]]}},
         "unknown nevanlinna fields: ['atom']"),
        ("solve", {"interp": {"zeros": [1], "pole": [2]}}, "unknown interp fields: ['pole']"),
        ("eval", {"krein": {"cantor": {"interval": [0, 1], "depth": 3.5}, "tol": 1e-2}},
         "cantor.depth must be an integer >= 0, got 3.5"),
        ("eval", {"krein": {"cantor": {"interval": [0, 1], "dpth": 3}}},
         "unknown cantor fields: ['dpth']"),
        ("eval", {"product": {"krein": {"arcs": [[0, 1]]}, "exp": {"gama": 1.0}}},
         "unknown exp fields: ['gama']"),
        ("eval", {"product": {"krein": {"arc": [[0, 1]]}}}, "unknown krein fields: ['arc']"),
        ("eval", {"krein": {"arcs": [[0, 1]]}, "options": {"grd": "0:1:2"}},
         "unknown options fields: ['grd']"),
        ("eval", {"krein": {"arcs": [[0, 1]]}, "options": {"depth": -1}},
         "unknown options fields: ['depth']"),
        ("eval", {"krein": {"cantor": {"interval": [0, 1]}}, "options": {"tol": 1e-2}},
         "unknown options fields: ['tol']"),
        ("eval", {"krein": {"cantor": {"interval": [0, 1]}, "max_factors": 10}},
         "unknown krein fields: ['max_factors']"),
        ("eval", {"krein": {"cantor": {"interval": 5, "depth": 3}}},
         "cantor.interval: 5 is not a [l, r] pair"),
        ("eval", {"krein": {"cantor": {"interval": [0], "depth": 3}}},
         "cantor.interval: [0] is not a [l, r] pair"),
        ("eval", {"krein": {"arcs": [[0, 1]], "cantor": {"interval": [2, 3]}}},
         "krein takes arcs or a cantor generator, not both"),
        ("eval", {"krein": {"arcs": [[0, 1]], "tol": "0.1"}},
         "krein tol goes with a cantor generator, not with explicit arcs"),
        ("eval", {"krein": {"arcs": [[0, 1]], "tol": 10 ** 400}},
         "krein tol goes with a cantor generator, not with explicit arcs"),
        ("factor", {"product": {"krein": {"arcs": [[0, 1]], "max_factors": "x"}}},
         "unknown krein fields: ['max_factors']"),
    ], ids=["krein", "nevanlinna", "interp", "cantor-depth", "cantor", "exp",
            "product-krein", "options", "options-depth", "options-tol", "max-factors",
            "cantor-interval-number", "cantor-interval-short", "arcs-and-cantor",
            "arcs-and-tol-string", "arcs-and-tol-past-float-range",
            "arcs-and-max-factors"])
    def test_unread_field_is_input_error(self, tmp_path, capsys, command, spec, named):
        # a field that no code reads is refused, not ignored
        path = write_spec(tmp_path, "bad.json", spec)
        assert main([command, "--spec", path]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command, spec, named", [
        ("eval", {"nevanlinna": {"atoms": [["3", "1"]]}}, "atoms entry 0 '3' is not a number"),
        ("eval", {"nevanlinna": {"alpha": 1.0, "beta": "2"}}, "beta '2' is not a number"),
        ("solve", {"boole": {"atoms": [[0.0, 1.0]], "y": ["2"]}},
         "boole.y '2' is not a number"),
        ("eval", {"product": {"c": "2", "krein": {"arcs": [[0, 1]]}}},
         "product.c '2' is not a number"),
        ("eval", {"product": {"krein": {"arcs": [[0, 1]]},
                              "exp": {"psi": [{"interval": ["2", 3], "value": 0.5}]}}},
         "psi entry 0 '2' is not a number"),
        ("eval", {"krein": {"cantor": {"interval": [0, 1], "depth": 3}, "tol": "0.1"}},
         "krein.tol '0.1' is not a number"),
        ("eval", {"nevanlinna": {"atoms": [[10 ** 400, 1]]}},
         "atoms entry 0: a 401-digit integer is past the float range"),
        ("solve", {"boole": {"atoms": [[0.0, 1.0]], "y": [10 ** 400]}},
         "boole.y: a 401-digit integer is past the float range"),
        ("solve", {"letac": {"atoms": [[0.0, 1.0]], "interval": ["0", 1]}},
         "letac.interval '0' is not a number"),
    ], ids=["atom-strings", "beta-string", "boole-y-string", "product-c-string",
            "psi-end-string", "krein-tol-string", "atom-past-float-range",
            "boole-y-past-float-range", "letac-interval-string"])
    def test_non_numeric_number_is_input_error(self, tmp_path, capsys, command, spec, named):
        # a field holding a number takes a JSON number within the float
        # range: numeric strings were read as numbers, and a huge integer
        # raised OverflowError out of main
        path = write_spec(tmp_path, "bad.json", spec)
        assert main([command, "--spec", path]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("command, spec", [
        ("eval", {"krein": {"full": "no"}}),
        ("eval", {"krein": {"full": 0, "arcs": [[0, 1]]}}),
        ("eval", {"product": {"krein": {"full": None}}}),
        ("solve", {"realizable": {"omega": {"full": 1}, "o": {}}}),
    ], ids=["string", "zero-beside-arcs", "null", "realizable-one"])
    def test_full_that_is_no_boolean_is_input_error(self, tmp_path, capsys, command, spec):
        # "full" was read by truthiness: "no" was the full circle and 0 let
        # the arcs beside it be read
        path = write_spec(tmp_path, "bad.json", spec)
        assert main([command, "--spec", path]) == 2
        err = capsys.readouterr().err
        assert "is not a JSON boolean" in err and "Traceback" not in err

    def test_half_line_psi_end_read(self, tmp_path, capsys):
        # a ψ end also takes "inf" or "-inf", its sign kept: (−∞, −3)
        spec = {"exp": {"psi": [{"interval": ["-inf", -3], "value": 0.5}]}}
        path = write_spec(tmp_path, "f.json", {"product": {"krein": {"arcs": [[0, 1]]}, **spec}})
        code, out = run(capsys, ["factor", "--spec", path])
        assert code == 0
        piece = cli.build_function_spec(
            "product", {"krein": {"arcs": [[0, 1]]}, **spec}).exp.pieces[0]
        assert piece == (-math.inf, -3.0, 0.5)

    def test_unread_arc_set_field_is_input_error(self, tmp_path, capsys):
        # a realizable pair's arc sets read only "arcs" and "full": a typo
        # was read as the empty set
        path = write_spec(tmp_path, "bad.json",
                          {"realizable": {"omega": {"arc": [[0, 1]]}, "o": {}}})
        assert main(["solve", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert "unknown omega fields: ['arc']" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, options, field, ends", [
        (["--grid=0:inf:3"], {}, "--grid", "0:inf"),
        (["--grid=nan:1:3"], {}, "--grid", "nan:1"),
        (["--grid=0:1e309:3"], {}, "--grid", "0:1e309"),
        (["--grid=-1e308:1e308:3"], {}, "--grid", "-1e308:1e308"),
        (["--grid=box:-1e309:1:0.5:1:2"], {}, "--grid", "-1e309:1:0.5:1"),
        (["--grid=box:-1:1:0.5:inf:2"], {}, "--grid", "-1:1:0.5:inf"),
        (["--grid=box:nan:1:0.5:1:2"], {}, "--grid", "nan:1:0.5:1"),
        ([], {"grid": "0:inf:3"}, "options.grid", "0:inf"),
        ([], {"grid": "box:-1:1e309:0.5:1:2"}, "options.grid", "-1:1e309:0.5:1"),
    ])
    def test_grid_end_not_finite_is_input_error(self, tmp_path, capsys, flags,
                                                options, field, ends):
        # a grid end past the float range, inf or nan, or a span past it,
        # wrote NaN rows with numpy warnings and exited 0
        path = write_spec(tmp_path, "k.json", {"krein": {"arcs": [[0, 1]]},
                                               "options": options})
        assert main(["eval", "--spec", path] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"{field}: a grid end or span in {ends} is not finite" in captured.err

    @pytest.mark.parametrize("flags, options, field, count", [
        (["--grid=0:1:2.5"], {}, "--grid", "'2.5'"),
        (["--grid=box:0:1:1:2:x"], {}, "--grid", "'x'"),
        (["--grid=0:1:-1"], {}, "--grid", "'-1'"),
        (["--grid=0:1:"], {}, "--grid", "''"),
        ([], {"grid": "box:0:1:1:2:1e3"}, "options.grid", "'1e3'"),
    ])
    def test_grid_count_not_an_integer_is_input_error(self, tmp_path, capsys, flags,
                                                      options, field, count):
        # int() said "invalid literal for int() with base 10" and numpy
        # "Number of samples, -1, must be non-negative", neither naming the field
        path = write_spec(tmp_path, "k.json", {"krein": {"arcs": [[0, 1]]},
                                               "options": options})
        assert main(["eval", "--spec", path] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"{field}: the point count {count} is not an integer >= 0" in captured.err

    @pytest.mark.parametrize("command", ["eval", "factor"])
    @pytest.mark.parametrize("krein, piece", [
        ({"arcs": [[0, 2]]}, [1, 3]),
        ({"arcs": [[0, 2]]}, [-1, 0.5]),
        ({"arcs": [["inf", 0]]}, ["-inf", -3]),
        ({"cantor": {"interval": [0, 1], "depth": 3}, "tol": 1e-2}, [0.5, 0.6]),
    ], ids=["over-right-end", "over-left-end", "inside-half-line", "over-cantor-base"])
    def test_product_piece_over_the_arcs_is_input_error(self, tmp_path, capsys,
                                                        command, krein, piece):
        # c·k_O·e^h with a 0 < ψ < 1 piece over O is not in the class: at
        # 1.5 + 1e-3i the first evaluated to 0.184 − 0.061i and exited 0
        path = write_spec(tmp_path, "f.json", {"product": {
            "krein": krein, "exp": {"psi": [{"interval": piece, "value": 0.9}]}}})
        assert main([command, "--spec", path]) == 2
        err = capsys.readouterr().err
        assert "exponent piece" in err and "overlaps the product set" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("psi", [1.0, 0.5])
    def test_piece_over_a_cantor_base_is_input_error(self, tmp_path, capsys, psi):
        # O is dense in the generator's base (0, 1): a ψ = 1 piece over it
        # joined O before the base was looked at, and exited 0 with the
        # interior row f(0.45 + i) = −0.849 − 0.256i, below the real axis
        path = write_spec(tmp_path, "f.json", {"product": {
            "krein": {"cantor": {"interval": [0, 1], "depth": 16}, "tol": 0.01},
            "exp": {"psi": [{"interval": [0.2, 0.5], "value": psi}]}}})
        assert main(["eval", "--spec", path, "--grid=box:0.45:0.45:1:1:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "exponent piece Arc(0.2, 0.5) overlaps the product set" in captured.err

    def test_product_piece_meeting_the_arcs_in_an_end_is_read(self, tmp_path, capsys):
        # a piece that shares an end with O, and a ψ = 0 piece over O, which
        # is the factor 1, stay in the class
        path = write_spec(tmp_path, "f.json", {"product": {
            "krein": {"arcs": [[0, 2]]},
            "exp": {"psi": [{"interval": [2, 3], "value": 0.9},
                            {"interval": [-1, 1], "value": 0.0}]}}})
        assert main(["eval", "--spec", path]) == 0
        assert main(["factor", "--spec", path]) == 0

    def test_disk_point_not_a_pair_is_input_error(self, tmp_path, capsys):
        # found by the fuzz below: a disk point that is no [re, im] pair
        path = write_spec(tmp_path, "bad.json", {"interp": {
            "zeros": [""], "alpha": [-1, 0], "beta": [1, 0], "zeta": [0, 1]}})
        assert main(["solve", "--spec", path]) == 2
        err = capsys.readouterr().err
        assert "zeros: '' is not a [re, im] pair" in err and "Traceback" not in err

    @pytest.mark.parametrize("depth", [40, -1, 2.7])
    def test_cantor_depth_out_of_range_is_input_error(self, tmp_path, capsys, depth):
        # refused before any atom is built: 2^40 atoms would not fit in memory
        path = write_spec(tmp_path, "bad.json", {"nevanlinna": {"alpha": 1.0,
                                                                "cantor_depth": depth}})
        start = time.perf_counter()
        assert main(["eval", "--spec", path]) == 2
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert f"cantor_depth must be an integer from 0 to 16, got {depth}" in err
        assert "Traceback" not in err

    # every list field, in the spec that holds it with the list in place of None
    _DISK = {"alpha": [-1, 0], "beta": [1, 0], "zeta": [0, 1]}
    _LIST_FIELDS = [
        ("eval", "krein.arcs", {"krein": {"arcs": None}}),
        ("eval", "product.krein.arcs", {"product": {"krein": {"arcs": None}}}),
        ("solve", "realizable.omega.arcs",
         {"realizable": {"omega": {"arcs": None}, "o": {"arcs": [[0, 1]]}}}),
        ("solve", "realizable.o.arcs",
         {"realizable": {"omega": {"arcs": [[2, 3]]}, "o": {"arcs": None}}}),
        ("eval", "nevanlinna.atoms", {"nevanlinna": {"alpha": 1, "atoms": None}}),
        ("eval", "nevanlinna.ac", {"nevanlinna": {"alpha": 1, "ac": None}}),
        ("eval", "product.exp.psi", {"product": {"krein": {"arcs": [[0, 1]]},
                                                 "exp": {"psi": None}}}),
        ("solve", "boole.atoms", {"boole": {"atoms": None}}),
        ("solve", "letac.atoms", {"letac": {"atoms": None, "interval": [0, 1]}}),
        ("solve", "interp.zeros", {"interp": {"zeros": None, "poles": [1]}}),
        ("solve", "interp.poles", {"interp": {"zeros": [1], "poles": None}}),
        ("solve", "interp.singular", {"interp": {"zeros": [1], "singular": None}}),
        ("solve", "interp.zeros", {"interp": {"zeros": None, **_DISK}}),
        ("solve", "interp.poles", {"interp": {"poles": None, **_DISK}}),
        ("solve", "interp.singular", {"interp": {"singular": None, **_DISK}}),
    ]

    @pytest.mark.parametrize("value", ["", {}, 3, "12"], ids=["string", "object", "number",
                                                            "digits"])
    @pytest.mark.parametrize("command, field, spec", _LIST_FIELDS,
                             ids=[field + ("-disk" if "zeta" in spec.get("interp", {}) else "")
                                  for _, field, spec in _LIST_FIELDS])
    def test_list_field_that_is_no_list_is_input_error(self, tmp_path, capsys, command,
                                                        field, spec, value):
        # "" and {} were read as the empty list and exited 0; 3 exited 2 with
        # "'int' object is not iterable", and "12" was read as its characters
        text = json.dumps(spec).replace("null", json.dumps(value))
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main([command, "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {field} must be a JSON list, got {value!r}\n"

    @pytest.mark.parametrize("spec, field", [
        ({"boole": {"y": [1]}}, "boole.atoms"),
        ({"letac": {"interval": [0, 1]}}, "letac.atoms"),
        ({"letac": {"atoms": [[0, 1]]}}, "letac.interval"),
        ({"interp": {"beta": [1, 0], "zeta": [0, 1]}}, "interp.alpha"),
        ({"interp": {"alpha": [-1, 0], "zeta": [0, 1]}}, "interp.beta"),
        ({"interp": {"alpha": [-1, 0], "beta": [1, 0]}}, "interp.zeta"),
        ({"realizable": {"o": {}}}, "realizable.omega"),
        ({"realizable": {"omega": {}}}, "realizable.o"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_missing_required_field_names_its_path(self, tmp_path, capsys, spec, field):
        # a KeyError named the key alone: "input error: 'atoms'"
        path = write_spec(tmp_path, "bad.json", spec)
        assert main(["solve", "--spec", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {field} is required\n"

    @pytest.mark.parametrize("command, spec, message", [
        ("eval", {"krein": {"cantor": {"interval": [1, 0]}}},
         "krein.cantor.interval: (1.0, 0.0) is no finite interval l < r"),
        ("eval", {"product": {"krein": {"cantor": {"interval": [0.5, 0.5]}}}},
         "product.krein.cantor.interval: (0.5, 0.5) is no finite interval l < r"),
        ("solve", {"letac": {"atoms": [[0, 1]], "interval": [1, 0]}},
         "letac.interval: (1.0, 0.0) is no finite interval l < r"),
        ("solve", {"letac": {"atoms": [[0, 1]], "interval": [2.5, 2.5]}},
         "letac.interval: (2.5, 2.5) is no finite interval l < r"),
    ], ids=["cantor-reversed", "cantor-point", "letac-reversed", "letac-point"])
    def test_interval_with_l_not_below_r_names_its_field(self, tmp_path, capsys, command,
                                                         spec, message):
        # "base must be a finite interval (l, r) with l < r" and "need c < d"
        # named no field; the objects' one interval rule now names it
        path = write_spec(tmp_path, "bad.json", spec)
        assert main([command, "--spec", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("command, text, message", [
        ("solve", '{"letac": {"atoms": [[0, 1]], "interval": [0, 1e309]}}',
         "letac.interval: (0.0, inf) is no finite interval l < r"),
        ("eval", '{"krein": {"cantor": {"interval": [0, 1e309]}}}',
         "krein.cantor.interval: (0.0, inf) is no finite interval l < r"),
    ], ids=["letac", "cantor"])
    def test_interval_past_the_floats_names_its_field(self, tmp_path, capsys, command,
                                                      text, message):
        # JSON reads 1e309 as inf: "the interval (0.0, inf) must be finite"
        # and "degenerate arc (inf, inf)" named no field
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main([command, "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"input error: {message}\n"

    _DENSITY = {"nevanlinna": {"ac": [{"interval": [0, 1], "density": 1}]}}

    @pytest.mark.parametrize("argv, spec, message", [
        (["factor"], {"nevanlinna": {"atoms": [[0.0, 0.0]]}},
         "nevanlinna: atom weight must be positive, got 0.0 at 0.0"),
        (["factor"], {"nevanlinna": {}}, "nevanlinna: analysis of the zero function is undefined"),
        (["factor"], {"krein": {"cantor": {"depth": 3}, "tol": 1e-2}},
         "krein: analysis of generator-backed products is out of scope"),
        (["eval"], {"krein": {"cantor": {"depth": 3}, "tol": -1.0}},
         "krein.tol: tol must be >= 0 and finite, got -1.0"),
        (["eval"], {"product": {"c": 0, "krein": {"arcs": [[0, 1]]}}},
         "product: composite constant must be positive and finite, got 0.0"),
        (["eval"], {"krein": {"arcs": [[1, 1]]}}, "krein.arcs entry 0: degenerate arc (1.0, 1.0)"),
        (["solve"], {"boole": {"atoms": [[0, 1], [0, 2]]}},
         "boole.atoms: atoms must sit at distinct points"),
        (["solve"], {"letac": {"atoms": [[0, 1]], "beta": math.nan, "interval": [0, 1]}},
         "letac.beta: alpha 1.0 and beta nan must be finite"),
        (["solve"], {"interp": {"zeros": [0], "poles": [0]}},
         "interp: zeros/poles sets are not disjoint at 0.0"),
        (["solve"], {"interp": {"alpha": [-1, 0], "beta": [1, 0], "zeta": [0, -1]}},
         "interp: cayley base point needs Im ζ > 0"),
        (["eval", "--grid", "0.5:0.5:1"], _DENSITY,
         "--grid: real evaluation at 0.5 inside the density support [0.0, 1.0]"),
        (["eval"], {**_DENSITY, "options": {"grid": "0:1:3"}},
         "options.grid: real evaluation at 0.0 inside the density support [0.0, 1.0]"),
    ], ids=["atom-weight", "zero-function", "generator-factor", "cantor-tol",
            "composite-constant", "degenerate-arc", "boole-atoms", "letac-beta",
            "interp-disjoint", "disk-zeta", "grid-flag-in-density", "grid-option-in-density"])
    def test_object_rule_names_the_field_it_read(self, tmp_path, capsys, argv, spec, message):
        # each object's own ValueError left main through a catch-all that
        # named no field ("atom weight must be positive, got 0.0 at 0.0")
        path = write_spec(tmp_path, "bad.json", spec)
        assert main(argv[:1] + ["--spec", path] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"input error: {message}")

    @pytest.mark.parametrize("flags, options, message", [
        (["--grid=0:1"], {}, "--grid: a grid needs a:b:n or box:re1:re2:im1:im2:n"),
        ([], {"grid": "box:0:1:2"}, "options.grid: a box grid needs box:re1:re2:im1:im2:n"),
        (["--grid=a:1:3"], {}, "--grid: could not convert string to float: 'a'"),
        (["--grid=0:1:" + "9" * 25], {}, "--grid: "),
    ], ids=["grid-form", "box-form", "grid-end", "grid-count-past-memory"])
    def test_grid_message_names_its_flag_or_field(self, tmp_path, capsys, flags, options,
                                                  message):
        path = write_spec(tmp_path, "k.json", {"krein": {"arcs": [[0, 1]]}, "options": options})
        assert main(["eval", "--spec", path] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"input error: {message}")

    @pytest.mark.parametrize("content", [None, "{", b"\xff\xfe",
                                         '{"krein": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}"],
                             ids=["missing", "not-json", "not-text", "nested-past-the-parser"])
    def test_unreadable_spec_names_the_flag(self, tmp_path, capsys, content):
        # a spec nested past the JSON parser's recursion raised RecursionError
        path = tmp_path / "spec.json"
        if content is not None:
            (path.write_bytes if isinstance(content, bytes) else path.write_text)(content)
        assert main(["eval", "--spec", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error: --spec: cannot read spec: ")

    @pytest.mark.parametrize("command, spec, kind", [
        ("eval", "boole_two_atoms.json", "function"),
        ("factor", "letac_single_atom.json", "function"),
        ("solve", "eval_shift.json", "problem"),
    ])
    def test_wrong_task_kind_names_the_command(self, capsys, command, spec, kind):
        task = next(iter(set(json.loads((_EXAMPLES / spec).read_text())) - {"version"}))
        assert main([command, "--spec", str(_EXAMPLES / spec)]) == 2
        assert capsys.readouterr().err == (
            f"input error: spec: {command} needs a {kind} spec, got '{task}'\n")

    def test_unwritable_out_is_input_error(self, tmp_path, capsys):
        # the report was written outside main's handlers: a traceback, exit 1
        out = tmp_path / "missing" / "report.json"
        argv = ["eval", "--spec", str(_EXAMPLES / "eval_shift.json"), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: --out: ")
        assert not out.parent.exists()

    def test_non_interlacing_disk_problem_is_certification_failure(self, tmp_path, capsys):
        # disk_interpolate raises its input rules and this verdict from one
        # call; only the rules are input errors
        spec = write_spec(tmp_path, "p.json", {"interp": {
            "zeros": [[1, 0], [-1, 0]], "alpha": [-1, 0], "beta": [1, 0], "zeta": [0, 1]}})
        assert main(["solve", "--spec", spec]) == 1
        assert capsys.readouterr().err.startswith("certification failure: interlacing violated")

    def test_program_fault_is_internal_error(self, capsys, monkeypatch):
        # main read any KeyError as an input error (exit 2); input errors
        # reach it as SpecError only, so this one is a fault of the program
        def fault(f):
            raise KeyError("gamma")

        monkeypatch.setattr(cli, "factorize", fault)
        assert main(["factor", "--spec", str(_EXAMPLES / "factor_atoms.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "internal error: KeyError: 'gamma'\n"


class TestProcess:
    def test_parser_shared_across_calls(self, tmp_path, capsys):
        # one parser serves every subcommand; each report matches the one a
        # freshly built parser gives
        fn = write_spec(tmp_path, "f.json", {"nevanlinna": {
            "alpha": 0.5, "beta": 0.2, "atoms": [[-1.0, 1.0], [2.0, 0.5]]}})
        boole = write_spec(tmp_path, "b.json", {"boole": {
            "atoms": [[-1.0, 1.0], [2.0, 0.5]], "y": [0.5, 2.0]}})
        calls = [["eval", "--spec", fn, "--grid=-2:2:5"],
                 ["solve", "--spec", boole],
                 ["factor", "--spec", fn],
                 ["eval", "--spec", fn, "--grid", "box:-1:1:0.5:1:2",
                  "--format", "csv"],
                 ["check", "--suite", "letac", "--seed", "3"],
                 ["solve", "--spec", boole]]
        shared = [run(capsys, argv) for argv in calls]
        assert cli._parser() is cli._parser()
        for argv, got in zip(calls, shared):
            cli._parser.cache_clear()
            assert run(capsys, argv) == got

    def test_import_leaves_scipy_out(self, tmp_path):
        # the child also runs one eval and one factor spec
        examples = os.path.join(os.path.dirname(os.path.dirname(__file__)), "cli_examples")
        report = str(tmp_path / "report.json")
        runs = [[cmd, "--spec", os.path.join(examples, name), "--out", report]
                for cmd, name in (("eval", "eval_cantor.json"), ("factor", "factor_atoms.json"))]
        code = ("import sys, halfplane, halfplane.cli; "
                f"assert [halfplane.cli.main(argv) for argv in {runs!r}] == [0, 0]; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=child_env()).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["eval", "--spec", str(_EXAMPLES / "eval_shift.json")],
        ["factor", "--spec", str(_EXAMPLES / "factor_atoms.json")],
        ["solve", "--spec", str(_EXAMPLES / "boole_two_atoms.json")],
        ["check", "--suite", "boole"],
    ], ids=lambda argv: argv[0])
    def test_timing_adds_only_timing_s(self, capsys, argv):
        # default reports carry no wall-clock time, so they stay deterministic
        plain = json.loads(run(capsys, argv)[1])
        code, out = run(capsys, argv + ["--timing"])
        timed = json.loads(out)
        assert code == 0 and "timing_s" not in plain
        assert timed.pop("timing_s") >= 0 and timed == plain


# -- fuzz ---------------------------------------------------------------------

# mostly values a spec may hold, sometimes values no field takes
_junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.floats(allow_nan=True, allow_infinity=True),
                  st.lists(st.integers(-3, 3), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
                  st.integers(-10 ** 30, 10 ** 30),
                  # past the float range, where float() raises OverflowError
                  st.integers(10 ** 309, 10 ** 400), st.integers(-10 ** 400, -10 ** 309))
_number = st.one_of(st.integers(-5, 5), st.floats(-5.0, 5.0), st.sampled_from(["inf", "-inf", "oo"]))
_value = st.one_of(_number, _number, _number, _junk)
_pair = st.one_of(st.lists(_value, min_size=2, max_size=2),
                  st.lists(_number, min_size=2, max_size=2), _junk)
# a list field also draws values that are no list
_pairs = st.one_of(st.lists(_pair, max_size=4), _junk)
_depth = st.one_of(st.integers(-2, 5), st.sampled_from([3.5, "2", True, None]))
_tol = st.one_of(st.sampled_from([1e-2, 1e-3]), st.sampled_from([-1.0, "x", None]))
_typo = st.dictionaries(st.sampled_from(["arcz", "atom", "pole", "x"]), _value, max_size=1)


def _body(required, optional):
    return st.builds(lambda body, extra: {**body, **extra},
                     st.fixed_dictionaries(required, optional=optional),
                     st.one_of(st.just({}), st.just({}), _typo))


# "full" takes a JSON boolean only
_full = st.one_of(st.booleans(), st.booleans(), _junk)
_arcset = st.one_of(_body({}, {"arcs": _pairs, "full": _full}), _junk)
_krein = st.one_of(
    _body({}, {"arcs": _pairs, "full": _full}),
    _body({"cantor": st.one_of(_body({}, {"interval": _pair, "depth": _depth}), _junk)},
          {"tol": _tol}))
_psi = st.one_of(st.lists(st.one_of(_body({}, {"interval": _pair, "value": _value}), _junk),
                          max_size=2), _junk)
_function = st.one_of(
    st.tuples(st.just("nevanlinna"), _body({}, {
        "alpha": _value, "beta": _value, "atoms": _pairs,
        "ac": st.one_of(st.lists(st.one_of(_body({}, {"interval": _pair, "density": _value}),
                                           _junk), max_size=2), _junk),
        "cantor_depth": _depth})),
    st.tuples(st.just("krein"), _krein),
    st.tuples(st.just("product"), _body({}, {
        "c": _value, "krein": st.one_of(_krein, _junk),
        "exp": st.one_of(_body({}, {"gamma": _value, "psi": _psi}), _junk)})))
_problem = st.one_of(
    st.tuples(st.just("interp"), _body({}, {
        "zeros": st.one_of(st.lists(_value, max_size=4), _junk),
        "poles": st.one_of(st.lists(_value, max_size=4), _junk),
        "singular": st.one_of(st.lists(_value, max_size=3), _junk)})),
    st.tuples(st.just("interp"), _body({"alpha": _pair, "beta": _pair, "zeta": _pair}, {
        "zeros": _pairs, "poles": _pairs, "singular": _pairs})),
    st.tuples(st.just("realizable"), _body({"omega": _arcset, "o": _arcset}, {})),
    st.tuples(st.just("boole"), _body({"atoms": _pairs}, {
        "y": st.one_of(_value, st.lists(_value, max_size=3))})),
    st.tuples(st.just("letac"), _body({"atoms": _pairs, "interval": _pair}, {"beta": _value})))
_options = st.one_of(st.just({}), _body({}, {
    "grid": st.sampled_from(["-2:2:5", "box:-1:1:0.5:1:2", "0:1", 5, "0:inf:3",
                             "nan:1:2", "-1e308:1e308:3", "box:-1e309:1:0.5:1:2",
                             "box:-1:1:0.5:inf:2", "0:1:2.5", "box:0:1:1:2:x",
                             "0:1:-1", "0:1:0"]),
    "eps": st.sampled_from([0, 1e-3, -1.0, "x"])}))


@st.composite
def _specs(draw):
    """(command, spec): a function spec under eval or factor, or a problem
    spec under solve."""
    task, body = draw(st.one_of(_function, _problem))
    command = ("solve" if task in cli.PROBLEM_TASKS
               else draw(st.sampled_from(["eval", "factor"])))
    spec = {task: body}
    options = draw(_options)
    if options or command == "eval":
        spec["options"] = options or {"grid": "-2:2:5"}
    return command, spec


# an input error's message begins with the path of the field it read (from
# the root "spec", a task, "options" or "version") or with a flag
_INPUT_ERROR = re.compile(r"input error: (--[a-z]+|(%s)\b)"
                          % "|".join(cli.FIELDS["spec"] + ("spec",)))


class TestFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_specs())
    # a ψ piece with l > r, once read as an arc through ∞, exited 1
    @example(("factor", {"product": {"krein": {"arcs": [[0, 1]]},
                                     "exp": {"psi": [{"interval": [2.0, 1.0], "value": 0.5}]}}}))
    def test_every_spec_exits_0_1_or_2(self, case):
        # malformed input exits 2 with a message naming its field and
        # certification failures exit 1; no spec ends in a traceback or in
        # an internal error (exit 3)
        command, spec = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.json")
            with open(path, "w") as fh:
                json.dump(spec, fh)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--spec", path])
        assert code in (0, 1, 2)
        if code == 2:
            assert _INPUT_ERROR.match(err.getvalue()), err.getvalue()
