import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

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

    def test_product_cantor_honours_tol(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "product": {"c": 2.0, "krein": {"cantor": {"interval": [0, 1]}}}})
        code, out = run(capsys, ["eval", "--spec", spec, "--tol", "1e-2",
                                 "--grid", "box:0:1:0.5:1:2"])
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

    def test_boole(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {
            "version": 1,
            "boole": {"atoms": [[-1.0, 1.0], [1.0, 1.0]], "y": [1.0, 3.0]}})
        code, out = run(capsys, ["solve", "--spec", spec])
        rep = json.loads(out)
        assert code == 0
        assert rep["certifications"][0]["plus"] == pytest.approx(2.0, abs=1e-8)

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


class TestErrors:
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
        # the child imports the same halfplane as this process
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "[]"
