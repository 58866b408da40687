"""Reports stay stable for an identical spec and seed.

Each case runs one CLI command in-process and compares its report with a
golden copy in ``tests/golden/``: exit codes, flags, strings, booleans and
list lengths exactly, numbers to 1e-13 relative plus 1e-15 absolute.  The
cases are every ``cli_examples/`` spec under its corpus command and the six
``check`` suites at seeds 0 and 7.

Regenerate the goldens (only for a deliberate, documented report change):

    PYTHONPATH=src python tests/test_report_stability.py --regen

Write each report's text to DIR, one file per case, for a byte-level
``diff -r`` of two trees' dumps, which the tolerance above would hide.  The
dump also runs each ``eval`` spec with ``--eps 0.01`` and the suites at seed
123:

    PYTHONPATH=src python tests/test_report_stability.py --dump DIR

Dump afresh and byte-compare every case with an earlier dump in DIR; the
cases that differ are listed, and any difference exits 1:

    PYTHONPATH=src python tests/test_report_stability.py --compare DIR
"""

import json
import math
import pathlib
import sys
import tempfile

import pytest

from halfplane.cli import SUITES, main

from conftest import command_for

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden"
EXAMPLES = sorted((HERE.parent / "cli_examples").glob("*.json"))
RTOL, ATOL = 1e-13, 1e-15


def _cases():
    cases = {}
    for path in EXAMPLES:
        cmd = command_for(path)
        cases[f"{cmd}_{path.stem}"] = [cmd, "--spec", f"cli_examples/{path.name}"]
    for suite in SUITES:
        for seed in (0, 7):
            cases[f"check_{suite}_seed{seed}"] = ["check", "--suite", suite,
                                                  "--seed", str(seed)]
    return cases


CASES = _cases()


def _dump_cases():
    cases = dict(CASES)
    for name, argv in CASES.items():
        if argv[0] == "eval":
            cases[f"{name}_eps0.01"] = argv + ["--eps", "0.01"]
    for suite in SUITES:
        cases[f"check_{suite}_seed123"] = ["check", "--suite", suite, "--seed", "123"]
    return cases


def _run(argv, tmp_dir):
    out = pathlib.Path(tmp_dir) / "report.json"
    args = [a if not a.startswith("cli_examples/") else str(HERE.parent / a)
            for a in argv]
    code = main(args + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return {"argv": argv, "code": code, "report": report}


def _compare(got, want, where="report"):
    """Every mismatch between two parsed reports, as readable lines."""
    if isinstance(want, bool) or isinstance(got, bool) or want is None or got is None:
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if isinstance(want, int) and isinstance(got, int):
            return [] if got == want else [f"{where}: {got} != {want}"]
        if math.isinf(want) or math.isinf(got):
            return [] if got == want else [f"{where}: {got!r} != {want!r}"]
        if abs(got - want) <= RTOL * abs(want) + ATOL:
            return []
        return [f"{where}: {got!r} != {want!r} (diff {abs(got - want):.3g})"]
    if type(got) is not type(want):
        return [f"{where}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, str):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _compare(g, w, f"{where}[{i}]")]
    if set(got) != set(want):
        return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
    return [m for k in sorted(want) for m in _compare(got[k], want[k], f"{where}.{k}")]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = _run(CASES[name], tmp_path)
    assert got["argv"] == want["argv"]
    assert got["code"] == want["code"]
    mismatches = _compare(got["report"], want["report"])
    assert not mismatches, "\n".join(mismatches[:20])


def test_every_case_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def test_compare_tolerances():
    assert not _compare({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-14, "x", True]})
    assert _compare({"a": 1.0 + 1e-12}, {"a": 1.0})
    assert _compare({"a": 1e-14}, {"a": 0.0})
    assert _compare([1.0], [1.0, 2.0])
    assert _compare({"f": "pole"}, {"f": "cont"})
    assert _compare(True, 1)
    assert not _compare(math.inf, math.inf)


def test_compare_lists_differing_dumps(tmp_path):
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir(), there.mkdir()
    for name, text in (("same", "exit 0\n{}"), ("moved", "exit 0\n1.0"), ("mine", "exit 2\n")):
        (here / f"{name}.json").write_text(text)
    (there / "same.json").write_text("exit 0\n{}")
    (there / "moved.json").write_text("exit 0\n1.0000000000000002")
    (there / "theirs.json").write_text("exit 1\n")
    assert _differing(here, there) == ["mine", "moved", "theirs"]
    assert _differing(here, here) == []


def _write_cases(target, regen=False, quiet=False):
    """Each case's golden (``regen``) or dump text, one file per case in target."""
    target.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        for name, argv in sorted((CASES if regen else _dump_cases()).items()):
            out.unlink(missing_ok=True)  # a case that writes none reads none
            got = _run(argv, tmp)
            if regen:
                text = json.dumps(got, indent=1, sort_keys=True) + "\n"
            else:
                text = f"exit {got['code']}\n" + (out.read_text() if out.exists() else "")
            (target / f"{name}.json").write_text(text)
            if not quiet:
                print(name)


def _differing(here, there):
    """The cases whose dump files differ byte for byte between two dump
    directories, or that only one of them holds."""
    names = {p.name for p in here.glob("*.json")} | {p.name for p in there.glob("*.json")}
    return sorted(n[:-len(".json")] for n in names
                  if not ((here / n).exists() and (there / n).exists()
                          and (here / n).read_bytes() == (there / n).read_bytes()))


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--regen"]:
        _write_cases(GOLDEN, regen=True)
    elif len(args) == 2 and args[0] == "--dump":
        _write_cases(pathlib.Path(args[1]))
    elif len(args) == 2 and args[0] == "--compare":
        with tempfile.TemporaryDirectory() as fresh:
            _write_cases(pathlib.Path(fresh), quiet=True)
            differ = _differing(pathlib.Path(fresh), pathlib.Path(args[1]))
        print("\n".join(differ + [f"{len(differ)} of {len(_dump_cases())} cases differ"]))
        sys.exit(1 if differ else 0)
    else:
        sys.exit("usage: test_report_stability.py --regen | --dump DIR | --compare DIR")
