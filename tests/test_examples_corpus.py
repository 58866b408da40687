"""Every shipped example spec must run clean: exit 0 and, where the report
carries certifications, every residual within its declared tolerance.  A
factorization whose spec has no generator and no density certifies its
posts by structure, never by a sample grid."""

import json
import pathlib

import pytest

from halfplane.cli import main

from conftest import command_for

CORPUS = sorted((pathlib.Path(__file__).parent.parent / "cli_examples").glob("*.json"))


def _keys(obj):
    # every key of a JSON value, at any depth
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _keys(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _keys(value)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_example_spec(path, capsys, tmp_path):
    out = tmp_path / "report.json"
    command = command_for(path)
    code = main([command, "--spec", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    for cert in report.get("certifications", []):
        assert cert["pass"], cert
        assert cert["residual"] <= cert["tolerance"], cert
    if command == "factor" and not {"cantor", "ac"} & set(_keys(json.loads(path.read_text()))):
        assert not any("not structurally checkable" in cert["note"]
                       for cert in report["certifications"]), report["certifications"]


def test_corpus_is_nonempty():
    assert len(CORPUS) >= 8
