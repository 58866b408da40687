"""The benchmark's own answer checks, run as a test.

``perfbench/run.py --self-test`` checks one answer of every kind each
workload asks for against its reference, and that the checker rejects a
deliberately perturbed answer of each kind.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_self_test_passes_on_every_workload():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    verdicts = {line.split(":")[0]: line.rsplit("->", 1)[-1].strip()
                for line in run.stdout.splitlines() if "->" in line}
    assert verdicts == {"cantor-eval": "ok", "atomic-factor": "ok", "spec-mix": "ok"}
