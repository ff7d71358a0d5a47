"""The survey scripts under ``scripts/`` run to completion and reach their
closing lines. The enumeration survey runs both isomorphism searches over
every pair of generated classes up to order 12."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_enumeration_survey_runs():
    proc = run_script("enumeration_survey.py", "--max-order", "12")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "all classes pairwise non-isomorphic (as posets and as algebras)" in lines
    matches = lines[lines.index("fixture structure classes:") + 1 :]
    assert len(matches) == 7
    assert all(", isomorphic to " in line for line in matches), matches


def test_positive_implicative_census_runs():
    proc = run_script("positive_implicative_census.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "extension always: bck axioms hold, base is an ideal,",
        "positive implicativity preserved; commutativity generally lost",
    ]
