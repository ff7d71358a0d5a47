"""The survey scripts under ``scripts/`` run to completion. The census's
whole output at its default ``--max-order 4`` is pinned, and so is the
structure class the survey finds for each fixture. The enumeration survey
runs both isomorphism searches over every pair of generated classes up to
order 12."""

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
    assert lines[lines.index("fixture structure classes:") + 1 :] == [
        "  ex3_1: order 4, isomorphic to 4",
        "  ex3_2: order 4, isomorphic to 2x2",
        "  ex3_3: order 6, isomorphic to 6",
        "  ex3_4: order 6, isomorphic to 2x3",
        "  ex3_5: order 6, isomorphic to 2x3",
        "  ex3_6: order 8, isomorphic to 8 (after misprint correction)",
        "  ex3_7: order 8, isomorphic to 2x4 (after misprint correction)",
    ]


def test_positive_implicative_census_runs():
    proc = run_script("positive_implicative_census.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "  n    bck   comm   impl  pos-impl  ext comm\n"
        "  2      1      1      1         1         0\n"
        "  3      5      3      1         3         0\n"
        "  4     67     19      4        22         0\n"
        "extension always: bck axioms hold, base is an ideal,\n"
        "positive implicativity preserved; commutativity generally lost\n"
    )
