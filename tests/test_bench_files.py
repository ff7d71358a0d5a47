"""Every checked-in ``BENCH_*.json`` agrees with its own raw runs.

A file holds, per workload, alternating pairs of raw ``perfbench/run.py``
result objects, one per side, and a summary of each metric on each side:
the median and quartiles (``statistics.quantiles``, inclusive method) over
that side's runs. Every run must be correct, and any failed op must be a
timeout that the file records for that side and workload."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_some_benchmark_evidence_is_checked_in():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_matches_its_raw_runs(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    sides = list(bench["sides"])
    assert len(sides) == 2
    for workload, record in bench["workloads"].items():
        pairs = record["pairs"]
        assert len(pairs) >= 10, workload
        assert {p["first"] for p in pairs} == set(sides), workload
        for side in sides:
            runs = [p[side] for p in pairs]
            timeouts = bench["timeouts"].get(side, {}).get(workload, 0)
            for run in runs:
                assert run["correct"] is True, (workload, side)
                assert run["failed"] in (0, timeouts), (workload, side)
            summary = record["summary"][side]
            assert set(summary) == set(runs[0]["metrics"]), (workload, side)
            for metric, claimed in summary.items():
                values = [run["metrics"][metric]["value"] for run in runs]
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
                assert math.isclose(claimed["median"], statistics.median(values)), (workload, side, metric)
                assert math.isclose(claimed["q1"], q1) and math.isclose(claimed["q3"], q3), (workload, side, metric)
                assert claimed["unit"] == runs[0]["metrics"][metric]["unit"], (workload, side, metric)
