"""The benchmark's own tests, at tiny size.

    python3 -m pytest -q perfbench/selftest.py

(The file name keeps it out of the repository's default test collection:
it forks client processes; it takes a few seconds.)
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.workloads import TaggingSpec

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

TINY = {
    "cempar-autotag": TaggingSpec(
        algorithm="cempar", users=6, docs_per_user=30, refine_every=4,
        min_autotags=50,
    ),
    "pace-churn-refine": TaggingSpec(
        algorithm="pace", churn="exponential", mean_session=120.0,
        mean_downtime=30.0, users=6, docs_per_user=30, refine_every=4,
        min_autotags=50,
    ),
}


@pytest.fixture(scope="module")
def reports():
    """Every workload at tiny size, untraced and traced (one round each)."""
    return {
        (name, trace): bench.run(name, seed=3, seconds=1, trace=trace,
                                 spec=TINY[name])
        for name in TINY
        for trace in (False, True)
    }


def test_tiny_workloads_pass_their_checks(reports):
    for (name, trace), report in reports.items():
        result = report["result"]
        assert report["errors"] == [], (name, trace, report["errors"])
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_workload_prints_exactly_the_declared_metrics(reports):
    declared = {
        False: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        True: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for (name, trace), report in reports.items():
        printed = {
            key: entry["unit"]
            for key, entry in report["result"]["metrics"].items()
        }
        assert printed == declared[trace], (name, trace)
        for key, entry in report["result"]["metrics"].items():
            assert entry["value"] > 0, (name, trace, key)


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(
        bench.WORKLOADS
    )
