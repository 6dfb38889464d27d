"""Steadiness check: two interleaved sets of runs of the same code.

    python3 perfbench/steady.py --pairs 10 [--workloads NAME ...]

Runs the benchmark command from ``BENCHMARK.json`` for ``run_seconds`` as
set A and set B, alternating A, B, A, B, ...; pair ``i`` (1, 2, ...) runs
seed ``i`` in set A and seed ``100 + i`` in set B, so the two sets differ
in their inputs as well as in the host's phases.  For every (workload,
end-to-end metric) it prints both medians, their quartiles, each set's
spread (quartile distance over the median), the shift of B's median from
A's (signed, positive when B is worse), and the bound.  A row passes when
the shift, in either direction, and both spreads stay within the bound.
It also checks that the share of failed operations is the same in both
sets, and prints the host reference loop of every run.  Run it from the
root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

SEED_OFFSET = {"A": 0, "B": 100}
HOST = re.compile(r"host reference loop: ([\d.]+) ms at start, ([\d.]+) ms")


def run_once(command: List[str], workload: str, seed: int, seconds: int,
             cwd: Path) -> dict:
    start = time.perf_counter()
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    host = HOST.search(completed.stdout)
    result["host_ms"] = (
        (float(host.group(1)), float(host.group(2))) if host else None
    )
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: List[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2 (quartiles need two values)")
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    runs: Dict[str, Dict[str, List[dict]]] = {
        w: {"A": [], "B": []} for w in workloads
    }
    for pair in range(args.pairs):
        for workload in workloads:
            for side in ("A", "B"):
                seed = pair + 1 + SEED_OFFSET[side]
                result = run_once(bench["command"], workload, seed, seconds,
                                  root)
                runs[workload][side].append(result)
                host = result["host_ms"]
                print(
                    f"pair {pair + 1:2d} {side} {workload:18s} seed {seed:3d} "
                    f"correct={result['correct']} failed={result['failed']}/"
                    f"{result['attempted']} host loop "
                    f"{host[0]:.1f}/{host[1]:.1f} ms, "
                    f"{result['wall_s']:.1f} s",
                    flush=True,
                )

    ok = True
    print()
    print(f"{'workload':18s} {'metric':15s} {'bound':>6s} "
          f"{'median A':>12s} {'q1..q3 A':>25s} {'spr A':>6s} "
          f"{'median B':>12s} {'q1..q3 B':>25s} {'spr B':>6s} "
          f"{'shift':>6s}  verdict")
    for workload in workloads:
        sets = runs[workload]
        for side in ("A", "B"):
            if not all(r["correct"] for r in sets[side]):
                ok = False
                print(f"{workload}: set {side} has an incorrect run")
        shares = {
            side: {r["failed"] / r["attempted"] for r in sets[side]}
            for side in ("A", "B")
        }
        if len(shares["A"] | shares["B"]) != 1:
            ok = False
            print(f"{workload}: failed shares differ: {shares}")
        for name in metrics:
            bound = metrics[name]["bound"]
            values = {
                side: [r["metrics"][name]["value"] for r in sets[side]]
                for side in ("A", "B")
            }
            medians = {s: statistics.median(v) for s, v in values.items()}
            spreads = {s: spread(v) for s, v in values.items()}
            quartiles = {
                s: statistics.quantiles(v, n=4) for s, v in values.items()
            }
            change = (medians["B"] - medians["A"]) / medians["A"]
            worse = change if metrics[name]["better"] == "lower" else -change
            row_ok = abs(worse) <= bound and max(spreads.values()) <= bound
            ok &= row_ok
            print(
                f"{workload:18s} {name:15s} {bound:6.2f} "
                f"{medians['A']:12.6g} "
                f"{quartiles['A'][0]:12.6g}..{quartiles['A'][2]:<12.6g} "
                f"{spreads['A']:6.3f} "
                f"{medians['B']:12.6g} "
                f"{quartiles['B'][0]:12.6g}..{quartiles['B'][2]:<12.6g} "
                f"{spreads['B']:6.3f} {worse:+6.3f}  "
                f"{'ok' if row_ok else 'OUT OF BOUND'}"
            )
    print()
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
