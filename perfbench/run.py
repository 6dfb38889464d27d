"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cempar-autotag --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src``).
The run makes the workload's core rounds, then starts further whole rounds
(see ``perfbench/workloads.py``) while less than ``--seconds`` have
passed, shared between two client processes.  ``--trace 0`` prints the
end-to-end metrics;
``--trace 1`` runs every round twice, untraced and traced, and prints the
per-layer metrics and the tracing overhead instead.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.layers import PER_LAYER, layer_metrics  # noqa: E402
from perfbench.tracer import merge_snapshots  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    TaggingSpec, confusion, f1_of, tagging_client,
)

WORKLOADS = {
    # CEMPaR over Chord, no churn: AutoTag queries regional super-peers.
    # Every 8th AutoTagged document is corrected, so the refinement loop
    # rebuilds the cascade every 10 corrections.
    "cempar-autotag": TaggingSpec(
        algorithm="cempar", users=16, docs_per_user=30, refine_every=8,
        core_rounds=12,
    ),
    # PACE over Chord under exponential churn: a mean session of 120 s of
    # virtual time against a ~70 s training round, so peers leave during
    # retrains.  Every 8th AutoTagged document is corrected, so the
    # refinement loop retrains every 10 corrections.
    "pace-churn-refine": TaggingSpec(
        algorithm="pace", churn="exponential", mean_session=120.0,
        mean_downtime=30.0, users=16, docs_per_user=48, refine_every=8,
        core_rounds=16,
    ),
}

# Clients run side by side, each in its own process over its own
# systems: one per vCPU of the reference host.  The host's slow phases
# strike its two vCPUs independently, so two clients halve their weight
# in a run's medians.
CLIENTS = 2
P99_BLOCK = 1000

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_s": "s",
    "autotag_p50_ms": "ms",
    "autotag_p99_ms": "ms",
    "retrain_p50_s": "s",
    "bytes_per_peer": "B",
    "micro_f1": "ratio",
    "peak_rss_mb": "MiB",
}


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop (context, not a metric)."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p99_of_blocks_ms(clients: List[dict]) -> float:
    """AutoTag p99 in ms: the median, over blocks of consecutive rounds of
    one client with at least ``P99_BLOCK`` AutoTags each, of the block's
    p99.  Every block's p99 has ten or more samples beyond it; the median
    over blocks keeps one burst of host interference, which lands in one
    block, from setting the run's figure."""
    values = []
    for client in clients:
        blocks: List[List[float]] = []
        block: List[float] = []
        for _, r in client["rounds"]:
            block.extend(r.autotag_s)
            if len(block) >= P99_BLOCK:
                blocks.append(block)
                block = []
        if block:  # a short tail joins the block before it
            if blocks:
                blocks[-1].extend(block)
            else:
                blocks.append(block)
        values.extend(statistics.quantiles(b, n=100)[98] for b in blocks)
    return statistics.median(values) * 1e3


def run(workload: str, seed: int, seconds: float, trace: bool,
        spec: Optional[TaggingSpec] = None) -> dict:
    """Run ``workload`` (optionally with another ``spec``, e.g. a tiny one)
    and return its report; ``report["result"]`` is the JSON result."""
    spec = spec if spec is not None else WORKLOADS[workload]
    started = time.perf_counter()
    # One process per client; forked, so the program is imported once.  The
    # pool forks every client before it starts its manager thread, and this
    # process runs no other thread, so no lock is held across the fork.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=CLIENTS,
                             mp_context=context) as pool:
        futures = [
            pool.submit(tagging_client, spec, seed, client, CLIENTS, started,
                        seconds, trace)
            for client in range(CLIENTS)
        ]
        clients = [future.result() for future in futures]
    # Round order, so the core rounds come first.
    rounds = [r for _, r in sorted(
        (pair for c in clients for pair in c["rounds"]), key=lambda p: p[0]
    )]
    twins = [r for c in clients for r in c["twins"]]

    errors: List[str] = []
    failures: List[str] = []
    for r in rounds + twins:
        errors.extend(r.errors)
        failures.extend(r.failures)
        own = f1_of(*confusion(r.pairs))
        if abs(own - r.program_f1) > 1e-12:
            errors.append(
                f"program micro-F1 {r.program_f1!r} != recomputed {own!r}"
            )
    core = rounds[:spec.core_rounds]
    pairs = [pair for r in core for pair in r.pairs]
    micro_f1 = f1_of(*confusion(pairs))
    popularity = [sum(cells) for cells in zip(*(r.popularity for r in core))]
    baseline = f1_of(*popularity)
    if not micro_f1 > baseline:
        errors.append(
            f"micro-F1 {micro_f1:.4f} does not beat the most-popular-tags "
            f"guess ({baseline:.4f})"
        )

    if trace:
        snapshot = merge_snapshots([c["trace"] for c in clients])
        metrics = layer_metrics(
            snapshot, len(rounds), retrains=sum(r.retrains for r in rounds),
        )
        metrics["trace.overhead_ratio"] = sum(
            r.setup_s + r.train_s + r.run_s for r in rounds
        ) / sum(r.setup_s + r.train_s + r.run_s for r in twins)
        units = PER_LAYER
    else:
        latencies = sorted(s for r in rounds for s in r.autotag_s)
        metrics = {
            "setup_s": statistics.median(r.setup_s for r in rounds),
            "run_s": statistics.median(r.run_s for r in rounds),
            "train_s": statistics.median(r.train_s for r in rounds),
            "autotag_p50_ms": statistics.median(latencies) * 1e3,
            "autotag_p99_ms": p99_of_blocks_ms(clients),
            "bytes_per_peer":
                statistics.fmean(r.bytes_per_peer for r in core),
            "retrain_p50_s": statistics.median(
                s for r in rounds for s in r.retrain_s
            ),
            "micro_f1": micro_f1,
            "peak_rss_mb": self_peak_mb()
            + sum(c["rss_kb"] for c in clients) / 1024.0,
        }
        units = E2E_UNITS
    summary = (
        f"{len(rounds)} rounds, {sum(len(r.autotag_s) for r in rounds)} "
        f"AutoTags, {sum(len(r.retrain_s) for r in rounds)} retrains; "
        f"micro-F1 {micro_f1:.4f} vs most-popular guess {baseline:.4f}"
    )
    return finish(
        metrics, units, errors, failures, summary,
        attempted=sum(r.attempted for r in rounds + twins),
        failed=sum(r.failed for r in rounds + twins),
    )


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------


def finish(metrics: Dict[str, float], units: Dict[str, str],
           errors: List[str], failures: List[str], summary: str,
           attempted: int, failed: int) -> dict:
    return {
        "summary": summary,
        "errors": errors,
        "failures": failures,
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                key: {"value": value, "unit": units[key]}
                for key, value in metrics.items()
                if key in units
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro").is_dir():
        # Measure the checkout's own program, never an installed copy.
        parser.error(f"no program to measure: {ROOT / 'src' / 'repro'} "
                     "is missing (run from the root of a checkout)")

    host_start = host_reference_ms()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    host_end = host_reference_ms()

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}: {report['summary']}")
    print(f"host reference loop: {host_start:.2f} ms at start, "
          f"{host_end:.2f} ms at end (context, not a metric)")
    for key, entry in report["result"]["metrics"].items():
        print(f"  {key:32s} {entry['value']:>16.6g} {entry['unit']}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    for error in report["errors"]:
        print(f"CHECK: {error}", file=sys.stderr)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
