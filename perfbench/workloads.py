"""The benchmark's workloads: inputs, one round of each, and its checks.

A *round* is the unit a run repeats.  Every round draws fresh inputs from
``(seed, round index)``, so a run covers several independent inputs.  The
first ``core_rounds`` rounds always run; the deterministic figures
(micro-F1, bytes per peer) are pooled over them alone, so they depend on
the seed and nothing else.

A round generates a Delicious-like corpus, builds a
:class:`P2PDocTaggerSystem` over it (set-up), trains it once, then drives
every held-out document through AutoTag from its owner's peer, one at a
time (a closed loop with one client).  Every ``refine_every``-th document
is then corrected to its true tags, so the refinement loop retrains every
ten corrections while AutoTags continue.  A run's rounds are shared
between clients in separate processes (:func:`tagging_client`), each
driving its own systems.

The checks here use only the inputs and the benchmark's own arithmetic:
micro-F1 from the (true, assigned) tag sets and the most-popular-tags
guess from the training split.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from perfbench.tracer import Tracer

# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------


def round_seed(seed: int, index: int) -> int:
    """Seed of round ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


@dataclass(frozen=True)
class TaggingSpec:
    """Corpus and system shape of a tagging workload."""

    algorithm: str
    churn: str = "none"
    users: int = 16
    docs_per_user: int = 30
    tags: int = 8
    mean_session: float = 600.0
    mean_downtime: float = 60.0
    #: correct every n-th held-out document to its true tags (0 = never)
    refine_every: int = 0
    #: rounds every run makes, whatever --seconds says
    core_rounds: int = 1
    #: fewest AutoTags a run makes, so p99 has ten samples beyond it
    min_autotags: int = 1000


# --------------------------------------------------------------------------
# Tagging round
# --------------------------------------------------------------------------


def confusion(pairs) -> Tuple[int, int, int]:
    """Pooled (TP, FP, FN) over (true, assigned) tag-set pairs."""
    tp = fp = fn = 0
    for true, assigned in pairs:
        tp += len(true & assigned)
        fp += len(assigned - true)
        fn += len(true - assigned)
    return tp, fp, fn


def f1_of(tp: int, fp: int, fn: int) -> float:
    denominator = 2 * tp + fp + fn
    return 2 * tp / denominator if denominator else 0.0


def popularity_guess(train_tags: List[FrozenSet[str]],
                     true_sets: List[FrozenSet[str]]) -> Tuple[int, int, int]:
    """Confusion of the best "assign the k most popular training tags to
    every document" guess, k chosen with hindsight on the held-out set."""
    counts: Counter = Counter()
    for tags in train_tags:
        counts.update(tags)
    ranked = [tag for tag, _ in sorted(counts.items(),
                                        key=lambda kv: (-kv[1], kv[0]))]
    best = None
    for k in range(1, len(ranked) + 1):
        guess = frozenset(ranked[:k])
        cells = confusion((true, guess) for true in true_sets)
        if best is None or f1_of(*cells) > f1_of(*best):
            best = cells
    return best


@dataclass
class TaggingRound:
    setup_s: float
    train_s: float
    run_s: float
    autotag_s: List[float]
    retrain_s: List[float]
    pairs: List[Tuple[FrozenSet[str], FrozenSet[str]]]
    popularity: Tuple[int, int, int]
    bytes_per_peer: float
    program_f1: float
    attempted: int
    failed: int
    retrains: int
    leaves: int
    #: outputs that contradict a check (the run is not correct)
    errors: List[str] = field(default_factory=list)
    #: operations that raised (counted in ``failed``)
    failures: List[str] = field(default_factory=list)


def tagging_round(spec: TaggingSpec, seed: int) -> TaggingRound:
    """Build, train and drive one system over a fresh corpus."""
    from repro.bench.harness import standard_corpus
    from repro.core.tagger import P2PDocTaggerSystem, SystemConfig
    from repro.ml.metrics import micro_f1

    corpus = standard_corpus(
        num_users=spec.users, seed=seed, num_tags=spec.tags,
        docs_per_user=spec.docs_per_user,
    )
    # Collect the previous round's garbage now, not inside this round's
    # timed phases.
    gc.collect()
    config = SystemConfig(
        algorithm=spec.algorithm,
        overlay="chord",
        churn=spec.churn,
        mean_session=spec.mean_session,
        mean_downtime=spec.mean_downtime,
        seed=seed,
    )
    perf = time.perf_counter
    start = perf()
    system = P2PDocTaggerSystem(corpus, config)
    setup_s = perf() - start
    start = perf()
    system.train()
    train_s = perf() - start

    universe = frozenset(system.corpus.tag_universe())
    documents = system.test_corpus.documents
    queries = [document.untagged() for document in documents]
    peers = [system.peer_of(document) for document in documents]
    autotag_s: List[float] = []
    retrain_s: List[float] = []
    pairs = []
    errors: List[str] = []
    failures: List[str] = []
    checked = []
    refined = []
    failed = attempted = 0
    run_start = perf()
    for index, (document, query, peer) in enumerate(
        zip(documents, queries, peers)
    ):
        attempted += 1
        start = perf()
        try:
            assigned = peer.auto_tag(query)
        except Exception as exc:  # counted, not fatal: a failed operation
            failed += 1
            failures.append(f"auto_tag({document.doc_id}) raised {exc!r}")
            continue
        autotag_s.append(perf() - start)
        pairs.append((document.tags, assigned))
        records = None
        if spec.refine_every and index % spec.refine_every == 0:
            # The AutoTag scores, kept before the correction replaces them.
            records = peer.store.records_of(document.doc_id)
            attempted += 1
            start = perf()
            try:
                fired = peer.refine(document, sorted(document.tags))
            except Exception as exc:
                failed += 1
                failures.append(f"refine({document.doc_id}) raised {exc!r}")
                continue
            if fired:
                retrain_s.append(perf() - start)
            refined.append((peer, document))
        checked.append((document, peer, assigned, records))
    run_s = perf() - run_start

    # -- checks (outside the timed phase) -----------------------------------
    for document, peer, assigned, records in checked:
        if records is None:
            records = peer.store.records_of(document.doc_id)
        if not assigned or not assigned <= universe:
            errors.append(
                f"doc {document.doc_id}: AutoTag returned {sorted(assigned)}, "
                "not a non-empty subset of the tag universe"
            )
        if {record.tag for record in records} != assigned:
            errors.append(
                f"doc {document.doc_id}: stored AutoTag tags differ from "
                "the returned ones"
            )
        for record in records:
            if not 0.0 <= record.confidence <= 1.0:
                errors.append(
                    f"doc {document.doc_id}: score {record.confidence} for "
                    f"{record.tag!r} outside [0, 1]"
                )
    for peer, document in refined:
        stored = peer.store.tags_of(document.doc_id)
        if stored != document.tags:
            errors.append(
                f"doc {document.doc_id}: stored tags {sorted(stored)} after "
                f"refinement, corrected to {sorted(document.tags)}"
            )
    retrains = system.refinement.retrain_count
    if spec.refine_every and retrains != len(refined) // 10:
        errors.append(
            f"{retrains} retrains for {len(refined)} refinements "
            f"(expected {len(refined) // 10})"
        )
    leaves = system.scenario.churn_driver.leave_count
    if spec.churn != "none" and leaves <= 0:
        errors.append("churn made no peer leave")

    true_sets = [true for true, _ in pairs]
    assigned_sets = [assigned for _, assigned in pairs]
    program_f1 = micro_f1(true_sets, assigned_sets, tags=sorted(universe))
    popularity = popularity_guess(
        [document.tags for document in system.train_corpus], true_sets
    )
    return TaggingRound(
        setup_s=setup_s,
        train_s=train_s,
        run_s=run_s,
        autotag_s=autotag_s,
        retrain_s=retrain_s,
        pairs=pairs,
        popularity=popularity,
        bytes_per_peer=system.scenario.stats.total_bytes / len(system.peers),
        program_f1=program_f1,
        attempted=attempted,
        failed=failed,
        retrains=retrains,
        leaves=leaves,
        errors=errors,
        failures=failures,
    )


def twin_pair(index: int, plain, traced):
    """Run one input untraced and traced, alternating which goes first so
    neither side of the overhead ratio always runs warm."""
    if index % 2:
        traced_result = traced()
        return plain(), traced_result
    plain_result = plain()
    return plain_result, traced()


def tagging_client(spec: TaggingSpec, seed: int, client: int, clients: int,
                   started: float, seconds: float, trace: bool) -> dict:
    """One closed-loop client of a run: rounds ``client``, ``client +
    clients``, ... while the run has core rounds left or less than
    ``seconds`` have passed since ``started`` (a ``perf_counter`` reading,
    which forked clients share).  Runs in its own forked process; with
    ``trace`` every round also runs traced, and the spans come back in the
    result."""
    inherited_kb = resident_kb()
    tracer = Tracer() if trace else None
    rounds: List[Tuple[int, TaggingRound]] = []
    twins: List[TaggingRound] = []
    autotags = 0
    index = client
    while (
        index < spec.core_rounds
        or time.perf_counter() - started < seconds
        or autotags * clients < spec.min_autotags
    ):
        seed_i = round_seed(seed, index)
        if trace:
            def traced():
                from perfbench.layers import install

                install(tracer)
                try:
                    return tagging_round(spec, seed_i)
                finally:
                    tracer.uninstall()

            twin, result = twin_pair(
                index, lambda: tagging_round(spec, seed_i), traced
            )
            twins.append(twin)
        else:
            result = tagging_round(spec, seed_i)
        rounds.append((index, result))
        autotags += len(result.autotag_s)
        index += clients
    return {
        "rounds": rounds,
        "twins": twins,
        "trace": tracer.snapshot() if tracer is not None else None,
        # A forked client starts with the parent's resident pages, which
        # the parent's own peak already counts.
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        - inherited_kb,
    }


def resident_kb() -> int:
    """The process's resident memory now, in KiB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024
