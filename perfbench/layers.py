"""Which program functions the traced run wraps, and the per-layer metrics
it derives from them.

Every span sits on a public function or method of one layer, wrapped from
here (the program itself carries no tracing).  Both workloads print every
metric below: where the two methods use different parts of a layer (the
kernel SVM for CEMPaR, the linear SVM and k-means for PACE; Chord lookups
for CEMPaR, Chord joins and leaves under PACE's churn), the metric covers
the layer's role (model fits, decision values, overlay operations), not
one class or method.  The end-to-end metric each one should move is
listed in README.md.

Units: ``*_calls`` and plain counts are per round (one system driven
through its held-out set); ``*_us`` is mean self time per call in
microseconds (per message for ``sim.transport.send_us``); ``*_s`` is self
seconds per round.
"""

from __future__ import annotations

from typing import Dict, Optional

from perfbench.tracer import Tracer

PER_LAYER = {
    "text.process_calls": "count",
    "text.process_us": "us",
    "ml.fit_calls": "count",
    "ml.fit_s": "s",
    "ml.calibration.fit_s": "s",
    "ml.decision_calls": "count",
    "ml.decision_us": "us",
    "ml.total_s": "s",
    "p2pclass.train_s": "s",
    "p2pclass.predict_us": "us",
    "overlay.ops": "count",
    "overlay.ops_s": "s",
    "core.metadata.assign_us": "us",
    "core.refinement.retrains": "count",
    "sim.engine.events": "count",
    "sim.engine.run_s": "s",
    "sim.transport.sends": "count",
    "sim.transport.send_us": "us",
    "trace.overhead_ratio": "ratio",
}


def install(tracer: Tracer) -> None:
    """Text, ML, classifier, overlay, metadata and kernel spans."""
    from repro.core.metadata import TagMetadataStore
    from repro.ml import calibration, kernel_svm, kmeans, linear_svm, lsh
    from repro.overlay.chord import ChordOverlay
    from repro.p2pclass import cempar, pace
    from repro.sim.engine import Simulator
    from repro.sim.transport import Transport
    from repro.text.vectorizer import PreprocessingPipeline

    tracer.span(PreprocessingPipeline, "process", "text.process")
    for learner in (kernel_svm.KernelSVM, linear_svm.LinearSVM, kmeans.KMeans):
        tracer.span(learner, "fit", "ml.fit")
    tracer.span(calibration.PlattCalibrator, "fit", "ml.calibration.fit")
    for model in (kernel_svm.KernelSVMModel, linear_svm.LinearSVMModel):
        tracer.span(model, "decision", "ml.decision")
    # PACE's nearest-neighbour index; counted in ml.total_s only, so its
    # time stays out of the kernel's and the classifier's self time.
    for operation in ("signature", "query"):
        tracer.span(lsh.RandomHyperplaneLSH, operation, "ml.lsh")
    for classifier in (cempar.CemparClassifier, pace.PaceClassifier):
        tracer.span(classifier, "train", "p2pclass.train")
        tracer.span(classifier, "predict_scores", "p2pclass.predict")
    for operation in ("route", "join", "leave"):
        tracer.span(ChordOverlay, operation, "overlay.op")
    tracer.span(TagMetadataStore, "assign_many", "core.metadata.assign")
    tracer.span(Simulator, "run", "sim.engine.run",
                lambda args, kwargs, result: [("sim.engine.events", result)])
    tracer.span(Transport, "send_message", "sim.transport.send",
                lambda args, kwargs, result: [("sim.transport.sends", 1)])
    tracer.span(Transport, "send_batch", "sim.transport.send",
                lambda args, kwargs, result: [("sim.transport.sends",
                                               len(args[1]))])
    tracer.span(Transport, "broadcast", "sim.transport.send",
                lambda args, kwargs, result: [("sim.transport.sends",
                                               len(result.targets))])


def _per_call_us(snapshot: Dict, span: str,
                 per: Optional[float] = None) -> float:
    calls = per if per is not None else snapshot["calls"].get(span, 0)
    return snapshot["self"].get(span, 0.0) / calls * 1e6 if calls else 0.0


def layer_metrics(snapshot: Dict, rounds: int,
                  retrains: int) -> Dict[str, float]:
    """Every per-layer figure but the tracing overhead."""
    calls = snapshot["calls"]
    counts = snapshot["counts"]
    own = snapshot["self"]
    return {
        "text.process_calls": calls.get("text.process", 0) / rounds,
        "text.process_us": _per_call_us(snapshot, "text.process"),
        "ml.fit_calls": calls.get("ml.fit", 0) / rounds,
        "ml.fit_s": own.get("ml.fit", 0.0) / rounds,
        "ml.calibration.fit_s": own.get("ml.calibration.fit", 0.0) / rounds,
        "ml.decision_calls": calls.get("ml.decision", 0) / rounds,
        "ml.decision_us": _per_call_us(snapshot, "ml.decision"),
        "ml.total_s": sum(
            seconds for span, seconds in own.items() if span.startswith("ml.")
        ) / rounds,
        "p2pclass.train_s": own.get("p2pclass.train", 0.0) / rounds,
        "p2pclass.predict_us": _per_call_us(snapshot, "p2pclass.predict"),
        "overlay.ops": calls.get("overlay.op", 0) / rounds,
        "overlay.ops_s": own.get("overlay.op", 0.0) / rounds,
        "core.metadata.assign_us":
            _per_call_us(snapshot, "core.metadata.assign"),
        "core.refinement.retrains": retrains / rounds,
        "sim.engine.events": counts.get("sim.engine.events", 0) / rounds,
        "sim.engine.run_s": own.get("sim.engine.run", 0.0) / rounds,
        "sim.transport.sends": counts.get("sim.transport.sends", 0) / rounds,
        "sim.transport.send_us": _per_call_us(
            snapshot, "sim.transport.send",
            per=counts.get("sim.transport.sends", 0),
        ),
    }
