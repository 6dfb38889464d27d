"""Per-layer spans recorded from the benchmark's own code.

A :class:`Tracer` replaces public functions and methods of the program's
layers with timing wrappers for the length of a traced round, then puts
the originals back.  Each wrapper records one span: its call count and its
*self* time (the span's duration minus the part its traced children
cover), so a layer's figure never includes the layers it calls into.  A span already open on the stack is not re-entered: nested
calls of the same span (``route_and_send`` -> ``send_message``) count and
time once, at the outermost call.

Only the thread that installed the wrappers is traced; other threads call
straight through.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: extra-count callback: (args, kwargs, result) -> iterable of (name, amount)
Extra = Callable[[tuple, dict, Any], List[Tuple[str, float]]]


class Tracer:
    """Span and counter accumulator around wrapped program functions."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[List[float]] = []  # [child seconds] per open span
        self._open: Counter = Counter()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._thread = threading.get_ident()

    # -- installation --------------------------------------------------------

    def span(
        self, owner: Any, attr: str, name: str, extra: Optional[Extra] = None
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is a class (the attribute must be defined on it, not
        inherited) or a module (patch the name the caller looks up).
        """
        original = self._original(owner, attr)
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if (
                tracer._open[name]
                or threading.get_ident() != tracer._thread
            ):
                return original(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            tracer._open[name] += 1
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf() - start
                tracer._open[name] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer.calls[name] += 1
                tracer.self_time[name] += elapsed - frame[0]
            if extra is not None:
                for key, amount in extra(args, kwargs, result):
                    tracer.counts[key] += amount
            return result

        self._patch(owner, attr, wrapper)

    @staticmethod
    def _original(owner: Any, attr: str) -> Any:
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__qualname__}.{attr} is not defined on the class"
                )
            return owner.__dict__[attr]
        return getattr(owner, attr)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, self._original(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict copy (picklable: clients return it in their result)."""
        return {
            "calls": dict(self.calls),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }


def merge_snapshots(snapshots: List[Dict[str, Dict[str, float]]]) -> Dict:
    """Sum several snapshots family by family."""
    merged: Dict[str, Counter] = {
        "calls": Counter(), "self": Counter(), "counts": Counter(),
    }
    for snapshot in snapshots:
        for family, values in snapshot.items():
            merged[family].update(values)
    return {family: dict(values) for family, values in merged.items()}
