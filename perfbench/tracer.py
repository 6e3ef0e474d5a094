"""An in-memory span recorder that wraps the program's public calls.

The program is not instrumented: for the length of a traced run the
recorder replaces each target (a class method, or a module-level function
under every name it was imported as) with a wrapper that records one
span per call, then puts the originals back.

A span is a tuple ``(id, parent, request, name, start, end, phase)``.
``parent`` is the enclosing wrapped call on the same thread (0 at a
thread's top level), ``request`` the request the thread is working for
(0 outside requests), ``phase`` the workload phase the span ended in.
Spans stay in per-thread lists until the run ends.

Request ids cross the client/worker thread boundary through the request's
``Example``: a traced client hands the engine a private copy of the
example, registered under its request id, and any wrapped call that
receives that copy among its first arguments switches its thread to that
request.  The serving engine passes the example to ``result_cache_key``
first on every request, so a worker's spans are attributed from the
request's start.
"""

from __future__ import annotations

import copy
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

ID, PARENT, REQUEST, NAME, START, END, PHASE = range(7)


@dataclass(frozen=True)
class Target:
    """One wrapped call: ``module:Class.method`` or ``module:function``."""

    layer: str
    module: str
    name: str  # "Class.method" or "function"
    #: maps the call's return value to a counter name (or None to skip)
    outcome: Optional[Callable[[object], Optional[str]]] = None


def _execution_outcome(result) -> Optional[str]:
    ok = getattr(result, "ok", None)
    return None if ok is None else ("execution.ok" if ok else "execution.not_ok")


#: every call the traced run wraps, by layer
TARGETS: tuple[Target, ...] = (
    Target("datasets", "repro.datasets.build", "build_benchmark"),
    Target("core.preprocessing", "repro.core.preprocessing",
           "Preprocessor.preprocess_benchmark"),
    Target("core.pipeline", "repro.core.pipeline", "OpenSearchSQL.answer"),
    Target("core.extraction", "repro.core.extraction", "Extractor.run"),
    Target("core.fewshot", "repro.core.fewshot", "FewShotLibrary.search"),
    Target("core.generation", "repro.core.generation", "Generator.run"),
    Target("core.alignment", "repro.core.alignment", "apply_alignments"),
    Target("core.refinement", "repro.core.refinement", "Refiner.run"),
    Target("core.refinement", "repro.core.refinement", "vote"),
    Target("llm", "repro.llm.simulated", "SimulatedLLM.complete"),
    Target("llm", "repro.llm.base", "count_tokens"),
    Target("embedding", "repro.embedding.vectorizer", "HashingVectorizer.embed"),
    Target("embedding", "repro.embedding.vectorizer",
           "HashingVectorizer.embed_batch"),
    Target("embedding", "repro.embedding.index", "FlatIndex.search"),
    Target("embedding", "repro.embedding.index", "FlatIndex.add"),
    Target("sqlkit", "repro.sqlkit.parser", "parse_select"),
    Target("sqlkit", "repro.sqlkit.render", "render"),
    Target("sqlkit", "repro.sqlkit.tokenizer", "tokenize"),
    Target("execution", "repro.execution.executor", "SQLExecutor.execute",
           outcome=_execution_outcome),
    Target("caching", "repro.caching", "LRUCache.get"),
    Target("caching", "repro.caching", "LRUCache.put"),
    Target("caching", "repro.caching", "result_cache_key"),
    Target("serving", "repro.serving.engine", "ServingEngine.submit"),
    Target("serving.journal", "repro.serving.journal", "ServingJournal.accept"),
    Target("serving.journal", "repro.serving.journal", "ServingJournal.commit"),
    Target("livedata", "repro.livedata.mutations", "MutationDriver.mutate"),
    Target("livedata", "repro.serving.engine", "ServingEngine.invalidate_db"),
    Target("livedata", "repro.livedata.reindex", "ReindexWorker.reindex"),
)


class _ThreadState:
    __slots__ = ("stack", "spans", "counts", "request")

    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.request = 0


class SpanRecorder:
    """Collects spans from wrapped calls; use as a context manager."""

    def __init__(self, targets: Iterable[Target] = TARGETS):
        self.targets = tuple(targets)
        self.phase = "setup"
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        #: id(example copy) -> (request id, the copy, kept alive so ids stay unique)
        self._bound: dict[int, tuple[int, object]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def bind(self, request: int, example):
        """Start ``request`` on this thread; returns the private copy of
        ``example`` to hand to the program."""
        private = copy.copy(example)
        self._bound[id(private)] = (request, private)
        self._state().request = request
        return private

    def end_request(self) -> None:
        self._state().request = 0

    def wrap(self, name: str, fn: Callable, outcome=None) -> Callable:
        recorder = self
        clock = time.perf_counter
        bound = self._bound
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = recorder._state()
            for arg in args[:3]:
                binding = bound.get(id(arg))
                if binding is not None:
                    state.request = binding[0]
                    break
            span_id = next(ids)
            stack = state.stack
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                state.spans.append(
                    (span_id, parent, state.request, name, start, end, recorder.phase)
                )
            if outcome is not None:
                counter = outcome(result)
                if counter is not None:
                    state.counts[(recorder.phase, counter)] += 1
            return result

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Replace every target with its wrapper."""
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self.wrap(target.name, original, target.outcome))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(target.name, original, target.outcome)
            # A module-level function is patched under every name it was
            # imported as; calls through a module attribute at call time
            # (function-local imports) see the defining module's patch.
            self._patch(module, attr, original, wrapper)
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        loaded is not module and getattr(loaded, attr, None) is original:
                    self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------- results

    def spans(self) -> list[tuple]:
        with self._states_lock:
            return [span for state in self._states for span in state.spans]

    def counts(self) -> dict[tuple[str, str], int]:
        """(phase, counter) -> count, over every thread."""
        merged: dict[tuple[str, str], int] = defaultdict(int)
        with self._states_lock:
            for state in self._states:
                for key, value in state.counts.items():
                    merged[key] += value
        return dict(merged)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Iterable[tuple]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Children that overlap each other (or stick out of the parent) are
    counted once, and only inside the parent's interval.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT]:
            children[span[PARENT]].append((span[START], span[END]))
    result = {}
    for span in spans:
        start, end = span[START], span[END]
        kids = children.get(span[ID])
        result[span[ID]] = (end - start) - (covered(kids, start, end) if kids else 0.0)
    return result


def call_totals(spans: Iterable[tuple], selfs: dict[int, float],
                phases: set) -> dict[str, dict]:
    """Per call name: number of calls, total and self seconds of the spans
    that ended in one of ``phases``."""
    totals: dict[str, dict] = {}
    for span in spans:
        if span[PHASE] not in phases:
            continue
        entry = totals.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += selfs[span[ID]]
    return totals


def write_spans(path: Path, spans: list[tuple], selfs: dict[int, float]) -> None:
    """One JSON array per line: id, parent, request, name, start, end,
    phase, self seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span in spans:
            handle.write(json.dumps([*span, selfs[span[ID]]]) + "\n")
