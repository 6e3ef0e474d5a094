"""The benchmark workloads and the closed-loop clients that drive them.

Every workload serves the BIRD-like suite (default seed) through the
threaded ``ServingEngine`` with the paper's default ``PipelineConfig``
(21 candidates) and a ``ServingJournal`` in a temporary directory.  The
workload seed only chooses inputs: question order and Zipf draws.
``make_inputs`` is the one place that turns a seed into requests; the
program receives only the generated ``Example``s.

Metrics fall in two groups:

* timings (rps, latency) come from the timed window, which lasts
  ``--seconds`` or until the stream runs out;
* accounting (EX, tokens, virtual model seconds) covers a fixed prefix
  of the run's requests, so it does not move with speed.  Whatever part
  of the prefix the window did not reach is served after it, untimed.
"""

from __future__ import annotations

import itertools
import tempfile
import threading
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import OpenSearchSQL, PipelineConfig, SimulatedLLM, build_bird_like
from repro.caching import normalize_question
from repro.cli import _select_pool
from repro.datasets.types import Example
from repro.evaluation import execution_accuracy, score_example
from repro.execution import SQLExecutor
from repro.livedata import EpochRegistry, MutationDriver, ReindexWorker
from repro.serving import ServingEngine, ServingJournal, zipf_weights

WORKLOADS = ("cold_unique", "warm_zipf")

#: distinct questions in the warm_zipf pool (< the 512-entry result cache,
#: so a filled pool never evicts)
POOL_SIZE = 100
ZIPF_SKEW = 1.2
#: cold_unique warms lazy set-up with train questions, which are not in
#: the dev/test stream
COLD_WARMUP = 8
#: cold_unique passes generated per run, each a fresh order of every dev
#: and test question; far more than any window serves
COLD_PASSES = 20
#: warm_zipf draws generated per run; far more than any window serves
ZIPF_STREAM = 600_000
#: warm_zipf stream requests the accounting metrics cover, after the fill
ACCOUNTED_STREAM = 900
#: The catch-up probe's mutation schedule is the same in every run:
#: mutations visit the databases in sorted order, one per mutation, with
#: kinds drawn by a MutationDriver of this seed.  Reindex work differs
#: several-fold between databases, and a seeded schedule would move the
#: per-mutation figures with the seed.
MUTATION_SEED = 0
#: passes over all databases in the traced run's catch-up probe
PROBE_CYCLES = 2
#: client threads and engine workers (at most two each)
CLIENTS = 2
WORKERS = 2
CLIENT_JOIN_TIMEOUT_S = 150.0


# ------------------------------------------------------------------ inputs


@dataclass(frozen=True)
class Inputs:
    """The requests one run serves, in order."""

    #: served first, untimed; counted in the accounting only when
    #: ``warmup_accounted`` (the warm_zipf pool fill)
    warmup: tuple[Example, ...]
    warmup_accounted: bool
    #: the timed window takes requests from the front of this stream
    stream: tuple[Example, ...]
    #: the stream is served in passes of this length; every cache tier is
    #: dropped between passes, so each pass starts cold
    pass_length: int
    #: stream prefix the accounting covers (served after the window if
    #: the window stopped short of it)
    accounted_stream: int

    def fingerprint(self) -> bytes:
        """Canonical bytes of the generated inputs (for determinism tests)."""
        parts = [
            ",".join(e.question_id for e in self.warmup),
            str(self.warmup_accounted),
            ",".join(e.question_id for e in self.stream),
            str(self.pass_length),
            str(self.accounted_stream),
        ]
        return "\n".join(parts).encode()


def make_inputs(workload: str, seed: int, benchmark) -> Inputs:
    """The requests for ``workload`` under ``seed``; a pure function of both
    and of the benchmark's splits."""
    rng = np.random.default_rng(seed)
    if workload == "cold_unique":
        questions = list(benchmark.dev) + list(benchmark.test)
        warm = rng.choice(len(benchmark.train), size=COLD_WARMUP, replace=False)
        passes = [rng.permutation(len(questions)) for _ in range(COLD_PASSES)]
        return Inputs(
            warmup=tuple(benchmark.train[int(i)] for i in warm),
            warmup_accounted=False,
            stream=tuple(questions[int(i)] for order in passes for i in order),
            pass_length=len(questions),
            accounted_stream=len(questions),
        )
    if workload == "warm_zipf":
        pool = _select_pool(benchmark.dev, POOL_SIZE, "spread")
        fill = [pool[int(i)] for i in rng.permutation(len(pool))]
        # Popularity rank follows the pool order, so the hot questions are
        # the same under every seed; the seed draws the request sequence.
        # (zipf_workload would also shuffle the ranks, and then a few hot
        # questions decide EX, tokens and misses of a whole run.)
        picks = rng.choice(
            len(pool), size=ZIPF_STREAM, p=zipf_weights(len(pool), ZIPF_SKEW)
        )
        stream = [pool[int(i)] for i in picks]
        return Inputs(
            warmup=tuple(fill),
            warmup_accounted=True,
            stream=tuple(stream),
            pass_length=len(stream),
            accounted_stream=ACCOUNTED_STREAM,
        )
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ------------------------------------------------------------------- setup


@dataclass
class Stack:
    """One set-up system: suite, pipeline, journal and engine."""

    benchmark: object
    pipeline: OpenSearchSQL
    journal: ServingJournal
    engine: ServingEngine
    tmp: tempfile.TemporaryDirectory

    @property
    def reindex_checkpoint(self) -> Path:
        return Path(self.tmp.name) / "reindex.jsonl"

    def close(self) -> None:
        self.engine.shutdown()
        self.journal.close()
        self.tmp.cleanup()


def build_stack(workload: str, scratch: Path) -> Stack:
    """Build the suite, preprocess it and start the engine (the set-up
    every restart pays)."""
    benchmark = build_bird_like()
    pipeline = OpenSearchSQL(benchmark, SimulatedLLM(), PipelineConfig())
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.TemporaryDirectory(prefix="journal-", dir=scratch)
    journal = ServingJournal(Path(tmp.name) / "journal.jsonl")
    journal.write_header({"benchmark": "bird", "workload": workload})
    engine = ServingEngine(pipeline, workers=WORKERS, journal=journal)
    return Stack(benchmark, pipeline, journal, engine, tmp)


# ----------------------------------------------------------------- serving


@dataclass
class Served:
    """One request as the client saw it."""

    index: int  # position in the phase's request list
    example: Example
    result: object  # PipelineResult, or None when the request failed
    latency_s: float
    error: Optional[str] = None


@dataclass
class Phase:
    """What one phase served.

    Only requests at an index below the phase's ``keep`` are kept whole:
    the ones the accounting scores.  Of every other request the phase
    keeps its latency and the counts the checks need, so the benchmark's
    own memory does not grow with the program's speed (``peak_rss_mb``).
    """

    name: str
    kept: list[Served] = field(default_factory=list)
    #: seconds, one per completed request
    latencies: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    #: answers that belong to another question / to a same-text twin
    foreign_answers: int = 0
    twin_answers: int = 0
    #: warm_zipf answers that differ from the fill's answer
    fill_mismatches: int = 0
    elapsed_s: float = 0.0

    def merge(self, other: "Phase") -> None:
        self.kept += other.kept
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.foreign_answers += other.foreign_answers
        self.twin_answers += other.twin_answers
        self.fill_mismatches += other.fill_mismatches

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "elapsed_s": round(self.elapsed_s, 6)}


class AnswerChecker:
    """Checks each answer as it arrives.

    An answer belongs to the request's question, to a twin (same database
    and normalized text, another question id) or to neither (foreign).
    The result cache keys on (database, normalized question text), so a
    twin's answer is served by design, even when the twins' evidence and
    gold SQL differ; ``ex_pct`` then counts it wrong.  Once ``fill`` maps
    question ids to the fill's SQL, every answer is also compared with it.
    """

    def __init__(self, benchmark):
        self._keys = {
            e.question_id: (e.db_id, normalize_question(e.question))
            for split in (benchmark.train, benchmark.dev, benchmark.test) for e in split
        }
        self.fill: Optional[dict[str, Optional[str]]] = None

    def record(self, phase: Phase, served: Served, keep: int) -> None:
        phase.attempted += 1
        result = served.result
        if served.index < keep:
            phase.kept.append(served)
        if result is None:
            phase.failed += 1
        else:
            phase.latencies.append(served.latency_s)
            if result.question_id != served.example.question_id:
                origin = self._keys.get(result.question_id)
                if origin is not None and origin == self._keys[served.example.question_id]:
                    phase.twin_answers += 1
                else:
                    phase.foreign_answers += 1
        if self.fill is not None:
            sql = final_sql(served)
            if sql is None or sql != self.fill.get(served.example.question_id):
                phase.fill_mismatches += 1


class Client:
    """Sends one request and waits for its answer (a closed-loop caller)."""

    def __init__(self, engine: ServingEngine, recorder=None):
        self.engine = engine
        self.recorder = recorder
        self.request_ids = itertools.count(1)

    def send(self, index: int, example: Example) -> Served:
        sent = example
        if self.recorder is not None:
            sent = self.recorder.bind(next(self.request_ids), example)
        start = time.perf_counter()
        try:
            result = self.engine.submit(sent, block=True).result()
            error = None
        except Exception as exc:  # a failed request is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        if self.recorder is not None:
            self.recorder.end_request()
        return Served(index, example, result, latency, error)


def serve_closed_loop(
    name: str,
    client: Client,
    requests: Sequence[Example],
    checker: AnswerChecker,
    keep: int,
    deadline: Optional[float] = None,
    indices: Optional[Sequence[int]] = None,
    clients: int = CLIENTS,
) -> Phase:
    """Serve ``requests`` (or only those at ``indices``) in order from
    ``clients`` threads; each thread waits for its answer before taking
    the next request.  No request is taken after ``deadline``.  Requests
    at an index below ``keep`` are kept whole."""
    order = list(range(len(requests))) if indices is None else list(indices)
    cursor = itertools.count()
    parts: list[Phase] = []

    def loop() -> None:
        mine = Phase(name)
        parts.append(mine)
        while True:
            position = next(cursor)
            if position >= len(order):
                return
            if deadline is not None and time.perf_counter() >= deadline:
                return
            index = order[position]
            checker.record(mine, client.send(index, requests[index]), keep)

    phase = Phase(name)
    threads = [threading.Thread(target=loop, daemon=True) for _ in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CLIENT_JOIN_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError(f"{name}: a client did not finish")
    phase.elapsed_s = time.perf_counter() - start
    for part in parts:
        phase.merge(part)
    phase.kept.sort(key=lambda s: s.index)
    return phase


def serve_window(stack: Stack, client: Client, inputs: Inputs, seconds: float,
                 checker: AnswerChecker, keep: int) -> Phase:
    """The timed window: the stream's passes in order until ``seconds``
    have passed or the stream runs out.  Dropping the caches between
    passes is part of the timed work."""
    window = Phase("window")
    start = time.perf_counter()
    deadline = start + seconds
    for first in range(0, len(inputs.stream), inputs.pass_length):
        if time.perf_counter() >= deadline:
            break
        if first:
            for db_id in stack.benchmark.databases:
                stack.engine.invalidate_db(db_id)
        last = min(first + inputs.pass_length, len(inputs.stream))
        window.merge(serve_closed_loop(
            "window", client, inputs.stream, checker, keep,
            deadline=deadline, indices=range(first, last),
        ))
    window.elapsed_s = time.perf_counter() - start
    return window


# ----------------------------------------------------------------- scoring


class Scorer:
    """Scores served SQL against gold with the ``repro.evaluation`` scorer,
    one executor per database."""

    def __init__(self, benchmark):
        self.benchmark = benchmark
        self._executors: dict[str, SQLExecutor] = {}

    def _executor(self, db_id: str) -> SQLExecutor:
        if db_id not in self._executors:
            self._executors[db_id] = SQLExecutor(self.benchmark.database(db_id).connection)
        return self._executors[db_id]

    def score(self, example: Example, sql: Optional[str]):
        return score_example(example, sql, self._executor(example.db_id))


@dataclass
class Accounting:
    """EX over the distinct answers, and tokens and model seconds per
    request, over the accounted requests.

    An answer counts once for EX however often it is served, so the Zipf
    head does not decide ``ex_pct``.
    """

    requests: int = 0
    scores: list = field(default_factory=list)  # one per distinct answer
    tokens: int = 0
    model_seconds: float = 0.0
    billed: int = 0  # requests the pipeline answered (cache misses)
    _answers: set = field(default_factory=set)
    _seen: set = field(default_factory=set)  # id() of results already billed
    _keep: list = field(default_factory=list)  # keeps those ids from reuse

    def add(self, served: Served, scorer: Scorer) -> None:
        self.requests += 1
        sql = final_sql(served)
        key = (served.example.question_id, sql)
        if key not in self._answers:
            self._answers.add(key)
            self.scores.append(scorer.score(served.example, sql))
        result = served.result
        # A result-cache hit hands back the stored result object: only the
        # first appearance of an object was paid for.
        if result is not None and id(result) not in self._seen:
            self._seen.add(id(result))
            self._keep.append(result)
            self.billed += 1
            self.tokens += result.cost.total_tokens
            self.model_seconds += result.cost.total_model_seconds

    @property
    def ex_pct(self) -> float:
        return execution_accuracy(self.scores)


def final_sql(served: Served) -> Optional[str]:
    return served.result.final_sql if served.result is not None else None


# ----------------------------------------------------------------- running


@dataclass
class RunResult:
    """Everything one serving pass measured."""

    phases: list[Phase]
    window: Phase
    accounting: Optional[Accounting]
    #: pass/fail checks of this workload
    checks: dict
    #: counts behind the checks
    detail: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    #: vectors re-embedded per mutation of the catch-up probe (traced runs)
    vectors: list[int] = field(default_factory=list)

    @property
    def foreign_answers(self) -> int:
        return sum(p.foreign_answers for p in self.phases)

    @property
    def twin_answers(self) -> int:
        return sum(p.twin_answers for p in self.phases)


def _catch_up(stack: Stack, driver, reindexer, mutation: int) -> int:
    """The ``mutation``-th mutation of the schedule, then the invalidate +
    reindex that catches the mutated database up; returns the vectors
    re-embedded."""
    databases = sorted(stack.benchmark.databases)
    event = driver.mutate(databases[mutation % len(databases)])
    stack.engine.invalidate_db(event.db_id)
    return reindexer.reindex(event.db_id, epoch=event.epoch).vectors


def run_workload(
    workload: str,
    stack: Stack,
    inputs: Inputs,
    seconds: float,
    recorder=None,
) -> RunResult:
    """Serve one workload on a freshly set-up stack.

    With ``recorder`` the run is traced: requests carry span request ids,
    the recorder's phase follows the workload's phases, and a catch-up
    probe follows the window.  The tail and all scoring are skipped then,
    since the traced pass only needs timings.
    """
    client = Client(stack.engine, recorder)
    checker = AnswerChecker(stack.benchmark)

    def enter(phase: str) -> None:
        if recorder is not None:
            recorder.phase = phase

    enter("warmup")
    # The fill is served by one client.  Pool questions that share their
    # text (and so their result-cache key) then resolve in fill order: with
    # two clients, twins answered concurrently leave whichever answer was
    # stored last, and the timed answers could differ from the fill's.
    warmup = serve_closed_loop(
        "warmup", client, inputs.warmup, checker, keep=len(inputs.warmup),
        clients=1 if inputs.warmup_accounted else CLIENTS,
    )
    if workload == "warm_zipf":
        checker.fill = {s.example.question_id: final_sql(s) for s in warmup.kept}
    account = recorder is None
    keep = inputs.accounted_stream if account else 0
    stack.engine.reset_stats()
    enter("window")
    window = serve_window(stack, client, inputs, seconds, checker, keep)
    cache = cache_ratios(stack.engine)
    phases = [warmup, window]
    checks: dict = {}
    detail: dict = {}
    accounting = None
    if account:
        reached = {s.index for s in window.kept}
        missing = [i for i in range(keep) if i not in reached]
        enter("tail")
        tail = serve_closed_loop("tail", client, inputs.stream, checker, keep,
                                 indices=missing)
        phases.append(tail)
        accounted = sorted(window.kept + tail.kept, key=lambda s: s.index)
        if inputs.warmup_accounted:
            accounted = warmup.kept + accounted
        scorer = Scorer(stack.benchmark)
        accounting = Accounting()
        for served in accounted:
            accounting.add(served, scorer)
    if checker.fill is not None:
        mismatched = sum(p.fill_mismatches for p in phases)
        checks["warm_answers_match_fill"] = mismatched == 0
        detail["warm_answers_mismatched"] = mismatched
    vectors: list[int] = []
    if not account:
        # Catch-up probe: PROBE_CYCLES passes over every database, on the
        # quiescent engine.  The recorder times its calls per mutation.
        enter("catchup")
        registry = EpochRegistry()
        driver = MutationDriver(stack.benchmark, registry, seed=MUTATION_SEED)
        reindexer = ReindexWorker(
            stack.pipeline, stack.reindex_checkpoint, registry=registry,
            health=stack.engine.health,
        )
        try:
            for mutation in range(PROBE_CYCLES * len(stack.benchmark.databases)):
                vectors.append(_catch_up(stack, driver, reindexer, mutation))
        finally:
            reindexer.close()
    enter("done")
    return RunResult(phases, window, accounting, checks, detail, cache=cache,
                     vectors=vectors)


def cache_ratios(engine: ServingEngine) -> dict:
    """Hit ratio per engine cache tier."""
    tiers = {
        "result": engine.result_cache,
        "extraction": engine.extraction_cache,
        "fewshot": engine.fewshot_cache,
    }
    return {name: cache.stats.hit_rate for name, cache in tiers.items()}
