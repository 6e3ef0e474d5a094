"""Drift-chaos certifier: mutations at every request boundary.

The storage layer has :mod:`repro.storage.crashfuzz` (power cuts at
every append boundary); this is its live-data sibling.  One campaign
certifies the three invariants the live-mutation world promises:

1. **Zero stale serves.**  A routed serving run is interleaved with
   seeded :class:`~repro.livedata.mutations.MutationDriver` mutations at
   request boundaries; after each mutation the engine's caches are
   invalidated and the :class:`~repro.livedata.reindex.ReindexWorker`
   brings the artifacts up to the new epoch.  The engine's
   ``stale_served`` counter — a completed answer whose catalog moved
   under it undetected — must end the campaign at exactly zero, and
   every answer is recorded with the ``schema_epoch`` it derived from.
2. **Zero double-reindexes.**  The reindex checkpoint must carry exactly
   one ``done`` record per ``(db_id, epoch)``.
3. **Byte-identical kill/resume.**  One more mutation is applied and
   reindexed through a fault-free
   :class:`~repro.storage.faults.FaultyStorage` (whose append log holds
   the checkpoint's byte length after every append); then simulated
   SIGKILLs are enumerated by
   :func:`~repro.storage.crashfuzz.boundary_cuts` —
   a *clean* cut after each append, and a *torn* cut mid-way through
   the next line — and a fresh worker resumes each truncated
   checkpoint.  Every resume must leave the file byte-identical to the
   uninterrupted reference (and a cut at the very end must produce the
   typed :class:`~repro.livedata.reindex.DoubleReindexError`, not a
   second pass).

Everything — workload, mutation schedule, embeddings, cut points — is
seeded, so two runs of the same config produce byte-identical outcome
documents; ``bench_drift`` diffs exactly that.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.livedata.epoch import EpochRegistry
from repro.livedata.mutations import MutationDriver
from repro.livedata.reindex import DoubleReindexError, ReindexWorker
from repro.storage.crashfuzz import (
    CutOutcome,
    boundary_cuts,
    build_campaign,
    outcome_counts,
)
from repro.storage.faults import FaultyStorage, StorageFaultPlan

__all__ = ["DriftFuzzConfig", "DriftFuzzResult", "run_drift_fuzz"]


@dataclass
class DriftFuzzConfig:
    """Knobs of one drift campaign (all deterministic by ``seed``)."""

    requests: int = 10
    distinct: int = 5
    seed: int = 0
    candidates: int = 3
    routing: bool = True
    benchmark: str = "cluster-smoke"
    #: apply one mutation after every N served requests
    mutate_every: int = 1
    #: bound the kill/resume cut enumeration to the first N clean and N
    #: torn cuts plus the final clean cut (None = every checkpoint append
    #: boundary)
    limit: Optional[int] = None
    #: include torn (mid-line) cut variants
    torn: bool = True


@dataclass
class DriftFuzzResult:
    """Campaign verdict: serve-phase counters plus per-cut outcomes."""

    requests: list = field(default_factory=list)  # per-request dicts
    mutations: list = field(default_factory=list)  # MutationEvent dicts
    reindexes: list = field(default_factory=list)  # ReindexReport dicts
    livedata: dict = field(default_factory=dict)  # engine stale counters
    epoch_stamps: dict = field(default_factory=dict)  # journal stamps / db
    duplicate_done: int = 0
    catchup_seconds: float = 0.0
    outcomes: list = field(default_factory=list)  # CutOutcome
    cut_points: int = 0
    checkpoint_crc: int = 0

    @property
    def stale_serves(self) -> int:
        return int(self.livedata.get("stale_served", 0))

    @property
    def ok(self) -> bool:
        return (
            self.stale_serves == 0
            and self.duplicate_done == 0
            and bool(self.outcomes)
            and all(o.ok for o in self.outcomes)
        )

    def summary(self) -> dict:
        return {
            "requests": len(self.requests),
            "mutations": len(self.mutations),
            "reindexes": len(self.reindexes),
            "stale_serves": self.stale_serves,
            "stale_detected": int(self.livedata.get("stale_detected", 0)),
            "double_reindexes": self.duplicate_done,
            "catchup_seconds": round(self.catchup_seconds, 6),
            "cuts": len(self.outcomes),
            "append_boundaries": self.cut_points,
            "outcomes": outcome_counts(self.outcomes),
            "ok": self.ok,
        }

    def to_dict(self) -> dict:
        """The full, deterministic outcome document (two runs diff empty)."""
        return {
            "summary": self.summary(),
            "requests": list(self.requests),
            "mutations": list(self.mutations),
            "reindexes": list(self.reindexes),
            "livedata": dict(self.livedata),
            "epoch_stamps": dict(sorted(self.epoch_stamps.items())),
            "checkpoint_crc": self.checkpoint_crc,
            "cuts": [outcome.to_dict() for outcome in self.outcomes],
        }

    def format(self) -> str:
        s = self.summary()
        mix = ", ".join(f"{k}={v}" for k, v in s["outcomes"].items())
        verdict = "CERTIFIED" if self.ok else "FAILED"
        return (
            f"drift-fuzz: {s['requests']} requests / {s['mutations']} "
            f"mutations / {s['reindexes']} reindexes — "
            f"stale_serves={s['stale_serves']} "
            f"double_reindexes={s['double_reindexes']} — "
            f"{s['cuts']} kill cuts over {s['append_boundaries']} append "
            f"boundaries ({mix}) — {verdict}"
        )


def run_drift_fuzz(
    config: DriftFuzzConfig, workdir: Union[str, Path]
) -> DriftFuzzResult:
    """Run one full campaign under ``workdir`` (left on disk for triage)."""
    from repro.serving.engine import ServingEngine
    from repro.serving.journal import ServingJournal, epoch_stamps

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload, pipeline, _cluster, benchmark = build_campaign(config, shards=1)
    registry = EpochRegistry()
    driver = MutationDriver(benchmark, registry, seed=config.seed)
    result = DriftFuzzResult()

    # ------------------------------------------------ phase 1: serve+drift
    journal = ServingJournal(workdir / "journal.jsonl")
    journal.write_header({"kind": "drift-fuzz", "seed": config.seed})
    engine = ServingEngine(
        pipeline,
        workers=1,
        queue_capacity=max(4, config.requests),
        journal=journal,
    )
    engine.attach_livedata(registry)
    worker = ReindexWorker(
        pipeline,
        workdir / "reindex.jsonl",
        registry=registry,
        health=engine.health,
    )
    served = 0
    for example in workload:
        answer = engine.answer(example)
        served += 1
        result.requests.append(
            {
                "question_id": example.question_id,
                "db_id": example.db_id,
                "epoch": registry.epoch(example.db_id),
                "sql_crc": zlib.crc32(answer.final_sql.encode()) & 0xFFFFFFFF,
                "degradations": sorted(answer.degradations),
            }
        )
        if served % config.mutate_every == 0 and served < len(workload):
            event = driver.mutate()
            engine.invalidate_db(event.db_id)
            worker.reindex(event.db_id, epoch=event.epoch)
    result.epoch_stamps = epoch_stamps(journal, workload)
    engine.shutdown()
    result.reindexes = [report.to_dict() for report in worker.reports]
    result.livedata = dict(engine.livedata_stats)
    result.duplicate_done = len(worker.checkpoint.duplicate_done)
    result.catchup_seconds = worker.total_catchup_seconds

    # --------------------------------------- phase 2: kill/resume the worker
    # One more mutation, reindexed through the fault-free recorder so every
    # checkpoint append boundary becomes a simulated SIGKILL point.
    event = driver.mutate()
    engine.invalidate_db(event.db_id)
    result.mutations = driver.log_dict()
    storage = FaultyStorage(StorageFaultPlan())
    ref_path = workdir / "reindex-ref.jsonl"
    ref_worker = ReindexWorker(
        pipeline, ref_path, opener=storage.opener, registry=registry
    )
    ref_report = ref_worker.reindex(event.db_id, epoch=event.epoch)
    ref_worker.close()
    result.reindexes.append(ref_report.to_dict())
    result.catchup_seconds += ref_report.catchup_seconds
    ref_bytes = ref_path.read_bytes()
    result.cut_points = len(storage.log)
    result.checkpoint_crc = zlib.crc32(ref_bytes) & 0xFFFFFFFF

    def run_cut(cut_id: str, kind: str, length: int) -> None:
        cut_path = workdir / f"cut-{cut_id}.jsonl"
        cut_path.write_bytes(ref_bytes[:length])
        entry = CutOutcome(cut=cut_id, kind=kind, outcome="traceback")
        try:
            cut_worker = ReindexWorker(
                pipeline, cut_path, registry=registry
            )
            try:
                cut_worker.reindex(event.db_id, epoch=event.epoch)
                entry.outcome = (
                    "identical"
                    if cut_path.read_bytes() == ref_bytes
                    else "diverged"
                )
            except DoubleReindexError:
                entry.outcome = (
                    "already-done"
                    if cut_path.read_bytes() == ref_bytes
                    else "diverged"
                )
            finally:
                cut_worker.close()
        except Exception as exc:  # noqa: BLE001 — the cert counts tracebacks
            entry.detail = f"{type(exc).__name__}: {exc}"
        entry.ok = entry.outcome in ("identical", "already-done")
        result.outcomes.append(entry)
        cut_path.unlink(missing_ok=True)

    # A limited enumeration still keeps the final clean cut: resuming a
    # finished checkpoint is the DoubleReindexError probe.
    for cut_id, kind, lengths in boundary_cuts(
        storage.log, config.torn, config.limit, keep_final=True
    ):
        run_cut(cut_id, kind, lengths.get(str(ref_path), 0))
    return result
