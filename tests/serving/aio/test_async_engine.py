"""AsyncServingEngine: equal answers, deterministic coalescing, journal
replay, deadline and cancellation edges, tier-aware dedup."""

import asyncio

import pytest

from repro.caching import normalize_question, result_cache_key
from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.observability.metrics import MetricsRegistry
from repro.routing import TieredPipeline
from repro.serving import (
    AsyncServingEngine,
    ServingEngine,
    ServingJournal,
    recover_run,
)


def fresh_pipeline(benchmark, n_candidates=3):
    llm = SimulatedLLM(GPT_4O, seed=0)
    return OpenSearchSQL(benchmark, llm, PipelineConfig(n_candidates=n_candidates))


@pytest.fixture
def workload(tiny_benchmark):
    dev = tiny_benchmark.dev
    # 7 requests over 3 distinct questions: 4 coalesce on a cold run
    return [dev[0], dev[1], dev[0], dev[0], dev[2], dev[1], dev[0]]


def distinct_keys(workload):
    return len({(e.db_id, normalize_question(e.question)) for e in workload})


def sqls(results):
    return [r.final_sql if r is not None else None for r in results]


class TestEqualAnswers:
    def test_matches_threaded_engine(self, tiny_benchmark, workload):
        with ServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=len(workload)
        ) as engine:
            threaded = engine.run(workload)
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=len(workload)
        ) as engine:
            served = engine.run(workload)
            stats = engine.stats()
        assert sqls(served) == sqls(threaded)
        assert None not in sqls(served)
        assert stats.completed == len(workload)
        assert stats.coalesced == len(workload) - distinct_keys(workload)
        assert stats.safety_timeouts == 0

    def test_deterministic_across_runs(self, tiny_benchmark, workload):
        def run_once():
            with AsyncServingEngine(
                fresh_pipeline(tiny_benchmark),
                workers=2,
                queue_capacity=len(workload),
            ) as engine:
                results = engine.run(workload)
                stats = engine.stats()
            return sqls(results), stats

        sql_a, stats_a = run_once()
        sql_b, stats_b = run_once()
        assert sql_a == sql_b
        assert stats_a.coalesced == stats_b.coalesced
        assert stats_a.llm_calls == stats_b.llm_calls
        assert stats_a.flushes == stats_b.flushes
        assert stats_a.backend_busy_seconds == stats_b.backend_busy_seconds

    def test_warm_second_pass_hits_the_result_tier(self, tiny_benchmark, workload):
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=len(workload)
        ) as engine:
            cold = engine.run(workload)
            engine.reset_stats()
            warm_results = engine.run(workload)
            warm = engine.stats()
        assert sqls(warm_results) == sqls(cold)
        assert warm.coalesced == 0
        assert warm.result_hits == len(workload)

    def test_stats_report_shape(self, tiny_benchmark, workload):
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=len(workload)
        ) as engine:
            engine.run(workload)
            stats = engine.stats()
        payload = stats.to_dict()
        assert payload["async"]["coalesced"] == stats.coalesced
        assert payload["async"]["batched_calls"] == stats.batched_calls
        assert stats.coalesced_fraction == pytest.approx(
            stats.coalesced / stats.completed
        )
        assert "coalesced" in stats.format()
        # the async makespan is the backend-busy clock
        assert stats.makespan_seconds == pytest.approx(stats.backend_busy_seconds)
        assert stats.batched_calls > 0
        assert stats.max_batch >= 2


class TestJournalReplay:
    def test_coalesced_commits_replay_like_cache_hits(
        self, tiny_benchmark, workload, tmp_path
    ):
        journal = ServingJournal(tmp_path / "async.jsonl")
        journal.write_header({"requests": len(workload)})
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark),
            workers=2,
            queue_capacity=len(workload),
            journal=journal,
        ) as engine:
            served = engine.run(workload)
        statuses = [journal.committed(seq)["status"] for seq in range(len(workload))]
        assert statuses.count("ok") == distinct_keys(workload)
        assert statuses.count("coalesced") == len(workload) - distinct_keys(workload)

        class Counting:
            def __init__(self, inner):
                self._inner = inner
                self.answers = 0

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def answer(self, example, deadline=None, **kwargs):
                self.answers += 1
                return self._inner.answer(example, deadline=deadline, **kwargs)

        counting = Counting(fresh_pipeline(tiny_benchmark))
        outcomes = recover_run(
            ServingJournal(tmp_path / "async.jsonl"), counting, workload
        )
        assert counting.answers == 0  # fully committed journal: pure replay
        recovered_sql = [
            result.final_sql if result is not None else None
            for _, result, _, _ in outcomes
        ]
        assert recovered_sql == sqls(served)
        # followers replay off the leader's recovered answer, not a rerun
        assert [status for status, _, _, _ in outcomes].count("coalesced") == (
            len(workload) - distinct_keys(workload)
        )


class TestMetrics:
    def test_counters_exported(self, tiny_benchmark, workload):
        metrics = MetricsRegistry()
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark),
            workers=2,
            queue_capacity=len(workload),
            metrics=metrics,
        ) as engine:
            engine.run(workload)
            stats = engine.stats()
        payload = metrics.to_json()
        assert "repro_async_coalesced_total" in payload
        assert "repro_async_batched_calls_total" in payload
        assert "repro_async_batch_size" in payload
        exported = metrics.snapshot()["metrics"]
        coalesced = exported["repro_async_coalesced_total"]["samples"]["_"]
        assert coalesced == stats.coalesced


class TestEdges:
    def test_deadline_truncated_leader_answer_is_not_shared(
        self, tiny_benchmark, workload
    ):
        """A degraded (deadline-truncated) answer must never be served to
        followers: each runs the pipeline itself, so nothing coalesces."""
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark),
            workers=2,
            queue_capacity=len(workload),
            deadline_seconds=1e-6,
        ) as engine:
            served = engine.run(workload)
            stats = engine.stats()
        assert stats.completed == len(workload)
        assert stats.coalesced == 0
        assert stats.deadline_exceeded == len(workload)
        assert all(r is not None and r.deadline_exceeded for r in served)

    def test_follower_cancellation_leaves_the_flight_intact(
        self, tiny_benchmark
    ):
        dev = tiny_benchmark.dev
        engine = AsyncServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=4
        )

        async def scenario():
            leader = asyncio.create_task(engine.submit_async(dev[0]))
            await asyncio.sleep(0)  # leader registers, starts its run
            follower = asyncio.create_task(engine.submit_async(dev[0]))
            other = asyncio.create_task(engine.submit_async(dev[0]))
            await asyncio.sleep(0)  # both park on the leader's future
            follower.cancel()
            with pytest.raises(asyncio.CancelledError):
                await follower
            return await leader, await other

        try:
            led, coalesced = asyncio.run(scenario())
        finally:
            engine.shutdown()
        # the cancelled follower poisoned nothing: the leader's answer
        # still resolves, and the surviving follower coalesces onto it
        assert led.final_sql == coalesced.final_sql
        stats = engine.stats()
        assert stats.coalesced == 1
        assert stats.failed == 0
        # the cancelled follower released its admission slot
        assert engine.admission.pending == 0

    def test_invalidate_db_doomes_inflight_keys(self, tiny_benchmark, workload):
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=len(workload)
        ) as engine:
            engine.run(workload)
            db_id = workload[0].db_id
            dropped = engine.invalidate_db(db_id)
            # nothing in flight after the run; the channel still reports
            assert dropped["singleflight"] == 0
            # a fresh pass re-leads: the result tier was invalidated too
            engine.reset_stats()
            engine.run(workload)
            stats = engine.stats()
        assert stats.result_hits < len(workload)

    def test_rejected_requests_yield_none_slots(self, tiny_benchmark, workload):
        with AsyncServingEngine(
            fresh_pipeline(tiny_benchmark), workers=2, queue_capacity=2
        ) as engine:
            served = engine.run(workload)
            stats = engine.stats()
        assert len(served) == len(workload)
        assert stats.shed == len(workload) - 2
        assert sum(1 for r in served if r is None) == len(workload) - 2


class TestTieredDedup:
    def test_dedup_key_carries_the_routed_tier(self, tiny_benchmark, workload):
        """Coalescing over a TieredPipeline dedups on the tier-aware key:
        the same question routed to different tiers can never share a
        leader, and repeats on one tier coalesce as usual."""
        tiered = TieredPipeline(fresh_pipeline(tiny_benchmark))
        keys = {result_cache_key(e, tiered) for e in workload}
        assert all(len(key) == 3 for key in keys)  # (db, question, tier)
        with AsyncServingEngine(
            tiered, workers=2, queue_capacity=len(workload)
        ) as engine:
            served = engine.run(workload)
            stats = engine.stats()
        assert None not in sqls(served)
        assert stats.coalesced == len(workload) - len(keys)


class TestFailurePath:
    def test_failing_key_fails_like_the_threaded_engine(
        self, tiny_benchmark, tmp_path
    ):
        """A key whose pipeline run raises: the async leader and its
        followers commit the same ``"failed"`` outcome the threaded engine
        commits for each request, with the same error and accounting."""
        dev = tiny_benchmark.dev
        poisoned = dev[1]
        # the poisoned key three times: the third crash trips quarantine
        workload = [dev[0], poisoned, dev[0], poisoned, dev[2], poisoned, dev[0]]
        error = f"RuntimeError: poisoned {poisoned.question_id}"

        def serve(engine_cls, name):
            pipeline = fresh_pipeline(tiny_benchmark)
            answer = pipeline.answer

            def failing(example, **kwargs):
                if example.question_id == poisoned.question_id:
                    raise RuntimeError(f"poisoned {example.question_id}")
                return answer(example, **kwargs)

            pipeline.answer = failing
            journal = ServingJournal(tmp_path / f"{name}.jsonl")
            metrics = MetricsRegistry()
            with engine_cls(
                pipeline,
                workers=1,
                queue_capacity=len(workload),
                journal=journal,
                metrics=metrics,
            ) as engine:
                served = engine.run(workload)
                stats = engine.stats()
            commits = [journal.committed(seq) for seq in range(len(workload))]
            exported = metrics.snapshot()["metrics"]
            quarantined = exported["repro_serving_quarantine_total"]["samples"]["_"]
            return served, commits, stats, quarantined

        threaded = serve(ServingEngine, "threaded")
        served, commits, stats, quarantined = serve(AsyncServingEngine, "async")
        # dev[0]'s two repeats coalesce; the poisoned key's two followers
        # share its leader's failure instead
        assert stats.coalesced == 2
        for position, example in enumerate(workload):
            if example is poisoned:
                assert served[position] is None
                assert commits[position]["status"] == "failed"
                assert commits[position]["error"] == error
                assert threaded[1][position]["status"] == "failed"
                assert threaded[1][position]["error"] == error
            else:
                assert served[position] is not None
                assert commits[position]["status"] != "failed"
        assert stats.failed == threaded[2].failed == 3
        assert quarantined == threaded[3] == 1
