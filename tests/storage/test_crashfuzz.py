"""Crash fuzzer unit smoke: a tiny campaign certifies and is stable.

The full enumeration runs in ``benchmarks/bench_crashfuzz.py``; this
keeps a bounded version in the tier-1 suite so a recovery regression
fails fast, without the bench harness.
"""

import pytest

from repro.storage import FaultyStorage, StorageFaultPlan
from repro.storage.crashfuzz import CrashFuzzConfig, boundary_cuts, run_crash_fuzz


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    config = CrashFuzzConfig(
        shards=2, requests=6, distinct=4, limit=4, bitflips=1, routing=False
    )
    return run_crash_fuzz(config, tmp_path_factory.mktemp("crashfuzz"))


class TestCampaign:
    def test_certifies(self, campaign):
        assert campaign.ok, [
            o.to_dict() for o in campaign.outcomes if not o.ok
        ]

    def test_forbidden_outcomes_absent(self, campaign):
        classes = {o.outcome for o in campaign.outcomes}
        assert "wrong-report" not in classes
        assert "double-serve" not in classes
        assert "traceback" not in classes

    def test_covers_all_cut_kinds(self, campaign):
        assert {o.kind for o in campaign.outcomes} == {"clean", "torn", "flip"}

    def test_limit_bounds_enumeration(self, campaign):
        assert sum(1 for o in campaign.outcomes if o.kind == "clean") == 4
        assert sum(1 for o in campaign.outcomes if o.kind == "torn") == 4

    def test_summary_and_format(self, campaign):
        summary = campaign.summary()
        assert summary["ok"]
        assert summary["cuts"] == len(campaign.outcomes)
        assert "CERTIFIED" in campaign.format()

    def test_details_are_path_free(self, campaign):
        # outcome details feed a determinism diff across machines: no
        # temp directories may leak into them
        for outcome in campaign.outcomes:
            assert "/tmp" not in outcome.detail, outcome.to_dict()
            assert "crashfuzz0" not in outcome.detail, outcome.to_dict()


def test_no_torn_config_skips_torn_cuts(tmp_path):
    config = CrashFuzzConfig(
        shards=2, requests=4, distinct=2, limit=2, bitflips=0,
        torn=False, routing=False,
    )
    result = run_crash_fuzz(config, tmp_path)
    assert {o.kind for o in result.outcomes} == {"clean"}


class TestBoundaryCuts:
    @pytest.fixture
    def log(self, tmp_path):
        # two files written interleaved through the fault-free recorder
        storage = FaultyStorage(StorageFaultPlan())
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        with storage.opener(a, "a") as fa, storage.opener(b, "a") as fb:
            fa.write("aaaa\n")
            fb.write("bb\n")
            fa.write("a\n")
            fb.write("bbbbbbbb\n")
        return a, b, storage.log

    def test_log_holds_exact_sizes_in_global_order(self, log):
        a, b, entries = log
        assert entries == [(a, 5, 5), (b, 3, 3), (a, 7, 2), (b, 12, 9)]

    def test_clean_and_torn_lengths(self, log):
        a, b, entries = log
        cuts = {cut: (kind, lengths) for cut, kind, lengths in boundary_cuts(
            entries, torn=True, limit=None)}
        assert list(cuts) == [
            "clean-000", "clean-001", "clean-002", "clean-003", "clean-004",
            "torn-000", "torn-001", "torn-002", "torn-003",
        ]
        assert cuts["clean-000"] == ("clean", {})
        assert cuts["clean-002"] == ("clean", {a: 5, b: 3})
        assert cuts["clean-004"] == ("clean", {a: 7, b: 12})
        assert cuts["torn-000"] == ("torn", {a: 2})
        assert cuts["torn-002"] == ("torn", {a: 6, b: 3})
        assert cuts["torn-003"] == ("torn", {a: 7, b: 7})

    def test_limit_bounds_each_kind(self, log):
        _a, _b, entries = log
        ids = [cut for cut, _k, _l in boundary_cuts(entries, True, 2)]
        assert ids == ["clean-000", "clean-001", "torn-000", "torn-001"]
        assert [cut for cut, _k, _l in boundary_cuts(entries, False, 2)] == [
            "clean-000", "clean-001"]

    def test_keep_final_adds_the_last_clean_cut_once(self, log):
        _a, _b, entries = log
        short = [c for c, _k, _l in boundary_cuts(entries, False, 2, keep_final=True)]
        assert short == ["clean-000", "clean-001", "clean-004"]
        full = [c for c, _k, _l in boundary_cuts(entries, False, 50, keep_final=True)]
        assert full == [f"clean-{k:03d}" for k in range(5)]
