"""FaultyStorage: seeded draws, durability model, power cuts."""

import errno

import pytest

from repro.seeded import fnv1a, pick_band, stable_hash
from repro.storage import FaultyStorage, StorageFaultPlan


class TestPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            StorageFaultPlan(torn_write=1.5)
        with pytest.raises(ValueError):
            StorageFaultPlan(torn_write=0.6, bit_flip=0.6)
        with pytest.raises(ValueError):
            StorageFaultPlan(enospc_after=-1)

    def test_round_trip_ignores_unknown_keys(self):
        plan = StorageFaultPlan.chaos(0.2)
        payload = plan.to_dict()
        payload["seed"] = 42  # the cluster config rides a seed along
        assert StorageFaultPlan.from_dict(payload) == plan

    def test_none_plan_injects_nothing(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan.none())
        path = tmp_path / "f.txt"
        with storage.opener(path, "a") as handle:
            for i in range(50):
                handle.write(f"line {i}\n")
        assert storage.stats_dict()["writes"] == 50
        assert storage.events == []
        assert path.read_text().splitlines()[49] == "line 49"


class TestStableHash:
    def test_deterministic_and_spread(self):
        draws = [stable_hash(0, "p", i) for i in range(100)]
        assert draws == [stable_hash(0, "p", i) for i in range(100)]
        assert len(set(draws)) == 100

    def test_keyed_on_every_part(self):
        assert stable_hash(0, "p", 1) != stable_hash(1, "p", 1)
        assert stable_hash(0, "p", 1) != stable_hash(0, "q", 1)

    def test_golden_values(self):
        # every simulated answer, fault schedule and cut point is seeded
        # from these functions: a silent change would re-seed them all
        assert stable_hash(0, "p", 1) == 8064430027258620923
        assert stable_hash(0, "gpt-4o", "content", "q1", 3) == (
            17965427093961877221
        )
        assert fnv1a(b"abc") == 16654208175385433931
        assert fnv1a(b"") == 0xCBF29CE484222325


class TestPickBand:
    BANDS = (("a", 0.1), ("zero", 0.0), ("b", 0.2))

    @pytest.mark.parametrize(
        "draw, kind",
        [(0.0, "a"), (0.09, "a"), (0.1, "b"), (0.29, "b"), (0.31, None),
         (0.99, None)],
    )
    def test_bands_laid_end_to_end(self, draw, kind):
        assert pick_band(draw, self.BANDS) == kind


class TestEnospcAfter:
    def test_first_n_succeed_then_enospc(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(enospc_after=3))
        path = tmp_path / "f.txt"
        handle = storage.opener(path, "a")
        for i in range(3):
            handle.write(f"ok {i}\n")
        with pytest.raises(OSError) as info:
            handle.write("doomed\n")
        assert info.value.errno == errno.ENOSPC
        handle.flush()  # the surviving writes were buffered, not lost
        assert path.read_text() == "ok 0\nok 1\nok 2\n"
        assert storage.stats_dict()["enospc"] == 1


class TestPowerCut:
    def test_clean_writes_survive_sequential_writeback(self, tmp_path):
        # the model is sequential writeback: clean (untorn) writes extend
        # the surviving prefix even before a sync, so a fault-free run
        # loses nothing at the plug-pull — only a tear ends the prefix
        storage = FaultyStorage(StorageFaultPlan.none())
        path = tmp_path / "f.txt"
        handle = storage.opener(path, "a")
        handle.write("durable\n")
        handle.sync()
        handle.write("unsynced\n")
        handle.flush()
        assert storage.power_cut() == {}
        assert path.read_text() == "durable\nunsynced\n"

    def test_torn_write_survives_only_to_the_tear(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(torn_write=1.0), seed=5)
        path = tmp_path / "f.txt"
        handle = storage.opener(path, "a")
        payload = "x" * 40 + "\n"
        handle.write(payload)
        handle.flush()
        assert path.stat().st_size == len(payload)  # live process sees all
        lost = storage.power_cut()
        size = path.stat().st_size
        assert 1 <= size < len(payload)  # reboot sees the tear
        assert lost[str(path)] == len(payload) - size

    def test_writes_after_a_tear_do_not_extend_the_prefix(self, tmp_path):
        plans = StorageFaultPlan(torn_write=1.0)
        storage = FaultyStorage(plans, seed=5)
        path = tmp_path / "f.txt"
        handle = storage.opener(path, "a")
        handle.write("a" * 20 + "\n")
        handle.write("b" * 20 + "\n")
        storage.power_cut()
        content = path.read_bytes()
        assert b"b" not in content  # the second write sits past the tear

    def test_sync_restores_full_durability(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(torn_write=1.0), seed=5)
        path = tmp_path / "f.txt"
        handle = storage.opener(path, "a")
        handle.write("a" * 20 + "\n")
        handle.sync()  # fsync after the torn write: everything durable
        storage.power_cut()
        assert path.stat().st_size == 21


class TestFaultKinds:
    def test_short_write_persists_prefix_and_raises_eio(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(short_write=1.0), seed=1)
        path = tmp_path / "f.txt"
        handle = storage.opener(path, "a")
        with pytest.raises(OSError) as info:
            handle.write("y" * 30 + "\n")
        assert info.value.errno == errno.EIO
        assert 0 < path.stat().st_size < 31

    def test_bit_flip_lands_full_length_but_corrupt(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan(bit_flip=1.0), seed=2)
        path = tmp_path / "f.txt"
        payload = "z" * 30 + "\n"
        storage.opener(path, "a").write(payload)
        data = path.read_bytes()
        assert len(data) == len(payload)
        assert data != payload.encode()
        assert data.endswith(b"\n")  # framing newline never flipped

    def test_schedule_is_deterministic_by_seed(self, tmp_path):
        def run(seed, name):
            storage = FaultyStorage(StorageFaultPlan.chaos(0.5), seed=seed)
            handle = storage.opener(tmp_path / name, "a")
            for i in range(30):
                try:
                    handle.write(f"line {i:04d} padded out\n")
                except OSError:
                    pass
            return [(e["kind"], e["append_index"]) for e in storage.events]

        # same seed + same path: identical schedule (appends re-count
        # from 0 per FaultyStorage instance)
        assert run(3, "a.txt") == run(3, "a.txt")
        first = run(7, "d.txt")
        assert first  # chaos(0.5) over 30 writes fires at least once

    def test_opener_rejects_non_append_modes(self, tmp_path):
        storage = FaultyStorage(StorageFaultPlan.none())
        with pytest.raises(ValueError):
            storage.opener(tmp_path / "f.txt", "w")
