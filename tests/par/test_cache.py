"""Content hashing and the two-tier result cache."""

import hashlib
import os
import pickle
from dataclasses import dataclass
from enum import Enum

import numpy as np
import pytest

from repro.core.pattern import CommPattern
from repro.machine.presets import resolve_machine
from repro.par.cache import (
    CACHE_SCHEMA,
    ENV_CACHE_DIR,
    ResultCache,
    cache_key,
    default_cache_dir,
    stable_fingerprint,
)


@dataclass(frozen=True)
class _Point:
    x: float
    y: int


class _Color(Enum):
    RED = 1
    BLUE = 2


class TestStableFingerprint:
    def test_stable_across_calls(self):
        obj = {"a": 1, "b": [1.5, "s", None, True]}
        assert stable_fingerprint(obj) == stable_fingerprint(obj)

    def test_dict_order_insensitive(self):
        assert stable_fingerprint({"a": 1, "b": 2}) == \
            stable_fingerprint({"b": 2, "a": 1})

    def test_type_tags_prevent_cross_type_collisions(self):
        assert stable_fingerprint(1) != stable_fingerprint(1.0)
        assert stable_fingerprint(1) != stable_fingerprint("1")
        assert stable_fingerprint(True) != stable_fingerprint(1)
        assert stable_fingerprint([1, 2]) != stable_fingerprint((1, 2))

    def test_float_sensitivity(self):
        assert stable_fingerprint(0.1) != stable_fingerprint(0.1 + 1e-12)

    def test_ndarray_content_and_dtype(self):
        a = np.arange(6, dtype=np.float64)
        b = a.copy()
        assert stable_fingerprint(a) == stable_fingerprint(b)
        b[3] += 1e-9
        assert stable_fingerprint(a) != stable_fingerprint(b)
        assert stable_fingerprint(a) != \
            stable_fingerprint(a.astype(np.float32))
        assert stable_fingerprint(a) != \
            stable_fingerprint(a.reshape(2, 3))

    def test_dataclass_and_enum(self):
        assert stable_fingerprint(_Point(1.0, 2)) == \
            stable_fingerprint(_Point(1.0, 2))
        assert stable_fingerprint(_Point(1.0, 2)) != \
            stable_fingerprint(_Point(1.0, 3))
        assert stable_fingerprint(_Color.RED) != \
            stable_fingerprint(_Color.BLUE)

    def test_machine_spec_fingerprints(self, machine):
        # The real dataclasses used in sweep keys must hash cleanly.
        assert stable_fingerprint(machine) == stable_fingerprint(machine)

    def test_unfingerprintable_raises(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            stable_fingerprint(object())

    @pytest.mark.parametrize("value", [
        np.array([1, "a"], dtype=object),
        {"a": np.array([None])},
        np.zeros(2, dtype=[("x", "f8"), ("o", "O")]),
    ])
    def test_object_arrays_raise(self, value):
        # their bytes are pointer addresses, different in every process
        with pytest.raises(TypeError, match="cannot fingerprint"):
            stable_fingerprint(value)

    def test_payload_hashes_as_its_bytes(self):
        # a payload hashed in place encodes exactly as its bytes would
        big = np.arange(20000, dtype=np.float64)
        header = b"a<f8|(20000,)|"
        assert stable_fingerprint(big) == \
            hashlib.sha256(header + big.tobytes()).hexdigest()
        # ... also when it is a strided view that must be made contiguous
        view = np.arange(40000, dtype=np.float64)[::2]
        assert stable_fingerprint(view) == stable_fingerprint(view.copy())


def _nan_keyed(order):
    """A dict with two distinct NaN keys, inserted in ``order``."""
    first, second = float("nan"), float("nan")
    items = [(first, np.arange(20000, dtype=np.float64)), (second, "small")]
    return dict(items if order == "forward" else items[::-1])


#: digests computed by the encoder this file pins; a change to any of
#: them changes every cache key, so it must come with a CACHE_SCHEMA bump
GOLDEN = {
    "nested": "f0bceafc450b03e8c02b13be3aa66e9090421d572902a082d4fa1785e5ad8c23",
    "empty2d": "ca172066706fb065f0e73d68b1d78a4666497c190ef69cfe561e3fa66c942348",
    "zerod": "28103a18542ebd19e70944977069fe5463386cc43b8efb1f176d6a9cbcaabbd5",
    "fortran": "f872bbb7e55a5a154fcd3cad1d50ffa1a3344dba1b6fda44e2431e33b3875b53",
    "large": "6fd9645d5e1188a7b6e6c77ce8231efa5622766e444928712f3d2b9036615718",
    "enum": "04a72ec245bb7357d67d832d49f4433ba435f0e6dc6c4a20545c71209b3bc84a",
    "dataclass": "c58817e99af429d305da81254e6be74217e4c52f97196bb6460c710c207f7a26",
    "lassen": "70d9324139b1f96d16c9722948385702b57eb4d67d03cdf81b1c0c6f05ead84a",
    "summit": "10c7158376341cf214cd91b249b3f52e6d39616a88be294b8b845db378ba9069",
    "frontier_like": "5813d39e7afd3ffc590167b45a0160d375457b92a86dadb6fb7d43ce695c9bb1",
    "audikw_1": "342c389fc632b04d620f8321dfc9eb6fc119016c2c38b8491349bc2cf7ac5910",
    "pattern": "9e4c6552747f8693f4c561071822680b0f7c4ea112af548d0d154e4efca8a99f",
    "cache_key": "f95ed68d75655bc5bd6b39b8c22b22aacb3dd034ed1ec807f670ffa60b612006",
    "nan_keys": "37820c132368a4093feff93152612827a23f7e87dda9b9700b6b57c48a6c6d43",
}


class TestGoldenDigests:
    """Digests pinned as literals: the encoding must not drift."""

    @pytest.mark.parametrize("name, value", [
        ("nested", {"b": [1, 2.5, None, True, -7],
                    "a": ("x", b"y", frozenset({3, "z", (1, 2)})),
                    7: {"inner": [(-1, 0.1)], "set": {2.0, 1.0}},
                    (1, "k"): np.int64(4)}),
        ("empty2d", np.zeros((2, 0))),
        ("zerod", np.array(3.5)),
        ("fortran", np.asfortranarray(
            np.arange(6, dtype=np.int32).reshape(2, 3))),
        ("large", {"v": np.arange(20000, dtype=np.float64),
                   "w": np.arange(16384, dtype=np.int32)}),
        ("enum", _Color.RED),
        ("dataclass", _Point(1.0, 2)),
    ])
    def test_value(self, name, value):
        assert stable_fingerprint(value) == GOLDEN[name]

    @pytest.mark.parametrize("preset", ["lassen", "summit", "frontier_like"])
    def test_machine_spec(self, preset):
        assert stable_fingerprint(resolve_machine(preset)) == GOLDEN[preset]

    def test_matrix(self):
        from repro.sparse.suite import SUITE, matrix_fingerprint

        assert matrix_fingerprint(SUITE["audikw_1"].build(2001)) == \
            GOLDEN["audikw_1"]

    def test_comm_pattern(self):
        pattern = CommPattern(8, {0: {1: np.array([5, 99]), 4: np.arange(3)},
                                  6: {2: np.array([1])}})
        assert pattern.fingerprint() == GOLDEN["pattern"]

    def test_cache_key(self):
        assert CACHE_SCHEMA == 2
        assert cache_key("fig5_1-panel", machine=resolve_machine("lassen"),
                         matrix="ab" * 32, gpu_counts=(8, 16), ppn=40,
                         noise_sigma=0.0, seed=3) == GOLDEN["cache_key"]

    @pytest.mark.parametrize("order", ["forward", "reverse"])
    def test_equal_key_encodings_tie_break_on_the_value(self, order):
        value = _nan_keyed(order)
        assert len(value) == 2
        assert stable_fingerprint(value) == GOLDEN["nan_keys"]


class TestCacheKey:
    def test_kind_and_parts_distinguish(self):
        a = cache_key("chaos-shard", seed=0)
        assert a == cache_key("chaos-shard", seed=0)
        assert a != cache_key("chaos-shard", seed=1)
        assert a != cache_key("fig4_3-panel", seed=0)

    def test_schema_is_mixed_in(self, monkeypatch):
        before = cache_key("k", x=1)
        monkeypatch.setattr("repro.par.cache.CACHE_SCHEMA",
                            CACHE_SCHEMA + 1)
        assert cache_key("k", x=1) != before


class TestResultCache:
    def test_memory_tier_round_trip(self):
        cache = ResultCache()
        key = cache_key("t", x=1)
        assert cache.lookup(key) == (False, None)
        cache.put(key, {"v": 42})
        assert cache.lookup(key) == (True, {"v": 42})
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1,
                                 "disk_hits": 0, "corrupt": 0,
                                 "repaired": 0, "hit_rate": 0.5}
        assert [ev["op"] for ev in cache.events] == \
            ["miss", "store", "hit"]
        assert all(ev["key"] == key for ev in cache.events)

    def test_disk_tier_survives_instances(self, tmp_path):
        key = cache_key("t", x=2)
        first = ResultCache(directory=str(tmp_path))
        first.put(key, np.arange(4))
        second = ResultCache(directory=str(tmp_path))
        hit, value = second.lookup(key)
        assert hit
        assert np.array_equal(value, np.arange(4))
        assert second.disk_hits == 1
        # the disk hit is promoted to memory: no second disk read
        second.lookup(key)
        assert second.disk_hits == 1
        assert second.hits == 2

    def test_disk_layout_is_sharded_by_prefix(self, tmp_path):
        key = cache_key("t", x=3)
        ResultCache(directory=str(tmp_path)).put(key, 1)
        path = tmp_path / key[:2] / (key + ".pkl")
        assert path.is_file()
        assert not list(tmp_path.glob("**/*.tmp.*"))  # atomic rename

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        key = cache_key("t", x=4)
        cache = ResultCache(directory=str(tmp_path))
        cache.put(key, "good")
        path = tmp_path / key[:2] / (key + ".pkl")
        path.write_bytes(b"not a pickle")
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.lookup(key) == (False, None)
        assert fresh.misses == 1
        # ... but an *attributed* miss: the corrupt counter advances
        # and a corrupt event names the key (the run ledger turns this
        # into a cache_corrupt record, never silent miss-only numbers)
        assert fresh.corrupt == 1
        assert {"op": "corrupt", "key": key, "tier": "disk"} \
            in fresh.events
        # ... and a *repaired* one: the unreadable file is deleted on
        # detection so it cannot re-fail on every future lookup
        assert not path.exists()
        assert fresh.repaired == 1
        assert {"op": "repair", "key": key, "tier": "disk"} \
            in fresh.events
        later = ResultCache(directory=str(tmp_path))
        assert later.lookup(key) == (False, None)
        assert later.corrupt == 0  # plain miss now, not corrupt again
        # recompute-and-put rewrites the entry
        fresh.put(key, "good")
        assert pickle.loads(path.read_bytes()) == "good"
        assert fresh.stats()["corrupt"] == 1
        assert fresh.stats()["repaired"] == 1

    def test_absent_disk_entry_is_not_corrupt(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        assert cache.lookup(cache_key("t", x=40)) == (False, None)
        assert cache.corrupt == 0
        assert [ev["op"] for ev in cache.events] == ["miss"]

    def test_clear_memory_keeps_disk(self, tmp_path):
        key = cache_key("t", x=5)
        cache = ResultCache(directory=str(tmp_path))
        cache.put(key, 7)
        cache.clear_memory()
        assert len(cache) == 0
        hit, value = cache.lookup(key)
        assert hit and value == 7
        assert cache.disk_hits == 1

    def test_memory_only_cache_has_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache()
        cache.put(cache_key("t", x=6), 1)
        assert os.listdir(tmp_path) == []


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"

    def test_default(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert default_cache_dir() == ".repro-cache"

    def test_with_disk_uses_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "c"))
        cache = ResultCache.with_disk()
        assert cache.directory == str(tmp_path / "c")
