"""Unit: the on-disk JSON result cache."""

from repro.runtime import cache as cache_module
from repro.runtime.cache import CACHE_FORMAT, ResultCache, code_version
from repro.runtime.task import TaskSpec


def spec(**overrides):
    base = dict(
        experiment="hoeffding",
        shard="n=50",
        params={"shard": "n=50", "n": 50},
        fast=True,
        seed=7,
        kind="shard",
    )
    base.update(overrides)
    return TaskSpec(**base)


def test_put_get_round_trip(tmp_path):
    cache = ResultCache(str(tmp_path))
    payload = {"rows": [1, 2, 3], "metrics": {"grid_points": 3}}
    cache.put(spec(), payload, wall_time=0.5)
    entry = cache.get(spec())
    assert entry is not None
    assert entry["payload"] == payload
    assert entry["wall_time"] == 0.5
    assert entry["format"] == CACHE_FORMAT
    assert entry["code_version"] == code_version()


def test_miss_on_empty_cache(tmp_path):
    assert ResultCache(str(tmp_path)).get(spec()) is None


def test_key_distinguishes_identity(tmp_path):
    cache = ResultCache(str(tmp_path))
    base_key = cache.key(spec())
    assert cache.key(spec(seed=8)) != base_key
    assert cache.key(spec(shard="n=200")) != base_key
    assert cache.key(spec(experiment="backlog")) != base_key
    assert cache.key(spec(fast=False)) != base_key
    assert cache.key(spec(params={"shard": "n=50", "n": 51})) != base_key
    assert cache.key(spec(kind="whole")) != base_key
    assert cache.key(spec()) == base_key


def test_corrupt_entry_degrades_to_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(spec(), {"x": 1})
    cache.path(spec()).write_text("{ not json", encoding="utf-8")
    assert cache.get(spec()) is None


def test_entry_without_payload_is_a_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.path(spec()).parent.mkdir(parents=True, exist_ok=True)
    cache.path(spec()).write_text('{"format": "x"}', encoding="utf-8")
    assert cache.get(spec()) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put(spec(), {"x": 1})
    cache.put(spec(shard="n=200"), {"x": 2})
    assert cache.clear() == 2
    assert cache.get(spec()) is None


def test_code_version_is_stable_hex():
    first = code_version()
    assert first == code_version()
    assert len(first) == 64
    int(first, 16)


def test_code_version_change_misses_the_cache(tmp_path, monkeypatch):
    """An entry written by different library code must not be served:
    the source digest is the cache's only generation salt."""
    cache = ResultCache(str(tmp_path))
    cache.put(spec(), {"x": 1})
    assert cache.get(spec()) is not None
    old_key = cache.key(spec())
    monkeypatch.setattr(cache_module, "_code_version", "f" * 64)
    assert cache.key(spec()) != old_key
    assert cache.get(spec()) is None  # old entry is unreachable
    # New results are stored and served under the new code version.
    cache.put(spec(), {"x": 2})
    entry = cache.get(spec())
    assert entry["payload"] == {"x": 2}
    assert entry["code_version"] == "f" * 64
