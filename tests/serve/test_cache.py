"""Unit tests for the content-addressed result cache."""

import hashlib
import json
import warnings

import pytest

from repro.schema import canonical_json
from repro.serve.cache import ResultCache
from repro.serve.runner import JobManager, execute_spec
from repro.serve.types import JobSpec

SPEC = JobSpec(
    process="broadcast",
    graph={"n": 30, "p": 0.3, "seed": 1},
    params={"protocol": {"kind": "decay"}},
    seed=5,
)
RESULT = {"schema_version": 1, "kind": "broadcast-trace", "n": 30}
BODY = canonical_json(RESULT).encode()


def entry(key: str, result: dict, *, version: int = 1) -> str:
    """An entry in the on-disk layout, built by a JSON encoder."""
    envelope = {
        "schema_version": version,
        "key": key,
        "result": result,
        "sha256": hashlib.sha256(canonical_json(result).encode()).hexdigest(),
    }
    return canonical_json(envelope) + "\n"


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, BODY)
        assert cache.get(key) == BODY
        assert key in cache
        assert len(cache) == 1

    def test_entry_is_one_canonical_document(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        path = cache.put(key, BODY)
        text = path.read_text()
        assert text == entry(key, RESULT)
        envelope = json.loads(text)
        assert envelope["result"] == RESULT
        assert envelope["sha256"] == hashlib.sha256(BODY).hexdigest()

    def test_fanout_layout(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        cache.put(key, BODY)
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert path.exists()

    def test_corrupt_entry_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None  # miss, not an exception
        assert not path.exists()
        corpses = list((tmp_path / "cache").rglob("*.corrupt"))
        assert len(corpses) == 1
        # The slot is reusable after quarantine.
        cache.put(key, BODY)
        assert cache.get(key) == BODY

    def test_wrong_key_entry_quarantined(self, tmp_path):
        # A tampered entry whose embedded key disagrees with its address
        # must not be served, even with a digest that matches its body.
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(entry("0" * 64, RESULT))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert list((tmp_path / "cache").rglob("*.corrupt"))

    def test_truncated_entry_from_crash_mid_write_quarantined(self, tmp_path):
        # A process killed mid-write leaves a prefix of the entry: valid
        # UTF-8, invalid JSON.  It must read as a miss, never a crash.
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        cache.put(key, BODY)
        path = cache.path_for(key)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert key not in cache
        assert list((tmp_path / "cache").rglob("*.corrupt"))
        # The slot refills and serves again.
        cache.put(key, BODY)
        assert cache.get(key) == BODY

    def test_wrong_schema_version_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(entry(key, RESULT, version=999))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        assert list((tmp_path / "cache").rglob("*.corrupt"))

    def test_tampered_body_fails_digest_and_is_quarantined(self, tmp_path):
        # An edit that leaves the entry valid JSON — key and version
        # intact — is caught by the digest alone.
        cache = ResultCache(tmp_path / "cache")
        key = SPEC.cache_key()
        path = cache.put(key, BODY)
        tampered = path.read_text().replace('"n":30', '"n":31')
        assert json.loads(tampered)["result"] == {**RESULT, "n": 31}
        path.write_text(tampered)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(key) is None
        corpses = list((tmp_path / "cache").rglob("*.corrupt"))
        assert [c.read_text() for c in corpses] == [tampered]


class TestLegacyEntry:
    def test_pre_digest_entry_is_a_miss_then_rewritten(self, tmp_path):
        spec = SPEC
        key = spec.cache_key()
        result = execute_spec(spec)
        cache = ResultCache(tmp_path / "cache")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The layout before the digest: {"key", "result", "schema_version"}.
        legacy = {"schema_version": 1, "key": key, "result": result}
        path.write_text(canonical_json(legacy) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get(key) is None  # a miss, no quarantine warning
            assert path.exists()
            with JobManager(cache=cache, workers=1) as manager:
                job = manager.submit(spec)
                assert manager.wait(job, timeout=30)
                assert job.cache == "miss" and job.state == "done"
                assert manager.num_executions == 1
        assert not list((tmp_path / "cache").rglob("*.corrupt"))
        rewritten = json.loads(path.read_text())
        assert rewritten["result"] == legacy["result"]
        assert cache.get(key) == canonical_json(result).encode()


class TestEntryCount:
    def test_running_count_equals_a_fresh_walk(self, tmp_path):
        root = tmp_path / "cache"

        def walked() -> int:
            return sum(1 for _ in root.glob("*/*.json"))

        cache = ResultCache(root)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for key in keys:
            cache.put(key, BODY)
        assert len(cache) == walked() == 3
        cache.put(keys[0], BODY)  # overwrite: no new entry
        assert len(cache) == walked() == 3
        # A corrupt entry is quarantined on read.
        cache.path_for(keys[1]).write_text("{nope")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert cache.get(keys[1]) is None
        assert len(cache) == walked() == 2
        # A pre-digest entry is a miss left in place, then overwritten.
        legacy = {"schema_version": 1, "key": keys[2], "result": RESULT}
        cache.path_for(keys[2]).write_text(canonical_json(legacy) + "\n")
        assert cache.get(keys[2]) is None
        assert len(cache) == walked() == 2
        cache.put(keys[2], BODY)
        assert len(cache) == walked() == 2
        # A new object starts from one walk of what is on disk.
        assert len(ResultCache(root)) == walked() == 2

    def test_len_never_walks_the_directory(self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = ResultCache(tmp_path / "cache")
        cache.put(SPEC.cache_key(), BODY)

        def no_walk(self, pattern):
            raise AssertionError("len() walked the cache directory")

        monkeypatch.setattr(Path, "glob", no_walk)
        assert len(cache) == 1
