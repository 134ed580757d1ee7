"""Unit tests for the vertex partitioner."""

import pytest

from repro.errors import EngineError
from repro.graph.partition import HashPartitioner, stable_hash


class TestHashPartitioner:
    def test_assignment_in_range(self):
        p = HashPartitioner(4)
        for v in range(100):
            assert 0 <= p.worker_of(v) < 4

    def test_balance_on_dense_ints(self):
        p = HashPartitioner(4)
        parts = p.partition(list(range(1000)))
        sizes = [len(part) for part in parts]
        assert sum(sizes) == 1000
        assert max(sizes) - min(sizes) <= 1  # int hashing is perfectly even

    def test_deterministic(self):
        p = HashPartitioner(7)
        assert p.worker_of(123) == p.worker_of(123)

    def test_invalid_worker_count(self):
        with pytest.raises(EngineError):
            HashPartitioner(0)


class TestStableHash:
    """The salted-``hash()`` regression (satellite 1).

    Python randomizes ``hash(str)`` per process, so the old HashPartitioner
    assigned string-id vertices differently on every run, so the simulated
    cross-worker traffic of one graph moved between runs. These assignments
    are pinned: if they ever change, ``cross_worker_messages`` of a recorded
    run silently stops matching.
    """

    PINNED = {
        "alpha": 2, "beta": 3, "gamma": 1, "delta": 1,
        "v-0": 3, "v-1": 1, "v-2": 3, "urn:n0": 1,
    }

    def test_pinned_string_assignments(self):
        p = HashPartitioner(4)
        assert {v: p.worker_of(v) for v in self.PINNED} == self.PINNED

    def test_stable_hash_values(self):
        assert stable_hash("alpha") == 3504355690
        assert stable_hash(b"alpha") == 3504355690
        assert stable_hash("urn:n0") == 1184700557

    def test_ints_hash_to_themselves(self):
        assert stable_hash(17) == 17
        assert stable_hash(0) == 0

    def test_bools_are_ints(self):
        assert stable_hash(True) == 1
        assert stable_hash(False) == 0

    def test_stable_in_subprocess(self):
        """The same ids land on the same workers in a fresh interpreter
        (where the per-process hash salt differs)."""
        import json
        import subprocess
        import sys

        ids = sorted(self.PINNED)
        code = (
            "import json, sys\n"
            "from repro.graph.partition import HashPartitioner\n"
            "p = HashPartitioner(4)\n"
            f"print(json.dumps([p.worker_of(v) for v in {ids!r}]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**__import__("os").environ, "PYTHONHASHSEED": "random"},
        ).stdout
        assert json.loads(out) == [self.PINNED[v] for v in ids]


class TestPartitionerProperties:
    """Balance/stability properties of the hash partitioner."""

    def test_hash_balance_on_string_ids(self):
        p = HashPartitioner(4)
        sizes = [len(s) for s in p.partition([f"v{i}" for i in range(1000)])]
        assert sum(sizes) == 1000
        # crc32 is uniform enough that no shard is more than 25% off even.
        assert max(sizes) <= 250 * 1.25 and min(sizes) >= 250 * 0.75

    def test_partition_is_exhaustive_and_disjoint(self):
        vertices = list(range(101))
        parts = HashPartitioner(3).partition(vertices)
        seen = [v for part in parts for v in part]
        assert sorted(seen) == vertices
        assert len(seen) == len(set(seen))

    def test_partition_preserves_input_order_within_shard(self):
        p = HashPartitioner(2)
        parts = p.partition([9, 3, 0, 7, 1])
        assert parts == [[0], [9, 3, 7, 1]]

    def test_fewer_vertices_than_workers(self):
        """num_vertices < num_workers must yield (some) empty shards, not
        an error — the engine simulates every configured worker anyway."""
        parts = HashPartitioner(8).partition([0, 1, 2])
        assert len(parts) == 8
        # integer ids hash to themselves: vertex i -> worker i, tail empty
        assert parts[:3] == [[0], [1], [2]]
        assert all(part == [] for part in parts[3:])

    def test_stability_across_instances(self):
        a, b = HashPartitioner(5), HashPartitioner(5)
        for v in ["x", "y", 42, b"z"]:
            assert a.worker_of(v) == b.worker_of(v)
