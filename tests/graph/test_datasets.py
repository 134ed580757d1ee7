"""Unit tests for the Table 2 dataset registry."""

import pytest

from repro.graph.datasets import (
    DEFAULT_WEB_SCALE,
    ML_20,
    WEB_DATASET_ORDER,
    WEB_DATASETS,
    env_scale,
    load_web_dataset,
)
from repro.graph.stats import average_degree


class TestRegistry:
    def test_all_paper_rows_present(self):
        assert WEB_DATASET_ORDER == ["IN-04", "UK-02", "AR-05", "UK-05"]
        for name in WEB_DATASET_ORDER:
            assert name in WEB_DATASETS

    def test_paper_numbers(self):
        uk02 = WEB_DATASETS["UK-02"]
        assert uk02.paper_vertices == 18_500_000
        assert uk02.paper_avg_degree == pytest.approx(16.01)

    def test_relative_scale_preserved(self):
        sizes = [
            WEB_DATASETS[n].scaled_vertices(DEFAULT_WEB_SCALE)
            for n in WEB_DATASET_ORDER
        ]
        assert sizes == sorted(sizes)  # IN-04 < UK-02 < AR-05 < UK-05


class TestGeneration:
    def test_generate_matches_degree(self):
        g = load_web_dataset("IN-04", scale=1.0 / 10000.0)
        spec = WEB_DATASETS["IN-04"]
        assert g.num_vertices == spec.scaled_vertices(1.0 / 10000.0)
        assert average_degree(g) == pytest.approx(spec.paper_avg_degree, rel=0.25)

    def test_generate_weighted(self):
        g = load_web_dataset("UK-02", scale=1.0 / 50000.0, weighted=True)
        for _u, _v, w in g.edges():
            assert 0.0 <= w < 1.0

    def test_ml20_shape(self):
        bg = ML_20.generate(num_features=5, scale=1.0 / 2000.0)
        assert bg.num_users >= 32
        assert bg.num_items >= 16
        assert bg.num_ratings >= bg.num_users * 4

    def test_ml20_deterministic(self):
        a = ML_20.generate(num_features=5, scale=1.0 / 4000.0)
        b = ML_20.generate(num_features=5, scale=1.0 / 4000.0)
        assert sorted(a.ratings()) == sorted(b.ratings())


class TestEnvScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert env_scale() == 1.0

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert env_scale() == 0.5

    def test_garbage_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "banana")
        assert env_scale() == 1.0
        monkeypatch.setenv("REPRO_SCALE", "-2")
        assert env_scale() == 1.0
