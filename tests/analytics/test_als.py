"""Unit tests for the ALS recommender analytic."""

import math

import numpy as np
import pytest

from repro.analytics.als import ALS, rmse_of_run
from repro.engine.engine import run_program
from repro.graph.generators import movielens_like


@pytest.fixture(scope="module")
def small_ratings():
    return movielens_like(40, 25, 400, num_features=4, seed=9)


def run_als(bg, **kwargs):
    analytic = ALS(bg, **kwargs)
    graph = bg.to_digraph()
    result = run_program(graph, analytic.make_program())
    return analytic, result


class TestALS:
    def test_alternation_converges(self, small_ratings):
        _a, result = run_als(small_ratings, num_features=4, max_rounds=8)
        rmse = rmse_of_run(result.aggregators)
        assert rmse < 1.0  # synthetic data has low-rank structure + noise

    def test_error_decreases_over_rounds(self, small_ratings):
        _, short = run_als(small_ratings, num_features=4, max_rounds=1,
                           tolerance=0.0)
        _, long = run_als(small_ratings, num_features=4, max_rounds=8,
                          tolerance=0.0)
        assert rmse_of_run(long.aggregators) <= rmse_of_run(short.aggregators) + 1e-9

    def test_edge_values_carry_rating_prediction_error(self, small_ratings):
        _a, result = run_als(small_ratings, num_features=4, max_rounds=3)
        assert result.edge_values
        for (_u, _v), value in result.edge_values.items():
            rating, prediction, error = value
            assert 0.0 <= rating <= 5.0
            assert error == pytest.approx(rating - prediction)

    def test_only_one_side_computes_per_superstep(self, small_ratings):
        analytic, result = run_als(small_ratings, num_features=4, max_rounds=3)
        num_users = small_ratings.num_users
        # Superstep 1 updates users: every updated vector belongs to a user.
        # We can't observe per-superstep values directly, but the alternation
        # implies the run used an odd number of supersteps >= 3.
        assert result.num_supersteps >= 3

    def test_vectors_have_requested_dimension(self, small_ratings):
        _a, result = run_als(small_ratings, num_features=6, max_rounds=2)
        for value in result.values.values():
            assert np.asarray(value).shape == (6,)

    def test_deterministic_given_seed(self, small_ratings):
        _a1, r1 = run_als(small_ratings, num_features=4, max_rounds=3, seed=5)
        _a2, r2 = run_als(small_ratings, num_features=4, max_rounds=3, seed=5)
        for v in r1.values:
            assert np.allclose(r1.values[v], r2.values[v])

    def test_value_diff_is_euclidean(self):
        bg = movielens_like(10, 5, 30, seed=1)
        a = ALS(bg)
        assert a.value_diff((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)
        assert a.value_diff(None, (1.0,)) == float("inf")

    def test_provenance_value_is_flat_tuple(self):
        bg = movielens_like(10, 5, 30, seed=1)
        a = ALS(bg)
        frozen = a.provenance_value(np.array([1.0, 2.0]))
        assert frozen == (1.0, 2.0)
        assert hash(frozen) is not None

    def test_rmse_of_run_handles_empty(self):
        assert math.isnan(rmse_of_run({}))

    def test_result_vector_names_rmse_of_run(self, small_ratings):
        a, result = run_als(small_ratings, num_features=4, max_rounds=1)
        with pytest.raises(TypeError, match="rmse_of_run"):
            a.result_vector(result.values)
