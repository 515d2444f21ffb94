"""Constrained k-means grouping and random-swap perturbation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    constrained_kmeans_groups,
    group_cohesion_cost,
    group_gpus,
    swap_perturbation,
)
from repro.util.rng import make_rng


def two_cluster_dist(n_per=4, near=1.0, far=100.0):
    """Block distance matrix with two tight clusters."""
    n = 2 * n_per
    d = np.full((n, n), far)
    for blk in (slice(0, n_per), slice(n_per, n)):
        d[blk, blk] = near
    np.fill_diagonal(d, 0.0)
    return d


class TestConstrainedKmeans:
    def test_exact_sizes(self):
        d = two_cluster_dist(4)
        groups = constrained_kmeans_groups(d, 2, 4, make_rng(0))
        assert sorted(len(g) for g in groups) == [4, 4]

    def test_recovers_clusters(self):
        d = two_cluster_dist(4)
        groups = constrained_kmeans_groups(d, 2, 4, make_rng(0))
        sets = [frozenset(g) for g in groups]
        assert frozenset(range(4)) in sets
        assert frozenset(range(4, 8)) in sets

    def test_partial_assignment(self):
        """More points than needed: exactly n_groups*size are placed."""
        d = two_cluster_dist(5)  # 10 points
        groups = constrained_kmeans_groups(d, 2, 3, make_rng(0))
        placed = [i for g in groups for i in g]
        assert len(placed) == len(set(placed)) == 6

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            constrained_kmeans_groups(np.zeros((3, 3)), 2, 2, make_rng(0))


class TestCohesion:
    def test_worst_pair(self):
        d = two_cluster_dist(2)
        assert group_cohesion_cost(d, [0, 1]) == 1.0
        assert group_cohesion_cost(d, [0, 2]) == 100.0

    def test_singleton_zero(self):
        assert group_cohesion_cost(np.zeros((2, 2)), [0]) == 0.0


class TestSwapPerturbation:
    def test_improves_bad_grouping(self):
        # One misplaced member per group: a single improving swap fixes it
        # (the paper's greedy accept-if-better swaps cannot do multi-swap
        # escapes, so the seed grouping must be one swap from optimal).
        d = two_cluster_dist(4)
        bad = [[0, 1, 2, 4], [3, 5, 6, 7]]

        def cost(g):
            return group_cohesion_cost(d, g)

        groups, final, rounds = swap_perturbation(bad, cost, make_rng(0))
        assert final == pytest.approx(2.0)  # both groups tight
        assert rounds >= 1

    def test_no_worsening(self):
        d = two_cluster_dist(4)
        good = [[0, 1, 2, 3], [4, 5, 6, 7]]

        def cost(g):
            return group_cohesion_cost(d, g)

        groups, final, _ = swap_perturbation(good, cost, make_rng(0))
        assert final == pytest.approx(2.0)
        assert [sorted(g) for g in groups] == good

    def test_converges_within_five_rounds(self):
        """The paper's claim: perturbation converges within ~5 rounds."""
        rng = np.random.default_rng(0)
        n = 16
        pts = rng.normal(size=(n, 2))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        init = [list(range(0, 8)), list(range(8, 16))]
        _, _, rounds = swap_perturbation(
            init, lambda g: group_cohesion_cost(d, g), make_rng(1),
            max_rounds=10,
        )
        assert rounds <= 6

    def test_single_group_noop(self):
        groups, cost, rounds = swap_perturbation(
            [[0, 1]], lambda g: 1.0, make_rng(0)
        )
        assert rounds == 0

    def test_spare_pool_swaps_in_idle_members(self):
        # The spare pool holds the cheaper members; it is never scored
        # and not returned.
        scored = []

        def cost(g):
            scored.append(tuple(g))
            return float(sum(g))

        groups, final, _ = swap_perturbation(
            [[2, 3]], cost, make_rng(0), spare=[0, 1, 4]
        )
        assert [sorted(g) for g in groups] == [[0, 1]]
        assert final == cost(groups[0])
        assert all(len(g) == 2 for g in scored)

    def test_preserves_membership(self):
        d = two_cluster_dist(4)
        init = [[0, 1, 4, 5], [2, 3, 6, 7]]
        groups, _, _ = swap_perturbation(
            init, lambda g: group_cohesion_cost(d, g), make_rng(0)
        )
        assert sorted(i for g in groups for i in g) == list(range(8))


class TestGroupGpus:
    def test_maps_to_gpu_ids(self):
        d = two_cluster_dist(2)
        gpu_ids = [10, 11, 20, 21]
        groups = group_gpus(d, gpu_ids, 2, 2, rng=make_rng(0))
        sets = {frozenset(g) for g in groups}
        assert sets == {frozenset({10, 11}), frozenset({20, 21})}

    def test_spare_pool_can_swap_in(self):
        """A far outlier initially chosen must be swappable for a spare."""
        # 5 points: 0-3 tight cluster, 4 far away. One group of 2.
        d = np.full((5, 5), 1.0)
        d[4, :] = d[:, 4] = 1000.0
        np.fill_diagonal(d, 0.0)
        groups = group_gpus(
            d, [0, 1, 2, 3, 4], 1, 2, rng=make_rng(3), perturb=True
        )
        assert 4 not in groups[0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            group_gpus(np.zeros((3, 3)), [0, 1], 1, 2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_partition_validity_property(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        pts = rng.normal(size=(n, 3))
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        groups = group_gpus(d, list(range(n)), 3, 4, rng=make_rng(seed))
        flat = [i for g in groups for i in g]
        assert len(flat) == 12 and len(set(flat)) == 12
        assert all(len(g) == 4 for g in groups)
