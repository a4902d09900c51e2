"""The two-level descent policy of the lookahead search.

Each case is a toy search state (``from_bottom_weights``) whose candidates
below the root have one local topology.  The depth decision is frozen by
hand-computed expected probe counts: stepwise costs 4*wa + 4*wb + 2*wc and
the two-level jump costs 3*(wa + wb + wc) for a branch pair (wa, wb) and a
lone chain wc.
"""

import numpy as np
import pytest

import beamckm as bc
from beamckm import lookahead as la

from conftest import (
    FOUR_LEAF_WEIGHTS,
    exhaustive_best_beam,
    from_bottom_weights,
    responses_of,
    scene_channel,
    toy_ckm,
)
from oracles import steering_vector

# planning from layer 2 of a 16-beam tree: the children are layer-3 beams
# 1 and 2, the grandchildren bottom beams 1-4
ROOT2 = bc.BeamId(2, 1)


def below_root2(*grandchild_weights):
    """State at ``ROOT2`` whose bottom beams 1-4 weigh the given values."""
    w = np.zeros(16)
    w[: len(grandchild_weights)] = grandchild_weights
    return from_bottom_weights(w, root=ROOT2)


def asym_state(wa, wb, wc):
    """Pair (1, 2) under child 1 and the lone grandchild 3 under child 2."""
    return below_root2(wa, wb, wc, 0.0)


def one_hot_ckm():
    """Four points, each lighting up one of the bottom beams {1, 2, 3, 5}."""
    bottom = np.zeros((4, 8))
    for row, beam in enumerate([1, 2, 3, 5]):
        bottom[row, beam - 1] = 1.0
    return toy_ckm(bottom)


class TestClassify:
    def test_full_tree(self):
        assert la.next_layer(below_root2(1.0, 1.0, 1.0, 1.0)) == 3
        assert la.next_layer(from_bottom_weights(np.ones(8))) == 1

    def test_single_chain(self):
        assert la.next_layer(below_root2(0.0, 1.0, 1.0, 0.0)) == 4

    def test_asymmetric_either_side(self):
        # equal weights jump, a concentrated lone chain steps, whichever
        # child holds the pair
        assert la.next_layer(asym_state(1.0, 1.0, 1.0)) == 4
        assert la.next_layer(below_root2(1.0, 0.0, 1.0, 1.0)) == 4
        assert la.next_layer(asym_state(0.1, 0.1, 0.8)) == 3
        assert la.next_layer(below_root2(0.8, 0.0, 0.1, 0.1)) == 3

    def test_forced_descent_and_terminal(self):
        # a lone child steps even though two chains hang below it
        assert la.next_layer(below_root2(0.0, 0.0, 1.0, 1.0)) == 3
        w = np.zeros(16)
        w[[4, 5]] = 1.0
        assert la.next_layer(from_bottom_weights(w, root=bc.BeamId(3, 3))) == 4

    def test_empty_and_malformed_views_rejected(self):
        # no candidate below the root
        empty = from_bottom_weights(np.r_[np.zeros(8), np.ones(8)], root=ROOT2)
        with pytest.raises(ValueError, match="no candidate children"):
            la.next_layer(empty)


class TestNextLayer:
    def test_equal_weights_jump_two_levels(self):
        # stepwise 4+4+2 = 10 against the jump's 3*3 = 9
        assert la.next_layer(asym_state(1.0, 1.0, 1.0)) == 4

    def test_concentrated_chain_steps_one_level(self):
        # stepwise 0.4+0.4+1.6 = 2.4 < 3.0
        assert la.next_layer(asym_state(0.1, 0.1, 0.8)) == 3

    def test_exact_tie_prefers_stepwise(self):
        # wa + wb == wc makes both plans cost the same
        assert la.next_layer(asym_state(0.5, 0.5, 1.0)) == 3

    def test_fixed_topologies(self):
        # weights never matter outside the mixed case
        for scale in (0.01, 1.0, 100.0):
            assert la.next_layer(below_root2(scale, 1.0, 2.0, 3.0)) == 3
            assert la.next_layer(below_root2(0.0, scale, 1.0, 0.0)) == 4
            assert la.next_layer(below_root2(0.0, 0.0, scale, 1.0)) == 3


class TestSubtreeView:
    def test_four_leaf_virtual_root(self, four_leaf_tree):
        weights = [
            np.array([3.0, 1.0]),
            np.array([2.0, 1.0, 1.0, 0.0]),
            np.array([1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0]),
        ]
        for layer, want in enumerate(weights, 1):
            np.testing.assert_array_equal(four_leaf_tree.layer_weights(layer), want)
        children, grandchildren = la.subtree_view(four_leaf_tree)
        np.testing.assert_array_equal(children, [1, 2])
        np.testing.assert_array_equal(grandchildren, [1, 2, 3])
        # pair weights 2 and 1, lone chain 1: stepwise 14 against the jump's 12
        assert la.next_layer(four_leaf_tree) == 2
        # one level above the bottom, the children are bottom beams
        children, grandchildren = la.subtree_view(
            from_bottom_weights(FOUR_LEAF_WEIGHTS, root=bc.BeamId(2, 1))
        )
        np.testing.assert_array_equal(children, [1, 2])
        assert grandchildren is None

    def test_bottom_node_rejected(self):
        with pytest.raises(ValueError):
            la.subtree_view(from_bottom_weights(FOUR_LEAF_WEIGHTS, root=bc.BeamId(3, 1)))


class TestRunLookahead:
    def test_toy_jump_resolves_lone_leaf_in_three_probes(self):
        # equal-weight asymmetric root: jump to layer 2, and the feedback
        # for the right half pins the only leaf there with no more probes
        ckm = one_hot_ckm()
        h = steering_vector(-1 + 9 / 8, 8)  # center of bottom beam 5
        chosen, overhead, rounds = bc.run_lookahead(ckm, _prior4(), responses_of(h), 0.0, 0.5)
        assert chosen == bc.BeamId(3, 5)
        assert overhead == 3
        assert [r.layer for r in rounds] == [2]
        assert rounds[0].probed == (1, 2, 3)

    def test_toy_jump_left_half_needs_two_more(self):
        ckm = one_hot_ckm()
        h = steering_vector(-1 + 1 / 8, 8)  # center of bottom beam 1
        chosen, overhead, rounds = bc.run_lookahead(ckm, _prior4(), responses_of(h), 0.0, 0.5)
        assert chosen == bc.BeamId(3, 1)
        assert overhead == 5
        assert [r.layer for r in rounds] == [2, 3]

    def test_complete_tree_costs_two_per_layer(self):
        ckm = toy_ckm(np.ones((1, 16)))
        prior = bc.PositionPrior((bc.SubRegion((0,), 1.0),))
        h = 0.9 * steering_vector(bc.bottom_angles(16)[10], 16)
        chosen, overhead, rounds = bc.run_lookahead(ckm, prior, responses_of(h), 0.0, 0.5)
        assert chosen == bc.BeamId(4, 11)
        assert overhead == 2 * 4
        assert [r.layer for r in rounds] == [1, 2, 3, 4]
        assert all(r.probes == 2 for r in rounds)

    def test_single_chain_pair_costs_two_total(self):
        bottom = np.zeros((2, 16))
        bottom[0, 4] = 1.0  # bottom beam 5
        bottom[1, 5] = 1.0  # bottom beam 6
        ckm = toy_ckm(bottom)
        prior = bc.PositionPrior((bc.SubRegion((0, 1), 1.0),))
        h = steering_vector(bc.bottom_angles(16)[5], 16)
        chosen, overhead, rounds = bc.run_lookahead(ckm, prior, responses_of(h), 0.0, 0.5)
        assert chosen == bc.BeamId(4, 6)
        assert overhead == 2
        free = [r for r in rounds if r.probes == 0]
        assert len(free) == 3  # forced hops down the shared chain
        assert all(r.feedback == r.probed[0] for r in free)

    def test_lone_leaf_costs_nothing(self):
        bottom = np.zeros((1, 16))
        bottom[0, 9] = 1.0
        ckm = toy_ckm(bottom)
        prior = bc.PositionPrior((bc.SubRegion((0,), 1.0),))
        h = steering_vector(bc.bottom_angles(16)[9], 16)
        chosen, overhead, rounds = bc.run_lookahead(ckm, prior, responses_of(h), 0.0, 0.5)
        assert chosen == bc.BeamId(4, 10)
        assert overhead == 0
        assert rounds == []

    def test_matches_plan_search_on_complete_tree(self):
        ckm = toy_ckm(np.ones((1, 16)))
        prior = bc.PositionPrior((bc.SubRegion((0,), 1.0),))
        for leaf in [0, 3, 8, 15]:
            h = steering_vector(bc.bottom_angles(16)[leaf], 16)
            a = bc.run_single_user(ckm, prior, responses_of(h), 0.0, 0.5)
            b = bc.run_lookahead(ckm, prior, responses_of(h), 0.0, 0.5)
            assert a[0] == b[0]
            assert a[1] == b[1] == 8

    def test_noiseless_matches_exhaustive_oracle(self, small_scene):
        ckm = small_scene["ckm"]
        rng = np.random.default_rng(19)
        prior = bc.PositionPrior(
            (bc.SubRegion(tuple(range(34, 40)), 0.5), bc.SubRegion(tuple(range(200, 208)), 0.5))
        )
        for _ in range(25):
            point = bc.sample_true_position(prior, rng)
            h = scene_channel(small_scene, point)
            chosen, overhead, rounds = bc.run_lookahead(ckm, prior, responses_of(h), 0.0, 0.5)
            assert chosen == exhaustive_best_beam(small_scene, h)
            assert overhead == sum(r.probes for r in rounds)
            assert overhead <= 2 * ckm.num_layers

    def test_same_seed_reproduces_episode(self, small_scene):
        ckm = small_scene["ckm"]
        prior = bc.PositionPrior((bc.SubRegion(tuple(range(100, 130)), 1.0),))
        h = scene_channel(small_scene, 105)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            runs.append(
                bc.run_lookahead(ckm, prior, responses_of(h), 0.05, 0.5, rng=rng)
            )
        assert runs[0] == runs[1]


def _prior4():
    return bc.PositionPrior((bc.SubRegion((0, 1, 2, 3), 1.0),))
