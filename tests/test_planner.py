"""Shortest-path layer planner against the exhaustive enumeration.

The oracle scores every activation with ``kernels.activation_rewards`` and
picks the winner with the documented tie rule (``pick_activation``); the
planner under test runs a shortest path over ``kernels.pair_weights``.
Trees come from Hypothesis-drawn depth, density and seed; integer weights
make exact ties common, real weights make them rare.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm import kernels
from beamckm.strategy import shortest_plan

from conftest import FOUR_LEAF_WEIGHTS, from_bottom_weights
from oracles import enumerate_activations, pick_activation

PROPERTY = settings(max_examples=60, deadline=None)


def make_tree(num_layers, density, seed, integer):
    rng = np.random.default_rng(seed)
    n = 2**num_layers
    mask = rng.random(n) < density
    if not mask.any():
        mask[rng.integers(n)] = True
    values = rng.integers(1, 4, n).astype(float) if integer else rng.uniform(0.1, 3.0, n)
    weights = np.where(mask, values, 0.0)
    return from_bottom_weights(weights), weights


@st.composite
def trees(draw, num_layers):
    return make_tree(
        num_layers,
        draw(st.sampled_from([0.05, 0.2, 0.5, 0.9])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.booleans()),
    )


def activation_matrix(acts, num_layers):
    mat = np.zeros((len(acts), num_layers), dtype=np.uint8)
    for z, layers in enumerate(acts):
        mat[z, np.asarray(layers) - 1] = 1
    return mat


def enumerated_rewards(tree, weights, acts):
    """Rewards of the activations ``acts``."""
    L = tree.num_layers
    mat = activation_matrix(acts, L)
    targets = tree.bottom_candidates().astype(np.int64)
    return kernels.activation_rewards(tree.prefix_sums(), mat, weights, targets, L)


def oracle_best(tree, weights, from_layer):
    acts = enumerate_activations(from_layer, tree.num_layers)
    rewards = enumerated_rewards(tree, weights, acts)
    z = pick_activation(acts, rewards)
    return acts[z], float(rewards[z])


def planning_from(tree, from_layer):
    """The same toy state, planning from a root at ``from_layer``."""
    tree.root = None if from_layer == 0 else bc.BeamId(from_layer, 1)
    return tree


class TestSingleUserPlanner:
    @PROPERTY
    @given(st.integers(2, 9).flatmap(lambda L: trees(L)))
    def test_matches_enumeration_from_every_layer(self, case):
        tree, weights = case
        L = tree.num_layers
        for from_layer in range(L):
            want_act, want_reward = oracle_best(tree, weights, from_layer)
            act, got_reward = bc.best_activation(planning_from(tree, from_layer))
            assert act[0] == want_act[0], (from_layer, act, want_act)
            assert got_reward == pytest.approx(want_reward, rel=1e-12, abs=0.0)
            if len(tree.bottom_candidates()) > 1:
                assert bc.optimal_layer(tree) == want_act[0]

    @PROPERTY
    @given(st.integers(2, 9).flatmap(lambda L: trees(L)), st.randoms(use_true_random=False))
    def test_target_order_never_changes_the_plan(self, case, rnd):
        tree, weights = case
        L = tree.num_layers
        targets = tree.bottom_candidates().astype(np.int64)
        shuffled = targets.copy()
        rnd.shuffle(shuffled)
        csum = tree.prefix_sums()
        for from_layer in range(L):
            plans = []
            for order in (targets, shuffled):
                entry, edges = kernels.pair_weights(csum, weights, order, L)
                edges[from_layer] = entry
                plans.append(shortest_plan(edges, from_layer, L)[1])
            assert plans[0] == plans[1]

    def test_four_leaf_exact_tie_takes_fewest_layers(self, four_leaf_tree):
        acts = enumerate_activations(0, 3)
        rewards = dict(zip(acts, enumerated_rewards(four_leaf_tree, FOUR_LEAF_WEIGHTS, acts)))
        assert rewards[(2, 3)] == rewards[(3,)] == -16.0
        act, reward = bc.best_activation(four_leaf_tree)
        assert (act, reward) == ((3,), -16.0)

    def test_rounding_level_difference_is_a_tie(self):
        acts = [(2, 3), (3,)]
        rounded = -16.0 * (1 + 4e-16)
        assert rounded != -16.0
        # the one-layer plan wins although its cost rounded up
        assert pick_activation(acts, np.array([-16.0, rounded])) == 1
        # a real difference still decides
        assert pick_activation(acts, np.array([-16.0, -16.5])) == 0

    def test_equal_length_ties_take_deepest_first_layer(self):
        assert pick_activation([(1, 4), (2, 4)], np.array([-5.0, -5.0])) == 1
        assert pick_activation([(1, 3, 4), (1, 2, 4)], np.array([-5.0, -5.0])) == 0

    def test_planner_applies_the_tie_rule(self):
        # (3,), (1, 3) and (2, 3) all cost 6, the last one rounded up
        edges = np.zeros((4, 4))
        edges[0, 1:] = [2.0, 3.0, 6.0]
        edges[1, 2:] = [3.0, 4.0]
        edges[2, 3] = 3.0 * (1 + 4e-16)
        assert shortest_plan(edges, 0, 3) == (6.0, (3,))
        # without the one-layer plan the deeper entry takes the tie
        edges[0, 3] = 6.5
        assert shortest_plan(edges, 0, 3)[1] == (2, 3)

    def test_no_layers_left_rejected(self, four_leaf_tree):
        with pytest.raises(ValueError):
            bc.best_activation(planning_from(four_leaf_tree, 3))
