"""Search states: weights, pruned candidate trees, and observation folding.

Oracles: per-point threshold retention and the pairwise-sum layer
recursion recomputed inline with plain numpy, then compared against the
module's bookkeeping.
"""

import functools
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm import beamtree
from beamckm.beamtree import fold
from beamckm.codebook import layer_rows, layer_start, row_of
from beamckm.lookahead import next_layer
from beamckm.multiuser import prune_user_points
from beamckm.strategy import episode_outcome, next_round, optimal_layer, run_searches

import oracles
from conftest import (
    ancestor_closed,
    bottom_candidates,
    bottom_weights,
    candidate_count,
    candidates,
    episode,
    from_bottom_weights,
    layer_masks,
    layer_weights,
    noise_of,
    observe,
    stack_layers,
    toy_ckm,
    uniform_prior,
)
from oracles import derived_view, pair_weights, prefix_sums


def layer_sum_oracle(bottom_weights):
    """Reference recursion: each upper weight is the sum of its two kids."""
    out = [np.asarray(bottom_weights, dtype=float)]
    while out[-1].size > 2:
        out.append(out[-1].reshape(-1, 2).sum(axis=1))
    out.reverse()
    return out


def four_point_ckm():
    """One candidate point per four-leaf beam {1, 2, 3, 5} of 8."""
    bottom = np.zeros((4, 8))
    for row, beam in enumerate([1, 2, 3, 5]):
        bottom[row, beam - 1] = 1.0
    return toy_ckm(bottom)


class TestThresholdRetention:
    def test_half_threshold_keeps_only_dominant_beam(self):
        ckm = toy_ckm(np.array([[1.0, 0.3, 0.05, 0.0]]))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=0.5)
        np.testing.assert_allclose(bottom_weights(table), [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            bottom_candidates(bc.beamtree.candidate_beams(table)), [1]
        )

    def test_low_threshold_keeps_all_nonzero(self):
        ckm = toy_ckm(np.array([[1.0, 0.3, 0.05, 0.0]]))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=0.04)
        np.testing.assert_allclose(bottom_weights(table), [1.0, 0.3, 0.05, 0.0])

    def test_beta_one_keeps_only_argmax(self):
        ckm = toy_ckm(np.array([[0.9, 1.0, 0.3, 0.0]]))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=1.0)
        np.testing.assert_allclose(bottom_weights(table), [0.0, 1.0, 0.0, 0.0])

    def test_beta_one_exact_tie_keeps_both(self):
        ckm = toy_ckm(np.array([[1.0, 1.0, 0.3, 0.0]]))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=1.0)
        np.testing.assert_array_equal(bottom_weights(table) > 0, [True, True, False, False])

    def test_retain_cap_keeps_strongest_stable(self):
        ckm = toy_ckm(np.array([[0.5, 1.0, 1.0, 0.9]]))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior([0]), beta=0.1, retain_beams=2)
        np.testing.assert_array_equal(
            bottom_candidates(bc.beamtree.candidate_beams(table)), [2, 3]
        )

    def test_retention_matches_oracle_on_random_gains(self):
        rng = np.random.default_rng(17)
        ckm = toy_ckm(rng.uniform(0.0, 1.0, size=(6, 8)))
        stored = ckm.gains[layer_rows(ckm.num_layers)].T.astype(np.float64)  # what the table reads
        for beta, retain in [(0.3, None), (0.7, None), (0.5, 3), (1.0, 1)]:
            table = bc.beamtree.compute_point_weights(
                ckm, uniform_prior(np.arange(6)), beta=beta, retain_beams=retain
            )
            keep = oracles.threshold_keep(stored, beta, retain)
            expected = (np.full(6, 1.0 / 6)[:, None] * stored * keep).sum(axis=0)
            np.testing.assert_allclose(bottom_weights(table), expected, rtol=1e-12)

    def test_parameter_validation(self):
        ckm = toy_ckm(np.ones((1, 4)))
        with pytest.raises(ValueError):
            bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=0.0)
        with pytest.raises(ValueError):
            bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=1.5)
        with pytest.raises(ValueError):
            bc.beamtree.compute_point_weights(ckm, uniform_prior([0]), beta=0.5, retain_beams=0)
        with pytest.raises(ValueError):
            bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([], dtype=int)), beta=0.5)


class TestLayerRecursion:
    def test_pairwise_sum_example(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 2.0, 0.0]]))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=0.1)
        np.testing.assert_allclose(layer_weights(table, 2), [1.0, 0.0, 2.0, 0.0])
        np.testing.assert_allclose(layer_weights(table, 1), [1.0, 2.0])

    def test_total_weight_identical_across_layers(self):
        rng = np.random.default_rng(23)
        ckm = toy_ckm(rng.uniform(0.0, 1.0, size=(5, 16)))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.arange(5)), beta=0.2)
        layers = [layer_weights(table, l) for l in range(1, 5)]
        totals = [w.sum() for w in layers]
        np.testing.assert_allclose(totals, totals[-1], rtol=1e-12)
        for got, want in zip(layers, layer_sum_oracle(layers[-1])):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_weights_scale_with_gains(self):
        bottom = np.random.default_rng(1).uniform(0.1, 1.0, size=(3, 8))
        t1 = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(range(3)), beta=0.4)
        t2 = bc.beamtree.compute_point_weights(toy_ckm(5.0 * bottom), uniform_prior(range(3)), beta=0.4)
        np.testing.assert_allclose(
            bottom_weights(t2), 5.0 * bottom_weights(t1), rtol=1e-6
        )
        np.testing.assert_array_equal(t1.contrib > 0, t2.contrib > 0)

    def test_candidates_shrink_as_beta_grows(self):
        bottom = np.random.default_rng(2).uniform(0.0, 1.0, size=(4, 16))
        counts = []
        for beta in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]:
            table = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(range(4)), beta=beta)
            counts.append(len(bottom_candidates(bc.beamtree.candidate_beams(table))))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestPrunedTree:
    def test_four_leaf_candidate_layers(self, four_leaf_tree):
        np.testing.assert_array_equal(bottom_candidates(four_leaf_tree), [1, 2, 3, 5])
        np.testing.assert_array_equal(candidates(four_leaf_tree, 2), [1, 2, 3])
        np.testing.assert_array_equal(candidates(four_leaf_tree, 1), [1, 2])
        assert candidate_count(four_leaf_tree, 2) == 3
        assert four_leaf_tree.weights[row_of(bc.BeamId(3, 5))] > 0
        assert not four_leaf_tree.weights[row_of(bc.BeamId(3, 4))] > 0

    def test_prefix_sums_match_cumsum(self, four_leaf_tree):
        csum = prefix_sums(four_leaf_tree)
        assert csum.shape == (3, 9)
        for l in range(1, 4):
            mask = layer_weights(four_leaf_tree, l) > 0
            expect = np.concatenate([[0], np.cumsum(mask)])
            np.testing.assert_array_equal(csum[l - 1, : 2**l + 1], expect)
            np.testing.assert_array_equal(csum[l - 1, 2**l + 1 :], mask.sum())

    def test_from_bottom_weights_requires_power_of_two(self):
        with pytest.raises(ValueError):
            from_bottom_weights(np.ones(6))
        # the state itself needs gains over the whole codebook of its depth
        with pytest.raises(ValueError, match="full codebook"):
            bc.beamtree.SearchState(np.arange(1), np.ones(1), np.ones((1, 10)), 0.5)
        with pytest.raises(ValueError, match="shape"):
            bc.beamtree.SearchState(np.arange(1), np.ones(1), np.ones(14), 0.5)

    @pytest.mark.parametrize(
        "ids, mass, rows",
        [((5,), (3,), 3), ((3,), (5,), 3), ((3,), (3,), 5), ((3,), (3, 1), 3)],
        ids=["ids", "mass", "gains", "mass-column"],
    )
    def test_misaligned_point_arrays_named(self, ids, mass, rows):
        with pytest.raises(ValueError, match=r"point_ids .*, point_mass .* and gains .* per point"):
            bc.beamtree.SearchState(np.zeros(ids, dtype=int), np.ones(mass), np.ones((rows, 14)), 0.5)

    def test_candidate_trees_are_ancestor_closed(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=16) * (rng.uniform(size=16) < 0.4)
            if w.max() <= 0:
                continue
            assert ancestor_closed(layer_masks(from_bottom_weights(w)))
        assert not ancestor_closed([np.array([True, False]), np.array([False, False, True, False])])


class TestApplyObservation:
    def test_observing_right_half_leaves_single_leaf(self):
        ckm = four_point_ckm()
        state = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.arange(4)), beta=0.5)
        np.testing.assert_array_equal(bottom_candidates(bc.beamtree.candidate_beams(state)), [1, 2, 3, 5])
        state = observe(state, bc.BeamId(1, 2))
        np.testing.assert_array_equal(bottom_candidates(state), [5])
        assert state.root == bc.BeamId(1, 2)
        np.testing.assert_array_equal(state.alive_points, [3])

    def test_points_drop_when_argmax_disagrees(self):
        ckm = four_point_ckm()
        state = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.arange(4)), beta=0.5)
        state = observe(state, bc.BeamId(1, 1))
        # points backing beams 1, 2, 3 stay; the beam-5 point is gone
        np.testing.assert_array_equal(state.alive_points, [0, 1, 2])
        np.testing.assert_array_equal(bottom_candidates(state), [1, 2, 3])

    def test_argmax_tie_counts_for_smaller_index(self):
        # both layer-1 wide beams read the same gain for this point: the
        # tie votes for beam 1, so observing beam 2 discards the point
        bottom = np.array([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        state = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(np.array([0])), beta=0.5)
        state = observe(state, bc.BeamId(1, 2))
        assert state.alive_points.size == 0
        assert state.uniform_fallback

    def test_non_candidate_observation_rejected(self):
        ckm = four_point_ckm()
        state = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.arange(4)), beta=0.5)
        with pytest.raises(ValueError):
            observe(state, bc.BeamId(3, 4))

    def test_a_bad_move_makes_no_child(self):
        # every move is checked before any child is made: a call whose last
        # move is not a candidate leaves every view's children as they were
        ckm, prior = four_point_ckm(), uniform_prior(np.arange(4))
        one, two = (bc.beamtree.compute_point_weights(ckm, prior, beta=0.5) for _ in range(2))
        kept = bc.beamtree.apply_observation([(one, bc.BeamId(1, 1))])[0]
        before = [dict(s.view.children) for s in (one, two)]
        moves = [(one, bc.BeamId(1, 2)), (two, bc.BeamId(1, 1)), (one, bc.BeamId(1, 1)),
                 (two, bc.BeamId(3, 4))]
        with pytest.raises(ValueError, match="not a candidate"):
            bc.beamtree.apply_observation(moves)
        assert [s.view.children for s in (one, two)] == before
        assert one.view.children[1, 1] is kept and not two.view.children
        for bad in (bc.BeamId(3, 4), bc.BeamId(4, 1)):  # not a candidate; below the bottom
            with pytest.raises(ValueError, match="not a candidate"):
                bc.beamtree.apply_observation([(two, bc.BeamId(1, 1)), (two, bad)])
            assert not two.view.children

    def test_one_fold_per_built_state(self, monkeypatch):
        # a call folds the new children of each built state in one fold, and
        # gives one child per (view, observed beam)
        ckm, prior = four_point_ckm(), uniform_prior(np.arange(4))
        one, two = (bc.beamtree.compute_point_weights(ckm, prior, beta=0.5) for _ in range(2))
        folded = []

        def recorded(states, *args):
            folded.append(len(states))
            fold(states, *args)

        monkeypatch.setattr(beamtree, "fold", recorded)
        left, right = bc.BeamId(1, 1), bc.BeamId(1, 2)
        moves = [(one, left), (two, left), (one.copy(), left), (one, right), (two, left)]
        children = bc.beamtree.apply_observation(moves)
        assert sorted(folded) == [1, 2]
        assert children[0] is children[2] is one.view.children[1, 1]
        assert children[1] is children[4] is two.view.children[1, 1] is not children[0]
        assert children[3] is one.view.children[1, 2]
        for (state, observed), child in zip(moves, children):
            want = observe(bc.beamtree.compute_point_weights(ckm, prior, beta=0.5), observed)
            assert child.root == observed == want.root
            np.testing.assert_array_equal(child.point_alive, want.point_alive)
            np.testing.assert_array_equal(child.weights, want.weights)
        # a later call finds every child in the views and folds nothing
        calls = len(folded)
        again = bc.beamtree.apply_observation(moves)
        assert all(a is b for a, b in zip(again, children)) and len(folded) == calls

    def test_contradictory_observation_falls_back_to_uniform_subtree(self):
        # both points bet on the left half; observing the right half wipes
        # them out and the subtree reverts to uniform weights
        bottom = np.tile(np.array([[1.0, 0.0, 0.0, 0.6]]), (2, 1))
        state = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(np.arange(2)), beta=0.5)
        np.testing.assert_array_equal(bottom_candidates(state), [1, 4])
        state = observe(state, bc.BeamId(1, 2))
        assert state.uniform_fallback
        np.testing.assert_array_equal(bottom_candidates(state), [3, 4])
        np.testing.assert_allclose(bottom_weights(state), [0.0, 0.0, 1.0, 1.0])

    def test_fallback_subtree_survives_second_contradiction(self):
        # once in fallback, a later observation pointing outside the current
        # fallback subtree must re-anchor on the new subtree instead of
        # leaving no candidates at all
        bottom = np.tile(np.array([[1.0, 0.0, 0.0, 0.6]]), (2, 1))
        state = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(np.arange(2)), beta=0.5)
        state = observe(state, bc.BeamId(1, 2))
        assert state.uniform_fallback
        fold([state], [np.ones(2, dtype=bool)], [bc.BeamId(2, 1)])
        np.testing.assert_allclose(bottom_weights(state), [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(bottom_candidates(bc.beamtree.candidate_beams(state)), [1])
        assert state.root == bc.BeamId(2, 1)

    def test_descent_chain_reaches_bottom(self):
        rng = np.random.default_rng(7)
        bottom = rng.uniform(0.05, 1.0, size=(6, 16))
        state = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(np.arange(6)), beta=0.3)
        node = bc.BeamId(1, 1)
        state = observe(state, node)
        for layer in range(2, 5):
            cands = candidates(state, layer)
            assert cands.size >= 1
            node = bc.BeamId(layer, int(cands[0]))
            state = observe(state, node)
        assert bottom_candidates(state).size >= 1
        assert state.root.layer == 4

    def test_all_zero_weights_have_no_candidates(self):
        # a prior whose only point has no map gain backs no beam at all
        ckm = toy_ckm(np.zeros((1, 4)))
        state = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0])), beta=0.5)
        with pytest.raises(ValueError):
            bc.beamtree.candidate_beams(state)
        # a fold never leaves that state: dropping every point engages
        # the uniform fallback instead
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0]]))
        state = bc.beamtree.compute_point_weights(ckm, uniform_prior([0]), 0.5)
        fold([state], [np.array([False])], [None])
        assert state.uniform_fallback
        np.testing.assert_array_equal(bottom_candidates(bc.beamtree.candidate_beams(state)), [1, 2, 3, 4])


class TestWeightTableState:
    def test_prior_masses_feed_weights(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        prior = bc.PositionPrior(
            (bc.SubRegion((0,), 0.75), bc.SubRegion((1,), 0.25))
        )
        table = bc.beamtree.compute_point_weights(ckm, prior, beta=0.5)
        np.testing.assert_allclose(bottom_weights(table), [0.75, 0.25, 0.0, 0.0])

    @pytest.mark.parametrize(
        "points, bad",
        [
            (uniform_prior([-1]), -1),
            (uniform_prior([0, 2, 1]), 2),
            (uniform_prior([1, 7, -3]), 7),
            (bc.PositionPrior((bc.SubRegion((-5, 3), 1.0),)), -5),
            (bc.PositionPrior((bc.SubRegion((0,), 0.5), bc.SubRegion((1, 2), 0.5))), 2),
        ],
    )
    def test_point_ids_outside_grid_rejected(self, points, bad):
        # a two-point grid: -1 would read the last point, 2 is past the end
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match=rf"grid-point id {bad} outside \[0, 2\)"):
            bc.beamtree.compute_point_weights(ckm, points, beta=0.5)

    def test_raw_indices_default_to_uniform_mass(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        table = bc.beamtree.compute_point_weights(ckm, uniform_prior(np.array([0, 1])), beta=0.5)
        np.testing.assert_allclose(bottom_weights(table), [0.5, 0.5, 0.0, 0.0])

    def test_candidate_rows_index_the_gain_columns(self):
        rng = np.random.default_rng(11)
        bottom = rng.uniform(size=(3, 8)) * (rng.random((3, 8)) < 0.5)
        table = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(np.arange(3)), beta=0.5)
        rows = table.candidate_rows(3)
        np.testing.assert_array_equal(rows, 6 + np.flatnonzero(table.contrib.sum(axis=0) > 0))
        np.testing.assert_array_equal(candidates(table, 3), rows - 5)
        np.testing.assert_allclose(table.gains[:, rows], bottom[:, rows - 6], rtol=1e-6)

    def test_restrict_without_kill_keeps_weights(self):
        bottom = np.array([[0.2, 0.3, 0.4, 0.1]])
        state = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(np.array([0])), beta=0.1)
        fold([state], [np.ones(1, dtype=bool)], [bc.BeamId(1, 1)])
        np.testing.assert_allclose(bottom_weights(state), [0.2, 0.3, 0.0, 0.0])
        assert not state.uniform_fallback


class TestTableCopies:
    """A built state's copy starts in the initial state and shares the
    fixed arrays read-only."""

    def setup_method(self):
        bottom = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, 8))
        self.ckm = toy_ckm(bottom)
        self.built = bc.beamtree.compute_point_weights(
            self.ckm, uniform_prior(range(6)), beta=0.3, retain_beams=3
        )

    def test_copy_starts_fresh_and_leaves_the_source_alone(self):
        first = self.built.copy()
        assert first is not self.built
        fold([first], [np.arange(6) < 2], [bc.BeamId(1, 2)])
        fold([first], [np.zeros(6, dtype=bool)], [None])
        assert first.uniform_fallback
        second = self.built.copy()
        for state in (self.built, second):
            assert state.point_alive.all() and state.beam_alive.all()
            assert not state.uniform_fallback and state.root is None
        np.testing.assert_array_equal(bottom_weights(second), bottom_weights(self.built))
        np.testing.assert_array_equal(second.weights, self.built.weights)
        np.testing.assert_array_equal(second.rows, self.built.rows)
        np.testing.assert_array_equal(second.alive_points, np.arange(6))

    def test_fixed_arrays_are_shared_read_only(self):
        copy = self.built.copy()
        for name in ("point_ids", "point_mass", "gains", "contrib"):
            ours, theirs = getattr(copy, name), getattr(self.built, name)
            assert ours is theirs
            assert not ours.flags.writeable
            with pytest.raises(ValueError):
                ours[0] = 0
        assert copy.point_alive is not self.built.point_alive
        assert copy.beam_alive is not self.built.beam_alive

    def test_caller_arrays_stay_writable(self):
        gains = stack_layers(np.eye(4))
        table = bc.beamtree.SearchState(np.arange(4), np.full(4, 0.25), gains, 0.5)
        assert not table.gains.flags.writeable
        gains[0, 0] = 2.0  # the caller's own array is untouched


def ancestor(beam: bc.BeamId, layer: int) -> bc.BeamId:
    """The beam at ``layer`` whose subtree holds ``beam``: each layer up
    halves the index, rounding up."""
    return bc.BeamId(layer, -(-beam.index // 2 ** (beam.layer - layer)))


class TestDepthTables:
    """What depends on the depth alone is built once per depth: every state
    of that depth holds the same read-only tables."""

    NAMES = ("_layer_rows", "_first_rows", "_pair_index", "_spans")

    def test_states_of_one_depth_share_read_only_tables(self):
        rng = np.random.default_rng(8)
        a, b = (bc.beamtree.SearchState(np.arange(n), np.full(n, 1 / n),
                               stack_layers(rng.uniform(size=(n, 16))), 0.5) for n in (3, 5))
        deeper = from_bottom_weights(np.ones(32))
        for name in self.NAMES:
            assert getattr(a, name) is getattr(b, name) is getattr(a.copy(), name)
            assert getattr(deeper, name) is not getattr(a, name)
        for array in (a._first_rows, *a._pair_index, a._spans):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = 0

    @pytest.mark.parametrize("L", range(1, 11))
    def test_tables_equal_an_independent_construction(self, L):
        layers, first, (p, q, lo, hi), spans = beamtree._tables(L)
        assert layers == (None, *(slice(layer_start(l), layer_start(l + 1))
                                  for l in range(1, L + 1)))
        assert first.tolist() == [layer_start(l) for l in range(1, L + 2)]
        bottom = [bc.BeamId(L, i) for i in range(1, 2**L + 1)]
        want = np.zeros((layer_start(L + 1), 2**L), dtype=bool)
        for b, beam in enumerate(bottom):
            for l in range(1, L + 1):
                want[row_of(ancestor(beam, l)), b] = True
        assert spans.dtype == bool
        np.testing.assert_array_equal(spans, want)
        pairs = [(s, t) for s in range(1, L + 1) for t in range(s + 1, L + 1)]
        assert list(zip(p.tolist(), q.tolist())) == pairs
        # [lo, hi): the rows at t of the subtree under each bottom beam's ancestor at s
        want_lo = [[layer_start(t) + (ancestor(beam, s).index - 1) * 2 ** (t - s)
                    for beam in bottom] for s, t in pairs]
        want_hi = [[row + 2 ** (t - s) for row in rows] for (s, t), rows in zip(pairs, want_lo)]
        assert all(a.dtype == np.int64 for a in (p, q, lo, hi))
        assert lo.reshape(-1).tolist() == sum(want_lo, [])
        assert hi.reshape(-1).tolist() == sum(want_hi, [])
        assert lo.shape == hi.shape == (len(pairs), 2**L)


def recomputed(state):
    """Flat weights, candidate rows, per-layer candidates, prefix sums and
    pair weights of the state's alive masks and fallback flag, computed
    from scratch; the pair weights from the prefix sums (the oracle)."""
    if state.uniform_fallback:
        bottom = state.beam_alive.astype(np.float64)
    else:
        bottom = np.where(state.beam_alive, state.contrib[state.point_alive].sum(axis=0), 0.0)
    layers = layer_sum_oracle(bottom)
    masks = [w > 0 for w in layers]
    L = state.num_layers
    csum = np.zeros((L, 2**L + 1), dtype=np.int64)
    for l, mask in enumerate(masks, 1):
        csum[l - 1, 1 : 2**l + 1] = np.cumsum(mask)
        csum[l - 1, 2**l + 1 :] = mask.sum()
    cands = [np.flatnonzero(mask) + 1 for mask in masks]
    pairs = pair_weights(csum, bottom, cands[-1], L)
    weights = np.concatenate(layers)
    return weights, np.flatnonzero(weights > 0), cands, csum, pairs


class OldRules:
    """The alive masks and fallback flag as the two-step rules had them:
    cut points, restrict the bottom layer to the observed subtree (a
    subtree left without weight reverts to uniform), and engage the
    fallback without moving the beams when a cut alone empties the weights."""

    def __init__(self, state):
        self.state = state
        self.point_alive = state.point_alive.copy()
        self.beam_alive = state.beam_alive.copy()
        self.fallback = False
        self.root = None

    def weights(self):
        if self.fallback:
            return self.beam_alive.astype(np.float64)
        return np.where(self.beam_alive, self.state.contrib[self.point_alive].sum(axis=0), 0.0)

    def fold(self, point_mask, observed):
        self.point_alive &= point_mask
        if observed is not None:
            shift = self.state.num_layers - observed.layer
            span = np.zeros_like(self.beam_alive)
            span[(observed.index - 1) << shift : observed.index << shift] = True
            self.beam_alive &= span
            if self.weights().max(initial=0.0) <= 0.0:
                self.beam_alive = span
                self.fallback = True
            self.root = observed
        if not self.fallback and self.weights().max(initial=0.0) <= 0.0:
            self.fallback = True


@st.composite
def observation_runs(draw):
    """A random state and a sequence of feedback folds and pruning rounds,
    with and without a descent; observations often contradict the points,
    so the uniform fallback engages in many runs."""
    L = draw(st.integers(2, 4))
    P = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bottom = rng.uniform(0.0, 1.0, (P, 2**L)) * (rng.random((P, 2**L)) < 0.5)
    mass = rng.dirichlet(np.ones(P))
    state = bc.beamtree.SearchState(
        np.arange(P),
        mass,
        stack_layers(bottom),
        draw(st.sampled_from([0.2, 0.5, 1.0])),
        draw(st.sampled_from([None, 1, 2])),
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["observe", "prune", "prune-descend"]),
                st.integers(1, L),
                st.integers(0, 2**L - 1),
                st.integers(0, 2**32 - 1),
                st.booleans(),
            ),
            max_size=8,
        )
    )
    return state, steps


class TestSearchStateCache:
    """After every fold the derived arrays equal a from-scratch
    computation on the same masks, bit for bit, and are read-only."""

    @staticmethod
    def assert_cache_matches(state):
        weights, rows, cands, csum, (entry, hops) = recomputed(state)
        L = state.num_layers
        np.testing.assert_array_equal(state.weights, weights)
        np.testing.assert_array_equal(state.rows, rows)
        for layer, want in enumerate(cands, 1):
            np.testing.assert_array_equal(candidates(state, layer), want)
        np.testing.assert_array_equal(prefix_sums(state), csum)
        cached = state.pair_weights()
        np.testing.assert_array_equal(cached[0], entry)
        np.testing.assert_array_equal(cached[1], hops)
        derived = (
            state.weights,
            state.rows,
            bottom_weights(state),
            *(layer_weights(state, l) for l in range(1, L + 1)),
            *(state.candidate_rows(l) for l in range(1, L + 1)),
            *cached,
        )
        for a in derived:
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            state.weights[0] = 1
        assert ancestor_closed(layer_masks(state))

    @settings(max_examples=150, deadline=None)
    @given(observation_runs())
    def test_updates_keep_the_cache_consistent(self, run):
        built, steps = run
        initial = recomputed(built)
        if bottom_weights(built).max() <= 0.0:
            with pytest.raises(ValueError):
                bc.beamtree.candidate_beams(built)
            return
        state = built.copy()
        old = OldRules(state)
        for kind, layer, pick, seed, check in steps:
            L = state.num_layers
            layer = max(layer, state.root_layer + 1)
            if layer > L:
                break
            if kind == "observe":
                cands = candidates(state, layer)
                if cands.size == 0:
                    break
                observed = bc.BeamId(layer, int(cands[pick % cands.size]))
                winners_before = state.gains[:, state.candidate_rows(layer)]
                won = cands[np.argmax(winners_before, axis=1)]
                state = observe(state, observed)
                old.fold(won == observed.index, observed)
            else:
                if not state.point_alive.any():
                    break
                rng = np.random.default_rng(seed)
                rows = np.arange(layer_start(layer), layer_start(layer + 1))
                g_obs = rng.uniform(0.0, 1.0, len(rows)) * (rng.random(len(rows)) < 0.7)
                descend = kind == "prune-descend"
                f_obs = bc.BeamId(layer, pick % len(rows) + 1) if descend else None
                before = state.point_alive.copy()
                prune_user_points(state, rows, g_obs, f_obs, 0.9)
                assert not (state.point_alive & ~before).any()
                old.fold(state.point_alive, f_obs)
            np.testing.assert_array_equal(state.point_alive, old.point_alive)
            np.testing.assert_array_equal(state.beam_alive, old.beam_alive)
            assert state.uniform_fallback == old.fallback
            assert state.root == old.root
            assert bottom_candidates(state).size >= 1
            if check:
                self.assert_cache_matches(state)
        self.assert_cache_matches(state)
        # the shared source is untouched, and a copy of it starts afresh
        for copy in (built, built.copy()):
            assert copy.point_alive.all() and copy.beam_alive.all()
            assert not copy.uniform_fallback and copy.root is None
            np.testing.assert_array_equal(copy.weights, initial[0])
            np.testing.assert_array_equal(copy.rows, initial[1])
            np.testing.assert_array_equal(copy.pair_weights()[1], initial[4][1])


def folded_states(state, steps):
    """``state`` after each step of an ``observation_runs`` sequence, folded
    in place; stops at a step with no layer below the root or no alive
    point."""
    L = state.num_layers
    for kind, layer, pick, seed, _ in steps:
        layer = max(layer, state.root_layer + 1)
        if layer > L or not state.point_alive.any():
            return
        if kind == "observe":
            cands = candidates(state, layer)
            state = observe(state, bc.BeamId(layer, int(cands[pick % cands.size])))
        else:
            rng = np.random.default_rng(seed)
            rows = np.arange(layer_start(layer), layer_start(layer + 1))
            g_obs = rng.uniform(0.0, 1.0, len(rows)) * (rng.random(len(rows)) < 0.7)
            descend = kind == "prune-descend"
            f_obs = bc.BeamId(layer, pick % len(rows) + 1) if descend else None
            prune_user_points(state, rows, g_obs, f_obs, 0.9)
        yield state


class TestRootSubtree:
    @settings(max_examples=150, deadline=None)
    @given(observation_runs())
    def test_positive_weights_stay_under_the_root(self, run):
        # so candidates(layer) below the root's layer are the root's descendants
        state, steps = run
        if bottom_weights(state).max() <= 0.0:
            return
        L = state.num_layers
        for state in folded_states(state, steps):
            if state.root is not None:
                shift = L - state.root.layer
                lo, hi = (state.root.index - 1) << shift, state.root.index << shift
                positive = np.flatnonzero(bottom_weights(state) > 0.0)
                assert ((positive >= lo) & (positive < hi)).all()


class TestPlannerInvariant:
    """``strategy``'s invariant on any state the searches can reach,
    uniform-fallback states included: a root at the bottom layer leaves
    one bottom candidate, and an unfinished search plans a first layer
    with two or more candidates, so alg1 never descends for free."""

    @settings(max_examples=200, deadline=None)
    @given(observation_runs())
    def test_unfinished_states_plan_two_or_more_candidates(self, run):
        state, steps = run
        if bottom_weights(state).max() <= 0.0:
            return
        for state in itertools.chain([state], folded_states(state, steps)):
            if state.root_layer == state.num_layers:
                assert len(bottom_candidates(state)) == 1
            if episode_outcome(state) is None:
                assert len(candidates(state, optimal_layer(state))) >= 2


def cached_states(state, path=()):
    """Every state cached below ``state``'s view, each with the observations
    that lead to it from ``state``."""
    for (layer, index), child in state.view.children.items():
        here = path + (bc.BeamId(layer, index),)
        yield here, child
        yield from cached_states(child, here)


class TestSearchTreeCache:
    """The states that ``run_searches`` caches below a built state are those
    that folding the same observations into a copy of the built state gives."""

    @staticmethod
    def searched_tree(seed):
        """A sparse random map's built state, after noisy alg1 and alg2
        episodes from it: the feedback is close to random, so observations
        often contradict every point and the uniform fallback engages."""
        rng = np.random.default_rng(seed)
        bottom = rng.uniform(0.0, 1.0, (6, 16)) * (rng.random((6, 16)) < 0.3)
        built = bc.beamtree.compute_point_weights(toy_ckm(bottom), uniform_prior(np.arange(6)), beta=0.5)
        cb = bc.build_codebook(16)
        for k in range(30):
            resp = bc.channel.Responses(rng.normal(size=16) + 1j * rng.normal(size=16), cb)
            for choose in (optimal_layer, next_layer):
                search = functools.partial(run_searches, choose_layer=choose)
                episode(search, built, oracles.Link(resp, 10.0, *noise_of(k)))
        return built

    def test_cached_children_equal_replayed_observations(self):
        built = self.searched_tree(3)
        walked = list(cached_states(built))
        assert len(walked) > 10
        assert any(child.uniform_fallback for _, child in walked)
        assert any(not child.uniform_fallback for _, child in walked)
        # replayed from a state rebuilt on the same arrays: its own memo, no cached child
        fresh = bc.beamtree.SearchState(built.point_ids, built.point_mass, built.gains, built.beta)
        for path, child in walked:
            replay = fresh
            for observed in path:
                replay = observe(replay, observed)
            for name in ("weights", "rows", "point_alive", "beam_alive"):
                np.testing.assert_array_equal(getattr(child, name), getattr(replay, name))
            assert child.root == replay.root == path[-1]
            assert child.uniform_fallback == replay.uniform_fallback

    def test_built_state_is_left_in_its_initial_state(self):
        built = self.searched_tree(4)
        initial = recomputed(built.copy())
        assert built.point_alive.all() and built.beam_alive.all()
        assert built.root is None and not built.uniform_fallback
        np.testing.assert_array_equal(built.weights, initial[0])
        np.testing.assert_array_equal(built.rows, initial[1])

    def test_copies_share_the_initial_cache_until_an_update(self):
        built = self.searched_tree(5)
        copy = built.copy()
        assert copy.view is built.view and built.view.children and built.view.plans
        (layer, index), child = next(iter(built.view.children.items()))
        assert bc.beamtree.apply_observation([(copy, bc.BeamId(layer, index))])[0] is child
        # a fold of the copy to the child's masks reaches its view, and so the search below
        fold([copy], [child.point_alive], [child.root])
        assert copy.view is child.view is not built.view
        assert built.copy().view is built.view

    def test_copy_folds_without_touching_the_original(self):
        built = self.searched_tree(6)
        path, node = max(cached_states(built), key=lambda item: len(item[0]))
        before = {name: getattr(node, name).copy() for name in ("point_alive", "beam_alive")}
        view = node.view
        copy = node.copy()
        assert copy.root == node.root == path[-1]
        fold([copy], [np.zeros(len(copy.point_ids), dtype=bool)], [None])
        assert copy.uniform_fallback
        # a fold that drops no alive point keeps the view and the search below it
        assert (copy.view is view) == (not node.point_alive.any())
        for name, want in before.items():
            np.testing.assert_array_equal(getattr(node, name), want)
        assert node.view is view

    def test_equal_masks_along_different_paths_share_children_and_plans(self):
        """Tree states with equal masks, reached along different feedback
        paths, hold one view, so one child per observation and one plan
        per (layer choice, root layer)."""
        built = self.searched_tree(5)
        groups = {}
        for _, state in cached_states(built):
            key = (state.point_alive.tobytes(), state.beam_alive.tobytes(), state.uniform_fallback)
            groups.setdefault(key, {})[id(state)] = state
        # a state below a shared view is reached along each path to it, but
        # two states of equal masks were reached along two paths
        shared = [list(states.values()) for states in groups.values() if len(states) > 1]
        assert len(shared) > 1
        for one, two in (states[:2] for states in shared):
            assert one is not two and one.root == two.root
            assert one.view is two.view and one.view.children is two.view.children
            if episode_outcome(one) is None:
                for choose in (optimal_layer, next_layer):
                    assert next_round(one, choose) is next_round(two, choose)


class TestViewMemo:
    """A user's state copies share one memo of derived views, keyed by the
    alive masks and the fallback flag: a state reached along any fold path
    holds the view that ``oracles.derived_view`` computes from scratch."""

    @staticmethod
    def built(points=12, beams=16, seed=7):
        rng = np.random.default_rng(seed)
        bottom = rng.uniform(0.0, 1.0, (points, beams)) * (rng.random((points, beams)) < 0.5)
        prior = uniform_prior(np.arange(points))
        return bc.beamtree.compute_point_weights(toy_ckm(bottom), prior, beta=0.3)

    @staticmethod
    def assert_matches_oracle(state):
        weights, rows, starts, (entry, hops), first = derived_view(state)
        assert state.weights.tobytes() == weights.tobytes()
        assert state.rows.dtype == rows.dtype and state.rows.tobytes() == rows.tobytes()
        assert [state.candidate_rows(l).size for l in range(1, state.num_layers + 1)] == list(
            np.diff(starts)
        )
        got_entry, got_hops = state.pair_weights()
        assert got_entry.tobytes() == entry.tobytes() and got_hops.tobytes() == hops.tobytes()
        if first is not None:
            assert optimal_layer(state) == first
        if episode_outcome(state) is None and state.candidate_rows(state.num_layers).size:
            assert next_round(state, optimal_layer)[1] == first
            assert state.view.plans[optimal_layer, state.root_layer][1] == first

    def test_same_masks_along_different_paths_share_one_view(self):
        built = self.built()
        n, L = len(built.point_ids), built.num_layers
        rng = np.random.default_rng(1)
        for _ in range(40):
            first, second = rng.random(n) < 0.8, rng.random(n) < 0.8
            layer = int(rng.integers(1, L + 1))
            observed = bc.BeamId(layer, int(rng.integers(1, 2**layer + 1)))
            steps, once = built.copy(), built.copy()
            fold([steps], [first], [None])
            fold([steps], [second], [observed])
            fold([once], [first & second], [observed])
            for name in ("point_alive", "beam_alive", "uniform_fallback", "root"):
                assert np.array_equal(getattr(steps, name), getattr(once, name))
            assert steps.view is once.view
            self.assert_matches_oracle(steps)
            self.assert_matches_oracle(once)

    def test_copies_share_views_not_masks_or_caches(self):
        built = self.built()
        one, two = built.copy(), built.copy()
        assert one._views is two._views is built._views
        assert one._profiles is two._profiles is built._profiles
        assert one.point_alive is not two.point_alive is not built.point_alive
        assert one.beam_alive is not two.beam_alive is not built.beam_alive
        drop = np.arange(len(built.point_ids)) % 3 > 0
        fold([one], [drop], [None])
        fold([two], [drop], [None])
        assert one.view is two.view and one.weights is two.weights
        assert one.view is not built.view and one.view.plans is not built.view.plans
        assert built.point_alive.all()
        self.assert_matches_oracle(one)
        self.assert_matches_oracle(built)

    def test_full_memo_stops_growing_and_still_derives(self, monkeypatch):
        monkeypatch.setattr(beamtree, "_MAX_VIEWS", 3)
        built = self.built()
        n = len(built.point_ids)
        states = []
        for i in range(n):
            state = built.copy()
            fold([state], [np.arange(n) != i], [None])
            states.append(state)
        assert len(built._views) == 3
        stored = [v for v in built._views.values()]
        assert sum(any(s.view is v for v in stored) for s in states) == 2
        again = built.copy()
        fold([again], [np.arange(n) != n - 1], [None])
        assert again.view is not states[-1].view and len(built._views) == 3
        for state in (*states, again):
            self.assert_matches_oracle(state)

    def test_update_that_changes_nothing_keeps_view_and_cache(self):
        built = self.built()
        n = len(built.point_ids)
        state = built.copy()
        fold([state], [np.arange(n) % 2 == 0], [bc.BeamId(1, 1)])
        optimal_layer(state)
        state.view.plans["kept"] = state.view.children["kept"] = True
        held = (state.view, state.weights, state.rows, state.view.children, state.view.plans)
        # dead points may be flagged either way; every alive one is kept
        for mask in (state.point_alive.copy(), np.ones(n, dtype=bool), np.arange(n) < n - 1):
            mask |= state.point_alive
            fold([state], [mask], [None])
            assert all(a is b for a, b in zip(held, (state.view, state.weights, state.rows,
                                                      state.view.children, state.view.plans)))
        self.assert_matches_oracle(state)
        # dropping an alive point is a change
        fold([state], [state.point_alive & (np.arange(n) != np.flatnonzero(state.point_alive)[0])],
             [None])
        assert state.view is not held[0] and "kept" not in state.view.plans
        self.assert_matches_oracle(state)


@functools.cache
def scene_map(name: str):
    config = bc.load_scenario(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
    book = bc.build_codebook(config.array.num_antennas)
    return config, bc.build_ckm(config.environment, config.array, book, config.grid)


class TestOnePassDerivation:
    """``fold`` derives all of its missing views in one ``np.bincount`` pass
    (``SearchState._derive_view``); each view must hold the bits of the
    dense ``contrib[alive].sum(axis=0)`` that ``oracles.derived_view``
    takes, at any masks, flags, ``beta`` and ``retain_beams``."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("name", ["desk", "large", "deep"])
    def test_views_equal_the_dense_sums(self, name, data):
        config, ckm = scene_map(name)
        prior = data.draw(st.sampled_from(config.priors))
        beta = data.draw(st.sampled_from([0.5, 0.2, 0.05, 1.0]))
        retain = data.draw(st.sampled_from([None, 1, 2, 5]))
        built = bc.beamtree.compute_point_weights(ckm, prior, beta, retain_beams=retain)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        views = data.draw(st.one_of(st.just(1), st.integers(2, 30)))  # one view, or a pass
        alive = rng.random((views, len(built.point_ids))) < rng.random((views, 1))
        beams = rng.random((views, built.beam_alive.size)) < rng.uniform(0.5, 1.0, (views, 1))
        fallback = rng.random(views) < 0.2
        state = built.copy()
        derived = built._derive_view(alive, beams, fallback)
        for view, a, b, f in zip(derived, alive, beams, fallback):
            state.point_alive, state.beam_alive, state.uniform_fallback = a, b, f
            weights, rows, starts = derived_view(state)[:3]
            assert view.weights.tobytes() == weights.tobytes()
            assert view.rows.dtype == rows.dtype and view.rows.tobytes() == rows.tobytes()
            assert view.starts == starts
            assert not (view.weights.flags.writeable or view.rows.flags.writeable)


def assert_dense_contributions(state, retain):
    """The state's ``contrib`` and ``_nonzero`` triple hold the bytes of the
    dense product over the retention rule's kept mask."""
    bottom = state.gains[:, layer_rows(state.num_layers)]
    keep = oracles.threshold_keep(bottom, state.beta, retain)
    contrib, nonzero = oracles.dense_contributions(state.point_mass, bottom, keep)
    assert state.contrib.shape == contrib.shape and state.contrib.tobytes() == contrib.tobytes()
    for got, want in zip(state._nonzero, nonzero, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert not state.contrib.flags.writeable
    return keep


class TestSparseContributions:
    """A state builds its contributions from the kept (point, beam) entries
    only and scatters them into zeros; they keep the bytes of the dense
    ``point_mass[:, None] * bottom * keep`` (``oracles.dense_contributions``)."""

    @pytest.mark.parametrize("retain", [None, 1, 2])
    @pytest.mark.parametrize("name", ["desk", "large", "deep"])
    def test_scene_priors(self, name, retain):
        config, ckm = scene_map(name)
        for prior in config.priors:
            state = bc.beamtree.compute_point_weights(ckm, prior, config.beta, retain_beams=retain)
            assert_dense_contributions(state, retain)

    @pytest.mark.parametrize("retain", [None, 1, 2])
    def test_point_without_gain_keeps_every_beam_and_contributes_nothing(self, retain):
        gains = np.zeros((3, layer_start(4)))
        gains[0, layer_rows(3)] = [0.0, 1.0, 0.7, 0.2, 0.0, 0.6, 0.9, 0.1]
        gains[2, layer_rows(3)] = [0.3, 0.0, 0.0, 0.8, 0.8, 0.0, 0.0, 0.5]
        state = beamtree.SearchState([4, 5, 6], [0.25, 0.5, 0.25], gains, 0.5, retain)
        keep = assert_dense_contributions(state, retain)
        assert keep[1].sum() == (8 if retain is None else retain)
        assert not state.contrib[1].any() and 1 not in state._nonzero[0]
        assert state.contrib[[0, 2]].any(axis=1).all()
