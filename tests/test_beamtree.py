"""Weight tables, pruned candidate trees, and observation folding.

Oracles: per-point threshold retention and the pairwise-sum layer
recursion recomputed inline with plain numpy, then compared against the
module's bookkeeping.
"""

import numpy as np
import pytest

import beamckm as bc

from conftest import FOUR_LEAF_WEIGHTS, stack_layers, toy_ckm


def threshold_keep_oracle(bottom_gains, beta, retain=None):
    """Reference retention rule: per point keep beams within beta of its
    best, optionally capped to the top-``retain`` (stable order)."""
    g = np.asarray(bottom_gains, dtype=float)
    keep = g >= beta * g.max(axis=1, keepdims=True)
    if retain is not None:
        for r in range(g.shape[0]):
            order = np.argsort(-g[r], kind="stable")
            cut = np.zeros(g.shape[1], dtype=bool)
            cut[order[:retain]] = True
            keep[r] &= cut
    return keep


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
        table = bc.compute_point_weights(ckm, np.array([0]), beta=0.5)
        np.testing.assert_allclose(table.bottom_weights(), [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            bc.candidate_beams(table).bottom_candidates(), [1]
        )

    def test_low_threshold_keeps_all_nonzero(self):
        ckm = toy_ckm(np.array([[1.0, 0.3, 0.05, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=0.04)
        np.testing.assert_allclose(table.bottom_weights(), [1.0, 0.3, 0.05, 0.0])

    def test_beta_one_keeps_only_argmax(self):
        ckm = toy_ckm(np.array([[0.9, 1.0, 0.3, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=1.0)
        np.testing.assert_allclose(table.bottom_weights(), [0.0, 1.0, 0.0, 0.0])

    def test_beta_one_exact_tie_keeps_both(self):
        ckm = toy_ckm(np.array([[1.0, 1.0, 0.3, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=1.0)
        np.testing.assert_array_equal(table.bottom_weights() > 0, [True, True, False, False])

    def test_retain_cap_keeps_strongest_stable(self):
        ckm = toy_ckm(np.array([[0.5, 1.0, 1.0, 0.9]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=0.1, retain_beams=2)
        np.testing.assert_array_equal(
            bc.candidate_beams(table).bottom_candidates(), [2, 3]
        )

    def test_retention_matches_oracle_on_random_gains(self):
        rng = np.random.default_rng(17)
        ckm = toy_ckm(rng.uniform(0.0, 1.0, size=(6, 8)))
        stored = ckm.bottom_gains.T.astype(np.float64)  # what the table reads
        for beta, retain in [(0.3, None), (0.7, None), (0.5, 3), (1.0, 1)]:
            table = bc.compute_point_weights(
                ckm, np.arange(6), beta=beta, retain_beams=retain
            )
            keep = threshold_keep_oracle(stored, beta, retain)
            expected = (np.full(6, 1.0 / 6)[:, None] * stored * keep).sum(axis=0)
            np.testing.assert_allclose(table.bottom_weights(), expected, rtol=1e-12)

    def test_parameter_validation(self):
        ckm = toy_ckm(np.ones((1, 4)))
        with pytest.raises(ValueError):
            bc.compute_point_weights(ckm, np.array([0]), beta=0.0)
        with pytest.raises(ValueError):
            bc.compute_point_weights(ckm, np.array([0]), beta=1.5)
        with pytest.raises(ValueError):
            bc.compute_point_weights(ckm, np.array([0]), beta=0.5, retain_beams=0)
        with pytest.raises(ValueError):
            bc.compute_point_weights(ckm, np.array([], dtype=int), beta=0.5)


class TestLayerRecursion:
    def test_pairwise_sum_example(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 2.0, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=0.1)
        layers = table.layer_weights()
        np.testing.assert_allclose(layers[-1], [1.0, 0.0, 2.0, 0.0])
        np.testing.assert_allclose(layers[0], [1.0, 2.0])

    def test_total_weight_identical_across_layers(self):
        rng = np.random.default_rng(23)
        ckm = toy_ckm(rng.uniform(0.0, 1.0, size=(5, 16)))
        table = bc.compute_point_weights(ckm, np.arange(5), beta=0.2)
        layers = table.layer_weights()
        totals = [w.sum() for w in layers]
        np.testing.assert_allclose(totals, totals[-1], rtol=1e-12)
        for got, want in zip(layers, layer_sum_oracle(layers[-1])):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_weights_scale_with_gains(self):
        bottom = np.random.default_rng(1).uniform(0.1, 1.0, size=(3, 8))
        t1 = bc.compute_point_weights(toy_ckm(bottom), np.arange(3), beta=0.4)
        t2 = bc.compute_point_weights(toy_ckm(5.0 * bottom), np.arange(3), beta=0.4)
        np.testing.assert_allclose(
            t2.bottom_weights(), 5.0 * t1.bottom_weights(), rtol=1e-6
        )
        np.testing.assert_array_equal(t1.keep, t2.keep)

    def test_candidates_shrink_as_beta_grows(self):
        bottom = np.random.default_rng(2).uniform(0.0, 1.0, size=(4, 16))
        counts = []
        for beta in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0]:
            table = bc.compute_point_weights(toy_ckm(bottom), np.arange(4), beta=beta)
            counts.append(len(bc.candidate_beams(table).bottom_candidates()))
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestPrunedTree:
    def test_four_leaf_candidate_layers(self, four_leaf_tree):
        np.testing.assert_array_equal(four_leaf_tree.bottom_candidates(), [1, 2, 3, 5])
        np.testing.assert_array_equal(four_leaf_tree.candidates(2), [1, 2, 3])
        np.testing.assert_array_equal(four_leaf_tree.candidates(1), [1, 2])
        assert four_leaf_tree.candidate_count(2) == 3
        assert four_leaf_tree.is_candidate(bc.BeamId(3, 5))
        assert not four_leaf_tree.is_candidate(bc.BeamId(3, 4))

    def test_candidates_under_restricts_to_descendants(self, four_leaf_tree):
        np.testing.assert_array_equal(
            four_leaf_tree.candidates_under(3, bc.BeamId(1, 1)), [1, 2, 3]
        )
        np.testing.assert_array_equal(
            four_leaf_tree.candidates_under(3, bc.BeamId(1, 2)), [5]
        )
        np.testing.assert_array_equal(
            four_leaf_tree.candidates_under(3, bc.BeamId(2, 2)), [3]
        )
        np.testing.assert_array_equal(
            four_leaf_tree.candidates_under(2, None), [1, 2, 3]
        )
        # a node at or below the queried layer imposes no restriction
        np.testing.assert_array_equal(
            four_leaf_tree.candidates_under(1, bc.BeamId(2, 1)), [1, 2]
        )

    def test_prefix_sums_match_cumsum(self, four_leaf_tree):
        csum = four_leaf_tree.prefix_sums()
        assert csum.shape == (3, 9)
        for l in range(1, 4):
            mask = four_leaf_tree.masks[l - 1]
            expect = np.concatenate([[0], np.cumsum(mask)])
            np.testing.assert_array_equal(csum[l - 1, : 2**l + 1], expect)
            np.testing.assert_array_equal(csum[l - 1, 2**l + 1 :], mask.sum())

    def test_from_bottom_weights_requires_power_of_two(self):
        with pytest.raises(ValueError):
            bc.PrunedTree.from_bottom_weights(np.ones(6))

    def test_candidate_trees_are_ancestor_closed(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            w = rng.uniform(0.0, 1.0, size=16) * (rng.uniform(size=16) < 0.4)
            if w.max() <= 0:
                continue
            assert bc.PrunedTree.from_bottom_weights(w).ancestor_closed()
        broken = bc.PrunedTree(
            [np.array([True, False]), np.array([False, False, True, False])]
        )
        assert not broken.ancestor_closed()


class TestApplyObservation:
    def test_observing_right_half_leaves_single_leaf(self):
        ckm = four_point_ckm()
        table = bc.compute_point_weights(ckm, np.arange(4), beta=0.5)
        tree = bc.candidate_beams(table)
        np.testing.assert_array_equal(tree.bottom_candidates(), [1, 2, 3, 5])
        out = bc.apply_observation(table, tree, bc.BeamId(1, 2))
        np.testing.assert_array_equal(out.bottom_candidates(), [5])
        assert out.root == bc.BeamId(1, 2)
        np.testing.assert_array_equal(table.alive_points, [3])

    def test_points_drop_when_argmax_disagrees(self):
        ckm = four_point_ckm()
        table = bc.compute_point_weights(ckm, np.arange(4), beta=0.5)
        tree = bc.candidate_beams(table)
        out = bc.apply_observation(table, tree, bc.BeamId(1, 1))
        # points backing beams 1, 2, 3 stay; the beam-5 point is gone
        np.testing.assert_array_equal(table.alive_points, [0, 1, 2])
        np.testing.assert_array_equal(out.bottom_candidates(), [1, 2, 3])

    def test_argmax_tie_counts_for_smaller_index(self):
        # both layer-1 wide beams read the same gain for this point: the
        # tie votes for beam 1, so observing beam 2 discards the point
        bottom = np.array([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        table = bc.compute_point_weights(toy_ckm(bottom), np.array([0]), beta=0.5)
        tree = bc.candidate_beams(table)
        out = bc.apply_observation(table, tree, bc.BeamId(1, 2))
        assert table.alive_points.size == 0
        assert table.uniform_fallback

    def test_non_candidate_observation_rejected(self):
        ckm = four_point_ckm()
        table = bc.compute_point_weights(ckm, np.arange(4), beta=0.5)
        tree = bc.candidate_beams(table)
        with pytest.raises(ValueError):
            bc.apply_observation(table, tree, bc.BeamId(3, 4))

    def test_contradictory_observation_falls_back_to_uniform_subtree(self):
        # both points bet on the left half; observing the right half wipes
        # them out and the subtree reverts to uniform weights
        bottom = np.tile(np.array([[1.0, 0.0, 0.0, 0.6]]), (2, 1))
        table = bc.compute_point_weights(toy_ckm(bottom), np.arange(2), beta=0.5)
        tree = bc.candidate_beams(table)
        np.testing.assert_array_equal(tree.bottom_candidates(), [1, 4])
        out = bc.apply_observation(table, tree, bc.BeamId(1, 2))
        assert table.uniform_fallback
        np.testing.assert_array_equal(out.bottom_candidates(), [3, 4])
        np.testing.assert_allclose(table.bottom_weights(), [0.0, 0.0, 1.0, 1.0])

    def test_fallback_subtree_survives_second_contradiction(self):
        # once in fallback, a later observation pointing outside the current
        # fallback subtree must re-anchor on the new subtree instead of
        # leaving no candidates at all
        bottom = np.tile(np.array([[1.0, 0.0, 0.0, 0.6]]), (2, 1))
        table = bc.compute_point_weights(toy_ckm(bottom), np.arange(2), beta=0.5)
        tree = bc.candidate_beams(table)
        bc.apply_observation(table, tree, bc.BeamId(1, 2))
        assert table.uniform_fallback
        table.restrict_to_subtree(bc.BeamId(2, 1))
        np.testing.assert_allclose(table.bottom_weights(), [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            bc.candidate_beams(table).bottom_candidates(), [1]
        )

    def test_descent_chain_reaches_bottom(self):
        rng = np.random.default_rng(7)
        bottom = rng.uniform(0.05, 1.0, size=(6, 16))
        table = bc.compute_point_weights(toy_ckm(bottom), np.arange(6), beta=0.3)
        tree = bc.candidate_beams(table)
        node = bc.BeamId(1, 1)
        tree = bc.apply_observation(table, tree, node)
        for layer in range(2, 5):
            cands = tree.candidates_under(layer, node)
            assert cands.size >= 1
            node = bc.BeamId(layer, int(cands[0]))
            tree = bc.apply_observation(table, tree, node)
        assert tree.bottom_candidates().size >= 1
        assert tree.root.layer == 4

    def test_all_zero_weights_have_no_candidates(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=0.5)
        table.kill_points(np.array([False]))
        with pytest.raises(ValueError):
            bc.candidate_beams(table)


class TestWeightTableState:
    def test_prior_masses_feed_weights(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        prior = bc.PositionPrior(
            (bc.SubRegion((0,), 0.75), bc.SubRegion((1,), 0.25))
        )
        table = bc.compute_point_weights(ckm, prior, beta=0.5)
        np.testing.assert_allclose(table.bottom_weights(), [0.75, 0.25, 0.0, 0.0])

    def test_raw_indices_default_to_uniform_mass(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0, 1]), beta=0.5)
        np.testing.assert_allclose(table.bottom_weights(), [0.5, 0.5, 0.0, 0.0])

    def test_layer_gain_columns_slice(self):
        rng = np.random.default_rng(11)
        bottom = rng.uniform(size=(3, 8))
        ckm = toy_ckm(bottom)
        table = bc.compute_point_weights(ckm, np.arange(3), beta=0.5)
        cols = table.layer_gain_columns(3, np.array([2, 5]))
        np.testing.assert_allclose(cols, bottom[:, [1, 4]], rtol=1e-6)

    def test_restrict_without_kill_keeps_weights(self):
        bottom = np.array([[0.2, 0.3, 0.4, 0.1]])
        table = bc.compute_point_weights(toy_ckm(bottom), np.array([0]), beta=0.1)
        table.restrict_to_subtree(bc.BeamId(1, 1))
        np.testing.assert_allclose(table.bottom_weights(), [0.2, 0.3, 0.0, 0.0])
        assert not table.uniform_fallback


class TestTableCopies:
    """A built table passed back to compute_point_weights yields a copy in
    the initial state that shares the fixed arrays read-only."""

    def setup_method(self):
        bottom = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, 8))
        self.ckm = toy_ckm(bottom)
        self.built = bc.compute_point_weights(self.ckm, np.arange(6), beta=0.3, retain_beams=3)

    def test_copy_starts_fresh_and_leaves_the_source_alone(self):
        first = bc.compute_point_weights(self.ckm, self.built, 0.3, retain_beams=3)
        assert first is not self.built
        first.kill_points(np.arange(6) < 2)
        first.restrict_to_subtree(bc.BeamId(1, 2))
        first.uniform_fallback = True
        second = bc.compute_point_weights(self.ckm, self.built, 0.3, retain_beams=3)
        for table in (self.built, second):
            assert table.point_alive.all() and table.beam_alive.all()
            assert not table.uniform_fallback
        np.testing.assert_array_equal(second.bottom_weights(), self.built.bottom_weights())
        np.testing.assert_array_equal(second.alive_points, np.arange(6))

    def test_fixed_arrays_are_shared_read_only(self):
        copy = self.built.fresh_copy()
        for name in ("point_ids", "point_mass", "gains", "contrib", "keep"):
            ours, theirs = getattr(copy, name), getattr(self.built, name)
            assert ours is theirs
            assert not ours.flags.writeable
            with pytest.raises(ValueError):
                ours[0] = 0
        assert copy.point_alive is not self.built.point_alive
        assert copy.beam_alive is not self.built.beam_alive

    def test_caller_arrays_stay_writable(self):
        gains = stack_layers(np.eye(4))
        table = bc.BeamWeightTable(np.arange(4), np.full(4, 0.25), gains, 0.5, 2)
        assert not table.gains.flags.writeable
        gains[0, 0] = 2.0  # the caller's own array is untouched

    @pytest.mark.parametrize(
        "beta, retain, point_mass",
        [(0.5, 3, None), (0.3, None, None), (0.3, 2, None), (0.3, 3, np.full(6, 1 / 6))],
    )
    def test_mismatched_inputs_rejected(self, beta, retain, point_mass):
        with pytest.raises(ValueError):
            bc.compute_point_weights(
                self.ckm, self.built, beta, retain_beams=retain, point_mass=point_mass
            )

    def test_map_of_another_depth_rejected(self):
        deeper = toy_ckm(np.ones((6, 16)))
        with pytest.raises(ValueError, match="another"):
            bc.compute_point_weights(deeper, self.built, 0.3, retain_beams=3)
