"""Search states: weights, pruned candidate trees, and observation folding.

Oracles: per-point threshold retention and the pairwise-sum layer
recursion recomputed inline with plain numpy, then compared against the
module's bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm.lookahead import next_layer
from beamckm.multiuser import prune_user_points
from beamckm.strategy import optimal_layer, run_episode

from conftest import (
    ancestor_closed,
    candidate_count,
    from_bottom_weights,
    layer_masks,
    stack_layers,
    toy_ckm,
)
from oracles import pair_weights, prefix_sums


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
        np.testing.assert_allclose(table.bottom_weights, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(
            bc.candidate_beams(table).bottom_candidates(), [1]
        )

    def test_low_threshold_keeps_all_nonzero(self):
        ckm = toy_ckm(np.array([[1.0, 0.3, 0.05, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=0.04)
        np.testing.assert_allclose(table.bottom_weights, [1.0, 0.3, 0.05, 0.0])

    def test_beta_one_keeps_only_argmax(self):
        ckm = toy_ckm(np.array([[0.9, 1.0, 0.3, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=1.0)
        np.testing.assert_allclose(table.bottom_weights, [0.0, 1.0, 0.0, 0.0])

    def test_beta_one_exact_tie_keeps_both(self):
        ckm = toy_ckm(np.array([[1.0, 1.0, 0.3, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0]), beta=1.0)
        np.testing.assert_array_equal(table.bottom_weights > 0, [True, True, False, False])

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
            np.testing.assert_allclose(table.bottom_weights, expected, rtol=1e-12)

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
        np.testing.assert_allclose(table.layer_weights(2), [1.0, 0.0, 2.0, 0.0])
        np.testing.assert_allclose(table.layer_weights(1), [1.0, 2.0])

    def test_total_weight_identical_across_layers(self):
        rng = np.random.default_rng(23)
        ckm = toy_ckm(rng.uniform(0.0, 1.0, size=(5, 16)))
        table = bc.compute_point_weights(ckm, np.arange(5), beta=0.2)
        layers = [table.layer_weights(l) for l in range(1, 5)]
        totals = [w.sum() for w in layers]
        np.testing.assert_allclose(totals, totals[-1], rtol=1e-12)
        for got, want in zip(layers, layer_sum_oracle(layers[-1])):
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_weights_scale_with_gains(self):
        bottom = np.random.default_rng(1).uniform(0.1, 1.0, size=(3, 8))
        t1 = bc.compute_point_weights(toy_ckm(bottom), np.arange(3), beta=0.4)
        t2 = bc.compute_point_weights(toy_ckm(5.0 * bottom), np.arange(3), beta=0.4)
        np.testing.assert_allclose(
            t2.bottom_weights, 5.0 * t1.bottom_weights, rtol=1e-6
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
        assert candidate_count(four_leaf_tree, 2) == 3
        assert four_leaf_tree.is_candidate(bc.BeamId(3, 5))
        assert not four_leaf_tree.is_candidate(bc.BeamId(3, 4))

    def test_prefix_sums_match_cumsum(self, four_leaf_tree):
        csum = prefix_sums(four_leaf_tree)
        assert csum.shape == (3, 9)
        for l in range(1, 4):
            mask = four_leaf_tree.layer_weights(l) > 0
            expect = np.concatenate([[0], np.cumsum(mask)])
            np.testing.assert_array_equal(csum[l - 1, : 2**l + 1], expect)
            np.testing.assert_array_equal(csum[l - 1, 2**l + 1 :], mask.sum())

    def test_from_bottom_weights_requires_power_of_two(self):
        with pytest.raises(ValueError):
            from_bottom_weights(np.ones(6))
        # the state itself needs gains over the whole codebook of its depth
        with pytest.raises(ValueError, match="full codebook"):
            bc.SearchState(np.arange(1), np.ones(1), np.ones((1, 10)), 0.5, 3)

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
        state = bc.compute_point_weights(ckm, np.arange(4), beta=0.5)
        np.testing.assert_array_equal(bc.candidate_beams(state).bottom_candidates(), [1, 2, 3, 5])
        bc.apply_observation(state, bc.BeamId(1, 2))
        np.testing.assert_array_equal(state.bottom_candidates(), [5])
        assert state.root == bc.BeamId(1, 2)
        np.testing.assert_array_equal(state.alive_points, [3])

    def test_points_drop_when_argmax_disagrees(self):
        ckm = four_point_ckm()
        state = bc.compute_point_weights(ckm, np.arange(4), beta=0.5)
        bc.apply_observation(state, bc.BeamId(1, 1))
        # points backing beams 1, 2, 3 stay; the beam-5 point is gone
        np.testing.assert_array_equal(state.alive_points, [0, 1, 2])
        np.testing.assert_array_equal(state.bottom_candidates(), [1, 2, 3])

    def test_argmax_tie_counts_for_smaller_index(self):
        # both layer-1 wide beams read the same gain for this point: the
        # tie votes for beam 1, so observing beam 2 discards the point
        bottom = np.array([[1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
        state = bc.compute_point_weights(toy_ckm(bottom), np.array([0]), beta=0.5)
        bc.apply_observation(state, bc.BeamId(1, 2))
        assert state.alive_points.size == 0
        assert state.uniform_fallback

    def test_non_candidate_observation_rejected(self):
        ckm = four_point_ckm()
        state = bc.compute_point_weights(ckm, np.arange(4), beta=0.5)
        with pytest.raises(ValueError):
            bc.apply_observation(state, bc.BeamId(3, 4))

    def test_contradictory_observation_falls_back_to_uniform_subtree(self):
        # both points bet on the left half; observing the right half wipes
        # them out and the subtree reverts to uniform weights
        bottom = np.tile(np.array([[1.0, 0.0, 0.0, 0.6]]), (2, 1))
        state = bc.compute_point_weights(toy_ckm(bottom), np.arange(2), beta=0.5)
        np.testing.assert_array_equal(state.bottom_candidates(), [1, 4])
        bc.apply_observation(state, bc.BeamId(1, 2))
        assert state.uniform_fallback
        np.testing.assert_array_equal(state.bottom_candidates(), [3, 4])
        np.testing.assert_allclose(state.bottom_weights, [0.0, 0.0, 1.0, 1.0])

    def test_fallback_subtree_survives_second_contradiction(self):
        # once in fallback, a later observation pointing outside the current
        # fallback subtree must re-anchor on the new subtree instead of
        # leaving no candidates at all
        bottom = np.tile(np.array([[1.0, 0.0, 0.0, 0.6]]), (2, 1))
        state = bc.compute_point_weights(toy_ckm(bottom), np.arange(2), beta=0.5)
        bc.apply_observation(state, bc.BeamId(1, 2))
        assert state.uniform_fallback
        state.update(np.ones(2, dtype=bool), bc.BeamId(2, 1))
        np.testing.assert_allclose(state.bottom_weights, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(bc.candidate_beams(state).bottom_candidates(), [1])
        assert state.root == bc.BeamId(2, 1)

    def test_descent_chain_reaches_bottom(self):
        rng = np.random.default_rng(7)
        bottom = rng.uniform(0.05, 1.0, size=(6, 16))
        state = bc.compute_point_weights(toy_ckm(bottom), np.arange(6), beta=0.3)
        node = bc.BeamId(1, 1)
        bc.apply_observation(state, node)
        for layer in range(2, 5):
            cands = state.candidates(layer)
            assert cands.size >= 1
            node = bc.BeamId(layer, int(cands[0]))
            bc.apply_observation(state, node)
        assert state.bottom_candidates().size >= 1
        assert state.root.layer == 4

    def test_all_zero_weights_have_no_candidates(self):
        # a prior whose only point has no map gain backs no beam at all
        ckm = toy_ckm(np.zeros((1, 4)))
        state = bc.compute_point_weights(ckm, np.array([0]), beta=0.5)
        with pytest.raises(ValueError):
            bc.candidate_beams(state)
        # an update never leaves that state: dropping every point engages
        # the uniform fallback instead
        state = bc.compute_point_weights(toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0]])), [0], 0.5)
        state.update(np.array([False]))
        assert state.uniform_fallback
        np.testing.assert_array_equal(bc.candidate_beams(state).bottom_candidates(), [1, 2, 3, 4])


class TestWeightTableState:
    def test_prior_masses_feed_weights(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        prior = bc.PositionPrior(
            (bc.SubRegion((0,), 0.75), bc.SubRegion((1,), 0.25))
        )
        table = bc.compute_point_weights(ckm, prior, beta=0.5)
        np.testing.assert_allclose(table.bottom_weights, [0.75, 0.25, 0.0, 0.0])

    @pytest.mark.parametrize(
        "points, bad",
        [
            (np.array([-1]), -1),
            (np.array([0, 2, 1]), 2),
            (np.array([1, 7, -3]), 7),
            (bc.PositionPrior((bc.SubRegion((-5, 3), 1.0),)), -5),
            (bc.PositionPrior((bc.SubRegion((0,), 0.5), bc.SubRegion((1, 2), 0.5))), 2),
        ],
    )
    def test_point_ids_outside_grid_rejected(self, points, bad):
        # a two-point grid: -1 would read the last point, 2 is past the end
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match=rf"grid-point id {bad} outside \[0, 2\)"):
            bc.compute_point_weights(ckm, points, beta=0.5)

    def test_raw_indices_default_to_uniform_mass(self):
        ckm = toy_ckm(np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        table = bc.compute_point_weights(ckm, np.array([0, 1]), beta=0.5)
        np.testing.assert_allclose(table.bottom_weights, [0.5, 0.5, 0.0, 0.0])

    def test_candidate_rows_index_the_gain_columns(self):
        rng = np.random.default_rng(11)
        bottom = rng.uniform(size=(3, 8)) * (rng.random((3, 8)) < 0.5)
        table = bc.compute_point_weights(toy_ckm(bottom), np.arange(3), beta=0.5)
        rows = table.candidate_rows(3)
        np.testing.assert_array_equal(rows, 6 + np.flatnonzero(table.contrib.sum(axis=0) > 0))
        np.testing.assert_array_equal(table.candidates(3), rows - 5)
        np.testing.assert_allclose(table.gains[:, rows], bottom[:, rows - 6], rtol=1e-6)

    def test_restrict_without_kill_keeps_weights(self):
        bottom = np.array([[0.2, 0.3, 0.4, 0.1]])
        state = bc.compute_point_weights(toy_ckm(bottom), np.array([0]), beta=0.1)
        state.update(np.ones(1, dtype=bool), bc.BeamId(1, 1))
        np.testing.assert_allclose(state.bottom_weights, [0.2, 0.3, 0.0, 0.0])
        assert not state.uniform_fallback


class TestTableCopies:
    """A built state passed back to compute_point_weights yields a copy in
    the initial state that shares the fixed arrays read-only."""

    def setup_method(self):
        bottom = np.random.default_rng(5).uniform(0.0, 1.0, size=(6, 8))
        self.ckm = toy_ckm(bottom)
        self.built = bc.compute_point_weights(self.ckm, np.arange(6), beta=0.3, retain_beams=3)

    def test_copy_starts_fresh_and_leaves_the_source_alone(self):
        first = bc.compute_point_weights(self.ckm, self.built, 0.3, retain_beams=3)
        assert first is not self.built
        first.update(np.arange(6) < 2, bc.BeamId(1, 2))
        first.update(np.zeros(6, dtype=bool))
        assert first.uniform_fallback
        second = bc.compute_point_weights(self.ckm, self.built, 0.3, retain_beams=3)
        for state in (self.built, second):
            assert state.point_alive.all() and state.beam_alive.all()
            assert not state.uniform_fallback and state.root is None
        np.testing.assert_array_equal(second.bottom_weights, self.built.bottom_weights)
        np.testing.assert_array_equal(second.weights, self.built.weights)
        np.testing.assert_array_equal(second.rows, self.built.rows)
        np.testing.assert_array_equal(second.alive_points, np.arange(6))

    def test_fixed_arrays_are_shared_read_only(self):
        copy = self.built.copy()
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
        table = bc.SearchState(np.arange(4), np.full(4, 0.25), gains, 0.5, 2)
        assert not table.gains.flags.writeable
        gains[0, 0] = 2.0  # the caller's own array is untouched

    @pytest.mark.parametrize(
        "beta, retain, num_beams",
        [(0.5, 3, None), (0.3, None, None), (0.3, 2, None), (0.3, 3, 16)],
    )
    def test_mismatched_inputs_rejected(self, beta, retain, num_beams):
        # num_beams None is the state's own map, else a map of another depth
        ckm = self.ckm if num_beams is None else toy_ckm(np.ones((6, num_beams)))
        with pytest.raises(ValueError, match="another"):
            bc.compute_point_weights(ckm, self.built, beta, retain_beams=retain)


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
    state = bc.SearchState(
        np.arange(P),
        mass,
        stack_layers(bottom),
        draw(st.sampled_from([0.2, 0.5, 1.0])),
        L,
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
    """After every update the derived arrays equal a from-scratch
    computation on the same masks, bit for bit, and are read-only."""

    @staticmethod
    def assert_cache_matches(state):
        weights, rows, cands, csum, (entry, hops) = recomputed(state)
        L = state.num_layers
        np.testing.assert_array_equal(state.weights, weights)
        np.testing.assert_array_equal(state.rows, rows)
        for layer, want in enumerate(cands, 1):
            np.testing.assert_array_equal(state.candidates(layer), want)
        np.testing.assert_array_equal(prefix_sums(state), csum)
        cached = state.pair_weights()
        np.testing.assert_array_equal(cached[0], entry)
        np.testing.assert_array_equal(cached[1], hops)
        derived = (
            state.weights,
            state.rows,
            state.bottom_weights,
            *(state.layer_weights(l) for l in range(1, L + 1)),
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
        if built.bottom_weights.max() <= 0.0:
            with pytest.raises(ValueError):
                bc.candidate_beams(built)
            return
        state = built.copy()
        old = OldRules(state)
        for kind, layer, pick, seed, check in steps:
            L = state.num_layers
            layer = max(layer, state.root_layer + 1)
            if layer > L:
                break
            if kind == "observe":
                cands = state.candidates(layer)
                if cands.size == 0:
                    break
                observed = bc.BeamId(layer, int(cands[pick % cands.size]))
                winners_before = state.gains[:, 2**layer - 3 + cands]
                won = cands[np.argmax(winners_before, axis=1)]
                bc.apply_observation(state, observed)
                old.fold(won == observed.index, observed)
            else:
                if not state.point_alive.any():
                    break
                rng = np.random.default_rng(seed)
                rows = np.arange(2**layer - 2, 2 ** (layer + 1) - 2)
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
            assert state.bottom_candidates().size >= 1
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


class TestRootSubtree:
    @settings(max_examples=150, deadline=None)
    @given(observation_runs())
    def test_positive_weights_stay_under_the_root(self, run):
        # so candidates(layer) below the root's layer are the root's descendants
        state, steps = run
        if state.bottom_weights.max() <= 0.0:
            return
        L = state.num_layers
        for kind, layer, pick, seed, _ in steps:
            layer = max(layer, state.root_layer + 1)
            if layer > L or not state.point_alive.any():
                break
            if kind == "observe":
                cands = state.candidates(layer)
                bc.apply_observation(state, bc.BeamId(layer, int(cands[pick % cands.size])))
            else:
                rng = np.random.default_rng(seed)
                rows = np.arange(2**layer - 2, 2 ** (layer + 1) - 2)
                g_obs = rng.uniform(0.0, 1.0, len(rows)) * (rng.random(len(rows)) < 0.7)
                descend = kind == "prune-descend"
                f_obs = bc.BeamId(layer, pick % len(rows) + 1) if descend else None
                prune_user_points(state, rows, g_obs, f_obs, 0.9)
            if state.root is not None:
                shift = L - state.root.layer
                lo, hi = (state.root.index - 1) << shift, state.root.index << shift
                positive = np.flatnonzero(state.bottom_weights > 0.0)
                assert ((positive >= lo) & (positive < hi)).all()


def cached_states(state, path=()):
    """Every state cached below ``state``, each with the observations that
    lead to it from ``state``."""
    for (layer, index), child in (state.children or {}).items():
        here = path + (bc.BeamId(layer, index),)
        yield here, child
        yield from cached_states(child, here)


class TestSearchTreeCache:
    """The states that ``run_episode`` caches below a built state are those
    that folding the same observations into a copy of the built state gives."""

    @staticmethod
    def searched_tree(seed):
        """A sparse random map's built state, after noisy alg1 and alg2
        episodes from it: the feedback is close to random, so observations
        often contradict every point and the uniform fallback engages."""
        rng = np.random.default_rng(seed)
        bottom = rng.uniform(0.0, 1.0, (6, 16)) * (rng.random((6, 16)) < 0.3)
        built = bc.compute_point_weights(toy_ckm(bottom), np.arange(6), beta=0.5)
        cb = bc.build_codebook(16)
        for k in range(30):
            resp = bc.Responses(rng.normal(size=16) + 1j * rng.normal(size=16), cb.matrix)
            for choose in (optimal_layer, next_layer):
                run_episode(resp, built, choose, 10.0, np.random.default_rng(k))
        return built

    def test_cached_children_equal_replayed_observations(self):
        built = self.searched_tree(3)
        walked = list(cached_states(built))
        assert len(walked) > 10
        assert any(child.uniform_fallback for _, child in walked)
        assert any(not child.uniform_fallback for _, child in walked)
        for path, child in walked:
            replay = built.copy()
            for observed in path:
                bc.apply_observation(replay, observed)
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
        assert copy.children is built.children and copy.plans is built.plans
        observed = bc.BeamId(1, int(copy.candidates(1)[0]))
        bc.apply_observation(copy, observed)
        assert copy.children is None and copy.plans is None
        assert built.copy().children is built.children

    def test_copy_folds_without_touching_the_original(self):
        built = self.searched_tree(6)
        path, node = max(cached_states(built), key=lambda item: len(item[0]))
        before = {name: getattr(node, name).copy() for name in ("point_alive", "beam_alive")}
        copy = node.copy()
        assert copy.root == node.root == path[-1]
        copy.update(np.zeros(len(copy.point_ids), dtype=bool))
        assert copy.uniform_fallback and copy.children is None
        for name, want in before.items():
            np.testing.assert_array_equal(getattr(node, name), want)
        assert node.children is not None and node.plans is not None
