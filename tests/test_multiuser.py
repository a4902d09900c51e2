"""Shared-round layer selection, eavesdrop pruning, and the joint episode.

Frozen cases: hand-computed cosine similarities and role flags, plus a
single-user reduction property — with one user the joint search must pick
the same layers as the standalone reward search.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm import multiuser as mu

from conftest import (
    exhaustive_best_beam,
    from_bottom_weights,
    responses_of,
    scene_channel,
    stack_layers,
)
from oracles import similarity


def make_table(profiles, num_layers=2, beta=0.5):
    """Search state over hand-written full gain rows (P, 2^(L+1) - 2)."""
    gains = np.asarray(profiles, dtype=np.float64)
    n = len(gains)
    return bc.SearchState(
        point_ids=np.arange(n),
        point_mass=np.full(n, 1.0 / n),
        gains=gains,
        beta=beta,
        num_layers=num_layers,
    )


def table_from_bottom(bottom, beta=0.5):
    return make_table(stack_layers(np.asarray(bottom, dtype=float)),
                      num_layers=int(np.log2(np.shape(bottom)[1])), beta=beta)


class TestSimilarity:
    def test_hand_value(self):
        assert similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / np.sqrt(2))

    def test_identical_profiles_score_one(self):
        assert similarity([0.3, 0.4, 0.1], [0.3, 0.4, 0.1]) == pytest.approx(1.0)

    def test_zero_profile_scores_zero(self):
        assert similarity([1.0, 2.0], [0.0, 0.0]) == 0.0
        assert similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        a, b = rng.uniform(0.1, 1.0, size=(2, 6))
        assert similarity(a, 17.0 * b) == pytest.approx(similarity(a, b))
        assert similarity(0.01 * a, b) == pytest.approx(similarity(a, b))

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            similarity([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            similarity([], [])
        with pytest.raises(ValueError):
            similarity(np.ones((2, 2)), np.ones((2, 2)))


class TestSelectRound:
    def test_earliest_active_layer_wins(self):
        layer, flags = mu.joint_layer([5, 3, 6], 5)
        assert layer == 3
        assert flags == (0, 1, -1)

    def test_joint_layer_wins_when_it_matches_a_user(self):
        # the round layer is the one its descending users planned
        assert mu.joint_layer([3, 5], 5) == (3, (1, 0))
        assert mu.joint_layer([5, 3], 5) == (3, (0, 1))

    def test_unmatched_joint_falls_back_to_own_choice(self):
        # no round probes a layer at which no user's own plan starts, so
        # every round advances at least one user
        for singles in ([4, 5], [6, 2, 6], [1, 1], [5, 4, 3]):
            layer, flags = mu.joint_layer(singles, 5)
            assert layer in singles
            assert 1 in flags

    def test_all_users_finished_rejected(self):
        with pytest.raises(ValueError):
            mu.joint_layer([6, 6], 5)

    def test_multiple_users_can_match(self):
        layer, flags = mu.joint_layer([2, 2, 4], 5)
        assert (layer, flags) == (2, (1, 1, 0))


class TestUnionBeams:
    def test_deduplicated_ascending(self):
        # codebook rows: layer 1 beams 1, 2 are rows 0, 1; layer 2 beams 1..4 rows 2..5
        t1 = from_bottom_weights([1.0, 0.0, 1.0, 0.0])
        t2 = from_bottom_weights([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(mu.union_beams([t1, t2], 2), [2, 4, 5])
        np.testing.assert_array_equal(mu.union_beams([t1, t2], 1), [0, 1])
        np.testing.assert_array_equal(mu.union_beams([t1], 2), [2, 4])


class TestPrunePoints:
    def two_beam_setup(self, profiles):
        """Table over N=4 whose layer-2 gain columns are ``profiles``."""
        n = len(profiles)
        gains = np.zeros((n, 6))
        gains[:, 2:4] = profiles  # bottom beams 1 and 2
        gains[:, 0] = np.max(profiles, axis=1)  # consistent wide beam
        table = make_table(gains)
        return table, np.array([2, 3])  # codebook rows of beams (2, 1) and (2, 2)

    def test_relative_threshold(self):
        # similarities to (1, 0): exactly 1.0, 0.95, 0.5
        profiles = np.array(
            [
                [1.0, 0.0],
                [0.95, np.sqrt(1 - 0.95**2)],
                [0.5, np.sqrt(0.75)],
            ]
        )
        table, rows = self.two_beam_setup(profiles)
        alive = mu.prune_user_points(table, rows, np.array([1.0, 0.0]), None, 0.9)
        np.testing.assert_array_equal(alive, [0, 1])

    def test_descending_user_needs_matching_peak(self):
        profiles = np.array([[1.0, 0.9], [0.9, 1.0]])
        table, rows = self.two_beam_setup(profiles)
        alive = mu.prune_user_points(
            table, rows, np.array([1.0, 0.9]), bc.BeamId(2, 1), 0.9
        )
        np.testing.assert_array_equal(alive, [0])

    def test_empty_cut_keeps_best_similarity(self):
        profiles = np.array([[1.0, 0.0], [0.95, np.sqrt(1 - 0.95**2)]])
        table, rows = self.two_beam_setup(profiles)
        alive = mu.prune_user_points(table, rows, np.array([1.0, 0.0]), None, 1.0)
        np.testing.assert_array_equal(alive, [0])

    def test_peak_conflict_falls_back_to_best_similarity(self):
        # every point peaks on beam 2, the user descended on beam 1: the
        # beam cut empties, so the best-similarity point is retained
        profiles = np.array([[0.5, 1.0], [0.1, 1.0]])
        table, rows = self.two_beam_setup(profiles)
        alive = mu.prune_user_points(
            table, rows, np.array([0.6, 1.0]), bc.BeamId(2, 1), 0.9
        )
        np.testing.assert_array_equal(alive, [0])

    def test_zero_observation_prunes_nothing(self):
        profiles = np.array([[1.0, 0.0], [0.0, 1.0]])
        table, rows = self.two_beam_setup(profiles)
        alive = mu.prune_user_points(table, rows, np.zeros(2), None, 0.9)
        np.testing.assert_array_equal(alive, [0, 1])

    def test_alive_set_only_shrinks(self):
        rng = np.random.default_rng(8)
        profiles = rng.uniform(0.0, 1.0, size=(20, 2))
        table, rows = self.two_beam_setup(profiles)
        before = set(table.alive_points.tolist())
        for _ in range(4):
            g = rng.uniform(0.0, 1.0, size=2)
            now = set(
                mu.prune_user_points(table, rows, g, None, 0.85).tolist()
            )
            assert now <= before
            assert now
            before = now

    def test_validation(self):
        profiles = np.array([[1.0, 0.0]])
        table, rows = self.two_beam_setup(profiles)
        with pytest.raises(ValueError):
            mu.prune_user_points(table, rows, np.ones(2), None, 0.0)
        with pytest.raises(ValueError):
            mu.prune_user_points(table, rows, np.ones(2), None, 1.5)
        with pytest.raises(ValueError):
            mu.prune_user_points(table, rows, np.ones(3), None, 0.9)
        table.update(np.array([False]))
        with pytest.raises(ValueError, match="no alive points"):
            mu.prune_user_points(table, rows, np.ones(2), None, 0.9)


def survivors_by_loop(state, rows, g_obs, f_obs, eta):
    """The pruning rule one alive point at a time: similarities from
    ``oracles.similarity``, the eta cut against the best of them, the
    peak-beam rule for a descending user, and the best-similarity points
    when nothing passes; an all-zero observation keeps every point.
    Returns (survivors, similarity per alive point)."""
    cols = rows.tolist()
    alive = np.flatnonzero(state.point_alive).tolist()
    if not np.any(g_obs):
        return alive, {}
    sims = {p: similarity(g_obs, state.gains[p, cols]) for p in alive}
    best = max(sims.values())
    f_row = None if f_obs is None else bc.HierarchicalCodebook.row_of(f_obs)
    keep = [
        p
        for p in alive
        if sims[p] > eta * best
        and (f_row is None or cols[int(np.argmax(state.gains[p, cols]))] == f_row)
    ]
    return keep or [p for p in alive if sims[p] == best], sims


@st.composite
def pruning_rounds(draw):
    """A search state over random per-point gain tables (some entries and
    some whole points zero, some points already dead), the codebook rows
    of one layer's probed beams, an observation (sometimes all zero), eta
    and the descent beam."""
    L = draw(st.integers(2, 5))
    P = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gains = rng.uniform(0.0, 1.0, (P, 2 ** (L + 1) - 2))
    gains *= rng.random(gains.shape) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    gains[rng.random(P) < 0.1] = 0.0
    state = bc.SearchState(np.arange(P), np.full(P, 1.0 / P), gains, 0.5, L)
    alive = rng.random(P) < draw(st.sampled_from([0.5, 1.0]))
    alive[rng.integers(P)] = True
    state.update(alive)
    layer = draw(st.integers(1, L))
    width = draw(st.integers(2, 2**layer))
    indices = np.sort(rng.choice(np.arange(1, 2**layer + 1), width, replace=False))
    rows = indices + (2**layer - 3)
    g_obs = np.zeros(width) if draw(st.integers(0, 4)) == 0 else rng.uniform(0.0, 2.0, width)
    eta = draw(st.one_of(st.just(1.0), st.floats(0.05, 0.999)))
    beams = [bc.BeamId(layer, int(n)) for n in indices]
    f_obs = draw(st.one_of(st.none(), st.sampled_from(beams)))
    return state, rows, g_obs, f_obs, eta


class TestPruningKernelAgainstLoop:
    @settings(max_examples=200, deadline=None)
    @given(pruning_rounds())
    def test_survivors_match_the_scalar_definition(self, case):
        state, rows, g_obs, f_obs, eta = case
        want, sims = survivors_by_loop(state, rows, g_obs, f_obs, eta)
        # the kernel's cosine may round differently from the scalar one, so
        # rounds that decide within rounding of a boundary are skipped: two
        # distinct similarities, or a similarity and the cut, within 1e-9
        # (exact ties, at similarity zero, both compute alike)
        if sims:
            best = max(sims.values())
            values = sorted(set(sims.values()))
            assume(all(b - a > 1e-9 for a, b in zip(values, values[1:])))
            assume(all(abs(v - eta * best) > 1e-9 for v in values if v != best))
        got = mu.prune_user_points(state, rows, g_obs, f_obs, eta)
        np.testing.assert_array_equal(got, want)
        assert state.root == f_obs


class TestRunMultiUser:
    def test_single_user_matches_standalone_search(self, small_scene):
        ckm = small_scene["ckm"]
        rng = np.random.default_rng(29)
        prior = bc.PositionPrior(
            (bc.SubRegion(tuple(range(34, 40)), 0.5), bc.SubRegion(tuple(range(200, 208)), 0.5))
        )
        for _ in range(15):
            point = bc.sample_true_position(prior, rng)
            h = scene_channel(small_scene, point)
            solo = bc.run_single_user(ckm, prior, responses_of(h), 0.0, 0.5)
            joint = bc.run_multi_user(ckm, [prior], [responses_of(h)], 0.0, 0.5)
            assert joint[0][0] == solo[0]
            assert joint[1] <= solo[1]

    def test_clone_users_share_every_probe(self, small_scene):
        ckm = small_scene["ckm"]
        prior = bc.PositionPrior((bc.SubRegion(tuple(range(36, 42)), 1.0),))
        resp = responses_of(scene_channel(small_scene, 38))
        single = bc.run_multi_user(ckm, [prior], [resp], 0.0, 0.5)
        twin = bc.run_multi_user(ckm, [prior, prior], [resp, resp], 0.0, 0.5)
        assert twin[0][0] == twin[0][1] == single[0][0]
        assert twin[1] == single[1]  # the clone rides along for free
        assert twin[2][0] == twin[2][1]
        assert twin[1] == sum(r.probes for r in twin[2][0])

    def test_three_users_noiseless_find_their_beams(self, small_scene):
        ckm = small_scene["ckm"]
        priors = [
            bc.PositionPrior((bc.SubRegion(tuple(range(32, 38)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(118, 124)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(230, 236)), 1.0),)),
        ]
        points = [34, 120, 233]
        hs = [scene_channel(small_scene, p) for p in points]
        resps = [responses_of(h) for h in hs]
        chosen, total, transcripts = bc.run_multi_user(ckm, priors, resps, 0.0, 0.5)
        for k in range(3):
            assert chosen[k] == exhaustive_best_beam(small_scene, hs[k])
        assert total > 0
        solo_total = sum(
            bc.run_single_user(ckm, priors[k], resps[k], 0.0, 0.5)[1]
            for k in range(3)
        )
        assert total <= solo_total

    def test_eavesdropping_rounds_occur_and_are_free_rides(self, small_scene):
        ckm = small_scene["ckm"]
        priors = [
            bc.PositionPrior((bc.SubRegion(tuple(range(36, 39)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(96, 128)), 1.0),)),
        ]
        resps = [responses_of(scene_channel(small_scene, p)) for p in (37, 100)]
        chosen, total, transcripts = bc.run_multi_user(ckm, priors, resps, 0.0, 0.5)
        indicators = [r.indicator for t in transcripts for r in t]
        assert 0 in indicators, "expected at least one eavesdropped round"
        for t in transcripts:
            for r in t:
                assert r.indicator in (0, 1)
                assert r.probes in (0, len(r.probed))
                if r.indicator == 0:
                    assert r.feedback is None
                else:
                    assert r.feedback in r.probed

    def test_transcript_rounds_are_sorted_unique(self, small_scene):
        ckm = small_scene["ckm"]
        priors = [
            bc.PositionPrior((bc.SubRegion(tuple(range(40, 56)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(160, 176)), 1.0),)),
        ]
        resps = [responses_of(scene_channel(small_scene, p)) for p in (44, 165)]
        _, _, transcripts = bc.run_multi_user(ckm, priors, resps, 0.0, 0.5)
        for t in transcripts:
            for r in t:
                assert list(r.probed) == sorted(set(r.probed))

    def test_seeded_noise_is_reproducible(self, small_scene):
        ckm = small_scene["ckm"]
        priors = [
            bc.PositionPrior((bc.SubRegion(tuple(range(36, 42)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(96, 104)), 1.0),)),
        ]
        resps = [responses_of(scene_channel(small_scene, p)) for p in (38, 100)]
        runs = []
        for _ in range(2):
            rngs = [np.random.default_rng([5, k]) for k in range(2)]
            runs.append(bc.run_multi_user(ckm, priors, resps, 0.02, 0.5, rngs=rngs))
        assert runs[0] == runs[1]

    def test_argument_validation(self, small_scene):
        ckm = small_scene["ckm"]
        prior = bc.PositionPrior((bc.SubRegion((40,), 1.0),))
        resp = responses_of(scene_channel(small_scene, 40))
        with pytest.raises(ValueError, match="one Responses per user"):
            bc.run_multi_user(ckm, [prior, prior], [resp], 0.0, 0.5)
        with pytest.raises(ValueError):
            bc.run_multi_user(ckm, [prior], [resp], 0.0, 0.5, rngs=[None, None])
