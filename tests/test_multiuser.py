"""Shared-round layer selection, eavesdrop pruning, and the joint episode.

Frozen cases: hand-computed cosine similarities and role flags, plus a
single-user reduction property — with one user the joint search must pick
the same layers as the standalone reward search.
"""

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm import multiuser as mu
from beamckm.codebook import beam_index, layer_start, row_of

from conftest import (
    built_state,
    episode,
    exhaustive_best_beam,
    from_bottom_weights,
    joint_episode,
    link_of,
    scene_channel,
    stack_layers,
)
import oracles
from oracles import similarity

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_table(profiles, beta=0.5):
    """Search state over hand-written full gain rows (P, 2^(L+1) - 2)."""
    gains = np.asarray(profiles, dtype=np.float64)
    n = len(gains)
    return bc.beamtree.SearchState(
        point_ids=np.arange(n),
        point_mass=np.full(n, 1.0 / n),
        gains=gains,
        beta=beta,
    )


def table_from_bottom(bottom, beta=0.5):
    return make_table(stack_layers(np.asarray(bottom, dtype=float)), beta=beta)


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
    """``joint_layer`` takes the active users' own layers only."""

    def test_earliest_active_layer_wins(self):
        layer, flags = mu.joint_layer([5, 3, 4])
        assert layer == 3
        assert flags == (0, 1, 0)

    def test_joint_layer_wins_when_it_matches_a_user(self):
        # the round layer is the one its descending users planned
        assert mu.joint_layer([3, 5]) == (3, (1, 0))
        assert mu.joint_layer([5, 3]) == (3, (0, 1))

    def test_unmatched_joint_falls_back_to_own_choice(self):
        # no round probes a layer at which no user's own plan starts, so
        # every round advances at least one user
        for singles in ([4, 5], [5, 2, 5], [1, 1], [5, 4, 3]):
            layer, flags = mu.joint_layer(singles)
            assert layer in singles
            assert 1 in flags

    def test_all_users_finished_rejected(self):
        # finished users are left out, so no active user is an empty list
        with pytest.raises(ValueError):
            mu.joint_layer([])

    def test_multiple_users_can_match(self):
        assert mu.joint_layer([2, 2, 4]) == (2, (1, 1, 0))


class TestUnionBeams:
    def test_deduplicated_ascending(self):
        # codebook rows: layer 1 beams 1, 2 are rows 0, 1; layer 2 beams 1..4 rows 2..5
        t1 = from_bottom_weights([1.0, 0.0, 1.0, 0.0])
        t2 = from_bottom_weights([0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(mu.union_beams([t1, t2], 2), [2, 4, 5])
        np.testing.assert_array_equal(mu.union_beams([t1, t2], 1), [0, 1])
        np.testing.assert_array_equal(mu.union_beams([t1], 2), [2, 4])

    def test_one_state_gives_what_the_union_gives(self):
        rng = np.random.default_rng(4)
        states = []
        while len(states) < 3:
            w = rng.uniform(0.1, 1.0, 16) * (rng.random(16) < 0.4)
            if w.any():
                states.append(from_bottom_weights(w))
        for layer in range(1, 5):
            for group in (states[:1], states[1:2], states[:2], states):
                want = np.unique(np.concatenate([s.candidate_rows(layer) for s in group]))
                got = mu.union_beams(group, layer)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


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
        bc.beamtree.fold([table], [np.array([False])], [None])
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
    f_row = None if f_obs is None else row_of(f_obs)
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
    gains = rng.uniform(0.0, 1.0, (P, layer_start(L + 1)))
    gains *= rng.random(gains.shape) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    gains[rng.random(P) < 0.1] = 0.0
    state = bc.beamtree.SearchState(np.arange(P), np.full(P, 1.0 / P), gains, 0.5)
    alive = rng.random(P) < draw(st.sampled_from([0.5, 1.0]))
    alive[rng.integers(P)] = True
    bc.beamtree.fold([state], [alive], [None])
    layer = draw(st.integers(1, L))
    width = draw(st.integers(2, 2**layer))
    indices = np.sort(rng.choice(np.arange(1, 2**layer + 1), width, replace=False))
    beams = [bc.BeamId(layer, int(n)) for n in indices]
    rows = np.array([row_of(b) for b in beams])
    g_obs = np.zeros(width) if draw(st.integers(0, 4)) == 0 else rng.uniform(0.0, 2.0, width)
    eta = draw(st.one_of(st.just(1.0), st.floats(0.05, 0.999)))
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


def survivors_by_gather(state, rows, g_obs, f_obs, eta):
    """The pruning rule as one gather of ``gains[:, rows]`` per round, with
    no memo: the similarities of the nonzero-norm points by one product
    of their C-ordered gains with ``g_obs``."""
    alive = state.point_alive
    no = float(np.linalg.norm(g_obs))
    if no == 0.0:
        return state.point_ids[alive]
    gm = state.gains[:, rows]
    nm = np.linalg.norm(gm, axis=1)
    sims = np.zeros(len(gm))
    ok = nm > 0.0
    sims[ok] = (gm[ok] @ g_obs) / (no * nm[ok])
    masked = np.where(alive, sims, -np.inf)
    surv = alive & (sims > eta * masked.max())
    if f_obs is not None:
        surv &= rows[np.argmax(gm, axis=1)] == row_of(f_obs)
    if not surv.any():
        surv = alive & (masked == masked.max())
    return state.point_ids[surv]


def rebuilt(state):
    """A state over the same arrays and alive points, with memos of its own."""
    out = bc.beamtree.SearchState(state.point_ids, state.point_mass, state.gains, state.beta)
    bc.beamtree.fold([out], [state.point_alive.copy()], [None])
    return out


@st.composite
def memo_rounds(draw):
    """A pruning round whose state has, when drawn so, some points with an
    all-zero profile at the probed rows, and a second observation over
    the same rows that fills the memo first."""
    state, rows, g_obs, f_obs, eta = draw(pruning_rounds())
    if draw(st.booleans()):
        gains = state.gains.copy()
        gains[np.ix_(np.arange(len(gains)) % 3 == 0, rows)] = 0.0
        alive = state.point_alive
        state = bc.beamtree.SearchState(state.point_ids, state.point_mass, gains, 0.5)
        bc.beamtree.fold([state], [alive], [None])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return state, rows, g_obs, f_obs, eta, rng.uniform(0.1, 2.0, len(rows))


class TestProfileMemo:
    """The copies of a built state share one memo of pruning profiles by
    probed rows; a prune that finds its rows there decides as a prune on
    a freshly built state, and as one gather per round."""

    @settings(max_examples=200, deadline=None)
    @given(memo_rounds())
    def test_warm_copy_prunes_as_a_fresh_state(self, case):
        built, rows, g_obs, f_obs, eta, g_first = case
        mu.prune_user_points(built.copy(), rows, g_first, None, eta)
        ok, gm, _, _ = built._profiles[rows.tobytes()]
        # the product must read the C-ordered gather: BLAS rounds an
        # F-ordered one differently
        gather = built.gains[:, rows]
        nonzero = np.linalg.norm(gather, axis=1) > 0.0
        assert (ok is None) == nonzero.all()
        assert gm.flags.c_contiguous and gm.tobytes() == gather[nonzero].tobytes()
        warm, fresh = built.copy(), rebuilt(built)
        want = survivors_by_gather(fresh, rows, g_obs, f_obs, eta)
        got = mu.prune_user_points(warm, rows, g_obs, f_obs, eta)
        np.testing.assert_array_equal(mu.prune_user_points(fresh, rows, g_obs, f_obs, eta), got)
        np.testing.assert_array_equal(got, want)
        for name in ("point_alive", "beam_alive", "root", "uniform_fallback"):
            assert np.array_equal(getattr(warm, name), getattr(fresh, name)), name
        assert warm._profiles is built._profiles and fresh._profiles is not built._profiles

    def test_full_budget_stops_storing_and_prunes_alike(self, monkeypatch):
        rng = np.random.default_rng(12)
        L, P = 5, 40
        gains = rng.uniform(0.0, 1.0, (P, layer_start(L + 1)))
        gains[::4, layer_start(L) :: 2] = 0.0  # some all-zero profiles at some rows
        built = bc.beamtree.SearchState(np.arange(P), np.full(P, 1.0 / P), gains, 0.5)
        row_sets = [
            (l, np.sort(rng.choice(np.arange(layer_start(l), layer_start(l + 1)), w,
                                   replace=False)))
            for l, w in [(5, 2), (5, 3), (4, 4), (3, 5), (5, 8), (2, 3), (4, 2), (5, 16)]
        ]
        # room for the first two profiles and half of the first again
        sizes = []
        for _, rows in row_sets[:2]:
            probe = bc.beamtree.SearchState(np.arange(P), np.full(P, 1.0 / P), gains, 0.5)
            mu.prune_user_points(probe, rows, np.ones(len(rows)), None, 0.9)
            sizes.append(probe._profiles.nbytes)
        budget = sum(sizes) + sizes[0] // 2
        monkeypatch.setattr(mu, "_PROFILE_BYTES", budget)
        memo = built._profiles
        for _ in range(3):
            for layer, rows in row_sets:
                g_obs = rng.uniform(0.0, 2.0, len(rows))
                f_obs = bc.BeamId(layer, int(beam_index(rows[np.argmax(g_obs)], layer)))
                eta = float(rng.uniform(0.5, 1.0))
                warm, fresh = built.copy(), rebuilt(built)
                want = survivors_by_gather(fresh, rows, g_obs, f_obs, eta)
                np.testing.assert_array_equal(
                    mu.prune_user_points(warm, rows, g_obs, f_obs, eta), want
                )
                np.testing.assert_array_equal(warm.point_alive, np.isin(built.point_ids, want))
                assert memo.nbytes <= budget
                assert memo.nbytes == sum(
                    a.nbytes for prof in memo.values() for a in prof if a is not None
                )
            assert list(memo) == [rows.tobytes() for _, rows in row_sets[:2]]


class TestRunMultiUser:
    def test_single_user_matches_standalone_search(self, small_scene):
        ckm = small_scene["ckm"]
        rng = np.random.default_rng(29)
        prior = bc.PositionPrior(
            (bc.SubRegion(tuple(range(34, 40)), 0.5), bc.SubRegion(tuple(range(200, 208)), 0.5))
        )
        built = built_state(ckm, prior)
        for _ in range(15):
            point = bc.position.sample_true_position(prior, rng)
            h = scene_channel(small_scene, point)
            solo = episode(bc.strategy.run_single_user, built, link_of(h))
            joint = joint_episode([built], [link_of(h)], 0.9)
            assert joint[0][0] == solo[0]
            assert joint[1] <= solo[1]

    def test_clone_users_share_every_probe(self, small_scene):
        ckm = small_scene["ckm"]
        built = built_state(ckm, bc.PositionPrior((bc.SubRegion(tuple(range(36, 42)), 1.0),)))
        link = link_of(scene_channel(small_scene, 38))
        single = joint_episode([built], [link], 0.9)
        twin = joint_episode([built, built], [link, link], 0.9)
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
        links = [link_of(h) for h in hs]
        states = [built_state(ckm, p) for p in priors]
        chosen, total, transcripts = joint_episode(states, links, 0.9)
        for k in range(3):
            assert chosen[k] == exhaustive_best_beam(small_scene, hs[k])
        assert total > 0
        solo_total = sum(episode(bc.strategy.run_single_user, states[k], links[k])[1] for k in range(3))
        assert total <= solo_total

    def test_eavesdropping_rounds_occur_and_are_free_rides(self, small_scene):
        ckm = small_scene["ckm"]
        priors = [
            bc.PositionPrior((bc.SubRegion(tuple(range(36, 39)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(96, 128)), 1.0),)),
        ]
        links = [link_of(scene_channel(small_scene, p)) for p in (37, 100)]
        states = [built_state(ckm, p) for p in priors]
        chosen, total, transcripts = joint_episode(states, links, 0.9)
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
        links = [link_of(scene_channel(small_scene, p)) for p in (44, 165)]
        _, _, transcripts = joint_episode([built_state(ckm, p) for p in priors], links, 0.9)
        for t in transcripts:
            for r in t:
                assert list(r.probed) == sorted(set(r.probed))

    def test_seeded_noise_is_reproducible(self, small_scene):
        ckm = small_scene["ckm"]
        priors = [
            bc.PositionPrior((bc.SubRegion(tuple(range(36, 42)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(96, 104)), 1.0),)),
        ]
        hs = [scene_channel(small_scene, p) for p in (38, 100)]
        states = [built_state(ckm, p) for p in priors]
        runs = []
        # the same states twice, then fresh ones
        for users in (states, states, [built_state(ckm, p) for p in priors]):
            links = [link_of(h, 0.02, [5, k]) for k, h in enumerate(hs)]
            runs.append(joint_episode(users, links, 0.9))
        assert runs[0] == runs[1] == runs[2]

    def test_built_states_stay_in_their_initial_state(self, small_scene, monkeypatch):
        """The episode folds copies: noise that engages the uniform fallback
        in them leaves the built states at full masks, root None and no
        fallback, and their copies start there."""
        ckm = small_scene["ckm"]
        priors = [
            bc.PositionPrior((bc.SubRegion(tuple(range(36, 42)), 1.0),)),
            bc.PositionPrior((bc.SubRegion(tuple(range(96, 104)), 1.0),)),
        ]
        built = [built_state(ckm, p) for p in priors]
        folded = []
        fold = mu.fold

        def recorded(states, *args):
            fold(states, *args)
            folded.extend((state, state.uniform_fallback) for state in states)

        monkeypatch.setattr(mu, "fold", recorded)
        hs = [scene_channel(small_scene, p) for p in (38, 100)]
        for seed in range(6):
            links = [link_of(h, 10.0, [seed, k]) for k, h in enumerate(hs)]
            joint_episode(built, links, 0.9)
        assert any(fallback for _, fallback in folded)
        assert not any(state is b for state, _ in folded for b in built)
        for state in (*built, *(b.copy() for b in built)):
            assert state.point_alive.all() and state.beam_alive.all()
            assert state.root is None and not state.uniform_fallback

    def test_argument_validation(self, small_scene):
        ckm = small_scene["ckm"]
        built = built_state(ckm, bc.PositionPrior((bc.SubRegion((40,), 1.0),)))
        link = link_of(scene_channel(small_scene, 40))
        assert joint_episode([built, built], [link, link], 0.9)[0]
        # one link too few, one too many
        for links in ([link], [link, link, link]):
            with pytest.raises(ValueError, match="one episode per \\(trial, user\\)"):
                joint_episode([built, built], links, 0.9)


class TestSharedViews:
    """A sweep's alg3 episodes start from copies of each user's built state
    and so share its memo of derived views; states rebuilt for every
    trial share nothing and must play the same episodes."""

    @pytest.mark.parametrize("scene, trials, snr", [("large", 40, 10.0), ("deep", 10, 0.0)])
    def test_warm_views_play_what_fresh_states_play(self, monkeypatch, scene, trials, snr):
        from beamckm import harness

        cfg = bc.load_scenario(CONFIGS / f"{scene}.json")
        book = bc.build_codebook(cfg.array.num_antennas)
        ckm = bc.build_ckm(cfg.environment, cfg.array, book, cfg.grid)
        derive, derive_view = bc.beamtree.SearchState._derive, bc.beamtree.SearchState._derive_view
        counts = {"derived": 0, "computed": 0}

        def counted(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(bc.beamtree.SearchState, "_derive", counted(derive, "derived"))
        monkeypatch.setattr(bc.beamtree.SearchState, "_derive_view", counted(derive_view, "computed"))

        def play(engine):
            played = []

            def run(*args):
                chosen, totals, rounds = engine(*args)
                played.append((chosen, totals.tolist(), rounds))
                return chosen, totals, rounds

            monkeypatch.setattr(harness, "run_multi_user", run)
            records = bc.run_trials(cfg, ckm, algorithms=["alg3"], trials=trials, seed=0,
                                    snr_db=[snr])
            return played, records

        warm = play(mu.run_multi_user)
        assert counts["computed"] < counts["derived"]  # the memo served a view
        assert len(warm[0]) == 1 and len(warm[0][0][1]) == trials  # one batch of the trials
        fresh = play(functools.partial(oracles.one_trial_at_a_time, fresh=True))
        assert fresh == warm  # beams, totals, rounds and records


class TestEqualStatesStayApart:
    """Each round folds one copy per (state, fed-back row, survivors) and
    merges no result into an equal state of another transition, so
    trials whose users reached equal states play apart and must still
    play the per-episode oracle's episodes."""

    def test_a_round_keeps_two_states_of_one_view_and_plays_the_oracle(self, monkeypatch):
        from beamckm import harness

        cfg = bc.load_scenario(CONFIGS / "large.json")
        book = bc.build_codebook(cfg.array.num_antennas)
        ckm = bc.build_ckm(cfg.environment, cfg.array, book, cfg.grid)
        play, twins = mu._play, []

        def watched(at, k, *args):
            play(at, k, *args)
            held = {id(row[k]): row[k] for row in at if row[k] is not None}.values()
            keys = [(s.view, s.root_layer) for s in held]
            twins.append(len(keys) - len(set(keys)))

        def run():
            return bc.run_trials(cfg, ckm, algorithms=["alg3"], trials=20, seed=0,
                                 snr_db=[math.inf, 10.0, 0.0])

        monkeypatch.setattr(mu, "_play", watched)
        engine = run()
        assert any(twins)  # some user holds two distinct states of one (view, root layer)
        monkeypatch.setattr(harness, "run_multi_user", oracles.one_trial_at_a_time)
        assert run() == engine
