"""Single-user search strategy: probe-cost closed form, rewards, layer
choice, and the full feedback loop.

The probe-count simulation oracle below is the reference for every cost
value in this file: it walks an activation top-down over explicit
candidate sets and counts probes by the stated rules, sharing no code
with the implementation under test.
"""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

import beamckm as bc
from beamckm.lookahead import next_layer
from beamckm.strategy import run_searches

from conftest import (
    FOUR_LEAF_WEIGHTS,
    bottom_candidates,
    built_state,
    candidate_count,
    candidates,
    episode,
    exhaustive_best_beam,
    from_bottom_weights,
    link_of,
    noise_of,
    scene_channel,
    toy_ckm,
    uniform_prior,
)
import oracles
from oracles import (
    enumerate_activations,
    overhead_for_target,
    pick_activation,
    reward,
    steering_vector,
)


# ----------------------------------------------------------------------
# Independent oracle: simulate the probe sequence of an activation
# ----------------------------------------------------------------------


def layer_candidate_sets(bottom_candidates, num_layers):
    """Candidate index sets per layer from the bottom set (parents of
    candidates are candidates)."""
    sets = {num_layers: set(int(n) for n in bottom_candidates)}
    for l in range(num_layers - 1, 0, -1):
        sets[l] = {(n + 1) // 2 for n in sets[l + 1]}
    return sets


def ancestor_at(node: int, node_layer: int, layer: int) -> int:
    """1-based ancestor index of a node when lifted to a shallower layer."""
    return ((node - 1) >> (node_layer - layer)) + 1


def simulated_probe_count(bottom_candidates, num_layers, activation, target) -> int:
    """Walk the active layers top-down: probe every candidate at the entry
    layer, then at each later active layer probe the candidate descendants
    of the ancestor pinned at the previous active layer, skipping layers
    where only one descendant remains (free descent)."""
    sets = layer_candidate_sets(bottom_candidates, num_layers)
    layers = sorted(set(activation))
    assert layers[-1] == num_layers
    probes = len(sets[layers[0]])
    anchor = ancestor_at(target, num_layers, layers[0])
    anchor_layer = layers[0]
    for l in layers[1:]:
        span = [n for n in sets[l] if ancestor_at(n, l, anchor_layer) == anchor]
        if len(span) >= 2:
            probes += len(span)
        anchor = ancestor_at(target, num_layers, l)
        anchor_layer = l
    return probes


def oracle_reward(bottom_candidates, num_layers, activation, weights) -> float:
    total = 0.0
    for n in bottom_candidates:
        total += weights[n - 1] * simulated_probe_count(
            bottom_candidates, num_layers, activation, n
        )
    return -total


def random_tree(rng, num_layers):
    """Random nonempty bottom candidate mask as a toy search state."""
    n = 2**num_layers
    while True:
        mask = rng.random(n) < 0.45
        if mask.any():
            break
    weights = np.where(mask, rng.uniform(0.5, 2.0, n), 0.0)
    return from_bottom_weights(weights), weights


FOUR_LEAF_CANDS = (1, 2, 3, 5)


class TestFrozenOverheads:
    """Worked probe counts on the four-leaf tree, pinned exactly."""

    CASES = [
        ((1, 3), 5, 2),
        ((2, 3), 3, 3),
        ((3,), 1, 4),
        ((1, 2, 3), 3, 4),
    ]

    def test_oracle_reproduces_frozen_values(self):
        for activation, target, expected in self.CASES:
            got = simulated_probe_count(FOUR_LEAF_CANDS, 3, activation, target)
            assert got == expected, (activation, target)

    def test_implementation_matches_frozen_values(self, four_leaf_tree):
        for activation, target, expected in self.CASES:
            got = overhead_for_target(four_leaf_tree, activation, bc.BeamId(3, target))
            assert got == expected, (activation, target)

    def test_target_must_be_candidate(self, four_leaf_tree):
        with pytest.raises(ValueError):
            overhead_for_target(four_leaf_tree, (3,), bc.BeamId(3, 4))

    def test_activation_must_reach_bottom(self, four_leaf_tree):
        with pytest.raises(ValueError):
            overhead_for_target(four_leaf_tree, (1, 2), bc.BeamId(3, 1))


class TestSimulationEquivalence:
    """Closed-form probe cost equals the simulated count everywhere."""

    @pytest.mark.parametrize("num_layers", [3, 4])
    def test_random_trees_all_activations_all_targets(self, num_layers):
        rng = np.random.default_rng(2024 + num_layers)
        for _ in range(40):
            tree, _ = random_tree(rng, num_layers)
            cands = [int(n) for n in bottom_candidates(tree)]
            for activation in enumerate_activations(0, num_layers):
                for target in cands:
                    expected = simulated_probe_count(
                        cands, num_layers, activation, target
                    )
                    got = overhead_for_target(
                        tree, activation, bc.BeamId(num_layers, target)
                    )
                    assert got == expected, (cands, activation, target)

    def test_single_candidate_chain_costs_one_probe(self):
        # the entry layer is always charged, even for a lone candidate
        tree = from_bottom_weights([0.0, 0.0, 1.0, 0.0])
        assert overhead_for_target(tree, (1, 2), bc.BeamId(2, 3)) == 1
        assert overhead_for_target(tree, (2,), bc.BeamId(2, 3)) == 1


class TestReward:
    """Weighted negative probe cost over all candidate leaves."""

    FROZEN = [((1, 2, 3), -18.0), ((2, 3), -16.0), ((3,), -16.0), ((1, 3), -17.0)]

    def test_unit_weight_rewards(self, four_leaf_tree):
        w = FOUR_LEAF_WEIGHTS
        for activation, expected in self.FROZEN:
            np.testing.assert_allclose(reward(four_leaf_tree, activation), expected)
            np.testing.assert_allclose(
                oracle_reward(FOUR_LEAF_CANDS, 3, activation, w), expected
            )

    def test_reward_matches_oracle_on_random_trees(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            tree, weights = random_tree(rng, 4)
            cands = [int(n) for n in bottom_candidates(tree)]
            for activation in enumerate_activations(0, 4):
                np.testing.assert_allclose(
                    reward(tree, activation),
                    oracle_reward(cands, 4, activation, weights),
                )

    def test_singleton_tree_reward_is_minus_weight(self):
        tree = from_bottom_weights([0.0, 2.5, 0.0, 0.0])
        np.testing.assert_allclose(reward(tree, (2,)), -2.5)


class TestOptimalLayer:
    def test_unit_weights_tiebreak_prefers_single_late_layer(self, four_leaf_tree):
        # {2,3} and {3} tie at -16; fewest layers picks {3}
        act, rew = bc.strategy.best_activation(four_leaf_tree)
        assert act == (3,)
        np.testing.assert_allclose(rew, -16.0)
        assert bc.strategy.optimal_layer(four_leaf_tree) == 3

    def test_weights_favoring_isolated_leaf_pick_top_layer(self):
        state = from_bottom_weights([1.0, 1.0, 1.0, 0.0, 10.0, 0.0, 0.0, 0.0])
        act, _ = bc.strategy.best_activation(state)
        assert act == (1, 3)
        assert bc.strategy.optimal_layer(state) == 1

    def test_weights_concentrated_in_shared_subtree_skip_top(self):
        # leaves 1 and 2 share every upper ancestor: probing layer 1 wastes
        # probes, so the bottom-only plan wins
        state = from_bottom_weights([10.0, 10.0, 0.1, 0.0, 0.1, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(bottom_candidates(state), [1, 2, 3, 5])
        assert bc.strategy.optimal_layer(state) > 1

    def test_choice_invariant_to_weight_scale(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            tree, weights = random_tree(rng, 4)
            if len(bottom_candidates(tree)) == 1:
                continue
            a = bc.strategy.best_activation(tree)[0]
            b = bc.strategy.best_activation(from_bottom_weights(weights * 37.5))[0]
            assert a == b

    def test_enumeration_always_contains_bottom_layer(self):
        for from_layer in range(0, 4):
            for act in enumerate_activations(from_layer, 4):
                assert act[-1] == 4
                assert all(l > from_layer for l in act)

    def test_pick_activation_tiebreak_order(self):
        acts = [(1, 3), (2, 3), (3,)]
        scores = np.array([-5.0, -5.0, -5.0])
        # fewest layers first: (3,) beats both two-layer plans
        assert pick_activation(acts, scores) == 2
        scores = np.array([-5.0, -4.0, -4.5])
        assert pick_activation(acts, scores) == 1


class TestRunSingleUser:
    """Full feedback loop on a synthetic one-hot map and on a real scene."""

    @staticmethod
    def _one_hot_ckm():
        # four points, each supporting exactly one of the leaves {1,2,3,5}
        bottom = np.zeros((4, 8))
        for row, leaf in enumerate(FOUR_LEAF_CANDS):
            bottom[row, leaf - 1] = 1.0
        return toy_ckm(bottom)

    def test_unit_weights_probe_bottom_directly(self):
        ckm = self._one_hot_ckm()
        h = steering_vector(-1 + 9 / 8, 8)  # center angle of bottom beam 5
        chosen, overhead, rounds = episode(
            bc.strategy.run_single_user, built_state(ckm, uniform_prior(range(4))), link_of(h)
        )
        assert chosen == bc.BeamId(3, 5)
        assert overhead == 4  # the frozen bottom-only plan
        assert [r.layer for r in rounds if r.probes] == [3]

    def test_skewed_weights_enter_at_top(self):
        ckm = self._one_hot_ckm()
        h = steering_vector(-1 + 9 / 8, 8)
        # weight point 3 ten times the others via region priors (10:1 mass)
        prior = bc.PositionPrior(
            (bc.SubRegion((0, 1, 2), 3 / 13), bc.SubRegion((3,), 10 / 13))
        )
        chosen, overhead, rounds = episode(bc.strategy.run_single_user, built_state(ckm, prior), link_of(h))
        assert chosen == bc.BeamId(3, 5)
        assert overhead == 2  # probe the two top beams, then free descent
        assert [r.layer for r in rounds if r.probes] == [1]

    def test_noiseless_matches_exhaustive_oracle(self, small_scene):
        grid = small_scene["grid"]
        ckm = small_scene["ckm"]
        rng = np.random.default_rng(11)
        prior = bc.PositionPrior(
            (bc.SubRegion(tuple(range(34, 40)), 0.5), bc.SubRegion(tuple(range(200, 208)), 0.5))
        )
        built = built_state(ckm, prior)
        for _ in range(25):
            point = bc.position.sample_true_position(prior, rng)
            h = scene_channel(small_scene, point)
            chosen, overhead, rounds = episode(bc.strategy.run_single_user, built, link_of(h))
            assert chosen == exhaustive_best_beam(small_scene, h)
            assert overhead == sum(r.probes for r in rounds)
            assert overhead <= 2 * ckm.num_layers

    def test_termination_under_pure_noise(self, small_scene):
        ckm = small_scene["ckm"]
        prior = bc.PositionPrior((bc.SubRegion(tuple(range(64, 96)), 1.0),))
        h = scene_channel(small_scene, 70)
        state = built_state(ckm, prior)
        chosen, overhead, _ = episode(bc.strategy.run_single_user, state, link_of(h, 1e9, 0))
        assert chosen.layer == ckm.num_layers
        # never worse than probing every candidate at every layer once
        bound = sum(candidate_count(state, l) for l in range(1, ckm.num_layers + 1))
        assert overhead <= bound

    def test_same_seed_reproduces_episode(self, small_scene):
        ckm = small_scene["ckm"]
        prior = bc.PositionPrior((bc.SubRegion(tuple(range(100, 130)), 1.0),))
        h = scene_channel(small_scene, 105)
        # two fresh states, then one whose tree the first run cached
        built = built_state(ckm, prior)
        states = (built, built_state(ckm, prior), built)
        runs = [episode(bc.strategy.run_single_user, state, link_of(h, 0.05, 42)) for state in states]
        for run in runs[1:]:
            assert runs[0][0] == run[0]
            assert runs[0][1] == run[1]
            assert runs[0][2] == run[2]


class TestSharedEpisodeLoop:
    """Round invariants that alg1 and alg2 (``strategy.run_searches``) and
    both baselines' per-episode oracles (``oracles.probe_round``) share,
    checked on noisy episodes of the small scene."""

    EPISODES = {
        "alg1": functools.partial(episode, bc.strategy.run_single_user),
        "alg2": functools.partial(episode, bc.lookahead.run_lookahead),
        "baseline-hier": lambda state, link: oracles.baseline_hierarchical(link),
        "baseline-exhaustive": lambda state, link: oracles.baseline_exhaustive(link),
    }

    @pytest.mark.parametrize("algo", list(EPISODES))
    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    def test_rounds_descend_under_previous_feedback(self, small_scene, algo, snr_db):
        ckm = small_scene["ckm"]
        L = ckm.num_layers
        # two regions whose best beams sometimes leave one bottom candidate
        # before the bottom layer is probed
        prior = bc.PositionPrior(
            (bc.SubRegion(tuple(range(34, 40)), 0.5), bc.SubRegion(tuple(range(120, 128)), 0.5))
        )
        sigma = bc.harness.noise_std_for_snr(snr_db, ckm.reference_gain)
        built = built_state(ckm, prior)
        sole_candidate_endings = 0
        for seed in range(8):
            point = bc.position.sample_true_position(prior, np.random.default_rng(seed))
            h = scene_channel(small_scene, point)
            chosen, overhead, rounds = self.EPISODES[algo](built, link_of(h, sigma, seed))
            assert overhead == sum(r.probes for r in rounds)
            prev = None
            for r in rounds:
                assert r.feedback in r.probed
                assert list(r.probed) == sorted(set(r.probed))
                if r.probes == 0:
                    assert len(r.probed) == 1
                else:
                    assert r.probes == len(r.probed) >= 2
                if prev is not None:
                    assert r.layer > prev.layer
                    shift = r.layer - prev.layer
                    lo, hi = (prev.index - 1) << shift, prev.index << shift
                    assert all(lo < n <= hi for n in r.probed)
                prev = bc.BeamId(r.layer, r.feedback)
            assert chosen.layer == L
            if prev is not None and prev.layer == L:
                assert chosen == prev
                continue
            # otherwise the search stopped on a sole bottom candidate
            assert algo in ("alg1", "alg2")
            sole_candidate_endings += 1
            state = built.copy()
            for r in rounds:
                bc.beamtree.apply_observation(state, bc.BeamId(r.layer, r.feedback))
            assert bottom_candidates(state).tolist() == [chosen.index]
        if algo in ("alg1", "alg2"):
            assert sole_candidate_endings > 0


class TestSearchTreeCache:
    """``run_searches`` walks a tree of cached states below the states it
    is given: it leaves those states as they were, and an episode through a
    state already reached derives nothing again."""

    PRIOR = bc.PositionPrior(
        (bc.SubRegion(tuple(range(34, 40)), 0.5), bc.SubRegion(tuple(range(120, 128)), 0.5))
    )

    @pytest.mark.parametrize("choose_layer", [bc.strategy.optimal_layer, next_layer])
    def test_episode_leaves_its_state_unchanged(self, small_scene, choose_layer):
        ckm, cb = small_scene["ckm"], small_scene["codebook"]
        names = ("point_alive", "beam_alive", "weights", "rows")
        for seed in range(6):
            # a built state, a copy of it, and a state already folded once
            built = built_state(ckm, self.PRIOR)
            folded = built.copy()
            bc.beamtree.apply_observation(folded, bc.BeamId(1, int(candidates(folded, 1)[seed % 2 - 1])))
            resp = bc.channel.Responses(scene_channel(small_scene, 36 + seed), cb)
            for state in (built, built.copy(), folded):
                before = {name: getattr(state, name).copy() for name in names}
                root, fallback = state.root, state.uniform_fallback
                search = functools.partial(run_searches, choose_layer=choose_layer)
                for _ in range(2):
                    assert episode(search, state, oracles.Link(resp, 0.05, *noise_of(seed)))[2]
                for name, want in before.items():
                    np.testing.assert_array_equal(getattr(state, name), want)
                assert state.root == root and state.uniform_fallback == fallback

    def test_second_episode_reuses_the_cached_children(self, small_scene, monkeypatch):
        from beamckm import strategy

        ckm, cb = small_scene["ckm"], small_scene["codebook"]
        built = built_state(ckm, self.PRIOR)
        derived = []
        original = strategy.apply_observation

        def counted(state, observed):
            derived.append(observed)
            original(state, observed)

        monkeypatch.setattr(strategy, "apply_observation", counted)
        resp = bc.channel.Responses(scene_channel(small_scene, 37), cb)

        def search_once():
            return episode(bc.strategy.run_single_user, built, oracles.Link(resp, 0.05, *noise_of(9)))

        def path(rounds):
            node, nodes = built, []
            for r in rounds:
                node = node.view.children[r.layer, r.feedback]
                nodes.append(node)
            return nodes

        first = search_once()
        assert len(derived) == len(first[2]) >= 2
        nodes = path(first[2])
        second = search_once()
        assert second == first
        assert len(derived) == len(first[2])
        assert all(a is b for a, b in zip(path(second[2]), nodes, strict=True))

    def test_desk_sweep_derives_fewer_children_than_it_plays_rounds(self, monkeypatch):
        from beamckm import harness, strategy

        cfg = bc.load_scenario(Path(__file__).resolve().parent.parent / "configs" / "desk.json")
        ckm = bc.build_ckm(
            cfg.environment, cfg.array, bc.build_codebook(cfg.array.num_antennas), cfg.grid
        )
        derived, rounds = [], []
        apply_observation, run_single_user = strategy.apply_observation, harness.run_single_user

        def counted_fold(state, observed):
            derived.append(observed)
            apply_observation(state, observed)

        def counted_batch(*args, **kwargs):
            result = run_single_user(*args, **kwargs)
            rounds.append(len(result[2]))  # every episode's rounds
            return result

        monkeypatch.setattr(strategy, "apply_observation", counted_fold)
        monkeypatch.setattr(harness, "run_single_user", counted_batch)
        records = bc.run_trials(cfg, ckm, algorithms=["alg1"], trials=200, seed=0)
        assert len(records) == 200 * len(cfg.snr_db) * len(cfg.users)
        assert len(rounds) == len(cfg.snr_db)  # one batch per SNR point of the one chunk
        assert 0 < len(derived) < sum(rounds)


class TestFreeDescents:
    """Only alg2 descends for free: alg1's plans and alg3's joint rounds
    never start on a layer with one candidate (the invariant in
    ``strategy``'s docstring), checked over the golden sweep settings."""

    @pytest.mark.parametrize("scene, trials", [("desk", 12), ("large", 6)])
    def test_no_alg1_or_alg3_round_probes_nothing(self, monkeypatch, scene, trials):
        from beamckm import harness

        cfg = bc.load_scenario(Path(__file__).resolve().parent.parent / "configs" / f"{scene}.json")
        ckm = bc.build_ckm(
            cfg.environment, cfg.array, bc.build_codebook(cfg.array.num_antennas), cfg.grid
        )
        rounds = {"alg1": [], "alg2": [], "alg3": []}

        def recorded(algo, episode):
            def run(*args, **kwargs):
                result = episode(*args, **kwargs)
                per_user = result[2] if algo == "alg3" else [result[2]]
                rounds[algo].extend(r for user in per_user for r in user)
                return result

            return run

        monkeypatch.setattr(harness, "run_single_user", recorded("alg1", harness.run_single_user))
        monkeypatch.setattr(harness, "run_lookahead", recorded("alg2", harness.run_lookahead))
        monkeypatch.setattr(harness, "run_multi_user", recorded("alg3", harness.run_multi_user))
        for variant in ({}, {"beta": 0.2, "retain_beams": 2}):
            bc.run_trials(
                dataclasses.replace(cfg, **variant), ckm, algorithms=list(rounds),
                trials=trials, seed=0, snr_db=[float("inf"), 10.0, 0.0, -10.0],
            )
        assert all(rounds.values())
        assert not [r for r in rounds["alg1"] + rounds["alg3"] if r.probes == 0]
        assert any(r.probes == 0 for r in rounds["alg2"])
