"""The lock-step alg3 engine writes the records of its per-episode oracle.

``run_trials`` runs alg3 as lock-step rounds over every (trial, user)
episode of a chunk of trials at every SNR point, the noisy ones first
(``multiuser.run_multi_user``): one probe and stacked product per (user,
layer, probed rows) group, one array cut and fold per user.  Each case
here runs an alg3 sweep and the same sweep with
``harness.run_multi_user`` replaced by ``tests/oracles.py``'s
``run_multi_user``, one trial at a time over a ``Link`` per user, and
asks for equal records, bit for bit: on the desk, large and deep scenes,
at three seeds (2^40 is two uint32 words), at SNR points from +inf down
to -20 dB (and with +inf in the middle or absent), on a stale map, with
a low ``beta`` and ``retain_beams`` 2, with ``eta`` 1.0, and across
chunk boundaries.  The large and deep sweeps take rounds in which a user
eavesdrops (desk's users never do), and every scene's -20 dB point
engages the uniform fallback.  One more case runs the engine itself on
noise blocks of one pair, so that episodes read past their blocks;
others check that an all-zero observation prunes nothing and that the
round budget still holds.
"""

import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import beamckm as bc
from beamckm import harness
from beamckm import multiuser as mu
from beamckm.codebook import beam_index
from beamckm.streams import normal_blocks, seed_words

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SNRS = (math.inf, 20.0, 10.0, 0.0, -10.0, -20.0)
# SNR lists whose noiseless point, if any, is not first
REORDERED = {"inf-inside": (10.0, math.inf, -20.0), "no-inf": (10.0, 0.0)}
TRIALS = {"desk": 12, "large": 6, "deep": 3}


def scene(name: str, staleness_sigma: float = 0.0):
    config = bc.load_scenario(CONFIGS / f"{name}.json")
    config = dataclasses.replace(config, ckm_staleness_sigma=staleness_sigma)
    book = bc.build_codebook(config.array.num_antennas)
    return config, bc.build_ckm(
        config.environment, config.array, book, config.grid, staleness_sigma=staleness_sigma
    )


@pytest.fixture(scope="module")
def scenes():
    return {name: scene(name) for name in TRIALS}


def sweep_pair(monkeypatch, config, ckm, trials, seed, snrs=SNRS):
    """Records of the engine, then of the per-episode oracle, each as the
    ``repr`` of every record, and whether the engine had an eavesdropper
    in any round and engaged the uniform fallback in any fold."""
    engine, fold = mu.run_multi_user, mu.fold
    seen = {"eavesdrop": False, "fallback": False}

    def run():
        records = bc.run_trials(config, ckm, algorithms=["alg3"], trials=trials, seed=seed,
                                snr_db=snrs)
        return [repr(r) for r in records]

    def watched_engine(*args):
        out = engine(*args)
        seen["eavesdrop"] |= any(r.indicator == 0 for rounds in out[2] for r in rounds)
        return out

    def watched_fold(states, *args):
        fold(states, *args)
        seen["fallback"] |= any(s.uniform_fallback for s in states)

    with monkeypatch.context() as m:
        m.setattr(harness, "run_multi_user", watched_engine)
        m.setattr(mu, "fold", watched_fold)
        batched = run()
    with monkeypatch.context() as m:
        m.setattr(harness, "run_multi_user", oracles.one_trial_at_a_time)
        return batched, run(), seen


@pytest.mark.parametrize("seed", [0, 7919, 2**40])
@pytest.mark.parametrize("name", sorted(TRIALS))
def test_records_equal_the_oracle(scenes, monkeypatch, name, seed):
    config, ckm = scenes[name]
    batched, oracle, seen = sweep_pair(monkeypatch, config, ckm, TRIALS[name], seed)
    assert len(batched) == TRIALS[name] * len(SNRS) * len(config.users)
    assert batched == oracle
    # desk never eavesdrops; -20 dB noise engages the uniform fallback
    assert seen == {"eavesdrop": name != "desk", "fallback": True}


@pytest.mark.parametrize("snrs", REORDERED.values(), ids=REORDERED.keys())
@pytest.mark.parametrize("name", sorted(TRIALS))
def test_snr_lists_without_inf_first(scenes, monkeypatch, name, snrs):
    config, ckm = scenes[name]
    batched, oracle, _ = sweep_pair(monkeypatch, config, ckm, TRIALS[name], 7919, snrs)
    assert len(batched) == TRIALS[name] * len(snrs) * len(config.users)
    assert batched == oracle


@pytest.mark.parametrize("name", ["desk", "large"])
def test_stale_map(monkeypatch, name):
    config, ckm = scene(name, staleness_sigma=0.3)
    batched, oracle, _ = sweep_pair(monkeypatch, config, ckm, TRIALS[name], 7919)
    assert batched == oracle


@pytest.mark.parametrize("variant", [{"beta": 0.2, "retain_beams": 2}, {"eta": 1.0}],
                         ids=["beta0.2-retain2", "eta1.0"])
@pytest.mark.parametrize("name", ["desk", "large"])
def test_settings(scenes, monkeypatch, name, variant):
    config, ckm = scenes[name]
    config = dataclasses.replace(config, **variant)
    batched, oracle, _ = sweep_pair(monkeypatch, config, ckm, TRIALS[name], 0)
    assert batched == oracle


def test_chunks_that_divide_no_sweep(scenes, monkeypatch):
    """Chunks of 4 trials write the records of the default chunks."""
    config, ckm = scenes["large"]
    whole = bc.run_trials(config, ckm, algorithms=["alg3"], trials=10, seed=2**40, snr_db=SNRS)
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 4)
    batched, oracle, _ = sweep_pair(monkeypatch, config, ckm, 10, 2**40)
    assert batched == oracle == [repr(r) for r in whole]


def test_episodes_read_past_their_blocks(scenes):
    """On blocks of one pair every round reads past the blocks: the engine
    draws longer prefixes, each from the episode's own seed words, and
    plays what the per-episode oracle plays."""
    config, ckm = scenes["large"]
    K, E = len(config.users), 60
    rng = np.random.default_rng(5)
    points = [bc.position.sample_true_position(config.priors[e % K], rng) for e in range(E)]
    channels = bc.channel.synthesize_channel(
        config.environment, config.array, config.grid.positions(np.array(points))
    )
    resp = bc.channel.Responses(channels, bc.build_codebook(config.array.num_antennas))
    words = seed_words([7919, 202], np.arange(E)[:, None])
    sigma = bc.harness.noise_std_for_snr(0.0, ckm.reference_gain)
    runs, batches = [], []
    for engine in (mu.run_multi_user, oracles.one_trial_at_a_time):
        states = [bc.beamtree.compute_point_weights(ckm, p, config.beta) for p in config.priors]
        batches.append(bc.channel.Episodes(resp, np.arange(E), np.full(E, sigma),
                                           normal_blocks(words, 1), words))
        chosen, totals, rounds = engine(states, batches[-1], config.eta)
        runs.append((chosen, totals.tolist(), rounds))
    assert runs[0] == runs[1]
    batch = batches[0]
    assert (batch.used > 1).any() and (batch.used <= batch.block.shape[1]).all()
    np.testing.assert_array_equal(batch.block, normal_blocks(words, batch.block.shape[1]))


def test_all_zero_observation_prunes_nothing(scenes):
    """In one cut beside nonzero rows, an all-zero observation keeps every
    alive point, raises no RuntimeWarning, and each row is cut as one
    ``prune_user_points`` cuts it."""
    config, ckm = scenes["large"]
    built = bc.beamtree.compute_point_weights(ckm, config.priors[0], config.beta)
    L = built.num_layers
    rows = built.candidate_rows(L)
    # map profiles of the first and last points, none, and noise
    G = np.stack([built.gains[0, rows], np.zeros(len(rows)), built.gains[-1, rows],
                  np.random.default_rng(3).uniform(0.0, 1.0, len(rows))])
    fed = np.array([-1, int(rows[0]), int(rows[-1]), -1])
    alive = np.ones((4, len(built.point_ids)), bool)
    alive[3, ::2] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        surv = mu._prune(built, alive, [(rows, G, fed)], 0.9)
    np.testing.assert_array_equal(surv[1], alive[1])
    assert surv[0, 0] and surv[2, -1] and not surv[[0, 2]].all()
    for i in range(4):
        one = built.copy()
        one.point_alive = alive[i].copy()
        f_obs = None if fed[i] < 0 else bc.BeamId(L, int(beam_index(fed[i], L)))
        want = mu.prune_user_points(one, rows, G[i], f_obs, 0.9)
        np.testing.assert_array_equal(built.point_ids[surv[i]], want)


def test_round_budget_still_holds(scenes, monkeypatch):
    """A plan that never finishes runs the joint rounds out of budget."""
    config, ckm = scenes["desk"]
    states = [bc.beamtree.compute_point_weights(ckm, p, config.beta) for p in config.priors]
    resp = bc.channel.Responses(np.ones((1, config.array.num_antennas), complex),
                        bc.build_codebook(config.array.num_antennas))
    batch = bc.channel.Episodes(resp, np.zeros(2 * len(states), np.int64))
    monkeypatch.setattr(mu, "next_round", lambda state, choose: (None, 1, None, None))
    with pytest.raises(RuntimeError, match="round budget"):
        mu.run_multi_user(states, batch, config.eta)
