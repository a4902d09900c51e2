"""Every algorithm's probe count is its batch's ``Episodes.used``.

Each engine runs on an ``Episodes`` batch of large-scene trials, noiseless
and at 10 dB, and returns its probe counts at index 1.  Those are the
counts ``probe_episodes`` kept on the batch: per episode for the
single-user searches and the baselines, and for alg3 per trial, the most
any of its users heard.  The per-episode oracles of ``tests/oracles.py``
count the same probes from their round transcripts.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import beamckm as bc
from beamckm import harness, lookahead, multiuser, strategy
from beamckm.streams import normal_blocks, seed_words

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TRIALS = 8


@pytest.fixture(scope="module")
def scene():
    config = bc.load_scenario(CONFIGS / "large.json")
    ckm = bc.build_ckm(config.environment, config.array,
                       bc.build_codebook(config.array.num_antennas), config.grid)
    K, rng = len(config.users), np.random.default_rng(11)
    points = [bc.position.sample_true_position(config.priors[e % K], rng)
              for e in range(TRIALS * K)]
    channels = bc.channel.synthesize_channel(
        config.environment, config.array, config.grid.positions(np.array(points))
    )
    resp = bc.channel.Responses(channels, bc.build_codebook(config.array.num_antennas))
    return config, ckm, resp


def new_batch(scene, snr_db):
    """A fresh batch of every (trial, user) episode at one SNR point."""
    _, ckm, resp = scene
    E = len(resp.channels)
    sigma = harness.noise_std_for_snr(snr_db, ckm.reference_gain)
    if not sigma:
        return bc.channel.Episodes(resp, 0.0, np.arange(E))
    words = seed_words([3, 202], np.arange(E)[:, None])
    return bc.channel.Episodes(resp, sigma, np.arange(E), normal_blocks(words, 8), words)


def built_states(scene):
    config, ckm, _ = scene
    return [bc.beamtree.compute_point_weights(ckm, p, config.beta) for p in config.priors]


@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
@pytest.mark.parametrize("name, choose_layer", [
    ("alg1", strategy.optimal_layer), ("alg2", lookahead.next_layer)
])
def test_searches_count_on_the_batch(scene, snr_db, name, choose_layer):
    search = strategy.run_single_user if name == "alg1" else lookahead.run_lookahead
    batch = new_batch(scene, snr_db)
    probes = search(built_states(scene), batch)[1]
    assert probes is batch.used and batch.used.sum() > 0
    want = oracles.one_search_at_a_time(choose_layer)(built_states(scene), new_batch(scene, snr_db))
    np.testing.assert_array_equal(probes, want[1])


@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
def test_joint_trials_count_their_longest_search(scene, snr_db):
    config = scene[0]
    K = len(config.users)
    batch = new_batch(scene, snr_db)
    totals = multiuser.run_multi_user(built_states(scene), batch, config.eta)[1]
    np.testing.assert_array_equal(totals, batch.used.reshape(-1, K).max(axis=1))
    want = oracles.one_trial_at_a_time(built_states(scene), new_batch(scene, snr_db), config.eta)
    np.testing.assert_array_equal(totals, want[1])
    assert (totals > 0).all()


@pytest.mark.parametrize("snr_db", [math.inf, 10.0])
def test_baselines_count_two_per_layer_or_every_beam(scene, snr_db):
    L = scene[1].num_layers
    for baseline, count in ((harness.baseline_hierarchical, 2 * L),
                            (harness.baseline_exhaustive, 2**L)):
        batch = new_batch(scene, snr_db)
        probes = baseline(batch)[1]
        assert probes is batch.used and (probes == count).all()
