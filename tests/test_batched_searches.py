"""The batched map-aided searches write the records of their per-episode
oracles.

``run_trials`` runs alg1 and alg2 as array rounds over every (trial, user)
episode of a chunk of trials at every SNR point, the noisy ones first,
grouped by the cached search state they have reached
(``strategy.run_searches``).  Each case here runs a sweep of both and the
same sweep with ``harness.run_single_user`` and ``harness.run_lookahead``
replaced by ``tests/oracles.py``'s ``run_episode`` over a ``Link`` per
episode, and asks for equal records, bit for bit: on the desk, large and
deep scenes, at three seeds (2^40 is two uint32 words), at SNR points
down to -20 dB (with +inf first, in the middle or absent), on a stale
map, with a low ``beta`` and ``retain_beams`` 2 (the uniform fallback
engages), across chunk boundaries, and on a desk sweep long enough that
``np.abs`` and ``argmax`` take numpy's SIMD paths.  One more case runs
the engine itself on noise blocks of one pair, so that episodes read
past their blocks and draw longer prefixes from their seed words.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import beamckm as bc
from beamckm import harness, lookahead, strategy
from beamckm.streams import normal_blocks, seed_words

import oracles
from test_harness import record_weight_tables, tree_states

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SNRS = (math.inf, 10.0, 0.0, -20.0)
# SNR lists whose noiseless point, if any, is not first
REORDERED = {"inf-inside": (10.0, math.inf, -20.0), "no-inf": (10.0, 0.0)}
SEARCHES = ("alg1", "alg2")
TRIALS = {"desk": 20, "large": 10, "deep": 3}


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
    """Records of the batched searches, then of their oracles, each as
    the ``repr`` of every record."""

    def run():
        records = bc.run_trials(config, ckm, algorithms=SEARCHES, trials=trials, seed=seed,
                                snr_db=snrs)
        return [repr(r) for r in records]

    batched = run()
    with monkeypatch.context() as m:
        m.setattr(harness, "run_single_user",
                  oracles.one_search_at_a_time(strategy.optimal_layer))
        m.setattr(harness, "run_lookahead", oracles.one_search_at_a_time(lookahead.next_layer))
        return batched, run()


@pytest.mark.parametrize("seed", [0, 7919, 2**40])
@pytest.mark.parametrize("name", sorted(TRIALS))
def test_records_equal_the_oracles(scenes, monkeypatch, name, seed):
    config, ckm = scenes[name]
    batched, oracle = sweep_pair(monkeypatch, config, ckm, TRIALS[name], seed)
    assert len(batched) == TRIALS[name] * len(SNRS) * len(SEARCHES) * len(config.users)
    assert batched == oracle


@pytest.mark.parametrize("snrs", REORDERED.values(), ids=REORDERED.keys())
@pytest.mark.parametrize("name", sorted(TRIALS))
def test_snr_lists_without_inf_first(scenes, monkeypatch, name, snrs):
    config, ckm = scenes[name]
    batched, oracle = sweep_pair(monkeypatch, config, ckm, TRIALS[name], 7919, snrs)
    assert len(batched) == TRIALS[name] * len(snrs) * len(SEARCHES) * len(config.users)
    assert batched == oracle


def test_long_desk_sweep_crosses_a_chunk(scenes, monkeypatch):
    """300 trials: 3,072 episodes per batch, and a second chunk of 44 trials."""
    config, ckm = scenes["desk"]
    assert 300 > harness.CHUNK_TRIALS
    batched, oracle = sweep_pair(monkeypatch, config, ckm, 300, 0)
    assert batched == oracle


def test_chunks_that_divide_no_sweep(scenes, monkeypatch):
    """Chunks of 7 trials write the records of the default chunks."""
    config, ckm = scenes["large"]
    whole = bc.run_trials(config, ckm, algorithms=SEARCHES, trials=17, seed=7919, snr_db=SNRS)
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 7)
    batched, oracle = sweep_pair(monkeypatch, config, ckm, 17, 7919)
    assert batched == oracle == [repr(r) for r in whole]


def test_stale_map(monkeypatch):
    config, ckm = scene("desk", staleness_sigma=0.3)
    batched, oracle = sweep_pair(monkeypatch, config, ckm, 20, 2**40)
    assert batched == oracle


def test_uniform_fallback(scenes, monkeypatch):
    """A low ``beta`` capped to 2 beams a point leaves few points behind
    each beam, so noisy feedback often contradicts them all."""
    config, ckm = scenes["desk"]
    config = dataclasses.replace(config, beta=0.2, retain_beams=2)
    built = record_weight_tables(monkeypatch)
    batched, oracle = sweep_pair(monkeypatch, config, ckm, 30, 7919)
    assert batched == oracle
    assert any(state.uniform_fallback for source in built for state in tree_states(source))


@pytest.mark.parametrize("choose_layer", [strategy.optimal_layer, lookahead.next_layer])
def test_episodes_read_past_their_blocks(scenes, choose_layer):
    """On blocks of one pair every probing round reads past the blocks:
    the engine draws longer prefixes, each from the episode's own seed
    words, and chooses what the per-episode searches choose."""
    config, ckm = scenes["desk"]
    K, E = len(config.users), 90
    rng = np.random.default_rng(5)
    points = [bc.position.sample_true_position(config.priors[e % K], rng) for e in range(E)]
    channels = bc.channel.synthesize_channel(
        config.environment, config.array, config.grid.positions(np.array(points))
    )
    resp = bc.channel.Responses(channels, bc.build_codebook(config.array.num_antennas))
    words = seed_words([7919, 202], np.arange(E)[:, None])
    sigma = bc.harness.noise_std_for_snr(0.0, ckm.reference_gain)
    runs, batches = [], []
    for search in (lambda s, b: strategy.run_searches(s, b, choose_layer),
                   oracles.one_search_at_a_time(choose_layer)):
        states = [bc.beamtree.compute_point_weights(ckm, p, config.beta) for p in config.priors]
        batches.append(bc.channel.Episodes(resp, np.arange(E), np.full(E, sigma),
                                           normal_blocks(words, 1), words))
        chosen, probes, rounds = search(states, batches[-1])
        runs.append((chosen, probes.tolist(), sorted(map(repr, rounds))))
    assert runs[0] == runs[1]
    batch = batches[0]
    # the episodes read past the one-pair blocks, and the batch holds each
    # stream's prefix as long as the widest read
    assert (batch.used > 1).any() and (batch.used <= batch.block.shape[1]).all()
    np.testing.assert_array_equal(batch.block, normal_blocks(words, batch.block.shape[1]))
