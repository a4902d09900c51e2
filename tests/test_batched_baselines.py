"""The batched baselines write the records of their per-episode oracles.

``run_trials`` runs each map-blind baseline as array rounds over every
(trial, user) episode of a chunk of trials at every SNR point, the noisy
ones first.  Each case here runs a sweep of both baselines and the same
sweep with ``harness.baseline_hierarchical`` and
``harness.baseline_exhaustive`` replaced by ``tests/oracles.py``'s
one-episode-at-a-time versions over a ``Link`` per episode, and asks for
equal records: on the desk, large and deep scenes, at three seeds (2^40
is two uint32 words), at SNR points down to -20 dB, with +inf first, in
the middle or absent, on a stale map, across chunk boundaries, and on a
desk sweep long enough that ``np.abs`` and ``argmax`` take numpy's SIMD
paths and ``probe_episodes`` works through several slices.
"""

import dataclasses
import math
from pathlib import Path

import pytest

import beamckm as bc
from beamckm import harness

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SNRS = (math.inf, 10.0, 0.0, -20.0)
# SNR lists whose noiseless point, if any, is not first
REORDERED = {"inf-inside": (10.0, math.inf, -20.0), "no-inf": (10.0, 0.0)}
BASELINES = ("baseline-hier", "baseline-exhaustive")
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
    """Records of the batched baselines, then of their oracles."""

    def run():
        return bc.run_trials(config, ckm, algorithms=BASELINES, trials=trials, seed=seed,
                             snr_db=snrs)

    batched = run()
    with monkeypatch.context() as m:
        for name in ("baseline_hierarchical", "baseline_exhaustive"):
            m.setattr(harness, name, oracles.one_episode_at_a_time(getattr(oracles, name)))
        return batched, run()


@pytest.mark.parametrize("seed", [0, 7919, 2**40])
@pytest.mark.parametrize("name", sorted(TRIALS))
def test_records_equal_the_oracles(scenes, monkeypatch, name, seed):
    config, ckm = scenes[name]
    batched, oracle = sweep_pair(monkeypatch, config, ckm, TRIALS[name], seed)
    assert len(batched) == TRIALS[name] * len(SNRS) * len(BASELINES) * len(config.users)
    assert batched == oracle


@pytest.mark.parametrize("snrs", REORDERED.values(), ids=REORDERED.keys())
@pytest.mark.parametrize("name", sorted(TRIALS))
def test_snr_lists_without_inf_first(scenes, monkeypatch, name, snrs):
    config, ckm = scenes[name]
    batched, oracle = sweep_pair(monkeypatch, config, ckm, TRIALS[name], 7919, snrs)
    assert len(batched) == TRIALS[name] * len(snrs) * len(BASELINES) * len(config.users)
    assert batched == oracle


def test_long_desk_sweep_crosses_a_chunk(scenes, monkeypatch):
    """300 trials: 3,072 episodes per batch, three slices of an exhaustive
    probe, and a second chunk of 44 trials."""
    config, ckm = scenes["desk"]
    assert 300 > harness.CHUNK_TRIALS
    batched, oracle = sweep_pair(monkeypatch, config, ckm, 300, 0)
    assert batched == oracle


def test_chunks_that_divide_no_sweep(scenes, monkeypatch):
    """Chunks of 7 trials write the records of the default chunks."""
    config, ckm = scenes["large"]
    whole = bc.run_trials(config, ckm, algorithms=BASELINES, trials=17, seed=7919, snr_db=SNRS)
    monkeypatch.setattr(harness, "CHUNK_TRIALS", 7)
    batched, oracle = sweep_pair(monkeypatch, config, ckm, 17, 7919)
    assert batched == oracle == whole


def test_stale_map(monkeypatch):
    config, ckm = scene("desk", staleness_sigma=0.3)
    batched, oracle = sweep_pair(monkeypatch, config, ckm, 20, 2**40)
    assert batched == oracle
