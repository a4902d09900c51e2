"""Golden records: short paired sweeps must write byte-identical results.

``run_trials`` output is a deterministic function of (scenario, map,
trials, seed), so a refactor or speed-up that claims to keep behaviour can
be checked by hashing the ``write_results_csv`` bytes of short sweeps.
Each case runs all five algorithms at SNR inf, 10, 0 and -10 dB, seed 0,
on the desk scene (12 trials) and the large scene (6 trials), at the
configured beta and at beta 0.2 with ``retain_beams`` 2, and on the deep
scene (512 antennas, L=9, the deepest planner; 4 trials) at its
configured beta.  The maps those sweeps read are pinned by their
``save_ckm`` bytes, as is desk at 0.5 m spacing (16,384 points), whose
build streams through several chunks of grid points.  The similarities
that alg3's point pruning computes in a desk sweep are pinned too: no
sweep of the bundled configs prunes differently when their last bits
move, so the records alone leave those bits free.

The hashes were taken with numpy 2.4 and OpenBLAS 0.3 on x86-64. Another
BLAS or numpy build may round the map gains differently and move them. A
change that moves any of them on this platform changes records: it must
name the records that moved, and why, in CHANGES.md.
"""

import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import beamckm as bc
from beamckm import ckm as ckm_module
from beamckm import multiuser

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SNRS = (math.inf, 10.0, 0.0, -10.0)

GOLDEN = {
    ("desk", "configured"): "195b3dfd613ffb3300fefc9076635521ecbef0cf11311644e53272819cffd732",
    ("desk", "beta0.2-retain2"): "c1ba54cfc82d24029b78bfc720d8c925701d0eb28f2f85ba85fd1dcd5ea7030a",
    ("large", "configured"): "47a3dcdb638585384d5657a757ec133d35066b95f2bafc25c7981232c20d195f",
    ("large", "beta0.2-retain2"): "2b0deed23482301e810583bff85f465e6bbd741aa9f0182a379d2fd2c7486d49",
    ("deep", "configured"): "20dd97941bb369b99b2ce4fd0ddff637d64fedf37eec8dc092550431767a2f0d",
}

# sha256 of the ``save_ckm`` bytes of each scene's map
MAP_GOLDEN = {
    "desk": "d318397857f66da0988cae7924ed30c98cc4d9026025a08b2928ecf40e764a01",
    "large": "a7d7a1782ed26f59ce9dc2e1d85e9dd84b96a74676c72e223df2827f44dfe392",
    "deep": "71795386de1b5b94f03628c388372e8ac2ac5487787da0196c726aa557c3bf32",
}

# the same for desk at 0.5 m spacing, by staleness sigma
FINE_DESK_MAP_GOLDEN = {
    0.0: "e8b1b6aa2524a0a381dc5e0d8912c542c68ebab8e112a7d2df3e6c8a5bb0bdb0",
    0.3: "83777893415fd1749e8aba020207d17630ec808548cff61721cddf440057287a",
}

# sha256 of the similarity arrays alg3's prunes compute, in order, in a desk
# sweep of alg3 alone at -10 and 0 dB (30 trials, seed 0)
SIMILARITY_GOLDEN = "6724e5bc55c54f292d240f65f72c7cf984a63a8fbc8d33dfe0d6acfbd4f935f6"

TRIALS = {"desk": 12, "large": 6, "deep": 4}

VARIANTS = {
    "configured": {},
    "beta0.2-retain2": {"beta": 0.2, "retain_beams": 2},
}


@pytest.fixture(scope="module")
def scenes():
    out = {}
    for name in TRIALS:
        config = bc.load_scenario(CONFIGS / f"{name}.json")
        ckm = bc.build_ckm(
            config.environment,
            config.array,
            bc.build_codebook(config.array.num_antennas),
            config.grid,
            staleness_sigma=config.ckm_staleness_sigma,
        )
        out[name] = (config, ckm)
    return out


CASES = sorted(GOLDEN)


@pytest.mark.parametrize("scene, variant", CASES, ids=[f"{s}-{v}" for s, v in CASES])
def test_records_hash(scenes, scene, variant, tmp_path):
    config, ckm = scenes[scene]
    config = dataclasses.replace(config, **VARIANTS[variant])
    records = bc.run_trials(
        config, ckm, algorithms=bc.ALGORITHMS, trials=TRIALS[scene], seed=0, snr_db=SNRS
    )
    path = tmp_path / "records.csv"
    bc.write_results_csv(records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(scene, variant)]


def test_alg3_similarities_hash(scenes, monkeypatch):
    """Each prune's similarities, as the cut hands them to ``np.where``, one
    row per pruned (episode, user).  The per-episode oracle
    (``oracles.run_multi_user``) gives them in order, trial by trial and
    each trial's SNR points in turn; the engine, which cuts many episodes
    in one call, gives the same multiset of rows.  A product over another
    memory layout of the same map profiles rounds them differently."""
    from beamckm import harness

    config, ckm = scenes["desk"]
    trials, snrs = 30, (-10.0, 0.0)

    def similarity_rows(engine):
        rows, by_trial = [], []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def where(condition, x, y):
                if isinstance(x, np.ndarray) and x.dtype == np.float64:
                    rows.extend(row.tobytes() for row in x.reshape(-1, x.shape[-1]))
                return np.where(condition, x, y)

        def one_trial(*args):  # the oracle's rows of each trial at each SNR point
            start = len(rows)
            out = trial(*args)
            by_trial.append(rows[start:])
            return out

        trial = oracles.run_multi_user
        with monkeypatch.context() as patch:
            patch.setattr(multiuser, "np", RecordingNumpy())
            patch.setattr(oracles, "run_multi_user", one_trial)
            patch.setattr(harness, "run_multi_user", engine)
            bc.run_trials(config, ckm, algorithms=["alg3"], trials=trials, seed=0, snr_db=snrs)
        return rows, by_trial

    rows, by_trial = similarity_rows(oracles.one_trial_at_a_time)
    assert len(by_trial) == trials * len(snrs)  # one SNR point's trials after another
    in_order = [r for t in range(trials) for si in range(len(snrs))
                for r in by_trial[si * trials + t]]
    assert len(in_order) > 100
    assert hashlib.sha256(b"".join(in_order)).hexdigest() == SIMILARITY_GOLDEN
    engine_rows, _ = similarity_rows(multiuser.run_multi_user)
    assert sorted(engine_rows) == sorted(rows)


@pytest.mark.parametrize("scene", sorted(MAP_GOLDEN))
def test_map_hash(scenes, scene):
    _, ckm = scenes[scene]
    assert hashlib.sha256(bc.save_ckm(ckm)).hexdigest() == MAP_GOLDEN[scene]


def map_hash(config, grid, sigma) -> str:
    book = bc.build_codebook(config.array.num_antennas)
    built = bc.build_ckm(config.environment, config.array, book, grid, staleness_sigma=sigma)
    return hashlib.sha256(bc.save_ckm(built)).hexdigest()


@pytest.mark.parametrize("sigma", sorted(FINE_DESK_MAP_GOLDEN))
def test_fine_desk_map_hash(sigma):
    config = bc.load_scenario(CONFIGS / "desk.json")
    grid = dataclasses.replace(config.grid, spacing_x=0.5, spacing_y=0.5)
    assert grid.num_points > ckm_module._CHUNK_POINTS
    assert map_hash(config, grid, sigma) == FINE_DESK_MAP_GOLDEN[sigma]


def test_map_bytes_do_not_depend_on_the_chunk_size(monkeypatch):
    """Chunks of 7 points, which divide no grid here, write the same bytes
    as the default chunks, plain and with staleness jitter."""
    config = bc.load_scenario(CONFIGS / "desk.json")
    stale = map_hash(config, config.grid, 0.3)
    monkeypatch.setattr(ckm_module, "_CHUNK_POINTS", 7)
    assert config.grid.num_points % 7
    assert map_hash(config, config.grid, 0.0) == MAP_GOLDEN["desk"]
    assert map_hash(config, config.grid, 0.3) == stale
