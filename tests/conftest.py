"""Shared fixtures: toy search states, synthetic gain maps, a small scene.

The four-leaf tree (8 bottom slots with candidates {1, 2, 3, 5}) is the
worked reference case used across the strategy tests; the synthetic map
helpers let beam/point bookkeeping be tested without channel synthesis.
"""

import numpy as np
import pytest

import beamckm as bc
from beamckm.codebook import beam_index, layer_rows, layers_of, row_of
from beamckm.streams import normal_blocks, seed_words
from oracles import Link

# bottom-layer weight pattern whose candidates are {1, 2, 3, 5} of 8
FOUR_LEAF_WEIGHTS = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])


def stack_layers(bottom: np.ndarray) -> np.ndarray:
    """Full per-point gain table from bottom-layer gains: each upper beam
    stores the max of its two children (a consistent wide-beam map)."""
    bottom = np.asarray(bottom, dtype=np.float64)
    layers = [bottom]
    cur = bottom
    while cur.shape[1] > 2:
        cur = cur.reshape(cur.shape[0], -1, 2).max(axis=2)
        layers.append(cur)
    layers.reverse()
    return np.concatenate(layers, axis=1)


def toy_ckm(bottom_gains: np.ndarray, full_gains: np.ndarray | None = None) -> bc.CkmGrid:
    """Map over a 1-D grid of P points with the given bottom-layer gains
    (P, N); upper layers are child-maxes unless an explicit full table
    (P, 2N-2) is supplied."""
    bottom_gains = np.asarray(bottom_gains, dtype=np.float64)
    n_points, n_beams = bottom_gains.shape
    assert 2 ** int(np.log2(n_beams)) == n_beams
    full = stack_layers(bottom_gains) if full_gains is None else np.asarray(full_gains)
    grid = bc.GridSpec(
        extent_x=float(n_points), extent_y=1.0, spacing_x=1.0, spacing_y=1.0
    )
    return bc.CkmGrid(grid, np.ascontiguousarray(full.T, dtype=np.float32))


def uniform_prior(ids) -> bc.PositionPrior:
    """Location prior of uniform mass over the given grid-point indices."""
    return bc.PositionPrior((bc.SubRegion(ids, 1.0),))


def from_bottom_weights(weights, root: bc.BeamId | None = None) -> bc.beamtree.SearchState:
    """Toy search state whose bottom weights are exactly ``weights``: one
    point whose bottom map gains are the weights, with beta low enough to
    keep every positive one.  ``root`` sets the layer that planning starts
    from and, as an observation of it would, drops the weights outside its
    subtree."""
    w = np.array(weights, dtype=np.float64)
    depth = int(np.log2(len(w)))
    if len(w) < 2 or 2**depth != len(w):
        raise ValueError("bottom weight length must be a power of two")
    if root is not None:
        shift = depth - root.layer
        w[: (root.index - 1) << shift] = 0.0
        w[root.index << shift :] = 0.0
    positive = w[w > 0]
    beta = 0.5 * positive.min() / positive.max() if positive.size else 1.0
    state = bc.beamtree.SearchState(np.zeros(1), np.ones(1), stack_layers(w[None, :]), beta)
    state.root = root
    return state


def built_state(ckm: bc.CkmGrid, prior, beta: float = 0.5, retain_beams=None) -> bc.beamtree.SearchState:
    """The search state every map-aided episode starts from: the prior's
    points, built once on the map."""
    return bc.beamtree.compute_point_weights(ckm, prior, beta, retain_beams)


def candidates(state: bc.beamtree.SearchState, layer: int) -> np.ndarray:
    """1-based candidate indices at a layer, ascending."""
    return beam_index(state.candidate_rows(layer), layer)


def bottom_candidates(state: bc.beamtree.SearchState) -> np.ndarray:
    return candidates(state, state.num_layers)


def layer_weights(state: bc.beamtree.SearchState, layer: int) -> np.ndarray:
    """Weights of the beams at a layer, index order."""
    return state.weights[layer_rows(layer)]


def bottom_weights(state: bc.beamtree.SearchState) -> np.ndarray:
    return layer_weights(state, state.num_layers)


def candidate_count(state: bc.beamtree.SearchState, layer: int) -> int:
    return len(state.candidate_rows(layer))


def layer_masks(state: bc.beamtree.SearchState) -> list[np.ndarray]:
    """Candidate mask of each layer 1..L, from the state's weights."""
    return [layer_weights(state, l) > 0 for l in range(1, state.num_layers + 1)]


def ancestor_closed(masks) -> bool:
    """True when every candidate's parent is also a candidate."""
    for l in range(len(masks), 1, -1):
        child_any = np.asarray(masks[l - 1]).reshape(-1, 2).any(axis=1)
        if np.any(child_any & ~np.asarray(masks[l - 2])):
            return False
    return True


@pytest.fixture
def four_leaf_tree():
    return from_bottom_weights(FOUR_LEAF_WEIGHTS)


@pytest.fixture(scope="session")
def small_scene():
    """A 16-antenna scene with two scatterers, one wall, and a fresh map."""
    array = bc.ArrayConfig(num_antennas=16, carrier_frequency_hz=8e10, bs_position=(8.0, -1.0))
    env = bc.Environment(
        scatterers=(bc.Scatterer((2.0, 12.0), 0.5), bc.Scatterer((14.0, 11.0), 0.45)),
        obstacles=(bc.Obstacle((9.0, 7.0), (13.0, 7.0)),),
        max_paths=4,
        pathloss_exponent=1.0,
        rng_seed=7,
    )
    grid = bc.GridSpec(extent_x=16.0, extent_y=16.0, spacing_x=1.0, spacing_y=1.0)
    codebook = bc.build_codebook(16)
    ckm = bc.build_ckm(env, array, codebook, grid)
    return {"array": array, "env": env, "grid": grid, "codebook": codebook, "ckm": ckm}


def scene_channel(scene, point: int) -> np.ndarray:
    """Ground-truth channel vector at a grid point of the small scene."""
    pos = scene["grid"].positions([point])[0]
    return bc.channel.synthesize_channel(scene["env"], scene["array"], pos)


def responses_of(h: np.ndarray) -> bc.channel.Responses:
    """The episode input for a channel vector: its (initially empty) cache
    of responses to the codebook of its array size."""
    return bc.channel.Responses(h, bc.build_codebook(len(h)))


def noise_of(seed, pairs: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """The noise block and seed words of ``default_rng(seed)``'s stream (an
    int seed or a list of them): its first ``pairs`` normal pairs, so few
    that most noisy episodes read past the block and draw a longer prefix
    from the words."""
    head = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    words = seed_words(head, np.empty((1, 0), np.int64))
    return normal_blocks(words, pairs)[0], words[0]


def link_of(h: np.ndarray, noise_std: float = 0.0, seed=None) -> Link:
    """The episode input for a channel vector: a link over its responses,
    noiseless unless given a noise std and the seed of a noise stream."""
    return Link(responses_of(h), noise_std, *(noise_of(seed) if noise_std else ()))


def episode(search, state: bc.beamtree.SearchState, link: Link):
    """One episode of a batched search (``bc.strategy.run_single_user``,
    ``bc.lookahead.run_lookahead`` or ``strategy.run_searches`` with a layer choice)
    from a built state over a link, as a batch of one: (chosen beam,
    probe count, rounds)."""
    noisy = link.noise_std > 0.0
    batch = bc.channel.Episodes(link.resp, link.noise_std, [link.point],
                        link.block[None] if noisy else None, link.words[None] if noisy else None)
    chosen, probes, rounds = search([state], batch)
    return chosen[0], int(probes[0]), rounds


def joint_episode(states, links, eta: float):
    """One trial of ``bc.multiuser.run_multi_user`` from the users' built states over
    one link per user, as a batch of one trial: (chosen beams, probe
    count, per-user rounds)."""
    noisy = links[0].noise_std > 0.0
    resp = bc.channel.Responses(np.stack([l.resp.channels[l.point] for l in links]),
                        links[0].resp.codewords)
    batch = bc.channel.Episodes(resp, links[0].noise_std, np.arange(len(links)),
                        np.stack([l.block for l in links]) if noisy else None,
                        np.stack([l.words for l in links]) if noisy else None)
    chosen, totals, rounds = bc.multiuser.run_multi_user(states, batch, eta)
    return chosen, int(totals.sum()), rounds


def exhaustive_best_beam(scene, h: np.ndarray) -> bc.BeamId:
    """Brute-force argmax bottom beam for a channel (independent oracle)."""
    cb = scene["codebook"]
    L = layers_of(len(cb))
    mags = [abs(np.vdot(h, cb[row_of(bc.BeamId(L, i))])) for i in range(1, 2**L + 1)]
    return bc.BeamId(L, int(np.argmax(mags)) + 1)


# ----------------------------------------------------------------------
# Acceptance-summary reporting: end-to-end tests append one line each and
# the hook replays them after the run so they survive output capture.
# ----------------------------------------------------------------------

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance summary")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
