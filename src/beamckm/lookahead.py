"""Two-level lookahead descent over the pruned tree.

Instead of scoring every layer subset, each round inspects only the
candidate children and grandchildren below the current node and picks
between probing one level down or skipping straight to two levels down,
using the expected probe counts of the two options.  The rounds run in
``strategy.run_episode`` with ``next_layer`` as the layer choice.
"""

from __future__ import annotations

import numpy as np

from .beamtree import SearchState, compute_point_weights
from .channel import Responses
from .ckm import CkmGrid
from .codebook import BeamId
from .strategy import ProbeRound, run_episode

# unused here; perfbench's tracer looks these names up on this module
from .beamtree import apply_observation, candidate_beams  # noqa: F401
from .channel import probe  # noqa: F401


def subtree_view(state: SearchState) -> tuple[np.ndarray, np.ndarray | None]:
    """Candidate children and grandchildren below the state's root (1-based
    ascending indices); the grandchildren are None when the children are
    bottom beams."""
    child_layer = state.root_layer + 1
    if child_layer > state.num_layers:
        raise ValueError("node is already at the bottom layer")
    children = state.candidates(child_layer)
    if child_layer == state.num_layers:
        return children, None
    return children, state.candidates(child_layer + 1)


def next_layer(state: SearchState) -> int:
    """Layer to probe below the state's root.

    A lone child or bottom children step one level.  Two children with
    full binary growth below (4 grandchildren) also step: two probes now,
    two later.  A single chain on both sides (2 grandchildren) jumps two
    levels for two probes in total.  In the mixed case (3 grandchildren: a
    pair a, b under one child and a lone c under the other) the stepwise
    plan's expected count 4wa + 4wb + 2wc is compared with the jump's
    3(wa + wb + wc), and the jump is taken only when strictly cheaper.
    """
    children, grandchildren = subtree_view(state)
    if len(children) == 0:
        raise ValueError("no candidate children below the node")
    l = state.root_layer
    if len(children) == 1 or grandchildren is None or len(grandchildren) == 4:
        return l + 1
    if len(grandchildren) == 2:
        return l + 2
    # the pair is the two grandchildren that share a parent
    g = grandchildren.tolist()
    pair, single = (g[:2], g[2]) if (g[0] + 1) // 2 == (g[1] + 1) // 2 else (g[1:], g[0])
    w = state.layer_weights(l + 2)
    wa, wb = (float(w[i - 1]) for i in pair)
    wc = float(w[single - 1])
    t_stepwise = 4.0 * wa + 4.0 * wb + 2.0 * wc
    t_skip = 3.0 * (wa + wb + wc)
    return l + 1 if t_stepwise <= t_skip else l + 2


def run_lookahead(
    ckm: CkmGrid,
    prior,
    resp: Responses,
    noise_std: float,
    beta: float,
    rng: np.random.Generator | None = None,
    retain_beams: int | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Full lookahead episode; returns (chosen beam, probe count, rounds)."""
    state = compute_point_weights(ckm, prior, beta, retain_beams=retain_beams)
    return run_episode(resp, state, next_layer, noise_std, rng)
