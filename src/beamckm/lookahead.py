"""Two-level lookahead descent over the pruned tree.

Instead of scoring every layer subset, each round inspects only the
candidate children and grandchildren below the current node and picks
between probing one level down or skipping straight to two levels down,
using the expected probe counts of the two options.  The rounds run in
``strategy.run_episode`` with this rule as the layer choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamtree import SearchState, compute_point_weights
from .ckm import CkmGrid
from .codebook import BeamId, HierarchicalCodebook, build_codebook
from .strategy import ProbeRound, run_episode

# unused here; perfbench's tracer looks these names up on this module
from .beamtree import apply_observation, candidate_beams  # noqa: F401
from .channel import probe  # noqa: F401

FULL_TREE = "full-tree"
SINGLE_CHAIN = "single-chain"
ASYMMETRIC = "asymmetric"
FORCED_DESCENT = "forced-descent"
TERMINAL = "terminal"


@dataclass
class SubtreeView:
    """Candidate children/grandchildren below a node (the virtual root for
    ``root=None``) plus the grandchild weights used to rank the options.

    ``grandchildren`` is None when the child layer is already the bottom."""

    root_layer: int
    children: np.ndarray
    grandchildren: list[np.ndarray] | None
    gc_weights: list[np.ndarray] | None


def subtree_view(state: SearchState) -> SubtreeView:
    """Collect the two levels below the state's root from its candidates."""
    L = state.num_layers
    root = state.root
    root_layer = state.root_layer
    child_layer = root_layer + 1
    if child_layer > L:
        raise ValueError("node is already at the bottom layer")
    children = state.candidates_under(child_layer, root)
    if child_layer == L:
        return SubtreeView(root_layer, children, None, None)
    gcs = []
    gws = []
    w = state.layer_weights[child_layer]  # index layer-1, so this is layer child_layer+1
    for c in children:
        g = state.candidates_under(child_layer + 1, BeamId(child_layer, int(c)))
        gcs.append(g)
        gws.append(w[g - 1])
    return SubtreeView(root_layer, children, gcs, gws)


def classify(view: SubtreeView) -> str:
    """Name the local topology that decides between the two probe depths."""
    nc = len(view.children)
    if nc == 0:
        raise ValueError("no candidate children below the node")
    if nc == 1:
        return FORCED_DESCENT
    if view.grandchildren is None:
        return TERMINAL
    counts = sorted(len(g) for g in view.grandchildren)
    if counts == [2, 2]:
        return FULL_TREE
    if counts == [1, 1]:
        return SINGLE_CHAIN
    if counts == [1, 2]:
        return ASYMMETRIC
    raise ValueError(f"unexpected grandchild counts {counts}")


def next_layer(view: SubtreeView, kind: str | None = None) -> int:
    """Layer to probe below the node.

    Full binary growth keeps the one-level step (two probes now, two
    later); a single chain on both sides jumps two levels (two probes
    total); the mixed case compares the expected counts of the two plans
    and jumps only when the three-grandchild probe is expected cheaper.
    """
    if kind is None:
        kind = classify(view)
    l = view.root_layer
    if kind in (FORCED_DESCENT, TERMINAL, FULL_TREE):
        return l + 1
    if kind == SINGLE_CHAIN:
        return l + 2
    if kind != ASYMMETRIC:
        raise ValueError(f"unknown topology {kind!r}")
    if len(view.grandchildren[0]) == 2:
        pair, single = 0, 1
    else:
        pair, single = 1, 0
    wa, wb = (float(x) for x in view.gc_weights[pair])
    wc = float(view.gc_weights[single][0])
    t_stepwise = 4.0 * wa + 4.0 * wb + 2.0 * wc
    t_skip = 3.0 * (wa + wb + wc)
    return l + 1 if t_stepwise <= t_skip else l + 2


def run_lookahead(
    ckm: CkmGrid,
    prior,
    channel,
    noise_std: float,
    beta: float,
    codebook: HierarchicalCodebook | None = None,
    rng: np.random.Generator | None = None,
    retain_beams: int | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Full lookahead episode; returns (chosen beam, probe count, rounds)."""
    if codebook is None:
        codebook = build_codebook(ckm.num_antennas)
    state = compute_point_weights(ckm, prior, beta, retain_beams=retain_beams)

    def choose_layer(state):
        return next_layer(subtree_view(state))

    return run_episode(channel, codebook, state, choose_layer, noise_std, rng)
