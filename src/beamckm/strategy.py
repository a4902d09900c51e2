"""Reward-driven single-user beam search over the pruned tree.

A plan ("activation") is the set of layers probed on the way down; the
bottom layer is always in it.  Its cost is the expected probe count,
weighted over the candidate bottom beams, and that cost is additive over
consecutive active layers: an entry weight for the first layer plus a hop
weight per later pair (``SearchState.pair_weights``).  Each round therefore
plans by a shortest path from the current root layer to the bottom layer
instead of scoring all 2^(L-1) subsets, probes the candidates of the
plan's first layer, and folds the feedback into the tree before
re-planning.

The round itself is shared: ``run_episode`` is the search loop of every
map-aided single-user strategy, which differ only in the layer-choice
function they pass (this planner for alg1, ``lookahead.next_layer`` for
alg2), and ``probe_round`` is also the probe step of the map-blind
baselines.

The state after a round depends only on the state before it and the
observed beam; noise only picks the branch.  So ``run_episode`` walks a
tree of cached states: each state derives its plan per layer choice and
its child per observed beam once, and every later episode of a sweep
that reaches it reuses them.

Tie rule: plans are ordered by lowest cost, where costs within a relative
``PLAN_RTOL`` of each other tie, then by fewest layers, then by the
deepest first layer (then the deepest second layer, and so on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamtree import (
    SearchState,
    apply_observation,
    candidate_beams,
    compute_point_weights,
)
from .channel import Responses, probe_rows
from .ckm import CkmGrid
from .codebook import BeamId

# unused here; perfbench's tracer looks this name up on this module
from .channel import probe  # noqa: F401

# plan costs this close, relative to the larger, tie (see the tie rule)
PLAN_RTOL = 1e-12


@dataclass(frozen=True)
class ProbeRound:
    """One round as one user saw it: the beams probed at a layer, the
    winning index the user fed back, and the round's probe count.

    ``probes`` is 0 for free descents (single-candidate traversals).
    ``indicator`` is the user's role in an alg3 round: 1 descended on its
    feedback, 0 eavesdropped, with ``feedback`` None."""

    layer: int
    probed: tuple[int, ...]
    feedback: int | None
    probes: int
    indicator: int = 1


def _costs_tie(a: float, b: float) -> bool:
    """True when two plan costs agree to a relative ``PLAN_RTOL``."""
    return abs(a - b) <= PLAN_RTOL * max(abs(a), abs(b))


def shortest_plan(edges: np.ndarray, start: int, num_layers: int) -> tuple[float, tuple[int, ...]]:
    """Cheapest plan from ``start`` down to the bottom layer.

    ``edges[p, q]`` is the cost of probing layer q right after layer p
    (``p == start`` is the entry).  A backward pass keeps, per layer, the
    best remaining plan under the tie rule.  The plans compared at a layer
    differ in their next layer, so once cost and length tie the deeper
    next layer wins: scanning upward, a later layer takes every tie.
    Returns (cost, layers)."""
    e = edges.tolist()
    L = num_layers
    cost = [0.0] * (L + 1)
    size = [0] * (L + 1)
    nxt = [0] * (L + 1)
    for p in range(L - 1, start - 1, -1):
        row = e[p]
        best_c, best_n, best_q = row[p + 1] + cost[p + 1], size[p + 1] + 1, p + 1
        for q in range(p + 2, L + 1):
            c = row[q] + cost[q]
            n = size[q] + 1
            if _costs_tie(c, best_c):
                if n > best_n:
                    continue
            elif c > best_c:
                continue
            best_c, best_n, best_q = c, n, q
        cost[p], size[p], nxt[p] = best_c, best_n, best_q
    layers = [nxt[start]]
    while layers[-1] < L:
        layers.append(nxt[layers[-1]])
    return cost[start], tuple(layers)


def best_activation(state: SearchState) -> tuple[tuple[int, ...], float]:
    """Winning activation below the root and its reward."""
    L = state.num_layers
    from_layer = state.root_layer
    if from_layer >= L:
        raise ValueError("no layers left to activate")
    entry, hops = state.pair_weights()
    edges = hops.copy()
    edges[from_layer] = entry
    cost, layers = shortest_plan(edges, from_layer, L)
    return layers, -cost


def optimal_layer(state: SearchState) -> int:
    """Layer to probe next: the earliest layer of the best activation, or
    the sentinel L+1 when a single bottom candidate remains."""
    if len(state.bottom_candidates()) == 1:
        return state.num_layers + 1
    return best_activation(state)[0][0]


def probe_round(
    resp: Responses,
    layer: int,
    cands,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> ProbeRound:
    """Probe each candidate beam at ``layer`` from the cached responses and
    keep the strongest (the first on ties); a single candidate is a free
    descent that draws no noise.  ``cands`` are ascending 1-based indices
    as Python ints."""
    probed = tuple(cands)
    if len(probed) == 1:
        return ProbeRound(layer, probed, probed[0], 0)
    rows = np.array(probed, dtype=np.intp) + (2**layer - 3)
    mags = probe_rows(resp, rows, noise_std, rng)
    return ProbeRound(layer, probed, probed[int(np.argmax(mags))], len(probed))


def episode_outcome(state: SearchState) -> BeamId | None:
    """The chosen bottom beam once the search is over: the sole bottom
    candidate, or the root once it reaches the bottom layer; else None."""
    bottom = state.bottom_candidates()
    if len(bottom) == 1:
        return BeamId(state.num_layers, int(bottom[0]))
    if state.root_layer == state.num_layers:
        return state.root
    return None


def run_episode(
    resp: Responses,
    state: SearchState,
    choose_layer,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Map-aided search: each round probes the candidates under the root
    at ``choose_layer(state)`` and moves to the child state that folds in
    the feedback (``apply_observation`` on a copy), leaving ``state`` as
    it was.  Returns (chosen bottom beam, probe count, rounds)."""
    transcript: list[ProbeRound] = []
    while True:
        if state.plans is None:  # a state folded in place caches afresh
            state.children, state.plans = {}, {}
        plan = state.plans.get(choose_layer)
        if plan is None:
            # a state without candidates fails before any probe
            chosen = episode_outcome(candidate_beams(state))
            layer = choose_layer(state) if chosen is None else None
            cands = tuple(state.candidates(layer).tolist()) if chosen is None else None
            plan = state.plans[choose_layer] = (chosen, layer, cands)
        chosen, layer, cands = plan
        if chosen is not None:
            return chosen, sum(r.probes for r in transcript), transcript
        r = probe_round(resp, layer, cands, noise_std, rng)
        transcript.append(r)
        child = state.children.get((layer, r.feedback))
        if child is None:
            child = state.copy()
            apply_observation(child, BeamId(layer, r.feedback))
            state.children[layer, r.feedback] = child
        state = child


def run_single_user(
    ckm: CkmGrid,
    prior,
    resp: Responses,
    noise_std: float,
    beta: float,
    rng: np.random.Generator | None = None,
    retain_beams: int | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Full search episode; returns (chosen bottom beam, probe count, rounds)."""
    state = compute_point_weights(ckm, prior, beta, retain_beams=retain_beams)
    return run_episode(resp, state, optimal_layer, noise_std, rng)
