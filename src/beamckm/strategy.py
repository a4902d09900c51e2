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

``run_searches`` runs both map-aided single-user strategies, which pass
their layer choice (this planner for alg1, ``lookahead.next_layer`` for
alg2).  Rounds probe codebook rows (``codebook.row_of``); a ``ProbeRound``
names the probed beams by their 1-based indices.

Every episode starts from a built ``SearchState`` and leaves it as it
was.  A state's next round (``next_round``) depends only on its view,
its root layer and the layer choice, and the state after a round only
on the view and the observed beam; noise only picks the branch.  So
both live in the view (``beamtree._View``), and ``run_searches`` walks
a tree of cached states with a batch of episodes, level by level: one
array round per state of a level, over the episodes there, whose
feedback splits them among its children, and one ``apply_observation``
call for the level's moves.  A later batch that reaches a view reuses
its plans and children, and alg3 (``multiuser``) reads the plans that
alg1 made.

Tie rule: plans are ordered by lowest cost, where costs within a relative
``PLAN_RTOL`` of each other tie, then by fewest layers, then by the
deepest first layer (then the deepest second layer, and so on).

Invariant: an unfinished search (two or more bottom candidates) plans a
first layer with two or more candidates.  A plan that instead starts on
layers of one candidate each pays the bottom-candidate weight W to
enter, nothing per hop among them, and nW on to its first layer of
n >= 2 candidates (the bottom at the latest); entering there directly
costs nW, W less, far beyond ``PLAN_RTOL``.  Only alg2 descends for
free; alg3 probes a user's own first layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .beamtree import SearchState, apply_observation, candidate_beams
from .channel import Episodes, probe_episodes
from .codebook import BeamId, beam_index

# unused here; perfbench's tracer looks these names up on this module
from .beamtree import compute_point_weights  # noqa: F401
from .channel import probe  # noqa: F401

# plan costs this close, relative to the larger, tie (see the tie rule)
PLAN_RTOL = 1e-12


@dataclass(frozen=True)
class ProbeRound:
    """One round as one user saw it: the beams probed at a layer, the
    winning index the user fed back, and the round's probe count.

    ``probes`` is 0 for alg2's free descents (single-candidate steps).
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
    """Layer to probe next: the first of the best activation."""
    return best_activation(state)[0][0]


def episode_outcome(state: SearchState) -> BeamId | None:
    """The chosen bottom beam once the search is over: the sole bottom
    candidate, else None.  A root at the bottom layer is always the sole
    candidate (``beamtree.fold`` keeps only its span)."""
    L = state.num_layers
    bottom = state.candidate_rows(L)
    return BeamId(L, int(beam_index(bottom[0], L))) if len(bottom) == 1 else None


def next_round(state: SearchState, choose_layer) -> tuple:
    """The state's next round under a layer choice, kept in its view by
    (``choose_layer``, root layer): ``(chosen, None, None, None)`` once
    the search is over, else ``(None, layer, candidate rows, their
    1-based indices)``.  A state without candidates fails here, before
    any probe."""
    plans, key = state.view.plans, (choose_layer, state.root_layer)
    plan = plans.get(key)
    if plan is None:
        chosen = episode_outcome(candidate_beams(state))
        plan = (chosen, None, None, None)
        if chosen is None:
            layer = choose_layer(state)
            rows = state.candidate_rows(layer)
            plan = (None, layer, rows, tuple(beam_index(rows, layer).tolist()))
        plans[key] = plan
    return plan


def run_searches(states, batch: Episodes, choose_layer) -> tuple[list, np.ndarray, list]:
    """Map-aided searches of a batch's episodes, episode e from the built
    state ``states[e % len(states)]``, level by level.  Each round probes,
    for the episodes at one state of the level, the candidates under its
    root at ``choose_layer(state)`` and keeps each one's strongest (the
    first on ties; a lone candidate is a free descent); the episodes of
    each feedback make up the next level at the child that folds it in,
    from one ``apply_observation`` call per level.  Returns each episode's
    chosen bottom beam, its probe count ``batch.used``, and a
    ``ProbeRound`` per round of each episode, grouped by level, then by
    state (in order)."""
    E = len(batch.points)
    chosen, rounds = [None] * E, []
    level = [(state, np.arange(k, E, len(states))) for k, state in enumerate(states)]
    while level:
        moves, subs = [], []
        for state, eps in level:
            done, layer, rows, probed = next_round(state, choose_layer)
            if done is not None:
                for e in eps.tolist():
                    chosen[e] = done
                continue
            n = len(probed) if len(probed) > 1 else 0
            branches = [(probed[0], eps)]
            if n:
                won = np.argmax(probe_episodes(batch, eps, rows), axis=1)
                branches = [(probed[j], eps[won == j]) for j in np.unique(won).tolist()]
            for feedback, sub in branches:
                rounds += [ProbeRound(layer, probed, feedback, n)] * len(sub)
                moves.append((state, BeamId(layer, feedback)))
                subs.append(sub)
        level = list(zip(apply_observation(moves), subs)) if moves else []
    return chosen, batch.used, rounds


def run_single_user(states, batch: Episodes) -> tuple[list, np.ndarray, list]:
    """alg1's searches of a batch's episodes from the users' built states
    (``run_searches``)."""
    return run_searches(states, batch, optimal_layer)
