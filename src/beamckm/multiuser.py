"""Joint beam search for several receivers sharing downlink probes.

Every round picks one layer for the whole cell: each active user's own
reward-optimal layer is its single-user plan (``strategy.next_round``,
kept in the view of the user's state, so alg1's plans serve here), and
the earliest of those is probed.  Users whose own choice matches the round
layer descend on their feedback; everyone else still hears the probes for
free and prunes its location hypotheses by correlating the measured gain
profile with the per-point map profile.  The episode folds copies of the
users' built states and leaves those as they were.

The map profiles at a round's probed rows depend only on the user's gains
and those rows, so a built state's copies share one memo of them
(``_profile``) of at most ``_PROFILE_BYTES`` (1 MB) of arrays per user:
about 1.15 MB by ``tracemalloc`` when the large or deep config fills it.
"""

from __future__ import annotations

import math

import numpy as np

from .beamtree import SearchState
from .channel import probe_rows
from .codebook import BeamId, beam_index, row_of
from .strategy import ProbeRound, next_round, optimal_layer

# unused here; perfbench's tracer looks these names up on this module
from .beamtree import apply_observation, candidate_beams, compute_point_weights  # noqa: F401
from .channel import probe  # noqa: F401


def joint_layer(own_layers) -> tuple[int, tuple[int, ...]]:
    """Round layer and role flags of the active users from their own
    optimal layers: the earliest is probed; users whose own layer it is
    descend on their feedback (flag 1), the others eavesdrop (flag 0)."""
    if not own_layers:
        raise ValueError("joint_layer needs at least one active user")
    layer = min(own_layers)
    return layer, tuple(int(l == layer) for l in own_layers)


def union_beams(states, layer: int) -> np.ndarray:
    """Deduplicated, ascending union of the states' candidate codebook rows
    at a layer; one state's rows are that already."""
    if len(states) == 1:
        return states[0].candidate_rows(layer)
    return np.unique(np.concatenate([s.candidate_rows(layer) for s in states]))


_PROFILE_BYTES = 1 << 20  # bytes of profiles one user's memo stores (see _profile)


def _profile(state: SearchState, rows: np.ndarray):
    """The mask of points with a nonzero profile at ``rows`` (None if all),
    their C-ordered gains there and norms, and every point's peak row;
    stored in the memo the copies of a built state share while it fits
    in ``_PROFILE_BYTES``, else gathered again each time."""
    memo, key = state._profiles, rows.tobytes()
    prof = memo.get(key)
    if prof is None:
        gm = state.gains[:, rows]  # F-ordered: records are pinned to the product over gm[ok]
        nm = np.linalg.norm(gm, axis=1)
        ok = nm > 0.0
        prof = (None if ok.all() else ok, gm[ok], nm[ok], rows[np.argmax(gm, axis=1)])
        size = sum(a.nbytes for a in prof if a is not None)
        if memo.nbytes + size <= _PROFILE_BYTES:
            memo[key] = prof
            memo.nbytes += size
    return prof


def prune_user_points(
    state: SearchState,
    rows: np.ndarray,
    g_obs: np.ndarray,
    f_obs: BeamId | None,
    eta: float,
) -> np.ndarray:
    """Drop location hypotheses inconsistent with a round's measurements.

    ``rows`` are the codebook rows of the probed beams, one per entry of
    ``g_obs``.  Survivors need map profiles whose similarity to ``g_obs`` exceeds
    ``eta`` times the best alive similarity and, when the user descended
    on ``f_obs``, a map profile peaking on that same beam.  If nothing
    passes, the best-similarity points are kept; an all-zero ``g_obs``
    prunes nothing.  The map profiles at ``rows`` come from ``_profile``,
    so a round costs one product and the cut.  Applies the cut, and the
    descent to ``f_obs`` if any, in one ``SearchState.update``; returns
    the surviving grid-point ids."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    g_obs = np.asarray(g_obs, dtype=np.float64)
    if len(rows) != g_obs.size:
        raise ValueError("one observation per probed beam required")
    alive = state.point_alive
    if not alive.any():
        raise ValueError("no alive points to prune")
    no = math.sqrt(g_obs.dot(g_obs))  # what np.linalg.norm computes
    surv = alive
    if no != 0.0:
        ok, gm, nm, peak = _profile(state, rows)
        sims = (gm @ g_obs) / (no * nm)
        if ok is not None:  # a point with an all-zero profile scores 0
            sims, nonzero = np.zeros(ok.size), sims
            sims[ok] = nonzero
        masked = np.where(alive, sims, -np.inf)
        smax = float(masked.max())
        surv = alive & (sims > eta * smax)
        if f_obs is not None:
            surv &= peak == row_of(f_obs)
        if not surv.any():
            surv = alive & (masked == smax)
    state.update(surv, f_obs)
    return state.alive_points


def run_multi_user(
    states, links, eta: float
) -> tuple[list[BeamId], int, list[list[ProbeRound]]]:
    """Joint episode for all users from copies of their built states, over
    each user's ``Link``; returns (chosen beams, total probe count charged
    once per shared round, per-user round transcripts)."""
    K = len(states)
    if len(links) != K:
        raise ValueError("need one Link per user")
    states = [s.copy() for s in states]
    chosen: list[BeamId | None] = [None] * K
    transcripts: list[list[ProbeRound]] = [[] for _ in range(K)]
    total = 0
    for _ in range(sum(s.num_layers + 2 for s in states) + 2):
        # every user's first plan checks its candidates before any probe
        plans = {k: next_round(states[k], optimal_layer) for k in range(K) if chosen[k] is None}
        for k, plan in plans.items():
            chosen[k] = plan[0]
        active = [k for k in range(K) if chosen[k] is None]
        if not active:
            break
        l_opt, flags = joint_layer([plans[k][1] for k in active])
        rows = union_beams([states[k] for k, f in zip(active, flags) if f], l_opt)
        probed = tuple(beam_index(rows, l_opt).tolist())
        total += len(probed)
        for k, flag in zip(active, flags):
            g_obs = probe_rows(links[k], rows)
            feedback = probed[int(np.argmax(g_obs))] if flag else None
            f_obs = None if feedback is None else BeamId(l_opt, feedback)
            prune_user_points(states[k], rows, g_obs, f_obs, eta)
            transcripts[k].append(ProbeRound(l_opt, probed, feedback, len(probed), flag))
    else:
        raise RuntimeError("joint search exceeded its round budget")
    return chosen, total, transcripts
