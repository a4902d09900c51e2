"""Joint beam search for several receivers sharing downlink probes.

Every round picks one layer for the whole cell: each user's own
reward-optimal layer is computed as in the single-user search, and the
earliest of those is probed.  Users whose own choice matches the round
layer descend on their feedback; everyone else still hears the probes for
free and prunes its location hypotheses by correlating the measured gain
profile with the per-point map profile.
"""

from __future__ import annotations

import numpy as np

from .beamtree import (
    SearchState,
    apply_observation,
    candidate_beams,
    compute_point_weights,
)
from .channel import probe_rows
from .ckm import CkmGrid
from .codebook import BeamId, HierarchicalCodebook
from .strategy import ProbeRound, episode_outcome, optimal_layer

# unused here; perfbench's tracer looks this name up on this module
from .channel import probe  # noqa: F401


def joint_layer(single_layers, num_layers: int) -> tuple[int, tuple[int, ...]]:
    """Round layer and per-user role flags.

    ``single_layers`` holds each user's own optimal layer, with the
    sentinel ``num_layers + 1`` marking finished users (flag -1).  The
    round probes at the earliest active user's own layer; users whose
    own layer it is descend on their feedback (flag 1), the other active
    users eavesdrop (flag 0)."""
    active = [l for l in single_layers if l <= num_layers]
    if not active:
        raise ValueError("joint_layer needs at least one active user")
    layer = min(active)
    flags = tuple(
        -1 if l > num_layers else (1 if l == layer else 0) for l in single_layers
    )
    return layer, flags


def union_beams(states, layer: int) -> np.ndarray:
    """Deduplicated, ascending union of the states' candidate codebook rows
    at a layer."""
    return np.unique(np.concatenate([s.candidate_rows(layer) for s in states]))


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
    prunes nothing.  Applies the cut, and the descent to ``f_obs`` if
    any, in one ``SearchState.update``; returns the surviving grid-point
    ids."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    g_obs = np.asarray(g_obs, dtype=np.float64)
    if len(rows) != g_obs.size:
        raise ValueError("one observation per probed beam required")
    alive = state.point_alive
    if not alive.any():
        raise ValueError("no alive points to prune")
    no = float(np.linalg.norm(g_obs))
    surv = alive
    if no != 0.0:
        gm = state.gains[:, rows]
        nm = np.linalg.norm(gm, axis=1)
        sims = np.zeros(gm.shape[0], dtype=np.float64)
        ok = nm > 0.0
        sims[ok] = (gm[ok] @ g_obs) / (no * nm[ok])
        masked = np.where(alive, sims, -np.inf)
        smax = float(masked.max())
        surv = alive & (sims > eta * smax)
        if f_obs is not None:
            surv &= rows[np.argmax(gm, axis=1)] == HierarchicalCodebook.row_of(f_obs)
        if not surv.any():
            surv = alive & (masked == smax)
    state.update(surv, f_obs)
    return state.alive_points


def run_multi_user(
    ckm: CkmGrid,
    priors,
    resps,
    noise_std: float,
    beta: float,
    eta: float = 0.9,
    rngs=None,
    retain_beams: int | None = None,
) -> tuple[list[BeamId], int, list[list[ProbeRound]]]:
    """Joint episode for all users over each user's point ``Responses``;
    returns (chosen beams, total probe count charged once per shared
    round, per-user round transcripts)."""
    K = len(priors)
    if len(resps) != K:
        raise ValueError("need one Responses per user")
    if rngs is None:
        rngs = [None] * K
    if len(rngs) != K:
        raise ValueError("need one rng (or None) per user")
    L = ckm.num_layers
    states = [
        candidate_beams(compute_point_weights(ckm, p, beta, retain_beams=retain_beams))
        for p in priors
    ]
    chosen: list[BeamId | None] = [None] * K
    transcripts: list[list[ProbeRound]] = [[] for _ in range(K)]
    total = 0
    for _ in range(K * (L + 2) + 2):
        for k in range(K):
            if chosen[k] is None:
                chosen[k] = episode_outcome(states[k])
        active = [k for k in range(K) if chosen[k] is None]
        if not active:
            break
        singles = [L + 1 if chosen[k] is not None else optimal_layer(states[k]) for k in range(K)]
        l_opt, flags = joint_layer(singles, L)
        matching = [k for k in range(K) if flags[k] == 1]
        rows = union_beams([states[k] for k in matching], l_opt)
        probed = tuple((rows - (HierarchicalCodebook.layer_start(l_opt) - 1)).tolist())
        if len(probed) == 1:
            observed = BeamId(l_opt, probed[0])
            for k in matching:
                apply_observation(states[k], observed)
                transcripts[k].append(ProbeRound(l_opt, probed, probed[0], 0))
            continue
        total += len(probed)
        for k in active:
            g_obs = probe_rows(resps[k], rows, noise_std, rngs[k])
            feedback = probed[int(np.argmax(g_obs))] if flags[k] == 1 else None
            f_obs = None if feedback is None else BeamId(l_opt, feedback)
            prune_user_points(states[k], rows, g_obs, f_obs, eta)
            transcripts[k].append(
                ProbeRound(l_opt, probed, feedback, len(probed), int(flags[k]))
            )
    else:
        raise RuntimeError("joint search exceeded its round budget")
    return chosen, total, transcripts
