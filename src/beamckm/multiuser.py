"""Joint beam search for several receivers sharing downlink probes.

Every round picks one layer for the whole cell: each active user's own
reward-optimal layer is its single-user plan (``strategy.next_round``,
kept in the view of the user's state, so alg1's plans serve here), and
the earliest of those is probed.  Users whose own choice matches the round
layer descend on their feedback; everyone else still hears the probes for
free and prunes its location hypotheses by correlating the measured gain
profile with the per-point map profile.  An episode folds copies of the
users' built states and leaves those as they were.

``run_multi_user`` plays a batch's episodes in lock-step rounds: per trial
the plans and union rows, per (user, layer, rows) group one probe and one
stacked product, per user one array cut (``_prune``) and fold
(``beamtree.fold``).  A stacked matmul whose last dimension is 1 runs one
gemv per item: the bits of one product per episode, which a 2-D gemm lacks.

The map profiles at a round's probed rows depend only on the user's gains
and those rows, so a built state's copies share one memo of them
(``_profile``) of at most ``_PROFILE_BYTES`` (1 MB) of arrays per user:
about 1.15 MB by ``tracemalloc`` when the large or deep config fills it.
"""

from __future__ import annotations

import numpy as np

from .beamtree import SearchState, fold
from .channel import Episodes, probe_episodes
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
    at a layer."""
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


def _prune(state: SearchState, alive: np.ndarray, probes, eta: float) -> np.ndarray:
    """``prune_user_points``' cut of one user's copies of ``state``, one
    survivor mask per row of ``alive``.  ``probes`` holds, in row order,
    each group's probed ``rows``, observations ``G`` (a row per copy) and
    fed-back rows (-1 for an eavesdropper).  A zero observation cuts none."""
    sims, fits, scored = [], [], []
    for rows, G, fed in probes:
        no = np.sqrt((G[:, None, :] @ G[:, :, None])[:, 0, 0])  # math.sqrt(g.dot(g)) per row
        nz = no != 0.0
        if not nz.all():  # rare: an all-zero observation is left out of the cut
            G, no, fed = G[nz], no[nz], fed[nz]
        scored.append(nz)
        if not len(G):
            continue
        ok, gm, nm, peak = _profile(state, rows)
        sim = (gm @ G[:, :, None])[:, :, 0] / (no[:, None] * nm)
        if ok is not None:  # a point with an all-zero profile scores 0
            sim, nonzero = np.zeros((len(sim), ok.size)), sim
            sim[:, ok] = nonzero
        sims.append(sim)
        fits.append((peak == fed[:, None]) | (fed < 0)[:, None])
    if not sims:
        return alive
    scored = np.concatenate(scored)
    on, sims = alive[scored], np.concatenate(sims)
    masked = np.where(on, sims, -np.inf)
    smax = masked.max(axis=1, keepdims=True)
    cut = on & (sims > eta * smax) & np.concatenate(fits)
    empty = ~cut.any(axis=1)
    if empty.any():
        cut[empty] = on[empty] & (masked[empty] == smax[empty])
    surv = alive.copy()
    surv[scored] = cut
    return surv


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
    prunes nothing.  Applies the cut (the one-row call of ``_prune``), and
    the descent to ``f_obs`` if any, in one ``SearchState.update``; returns
    the surviving grid-point ids."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    g_obs = np.asarray(g_obs, dtype=np.float64)
    if len(rows) != g_obs.size:
        raise ValueError("one observation per probed beam required")
    if not state.point_alive.any():
        raise ValueError("no alive points to prune")
    fed = np.array([-1 if f_obs is None else row_of(f_obs)])
    surv = _prune(state, state.point_alive[None], [(rows, g_obs.reshape(1, -1), fed)], eta)
    state.update(surv[0], f_obs)
    return state.alive_points


def run_multi_user(
    states, batch: Episodes, eta: float
) -> tuple[list[BeamId], np.ndarray, list[list[ProbeRound]]]:
    """Joint episodes of a batch, episode e = trial * K + user k from a copy
    of the built state ``states[k]``, in lock-step rounds (see the module
    docstring).  Returns each episode's chosen beam, each trial's probe
    count (charged once per shared round) and each episode's rounds."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    K, E = len(states), len(batch.points)
    if not K or E % K:
        raise ValueError(f"need one episode per (trial, user): {E} episodes for {K} users")
    cur = [states[e % K].copy() for e in range(E)]
    chosen: list[BeamId | None] = [None] * E
    rounds: list[list[ProbeRound]] = [[] for _ in range(E)]
    totals = np.zeros(E // K, np.int64)
    live = range(E // K)
    unions = {}  # (layer, the descending users' views) -> union rows, their indices
    for _ in range(sum(s.num_layers + 2 for s in states) + 2):
        # per trial: the users' plans and the round's layer and rows, grouped by user
        groups: list[dict] = [{} for _ in range(K)]
        playing = []
        for t in live:
            active = []
            for e in range(t * K, t * K + K):
                if chosen[e] is None:
                    done, layer = next_round(cur[e], optimal_layer)[:2]
                    if done is None:
                        active.append((e, layer))
                    chosen[e] = done
            if not active:
                continue
            playing.append(t)
            l_opt, flags = joint_layer([layer for _, layer in active])
            descend = [cur[e] for (e, _), f in zip(active, flags) if f]
            key = (l_opt, *(s.view for s in descend))
            union = unions.get(key)
            if union is None:
                rows = union_beams(descend, l_opt)
                union = unions[key] = (rows, tuple(beam_index(rows, l_opt).tolist()))
            totals[t] += len(union[1])
            group = (l_opt, union[0].tobytes())
            for (e, _), flag in zip(active, flags):
                groups[e % K].setdefault(group, (*union, []))[2].append((e, flag))
        live = playing
        if not live:
            break
        # per user: one probe and product per group, one cut and fold in all
        for k, by_rows in enumerate(groups):
            members, observed, probes = [], [], []
            for (layer, _), (rows, probed, pairs) in by_rows.items():
                eps, flags = zip(*pairs)
                G = probe_episodes(batch, np.array(eps), rows)
                fed, made = [], {}  # by outcome: its round, observed beam and fed-back row
                for e, flag, j in zip(eps, flags, np.argmax(G, axis=1).tolist()):
                    if (flag, j) not in made:
                        beam = BeamId(layer, probed[j]) if flag else None
                        rnd = ProbeRound(layer, probed, beam and beam.index, len(probed), flag)
                        made[flag, j] = rnd, beam, rows[j] if flag else -1
                    rnd, beam, row = made[flag, j]
                    rounds[e].append(rnd)
                    observed.append(beam)
                    fed.append(row)
                members += [cur[e] for e in eps]
                probes.append((rows, G, np.array(fed)))
            if members:
                alive = np.array([m.point_alive for m in members])
                fold(members, _prune(states[k], alive, probes, eta), observed)
    else:
        raise RuntimeError("joint search exceeded its round budget")
    return chosen, totals, rounds
