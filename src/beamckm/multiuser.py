"""Joint beam search for several receivers sharing downlink probes.

Every round picks one layer for the whole cell: each active user's own
reward-optimal layer is its single-user plan (``strategy.next_round``,
kept only in the view of the user's state, so alg1's plans serve here), and
the earliest of those is probed.  Users whose own choice matches the round
layer descend on their feedback; everyone else still hears the probes for
free and prunes its location hypotheses by correlating the measured gain
profile with the per-point map profile.  Episodes leave the users' built
states as they were.

``run_multi_user`` plays a batch's episodes in lock-step rounds, once per
joint key: each trial holds, per user, the state its last round folded
(None once that search is over), and the trials that hold the same states
share their plans, ``joint_layer`` and union rows.  Per (user, layer,
rows) group one probe and one stacked product, per user one array cut
(``_prune``) and one ``beamtree.fold`` of a copy per (state, fed-back row,
survivors), which the trials that made that transition hold next.  A
stacked matmul whose last dimension is 1 runs one gemv per item: the bits
of one product per episode, which a 2-D gemm lacks.

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
    at a layer (through a Python set: on rows this few, ``np.unique`` costs
    alg3 5 % at 1,000 desk trials)."""
    rows = set().union(*(s.candidate_rows(layer).tolist() for s in states))
    return np.array(sorted(rows), np.int64)


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
    """``prune_user_points``' cut of one user's episodes from copies of
    ``state``'s built state, one survivor mask per row of ``alive``.
    ``probes`` holds, in row order, each group's probed ``rows``,
    observations ``G`` (a row per episode) and fed-back rows (-1 for an
    eavesdropper).  A zero observation cuts none."""
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
    """Joint episodes of a batch, episode e = trial * K + user k from the
    built state ``states[k]``, in lock-step rounds (see the module
    docstring).  Returns each episode's chosen beam, each trial's probe
    count, the most one of its users heard (an active user hears each probe
    of its round, a finished one never rejoins), and each episode's rounds."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    K, E = len(states), len(batch.points)
    if not K or E % K:
        raise ValueError(f"need one episode per (trial, user): {E} episodes for {K} users")
    at = [list(states) for _ in range(E // K)]  # per trial, each user's state; None once over
    chosen, rounds = [None] * E, [[] for _ in range(E)]
    live = range(E // K)
    for _ in range(sum(s.num_layers + 2 for s in states) + 2):
        by_key: dict[tuple, list] = {}  # the trials of each joint key
        for t in live:
            by_key.setdefault(tuple(at[t]), []).append(t)
        groups, live = [{} for _ in range(K)], []
        for key, trials in by_key.items():
            active = []
            for k, s in enumerate(key):
                if s is not None:
                    done, layer = next_round(s, optimal_layer)[:2]
                    if done is None:
                        active.append((k, s, layer))
                    for t in trials if done else ():
                        chosen[t * K + k], at[t][k] = done, None
            if not active:
                continue
            live += trials
            l_opt, flags = joint_layer([layer for *_, layer in active])
            rows = union_beams([s for (_, s, _), f in zip(active, flags) if f], l_opt)
            probed = tuple(beam_index(rows, l_opt).tolist())
            for (k, _, _), f in zip(active, flags):
                spec = groups[k].setdefault((l_opt, rows.tobytes()), (l_opt, rows, probed, []))
                spec[3].extend((t, f) for t in trials)
        if not live:
            break
        for k, by_group in enumerate(groups):
            if by_group:
                _play(at, k, by_group.values(), batch, rounds, eta)
    else:
        raise RuntimeError("joint search exceeded its round budget")
    return chosen, batch.used.reshape(-1, K).max(axis=1), rounds


def _play(at, k, groups, batch, rounds, eta) -> None:
    """User ``k``'s part of a round: per probing group one probe of its
    (trial, descends) members in trial order and their rounds, then one cut
    of all of them and one fold of a copy per (state, fed-back row,
    survivors), which each member with those holds in ``at`` next."""
    K, trials, parents, probes, observed, fed = len(at[0]), [], [], [], [], []
    for layer, rows, probed, pairs in groups:
        pairs.sort()
        G = probe_episodes(batch, np.array([t * K + k for t, _ in pairs]), rows)
        made, row_list = {}, rows.tolist()  # by outcome (-1: eavesdropped): round, beam
        for (t, f), j in zip(pairs, np.argmax(G, axis=1).tolist()):
            j = j if f else -1
            if j not in made:
                beam = BeamId(layer, probed[j]) if f else None
                made[j] = ProbeRound(layer, probed, beam and beam.index, len(probed), f), beam
            rounds[t * K + k].append(made[j][0])
            observed.append(made[j][1])
            fed.append(row_list[j] if f else -1)
            trials.append(t)
            parents.append(at[t][k])
        probes.append((rows, G, np.array(fed[len(fed) - len(pairs) :])))
    surv = _prune(parents[0], np.array([s.point_alive for s in parents]), probes, eta)
    first = {}  # by (state, fed-back row, survivors): its first member
    slots = [first.setdefault((s, f, m.tobytes()), i)
             for i, (s, f, m) in enumerate(zip(parents, fed, surv))]
    new = {i: parents[i].copy() for i in first.values()}
    fold(list(new.values()), surv[list(new)], [observed[i] for i in new])
    for t, i in zip(trials, slots):
        at[t][k] = new[i]
