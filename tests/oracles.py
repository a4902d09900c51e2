"""Reference implementations that the tests compare the runtime code with.

Each one computes a quantity the package computes another way: the
planner's probe cost one target and one layer at a time, its pair weights
from per-layer prefix sums, its plan by enumerating every activation, the
pruning kernel's cosine one profile at a time, the channel vectors with one
steering vector per (point, slot), the codebook with one ``norm`` per
upper-layer row, the codeword responses with one ``np.vdot`` per entry,
the array response and beam support in closed form, the oracle gains of
drawn channels with one product per (point, row block), a search state's
kept beams one point at a time and its contributions as one dense
product, its derived view from scratch on every call, without the memo of
views its copies share, a prior rect's covered cells by testing every
axis center, the per-episode probe input (``Link``, ``probe_rows``), the
map-blind baselines and the map-aided single-user searches one episode at
a time over a ``Link``, one ``probe_round`` per round, and the joint alg3
search one trial at a time, one ``prune_user_points`` per user and round.
None of them runs in a sweep or a map build.
"""

import numpy as np

from beamckm import kernels
from beamckm.beamtree import SearchState, apply_observation
from beamckm.channel import Responses
from beamckm.codebook import (
    BeamId,
    beam_index,
    bottom_angles,
    layer_rows,
    layer_start,
    layers_of,
    num_layers,
    row_of,
)
from beamckm.multiuser import joint_layer, prune_user_points, union_beams
from beamckm.streams import normal_blocks
from beamckm.strategy import ProbeRound, _costs_tie, next_round, optimal_layer, shortest_plan


def steering_vector(angle: float, n_antennas: int) -> np.ndarray:
    """ULA response [1, e^{-j pi angle}, ..., e^{-j pi angle (n-1)}]."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    if not -1.0 <= angle < 1.0:
        raise ValueError(f"spatial angle must lie in [-1, 1), got {angle}")
    return np.exp(-1j * np.pi * angle * np.arange(n_antennas))


def channel_vectors(angles, amps, phases, num_antennas: int) -> np.ndarray:
    """``channel.channel_vectors`` with one complex ``exp`` per (point, slot,
    antenna): each slot's steering vectors are computed for every point,
    however many points share its angle."""
    ant = np.arange(num_antennas)
    h = np.zeros((angles.shape[0], num_antennas), dtype=np.complex128)
    for s in range(angles.shape[1]):
        coef = amps[:, s] * np.exp(1j * phases[:, s])
        h += coef[:, None] * np.exp(-1j * np.pi * angles[:, s, None] * ant)
    return h


def codebook_by_row_norms(num_antennas: int) -> np.ndarray:
    """``codebook.build_codebook`` normalizing each upper-layer beam by its
    own ``np.linalg.norm``, one call per row."""
    depth = num_layers(num_antennas)
    angles = bottom_angles(num_antennas)
    bottom = np.exp(-1j * np.pi * np.outer(angles, np.arange(num_antennas))) / np.sqrt(num_antennas)
    aligned = np.exp(1j * np.pi * angles * (num_antennas - 1) / 2.0)[:, None] * bottom
    cw = np.empty((layer_start(depth + 1), num_antennas), dtype=np.complex128)
    cw[layer_rows(depth)] = bottom
    for layer in range(depth - 1, 0, -1):
        block = aligned.reshape(2**layer, -1, num_antennas).sum(axis=1)
        cw[layer_rows(layer)] = [v / np.linalg.norm(v) for v in block]
    return cw


def responses_by_vdot(channels: np.ndarray, codewords: np.ndarray, points, rows) -> np.ndarray:
    """``Responses(channels, codewords).take(points, rows)`` with one
    ``np.vdot`` per entry of the broadcast (points, rows)."""
    table = np.reshape(channels, (-1, codewords.shape[1]))
    ps, rs = np.broadcast_arrays(points, rows)
    out = [np.vdot(table[p], codewords[r]) for p, r in zip(ps.ravel().tolist(), rs.ravel().tolist())]
    return np.array(out, dtype=np.complex128).reshape(ps.shape)


def gains_per_point(codebook: np.ndarray, channels: np.ndarray, num_layers: int) -> np.ndarray:
    """``run_trials``' oracle gains, one product per (point, block) of the
    bottom layer's codeword rows, in the blocks OpenBLAS multiplies on this
    thread, one row of bottom-beam gains per channel."""
    L = num_layers
    blocks = np.split(codebook[layer_rows(L)], max(1, 2**L // max(4, 2048 // 2**L)))
    return np.array([np.abs(np.concatenate([b @ hc for b in blocks]))
                     for hc in np.conj(channels)])


def threshold_keep(bottom_gains, beta, retain=None):
    """``SearchState``'s retention rule: per point keep beams within beta of
    its best, optionally capped to the top-``retain`` (stable order)."""
    g = np.asarray(bottom_gains, dtype=float)
    keep = g >= beta * g.max(axis=1, keepdims=True)
    if retain is not None:
        for r in range(g.shape[0]):
            order = np.argsort(-g[r], kind="stable")
            cut = np.zeros(g.shape[1], dtype=bool)
            cut[order[:retain]] = True
            keep[r] &= cut
    return keep


def dense_contributions(point_mass: np.ndarray, bottom: np.ndarray, keep: np.ndarray):
    """``SearchState``'s contribution matrix and its nonzero (row, column,
    value) entries in row-major order, from the dense product of every
    point's mass, bottom-beam gains and kept mask."""
    contrib = point_mass[:, None] * bottom * keep
    nonzero = np.nonzero(contrib)
    return contrib, (*nonzero, contrib[nonzero])


def rect_axes(grid, rect) -> tuple[np.ndarray, np.ndarray]:
    """Column and row indices of the grid cells whose centers a rect covers
    (bounds closed), by testing every center of both axes."""
    x0, y0, x1, y1 = rect
    x, y = grid.cell_center(np.arange(grid.nx), np.arange(grid.ny))
    return np.flatnonzero((x >= x0) & (x <= x1)), np.flatnonzero((y >= y0) & (y <= y1))


def beam_support(beam: BeamId) -> tuple[float, float]:
    """Half-open sine-space interval covered by a beam.

    Layer l tiles [-1, 1) into 2**l equal intervals; beam n covers
    [-1 + (n-1)/2**(l-1), -1 + n/2**(l-1)).
    """
    scale = 2.0 ** (beam.layer - 1)
    return (-1.0 + (beam.index - 1) / scale, -1.0 + beam.index / scale)


def similarity(g_obs: np.ndarray, g_map: np.ndarray) -> float:
    """Cosine similarity between an observed and a map gain profile;
    defined as 0 when either profile is all-zero."""
    a = np.asarray(g_obs, dtype=np.float64)
    b = np.asarray(g_map, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"profiles must be equal-length vectors, got {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("profiles must be non-empty")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def prefix_sums(state: SearchState) -> np.ndarray:
    """(L, 2**L + 1) per-layer candidate-count prefix sums of a state, the
    ``csum`` input of ``kernels.activation_rewards`` and of the oracles
    below: csum[l-1, i] is the number of candidate beams at layer l with
    index <= i (1-based), padded with the layer's total beyond 2**l."""
    L = state.num_layers
    csum = np.zeros((L, 2**L + 1), dtype=np.int64)
    for l in range(1, L + 1):
        counts = np.cumsum(state.weights[layer_rows(l)] > 0)
        csum[l - 1, 1 : 2**l + 1] = counts
        csum[l - 1, 2**l + 1 :] = counts[-1]
    return csum


def pair_weights(csum, weights, targets, L):
    """``SearchState.pair_weights`` from prefix sums, for bottom-layer
    ``weights`` and the 1-based bottom ``targets`` in any order: each
    subtree's candidate count is a difference of two prefix sums."""
    t0 = np.asarray(targets, dtype=np.int64) - 1
    w = np.asarray(weights, dtype=np.float64)[t0]
    p, q = np.triu_indices(L, k=1)
    p, q = p + 1, q + 1
    S = np.zeros(L + 1)
    S[1:] = w.sum() * csum[np.arange(L), 1 << np.arange(1, L + 1)]
    shift = (q - p)[:, None]
    anc = t0 >> (L - p)[:, None]
    row = (q - 1)[:, None]
    cnt = csum[row, (anc + 1) << shift] - csum[row, anc << shift]
    G = np.zeros((L + 1, L + 1))
    G[p, q] = np.where(cnt >= 2, cnt, 0) @ w
    return S, G


def probe_cost_single(csum, act, nt, L):
    """Probe cost of resolving bottom beam ``nt`` under activation ``act``.

    The earliest active layer is searched exhaustively; every later active
    layer adds its candidate descendants of the ancestor fixed at the
    previous active layer, skipped when that count is below two.
    """
    cost = 0
    prev = 0
    for l in range(1, L + 1):
        if act[l - 1] == 0:
            continue
        if prev == 0:
            cost += int(csum[l - 1, 1 << l])
        else:
            anc = (nt - 1) >> (L - prev)
            a = anc << (l - prev)
            b = (anc + 1) << (l - prev)
            cnt = int(csum[l - 1, b] - csum[l - 1, a])
            if cnt >= 2:
                cost += cnt
        prev = l
    return cost


def enumerate_activations(from_layer: int, num_layers: int) -> list[tuple[int, ...]]:
    """All layer subsets of {from_layer+1, .., L} that include L, as sorted
    tuples, in deterministic bitmask order (the exhaustive reference for
    the shortest-path planner)."""
    if from_layer >= num_layers:
        raise ValueError("no layers left to activate")
    free = list(range(from_layer + 1, num_layers))
    out = []
    for mask in range(2 ** len(free)):
        layers = tuple(l for i, l in enumerate(free) if (mask >> i) & 1)
        out.append(layers + (num_layers,))
    return out


def overhead_for_target(state: SearchState, activation, target: BeamId) -> int:
    """Probe count of resolving ``target`` when probing exactly the layers
    in ``activation``: exhaustive at the earliest layer, then per later
    active layer the candidate descendants of the ancestor fixed at the
    previous one (skipped when fewer than two — free descent)."""
    L = state.num_layers
    layers = tuple(sorted(set(int(l) for l in activation)))
    if not layers or layers[-1] != L or layers[0] < 1:
        raise ValueError(f"activation {activation} must be within [1, {L}] and include {L}")
    if target.layer != L or not state.weights[row_of(target)] > 0:
        raise ValueError(f"target {target} is not a bottom-layer candidate")
    act = np.zeros(L, dtype=np.uint8)
    act[np.asarray(layers) - 1] = 1
    return int(probe_cost_single(prefix_sums(state), act, target.index, L))


def reward(state: SearchState, activation) -> float:
    """Negative weighted probe cost of an activation over all candidate
    bottom beams, weighted by the state's bottom weights."""
    L = state.num_layers
    act = np.zeros((1, L), dtype=np.uint8)
    act[0, np.asarray(sorted(set(int(l) for l in activation))) - 1] = 1
    targets = beam_index(state.candidate_rows(L), L)
    weights = state.weights[layer_rows(L)]
    return float(kernels.activation_rewards(prefix_sums(state), act, weights, targets, L)[0])


def pick_activation(acts: list[tuple[int, ...]], scores: np.ndarray) -> int:
    """Index of the best of the enumerated activations under the planner's
    tie rule, given their rewards (negative costs)."""
    best = 0
    for z in range(1, len(acts)):
        if _costs_tie(scores[z], scores[best]):
            if (-len(acts[z]), acts[z]) > (-len(acts[best]), acts[best]):
                best = z
        elif scores[z] > scores[best]:
            best = z
    return best


def derived_view(state: SearchState):
    """``(weights, rows, starts, (S, G), optimal layer)`` of the state's
    alive masks, fallback flag and root, computed from scratch: the flat
    weights by the pairwise-sum recursion, the candidate rows, where each
    layer's candidates start among them, the pair weights from the count
    of candidate rows before each codebook row, and the first layer of the
    shortest plan from the root layer (None with the root at the bottom)."""
    L = state.num_layers
    flat = np.empty(layer_start(L + 1))
    if state.uniform_fallback:
        flat[layer_rows(L)] = state.beam_alive
    else:
        flat[layer_rows(L)] = np.where(
            state.beam_alive, state.contrib[state.point_alive].sum(axis=0), 0.0
        )
    for l in range(L - 1, 0, -1):
        below = flat[layer_rows(l + 1)]
        flat[layer_rows(l)] = below[0::2] + below[1::2]
    positive = flat > 0
    rows = np.flatnonzero(positive)
    below = np.concatenate(([0], np.cumsum(positive)))
    starts = tuple(below[layer_start(np.arange(1, L + 2))].tolist())
    p, q = np.triu_indices(L, k=1)
    p, q = p + 1, q + 1
    bottom = rows[starts[L - 1] : starts[L]]
    w = flat[bottom]
    S = np.zeros(L + 1)
    S[1:] = w.sum() * np.diff(starts)
    widen = (q - p)[:, None]
    lo = layer_start(q)[:, None] + (((bottom - layer_start(L)) >> (L - p)[:, None]) << widen)
    cnt = below[lo + (1 << widen)] - below[lo]
    G = np.zeros((L + 1, L + 1))
    G[p, q] = np.where(cnt >= 2, cnt, 0) @ w
    first = None  # no layer is left below a root at the bottom
    if state.root_layer < L:
        edges = G.copy()
        edges[state.root_layer] = S
        first = shortest_plan(edges, state.root_layer, L)[1][0]
    return flat, rows, starts, (S, G), first


class Link:
    """What one user measures at one SNR point: channel ``point`` of a
    ``Responses`` table, and probe noise CN(0, ``noise_std``^2) read in order
    from ``block``, the first normal pairs of the user's stream (past it, a
    longer prefix drawn from its seed ``words``).  A noisy link needs a block,
    so that every draw comes from a seeded stream.  A slotted class."""

    __slots__ = ("resp", "noise_std", "block", "words", "point", "used")

    def __init__(self, resp: Responses, noise_std: float, block=None, words=None, point=0):
        if noise_std > 0.0 and block is None:
            raise ValueError("a noisy link needs a noise block")
        self.resp = resp
        self.noise_std = noise_std
        self.block = block
        self.words = words
        self.point = point
        self.used = 0


def probe_rows(link: Link, rows: np.ndarray) -> np.ndarray:
    """Received pilot magnitudes ``|h^H f + n|`` of distinct codeword ``rows``
    over a link, in order, with its next ``len(rows)`` noise pairs: the same
    arithmetic and draws as one ``probe`` per row on the link's stream."""
    y = link.resp.take(link.point, rows)
    if link.noise_std <= 0.0:
        return np.abs(y)
    start, link.used = link.used, link.used + len(rows)
    if link.used > len(link.block):
        if link.words is None:
            raise ValueError("the link read past its noise block and has no seed words")
        link.block = normal_blocks(link.words[None], max(link.used, 2 * len(link.block)))[0]
    z = link.block[start : link.used]
    return np.abs(y + link.noise_std / np.sqrt(2.0) * (z[:, 0] + 1j * z[:, 1]))


def links_of(batch, eps=None) -> list:
    """One ``Link`` per episode of an ``Episodes`` batch (or of its
    episodes ``eps``), each over the episode's channel, noise block and
    seed words, read from the start."""
    noisy = batch.noise_std > 0.0
    return [
        Link(batch.resp, batch.noise_std, batch.block[e] if noisy else None,
             batch.words[e] if noisy else None, int(batch.points[e]))
        for e in (range(len(batch.points)) if eps is None else eps)
    ]


def probe_round(
    link: Link, layer: int, rows: np.ndarray, probed: tuple[int, ...]
) -> ProbeRound:
    """Probe the beams at ``layer`` in the ascending codebook ``rows``,
    whose 1-based indices are ``probed``, over the link and keep the
    strongest (the first on ties); a single beam is a free descent that
    draws no noise."""
    if len(probed) == 1:
        return ProbeRound(layer, probed, probed[0], 0)
    mags = probe_rows(link, rows)
    return ProbeRound(layer, probed, probed[int(np.argmax(mags))], len(probed))


def run_episode(
    link: Link, state: SearchState, choose_layer
) -> tuple[BeamId, int, list[ProbeRound]]:
    """``strategy.run_searches`` for one episode over a link: each round
    probes the candidates under the root at ``choose_layer(state)`` and
    moves to the child state that folds in the feedback, cached in the
    state's view as the engine caches it.  Returns (chosen bottom beam,
    probe count, rounds)."""
    transcript: list[ProbeRound] = []
    while True:
        chosen, layer, rows, probed = next_round(state, choose_layer)
        if chosen is not None:
            return chosen, sum(r.probes for r in transcript), transcript
        r = probe_round(link, layer, rows, probed)
        transcript.append(r)
        children = state.view.children
        child = children.get((layer, r.feedback))
        if child is None:
            child = state.copy()
            apply_observation(child, BeamId(layer, r.feedback))
            children[layer, r.feedback] = child
        state = child


def one_search_at_a_time(choose_layer):
    """A batched search of ``strategy`` (``run_single_user`` with
    ``strategy.optimal_layer``, ``run_lookahead`` with
    ``lookahead.next_layer``) that runs ``run_episode`` over one ``Link``
    per episode of the batch, reading the episode's noise block and seed
    words."""

    def run(states, batch):
        runs = [run_episode(link, states[e % len(states)], choose_layer)
                for e, link in enumerate(links_of(batch))]
        return ([r[0] for r in runs], np.array([r[1] for r in runs], np.int64),
                [x for r in runs for x in r[2]])

    return run


def baseline_hierarchical(link: Link) -> tuple[BeamId, int, list[ProbeRound]]:
    """``harness.baseline_hierarchical`` for one episode: map-blind
    bisection over a link, probing both children at every layer and
    keeping the stronger, always 2L probes."""
    L = layers_of(link.resp.codewords.shape[0])
    idx = 1
    transcript = []
    for layer in range(1, L + 1):
        pair = layer_start(layer) + np.arange(2 * idx - 2, 2 * idx)
        transcript.append(probe_round(link, layer, pair, (2 * idx - 1, 2 * idx)))
        idx = transcript[-1].feedback
    return BeamId(L, idx), 2 * L, transcript


def baseline_exhaustive(link: Link) -> tuple[BeamId, int, list[ProbeRound]]:
    """``harness.baseline_exhaustive`` for one episode: probe every bottom
    beam once over a link, keep the strongest."""
    L = layers_of(link.resp.codewords.shape[0])
    rows = layer_start(L) + np.arange(2**L)
    r = probe_round(link, L, rows, tuple(range(1, 2**L + 1)))
    return BeamId(L, r.feedback), r.probes, [r]


def one_episode_at_a_time(baseline):
    """A batched baseline of ``harness`` that runs the per-episode
    ``baseline`` of this module over one ``Link`` per episode of the
    batch, reading the episode's noise block and seed words; returns each
    episode's beam and probe count."""

    def run(batch):
        runs = [baseline(link) for link in links_of(batch)]
        return [r[0] for r in runs], np.array([r[1] for r in runs], np.int64)

    return run


def run_multi_user(states, links, eta: float) -> tuple[list[BeamId], int, list[list[ProbeRound]]]:
    """``multiuser.run_multi_user`` for one trial over one ``Link`` per
    user, one round at a time: each round probes the union rows over each
    active user's link and prunes with one ``prune_user_points`` per user.
    Returns (chosen beams, total probe count charged once per shared
    round, per-user round transcripts)."""
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


def one_trial_at_a_time(states, batch, eta: float, fresh: bool = False):
    """``multiuser.run_multi_user`` over a batch, as ``run_multi_user``
    above over one ``Link`` per episode for each trial in turn: the
    engine's (chosen beams, per-trial totals, per-episode rounds).  With
    ``fresh``, every trial starts from states rebuilt from the built
    ones' fixed arrays, so no memo carries over from an earlier trial."""
    K = len(states)

    def users():
        if not fresh:
            return states
        return [SearchState(s.point_ids, s.point_mass, s.gains, s.beta, s.retain_beams)
                for s in states]

    runs = [run_multi_user(users(), links_of(batch, range(t, t + K)), eta)
            for t in range(0, len(batch.points), K)]
    return ([c for r in runs for c in r[0]], np.array([r[1] for r in runs], np.int64),
            [x for r in runs for x in r[2]])

