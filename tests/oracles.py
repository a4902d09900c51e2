"""Reference implementations that the tests compare the runtime code with.

Each one computes a quantity the package computes another way: the
planner's probe cost one target and one layer at a time, its plan by
enumerating every activation, the pruning kernel's cosine one profile at
a time, and the array response and beam support in closed form.  None of
them runs in a sweep or a map build.
"""

import numpy as np

from beamckm import kernels
from beamckm.beamtree import SearchState
from beamckm.codebook import BeamId
from beamckm.strategy import _costs_tie


def steering_vector(angle: float, n_antennas: int) -> np.ndarray:
    """ULA response [1, e^{-j pi angle}, ..., e^{-j pi angle (n-1)}]."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    if not -1.0 <= angle < 1.0:
        raise ValueError(f"spatial angle must lie in [-1, 1), got {angle}")
    return np.exp(-1j * np.pi * angle * np.arange(n_antennas))


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


# csum holds per-layer prefix sums of the candidate masks, as returned by
# ``SearchState.prefix_sums()``: csum[l-1, i] is the number of candidate
# beams at layer l with index <= i (1-based).


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
    if target.layer != L or not state.is_candidate(target):
        raise ValueError(f"target {target} is not a bottom-layer candidate")
    act = np.zeros(L, dtype=np.uint8)
    act[np.asarray(layers) - 1] = 1
    return int(probe_cost_single(state.prefix_sums(), act, target.index, L))


def reward(state: SearchState, activation) -> float:
    """Negative weighted probe cost of an activation over all candidate
    bottom beams, weighted by the state's bottom weights."""
    L = state.num_layers
    act = np.zeros((1, L), dtype=np.uint8)
    act[0, np.asarray(sorted(set(int(l) for l in activation))) - 1] = 1
    targets = state.bottom_candidates()
    return float(
        kernels.activation_rewards(state.prefix_sums(), act, state.bottom_weights, targets, L)[0]
    )


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
