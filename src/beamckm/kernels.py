"""The names the per-layer benchmark looks up here and nothing at runtime
calls: the activation reward oracle and ``NUMBA_ENABLED``.
"""

from __future__ import annotations

import numpy as np

# beamckm has no compiled backend; kept for tools that record it
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# search-cost enumeration over a pruned beam tree
#
# csum holds per-layer prefix sums of the candidate masks: csum[l-1, i] is
# the number of candidate beams at layer l with index <= i (1-based), padded
# with the row total beyond 2**l entries (the tests' ``oracles.prefix_sums``
# builds it from a search state).
# ---------------------------------------------------------------------------


# the planner's reference, kept here because perfbench's tracer wraps it
def activation_rewards(csum, acts, weights, targets, L):
    """Expected-cost reward of every activation row in ``acts``.

    Reward is the negative weight-average probe cost over the candidate
    bottom beams listed in ``targets`` (1-based indices).  Scoring every
    activation is exponential in L; the planner uses
    ``SearchState.pair_weights`` instead and this serves as its reference.
    """
    num_act = acts.shape[0]
    out = np.zeros(num_act)
    t0 = targets - 1
    w = weights[t0]
    for z in range(num_act):
        layers = np.flatnonzero(acts[z]) + 1
        cost = np.zeros(targets.shape[0], dtype=np.int64)
        prev = 0
        for l in layers:
            l = int(l)
            if prev == 0:
                cost += csum[l - 1, 1 << l]
            else:
                anc = t0 >> (L - prev)
                a = anc << (l - prev)
                b = (anc + 1) << (l - prev)
                cnt = csum[l - 1, b] - csum[l - 1, a]
                cost += np.where(cnt >= 2, cnt, 0)
            prev = l
        out[z] = -float((w * cost).sum())
    return out
