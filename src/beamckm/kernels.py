"""Hot numeric kernels, in numpy: path tracing and the activation reward
oracle.
"""

from __future__ import annotations

import numpy as np

# beamckm has no compiled backend; kept for tools that record it
NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# path tracing: LoS + one single-bounce path per visible point scatterer
# ---------------------------------------------------------------------------


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _blocked(ax, ay, bx, by, obstacles):
    """Whether segment a-b crosses any obstacle; touching or collinear
    overlap counts as blocked.  Vectorized over (ax, ay); a/b endpoints may
    be arrays or scalars."""
    ax = np.asarray(ax, dtype=float)
    blocked = np.zeros(np.shape(ax), dtype=bool)
    for i in range(obstacles.shape[0]):
        q1x, q1y, q2x, q2y = obstacles[i]
        o1 = _orient(ax, ay, bx, by, q1x, q1y)
        o2 = _orient(ax, ay, bx, by, q2x, q2y)
        o3 = _orient(q1x, q1y, q2x, q2y, ax, ay)
        o4 = _orient(q1x, q1y, q2x, q2y, bx, by)
        proper = (
            ((o1 > 0) != (o2 > 0))
            & ((o3 > 0) != (o4 > 0))
            & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)
        )

        def on_seg(sx, sy, ex, ey, px, py):
            return (
                (np.minimum(sx, ex) <= px) & (px <= np.maximum(sx, ex))
                & (np.minimum(sy, ey) <= py) & (py <= np.maximum(sy, ey))
            )

        touch = (
            ((o1 == 0) & on_seg(ax, ay, bx, by, q1x, q1y))
            | ((o2 == 0) & on_seg(ax, ay, bx, by, q2x, q2y))
            | ((o3 == 0) & on_seg(q1x, q1y, q2x, q2y, ax, ay))
            | ((o4 == 0) & on_seg(q1x, q1y, q2x, q2y, bx, by))
        )
        blocked |= proper | touch
    return blocked


def trace_paths(pts, bs, scat_pos, scat_refl, scat_phase, scat_vis,
                obstacles, wavelength, ple, max_paths):
    """Per-point propagation paths; returns (angles, amps, phases, counts).

    Slot order is strongest-first by amplitude (ties keep LoS before
    scatterer paths, then scatterer declaration order).
    """
    num_pts = pts.shape[0]
    num_sc = scat_pos.shape[0]
    amp0 = wavelength / (4.0 * np.pi)
    cand = num_sc + 1

    c_ang = np.zeros((num_pts, cand))
    c_amp = np.zeros((num_pts, cand))
    c_phs = np.zeros((num_pts, cand))

    dx = pts[:, 0] - bs[0]
    dy = pts[:, 1] - bs[1]
    dist = np.sqrt(dx * dx + dy * dy)
    los_ok = ~_blocked(pts[:, 0], pts[:, 1], bs[0], bs[1], obstacles)
    c_ang[:, 0] = dx / dist
    c_amp[:, 0] = np.where(los_ok, amp0 / dist**ple, 0.0)
    c_phs[:, 0] = -2.0 * np.pi * np.mod(dist / wavelength, 1.0)

    for s in range(num_sc):
        if not scat_vis[s]:
            continue
        sx, sy = scat_pos[s]
        d1x = sx - bs[0]
        d1y = sy - bs[1]
        d1 = np.sqrt(d1x * d1x + d1y * d1y)
        d2x = pts[:, 0] - sx
        d2y = pts[:, 1] - sy
        d2 = np.sqrt(d2x * d2x + d2y * d2y)
        ok = ~_blocked(pts[:, 0], pts[:, 1], sx, sy, obstacles)
        total = d1 + d2
        c_ang[:, s + 1] = d1x / d1
        c_amp[:, s + 1] = np.where(ok, scat_refl[s] * amp0 / total**ple, 0.0)
        c_phs[:, s + 1] = -2.0 * np.pi * np.mod(total / wavelength, 1.0) + scat_phase[s]

    order = np.argsort(-c_amp, axis=1, kind="stable")
    rows = np.arange(num_pts)[:, None]
    k = min(cand, max_paths)
    sel = order[:, :k]
    angles = np.zeros((num_pts, max_paths))
    amps = np.zeros((num_pts, max_paths))
    phases = np.zeros((num_pts, max_paths))
    amp_sel = c_amp[rows, sel]
    keep = amp_sel > 0.0
    angles[:, :k] = np.where(keep, c_ang[rows, sel], 0.0)
    amps[:, :k] = np.where(keep, amp_sel, 0.0)
    phases[:, :k] = np.where(keep, c_phs[rows, sel], 0.0)
    counts = keep.sum(axis=1).astype(np.int64)
    return angles, amps, phases, counts


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
