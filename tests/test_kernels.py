"""Path tracing against a scalar reference tracer, and the planner's pair
weights against the activation reward oracle."""

import math

import numpy as np

from beamckm import kernels

from conftest import from_bottom_weights
from oracles import enumerate_activations
from test_planner import activation_matrix


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(ax, ay, bx, by, px, py):
    # collinearity assumed; checks the bounding box
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def _crosses(p1, p2, q1, q2):
    """Segments p1-p2 and q1-q2 meet; touching or collinear overlap counts."""
    o1 = _orient(*p1, *p2, *q1)
    o2 = _orient(*p1, *p2, *q2)
    o3 = _orient(*q1, *q2, *p1)
    o4 = _orient(*q1, *q2, *p2)
    if 0.0 not in (o1, o2, o3, o4) and (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0):
        return True
    return (
        (o1 == 0 and _on_segment(*p1, *p2, *q1))
        or (o2 == 0 and _on_segment(*p1, *p2, *q2))
        or (o3 == 0 and _on_segment(*q1, *q2, *p1))
        or (o4 == 0 and _on_segment(*q1, *q2, *p2))
    )


def _distance(a, b):
    # the phase keeps only the fraction of distance / wavelength, so the
    # rounding of the distance matters: written as in the kernel
    dx, dy = b[0] - a[0], b[1] - a[1]
    return math.sqrt(dx * dx + dy * dy)


def reference_trace(pts, bs, scat_pos, scat_refl, scat_phase, scat_vis,
                    obstacles, wavelength, ple, max_paths):
    """One point and one path at a time: the LoS path and one bounce per
    visible scatterer, each kept unless a wall blocks a leg, then the
    ``max_paths`` strongest in stable order (LoS first, then scatterers)."""
    walls = [((float(o[0]), float(o[1])), (float(o[2]), float(o[3]))) for o in obstacles]
    bs = (float(bs[0]), float(bs[1]))
    amp0 = wavelength / (4.0 * math.pi)
    out = [np.zeros((len(pts), max_paths)) for _ in range(3)]
    counts = np.zeros(len(pts), dtype=np.int64)
    for i, (px, py) in enumerate(pts):
        p = (float(px), float(py))
        paths = []  # (amplitude, angle, phase)
        if not any(_crosses(bs, p, *w) for w in walls):
            dist = _distance(bs, p)
            paths.append((amp0 / dist**ple, (p[0] - bs[0]) / dist,
                          -2.0 * math.pi * ((dist / wavelength) % 1.0)))
        for s, (sx, sy) in enumerate(scat_pos):
            sc = (float(sx), float(sy))
            if not scat_vis[s] or any(_crosses(sc, p, *w) for w in walls):
                continue
            d1 = _distance(bs, sc)
            total = d1 + _distance(sc, p)
            paths.append((scat_refl[s] * amp0 / total**ple, (sc[0] - bs[0]) / d1,
                          -2.0 * math.pi * ((total / wavelength) % 1.0) + scat_phase[s]))
        kept = sorted(paths, key=lambda path: -path[0])[:max_paths]
        counts[i] = len(kept)
        for slot, (amp, angle, phase) in enumerate(kept):
            out[0][i, slot], out[1][i, slot], out[2][i, slot] = angle, amp, phase
    return out[0], out[1], out[2], counts


def assert_matches_reference(args, max_paths):
    got = kernels.trace_paths(*args, 0.00375, 1.0, max_paths)
    want = reference_trace(*args, 0.00375, 1.0, max_paths)
    np.testing.assert_array_equal(got[3], want[3])
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == (len(args[0]), max_paths)
        np.testing.assert_array_equal(g, w)
    return want[3]


def random_geometry(rng, n_points=40, n_scat=3, n_obs=2):
    pts = rng.uniform(0.5, 19.5, size=(n_points, 2))
    bs = np.array([10.0, -1.0])
    scat_pos = rng.uniform(1.0, 19.0, size=(n_scat, 2))
    scat_refl = rng.uniform(0.2, 0.9, size=n_scat)
    scat_phase = rng.uniform(0, 2 * np.pi, size=n_scat)
    scat_vis = rng.random(n_scat) < 0.8
    obstacles = rng.uniform(2.0, 18.0, size=(n_obs, 4))
    return pts, bs, scat_pos, scat_refl, scat_phase, scat_vis, obstacles


def random_tree_inputs(rng, num_layers):
    n = 2**num_layers
    while True:
        mask = rng.random(n) < 0.5
        if mask.any():
            break
    weights = np.where(mask, rng.uniform(0.1, 3.0, n), 0.0)
    return from_bottom_weights(weights), weights


class TestPathTracingReference:
    def test_random_scenes_match_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            assert_matches_reference(random_geometry(rng), 4)

    def test_max_paths_truncation_matches_reference(self):
        args = random_geometry(np.random.default_rng(3), n_scat=6, n_obs=0)
        for max_paths in (1, 2, 7):
            assert assert_matches_reference(args, max_paths).max() == max_paths

    def test_touching_and_collinear_walls_match_reference(self):
        # integer geometry makes the orientation tests exactly zero: a wall
        # collinear with the LoS ray, a wall whose end touches it, and one
        # whose end lies exactly on a scatterer leg
        xs, ys = np.meshgrid(np.arange(-4.0, 5.0), np.arange(1.0, 9.0))
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        args = (
            pts,
            np.array([0.0, 0.0]),
            np.array([[-6.0, 6.0], [6.0, 2.0]]),
            np.array([0.5, 0.7]),
            np.array([0.3, 1.9]),
            np.array([True, True]),
            np.array([[0.0, 2.0, 0.0, 4.0], [1.0, 1.0, 3.0, 1.0], [-2.0, 2.0, -2.0, 5.0]]),
        )
        counts = assert_matches_reference(args, 3)
        los_blocked = {(0.0, 3.0), (0.0, 5.0), (2.0, 2.0), (3.0, 3.0), (-4.0, 4.0)}
        walls = [((0.0, 2.0), (0.0, 4.0)), ((1.0, 1.0), (3.0, 1.0)), ((-2.0, 2.0), (-2.0, 5.0))]
        for p in los_blocked:
            assert any(_crosses((0.0, 0.0), p, *w) for w in walls), p
        assert not any(_crosses((0.0, 0.0), (0.0, 1.0), *w) for w in walls)
        assert counts.min() == 0 and counts.max() == 3


class TestPairWeights:
    def test_path_sums_match_activation_rewards(self):
        # every activation's cost is its entry weight plus its hop weights
        rng = np.random.default_rng(77)
        for num_layers in (1, 2, 5, 7):
            for _ in range(10):
                tree, weights = random_tree_inputs(rng, num_layers)
                csum = tree.prefix_sums()
                targets = tree.bottom_candidates().astype(np.int64)
                entry, hops = kernels.pair_weights(csum, weights, targets, num_layers)
                acts = enumerate_activations(0, num_layers)
                mat = activation_matrix(acts, num_layers)
                rewards = kernels.activation_rewards(csum, mat, weights, targets, num_layers)
                for layers, r in zip(acts, rewards):
                    cost = entry[layers[0]] + sum(hops[p, q] for p, q in zip(layers, layers[1:]))
                    np.testing.assert_allclose(cost, -r, rtol=1e-12)

    def test_hop_weights_upper_triangular_from_layer_one(self):
        rng = np.random.default_rng(5)
        tree, weights = random_tree_inputs(rng, 4)
        targets = tree.bottom_candidates().astype(np.int64)
        entry, hops = kernels.pair_weights(tree.prefix_sums(), weights, targets, 4)
        assert entry.shape == (5,) and hops.shape == (5, 5)
        assert entry[0] == 0.0
        np.testing.assert_array_equal(hops, np.triu(hops, k=1))
        assert not hops[0].any()
