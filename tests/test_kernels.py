"""Compiled vs plain-numpy kernel parity, the planner's pair weights, and
the backend toggle.

Both execution paths must be bit-identical on the same inputs; the
BEAMCKM_NO_NUMBA environment flag selects the numpy path at import time.
"""

import os
import subprocess
import sys

import numpy as np

import beamckm as bc
from beamckm import kernels

from test_planner import activation_matrix


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
    tree = bc.PrunedTree.from_bottom_weights(weights)
    return tree, weights


class TestPathTracingParity:
    def test_loops_and_numpy_paths_agree(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            args = random_geometry(rng)
            out_a = kernels.trace_paths_loops(*args, 0.00375, 1.0, 4)
            out_b = kernels.trace_paths_numpy(*args, 0.00375, 1.0, 4)
            for a, b in zip(out_a, out_b):
                np.testing.assert_array_equal(a, b)

    def test_max_paths_truncation_agrees(self):
        rng = np.random.default_rng(3)
        args = random_geometry(rng, n_scat=6, n_obs=0)
        for max_paths in (1, 2, 7):
            out_a = kernels.trace_paths_loops(*args, 0.00375, 1.0, max_paths)
            out_b = kernels.trace_paths_numpy(*args, 0.00375, 1.0, max_paths)
            assert out_a[0].shape[1] <= max_paths
            for a, b in zip(out_a, out_b):
                np.testing.assert_array_equal(a, b)


class TestProbeCostParity:
    def test_probe_cost_paths_agree(self):
        rng = np.random.default_rng(31)
        for num_layers in (3, 4, 5):
            for _ in range(20):
                tree, _ = random_tree_inputs(rng, num_layers)
                csum = tree.prefix_sums()
                targets = tree.bottom_candidates()
                for mask in range(2 ** (num_layers - 1)):
                    act = np.zeros(num_layers, dtype=np.uint8)
                    act[num_layers - 1] = 1
                    for i in range(num_layers - 1):
                        if (mask >> i) & 1:
                            act[i] = 1
                    for nt in targets:
                        a = kernels.probe_cost_loops(csum, act, int(nt), num_layers)
                        b = kernels.probe_cost_numpy(csum, act, int(nt), num_layers)
                        assert a == b


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
                acts = bc.enumerate_activations(0, num_layers)
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


class TestBackendToggle:
    def test_env_flag_selects_numpy_path(self):
        code = (
            "from beamckm import kernels; "
            "print(kernels.NUMBA_ENABLED, kernels.trace_paths is kernels.trace_paths_numpy)"
        )
        env = dict(os.environ, BEAMCKM_NO_NUMBA="1")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]

    def test_default_import_reports_backend(self):
        # whichever backend loaded, the dispatched names must be callable
        assert kernels.trace_paths in (kernels.trace_paths_loops, kernels.trace_paths_numpy)
        assert kernels.probe_cost_single in (kernels.probe_cost_loops, kernels.probe_cost_numpy)
