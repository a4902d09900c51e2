"""Benchmark one round of layer planning: the shortest-path planner
against the exhaustive enumeration of activations it replaces.

The comparison asserts that both planners pick the same layer on every
tree.
"""

import argparse
import time

import numpy as np

import beamckm as bc
from beamckm import kernels
from beamckm.strategy import enumerate_activations, pick_activation


def bench(fn, *args, repeat=5):
    times = []
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        times.append(t1 - t0)
    return out, min(times), sum(times) / len(times)


def planning_workload(num_trees: int, num_layers: int, seed: int = 99):
    """Random trees with at least two bottom candidates, as planned at the
    root of an episode."""
    rng = np.random.default_rng(seed)
    n = 2**num_layers
    cases = []
    while len(cases) < num_trees:
        mask = rng.random(n) < 0.4
        if mask.sum() < 2:
            continue
        weights = np.where(mask, rng.uniform(0.5, 2.0, n), 0.0)
        cases.append((bc.PrunedTree.from_bottom_weights(weights), weights))
    return cases


def plan_by_enumeration(cases, num_layers):
    acts = enumerate_activations(0, num_layers)
    mat = np.zeros((len(acts), num_layers), dtype=np.uint8)
    for z, layers in enumerate(acts):
        mat[z, np.asarray(layers) - 1] = 1
    out = []
    for tree, weights in cases:
        targets = tree.bottom_candidates().astype(np.int64)
        rewards = kernels.activation_rewards(
            tree.prefix_sums(), mat, weights, targets, num_layers
        )
        out.append(acts[pick_activation(acts, rewards)][0])
    return out


def plan_by_shortest_path(cases):
    return [bc.optimal_layer(tree, weights) for tree, weights in cases]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=20,
                        help="random trees per depth for the planning workload")
    parser.add_argument("--layers", type=int, nargs="+", default=[5, 7, 9, 10],
                        help="codebook depths for the planning workload")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"layer planning, one round from the root, {args.trees} trees per depth:")
    for num_layers in args.layers:
        cases = planning_workload(args.trees, num_layers)
        want, best_e, _ = bench(plan_by_enumeration, cases, num_layers, repeat=args.repeat)
        got, best_d, _ = bench(plan_by_shortest_path, cases, repeat=args.repeat)
        assert got == want, f"planners disagree at L={num_layers}"
        n = len(cases)
        print(f"  L={num_layers:2d}  {2 ** (num_layers - 1):4d} activations  "
              f"enumeration={best_e / n * 1e3:8.3f} ms  "
              f"shortest path={best_d / n * 1e3:7.3f} ms  "
              f"speedup={best_e / best_d:6.1f}x  same layer: True")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
