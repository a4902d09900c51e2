"""Benchmark two stages of a search round.

Layer planning: the shortest-path planner against the exhaustive
enumeration of activations it replaces.  The comparison asserts that both
planners pick the same layer on every tree.  Each timed call builds its
search states anew (copies of one state would share its pair weights), so
both planners pay for the states and their pair weights in every call; the
enumeration also builds its prefix sums (``oracles.prefix_sums``).

Probing: one exhaustive round over the bottom layer at N = 32, 128 and
1024 antennas, by one scalar ``probe`` per beam and by one ``probe_rows``
call, on an empty response cache (every response computed) and on a
filled one (as a further SNR point or algorithm of a sweep finds it).
The comparison asserts equal magnitudes bit for bit under the same noise.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

import beamckm as bc
from beamckm import kernels

# the enumeration planner is a test oracle; this script is run by path
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import enumerate_activations, pick_activation, prefix_sums  # noqa: E402


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
    """Gain rows of random trees with at least two bottom candidates, as
    planned at the root of an episode.  Each tree's search state has one
    location point whose bottom-beam gains are its weights; beta 0.2 keeps
    every positive gain, since they lie within a factor 4 of each other."""
    rng = np.random.default_rng(seed)
    n = 2**num_layers
    cases = []
    while len(cases) < num_trees:
        mask = rng.random(n) < 0.4
        if mask.sum() < 2:
            continue
        gains = np.zeros((1, 2 * n - 2))
        gains[0, n - 2 :] = np.where(mask, rng.uniform(0.5, 2.0, n), 0.0)
        cases.append(gains)
    return cases


def build_states(cases, num_layers):
    return [bc.SearchState([0], [1.0], gains, 0.2, num_layers) for gains in cases]


def plan_by_enumeration(cases, num_layers):
    acts = enumerate_activations(0, num_layers)
    mat = np.zeros((len(acts), num_layers), dtype=np.uint8)
    for z, layers in enumerate(acts):
        mat[z, np.asarray(layers) - 1] = 1
    out = []
    for state in build_states(cases, num_layers):
        rewards = kernels.activation_rewards(
            prefix_sums(state), mat, state.bottom_weights, state.bottom_candidates(), num_layers
        )
        out.append(acts[pick_activation(acts, rewards)][0])
    return out


def plan_by_shortest_path(cases, num_layers):
    return [bc.optimal_layer(state) for state in build_states(cases, num_layers)]


PROBE_ANTENNAS = (32, 128, 1024)


def probe_by_scalar(h, codebook, sigma, seed):
    rng = np.random.default_rng(seed)
    L = codebook.num_layers
    return np.array([
        bc.probe(h, codebook.codeword(bc.BeamId(L, n)), sigma, rng)
        for n in range(1, codebook.num_antennas + 1)
    ])


def probe_by_rows(resp, rows, sigma, seed):
    return bc.probe_rows(resp, rows, sigma, np.random.default_rng(seed))


def probe_cold(h, codebook, rows, sigma, seed):
    return probe_by_rows(bc.Responses(h, codebook.matrix), rows, sigma, seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=20,
                        help="random trees per depth for the planning workload")
    parser.add_argument("--layers", type=int, nargs="+", default=[5, 7, 9, 10],
                        help="codebook depths for the planning workload")
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)

    print(f"layer planning, one round from the root, {args.trees} trees per depth:")
    for num_layers in args.layers:
        cases = planning_workload(args.trees, num_layers)
        want, best_e, _ = bench(plan_by_enumeration, cases, num_layers, repeat=args.repeat)
        got, best_d, _ = bench(plan_by_shortest_path, cases, num_layers, repeat=args.repeat)
        assert got == want, f"planners disagree at L={num_layers}"
        n = len(cases)
        print(f"  L={num_layers:2d}  {2 ** (num_layers - 1):4d} activations  "
              f"enumeration={best_e / n * 1e3:8.3f} ms  "
              f"shortest path={best_d / n * 1e3:7.3f} ms  "
              f"speedup={best_e / best_d:6.1f}x  same layer: True")

    print("probing, one exhaustive bottom-layer round, noise sigma 0.1:")
    for n in PROBE_ANTENNAS:
        codebook = bc.build_codebook(n)
        draw = np.random.default_rng(n)
        h = draw.standard_normal(n) + 1j * draw.standard_normal(n)
        rows = np.arange(n - 2, 2 * n - 2)
        resp = bc.Responses(h, codebook.matrix)
        want, best_s, _ = bench(probe_by_scalar, h, codebook, 0.1, 11, repeat=args.repeat)
        cold, best_c, _ = bench(probe_cold, h, codebook, rows, 0.1, 11, repeat=args.repeat)
        warm, best_w, _ = bench(probe_by_rows, resp, rows, 0.1, 11, repeat=args.repeat)
        assert want.tobytes() == cold.tobytes() == warm.tobytes(), f"probes disagree at N={n}"
        print(f"  N={n}  scalar probe={best_s * 1e3:7.3f} ms  "
              f"probe_rows empty cache={best_c * 1e3:7.3f} ms  "
              f"filled cache={best_w * 1e3:7.3f} ms  "
              f"speedup={best_s / best_c:5.1f}x / {best_s / best_w:6.1f}x  same magnitudes: True")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
