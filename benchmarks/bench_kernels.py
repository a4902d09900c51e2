"""Benchmark two stages of a search round, the map build, stream seeding,
alg3 sweeps, the batched baselines, a call's set-up, the batched alg1
and alg2, and full-size sweeps.

Layer planning: the shortest-path planner against the exhaustive
enumeration of activations it replaces.  The comparison asserts that both
planners pick the same layer on every tree.  Each timed call builds its
search states anew (copies of one state would share its pair weights), so
both planners pay for the states and their pair weights in every call; the
enumeration also builds its prefix sums (``oracles.prefix_sums``).

Probing: at N = 32, 128 and 1024 antennas, the cold fill of a baseline
chunk: one batched ``Responses.take`` of 40 drawn channels against every
bottom row, which takes ``np.vecdot`` over gathered rows, against one
``np.vdot`` per entry (``oracles.responses_by_vdot``), asserting equal
values bit for bit.

Map build: on the large scene's grid at ``--map-spacing`` (0.5 m, 65,536
points, by default), ``channel_vectors`` with one steering vector per
distinct angle against the oracle with one per (point, slot), asserting
equal bytes; then ``build_ckm``, and its chunk loop with a clock on each
stage (path tracing, channel synthesis, gain product), which must write
the same gains; then the BCKM round trip, ``save_ckm`` and ``load_ckm``,
with the ``tracemalloc`` peak of each, asserting that the reloaded map
equals the built one.

Stream seeding: the noise streams of a sweep (3 users, 2 noisy SNR
points per trial), seeded by one ``np.random.default_rng([seed, 202, t,
si, k])`` per stream against one ``streams.seed_words`` table plus a state
load into one reused generator per stream.  The comparison asserts that
every loaded state equals the fresh generator's.

alg3 sweeps: on the desk, large and deep scenes, first the set-up of the
search states (``compute_point_weights`` per user, best and median of
``--repeat`` builds of every user's state), then one ``run_trials`` call
of alg3 alone and one of the config's own algorithm list (every search in
one call, as the configs run) at the config's SNR points.  The engine
(``multiuser.run_multi_user``) plays a chunk's episodes at every SNR
point in lock-step rounds, once per joint key, and folds a copy per
(state, fed-back row, survivors) of each round.  The copies share the built
state's memo of derived views and the plans kept in them (which the
map-aided trees of alg1 and alg2 also fill) and its memo of pruning
profiles.  Prints the trial-rounds played and the joint keys
(``joint_layer`` calls) that played them, alg3's user-rounds, the probing
groups that played them and the states they folded into, the views
derived, in how many passes, for how many state derivations, and the
memo's hit rate, the pruning profiles looked up, their memo's hit rate
and the bytes each user's memo keeps, the time inside alg3 per
user-round, best and median of ``--repeat`` alternated calls of the
engine and of the per-episode oracle (``oracles.run_multi_user``, one
trial at a time over a ``Link`` per user), and for alg3 alone the call's
``tracemalloc`` peak.  The comparison asserts that both, and the oracle
with every trial on states rebuilt from scratch, give equal records.

Baselines: on the desk and large scenes, one ``run_trials`` call of each
map-blind baseline at the config's SNR points, which runs every (trial,
user) episode of a chunk at every SNR point as array rounds over one
``Episodes`` batch, against the same call with
``oracles.one_episode_at_a_time`` swapped in, which runs one per-episode
oracle (``tests/oracles.py``) over a ``Link`` per episode of the batch,
each best and median of ``--repeat`` calls.  The comparison asserts equal
records.

Call set-up: on the desk, large and deep scenes, at the trial counts of
perfbench's timed calls (30 desk, 20 large, 16 deep by default), two
stages that one ``run_trials`` call pays before its searches, best and
median of ``--repeat`` alternated calls: the call's drawn points' oracle
gains, one product per (point, row block) (``oracles.gains_per_point``)
against ``harness._bottom_gains``, one product stacked over both; and
every user's ``SearchState`` built from its prior's points, masses and
gains, beside the dense contribution product alone
(``oracles.dense_contributions``) that the state's sparse build replaced.
Each pair must give equal bytes (the dense product those of the built
states' contributions).

alg1 and alg2: on the desk and large scenes, one ``run_trials`` call of
each at the config's SNR points, which runs every (trial, user) episode
of a chunk at every SNR point as array rounds over the episodes at each
cached search state, level by level (``strategy.run_searches``), against
the same call with the per-episode oracle (``oracles.run_episode``) over
a ``Link`` per episode.  Prints the episode rounds played, the array
rounds that played them and the levels they walked, the views derived,
in how many passes (one per state build, at most one per user and
level, and one more where some of its new states fall back), for how
many state derivations, and each time best and median of ``--repeat``
calls.  The comparison asserts equal records.

Full size: on the desk and large scenes at the config's 1,000 trials and
on the deep scene at 300 (``--full-trials``), one ``run_trials`` call per
algorithm at the config's six SNR points, as a sweep runs them: best and
median of ``--repeat`` calls, and the call's ``tracemalloc`` peak.  A
call merges the SNR points of each chunk of ``harness.CHUNK_TRIALS``
trials into one batch, so these calls run batches that a short call
never builds.
"""

import argparse
import functools
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

import beamckm as bc
from beamckm import ckm, harness, kernels, lookahead, multiuser, strategy
from beamckm.streams import pcg64_state, seed_words
from beamckm.channel import channel_vectors, trace_point_paths
from beamckm.codebook import beam_index, layer_rows, layer_start, layers_of

ROOT = Path(__file__).resolve().parent.parent
# the enumeration planner is a test oracle; this script is run by path
sys.path.insert(0, str(ROOT / "tests"))
from oracles import channel_vectors as oracle_channel_vectors  # noqa: E402
import oracles  # noqa: E402
from oracles import enumerate_activations, pick_activation, prefix_sums  # noqa: E402


def bench(fn, *args, repeat=5):
    """``fn(*args)``, and the least and the median time of ``repeat`` calls."""
    times = []
    out = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        times.append(t1 - t0)
    return out, min(times), float(np.median(times))


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
        gains = np.zeros((1, layer_start(num_layers + 1)))
        gains[0, layer_rows(num_layers)] = np.where(mask, rng.uniform(0.5, 2.0, n), 0.0)
        cases.append(gains)
    return cases


def build_states(cases):
    return [bc.beamtree.SearchState([0], [1.0], gains, 0.2) for gains in cases]


def plan_by_enumeration(cases, num_layers):
    acts = enumerate_activations(0, num_layers)
    mat = np.zeros((len(acts), num_layers), dtype=np.uint8)
    for z, layers in enumerate(acts):
        mat[z, np.asarray(layers) - 1] = 1
    out = []
    bottom = layer_rows(num_layers)
    for state in build_states(cases):
        targets = beam_index(state.candidate_rows(num_layers), num_layers)
        rewards = kernels.activation_rewards(
            prefix_sums(state), mat, state.weights[bottom], targets, num_layers
        )
        out.append(acts[pick_activation(acts, rewards)][0])
    return out


def plan_by_shortest_path(cases, num_layers):
    return [bc.strategy.optimal_layer(state) for state in build_states(cases)]


PROBE_ANTENNAS = (32, 128, 1024)
FILL_CHANNELS = 40


def fill_by_take(hs, codebook, points, rows):
    return bc.channel.Responses(hs, codebook).take(points, rows)


MAP_STAGES = ("trace", "synthesis", "gain product")


def staged_build(config, grid, codebook):
    """``build_ckm``'s chunk loop (no staleness) with a clock on each stage:
    the gains and the seconds spent per stage."""
    env, array = config.environment, config.array
    gains = np.empty((len(codebook), grid.num_points), dtype=np.float32)
    spent = dict.fromkeys(MAP_STAGES, 0.0)
    for start in range(0, grid.num_points, ckm._CHUNK_POINTS):
        cols = slice(start, min(start + ckm._CHUNK_POINTS, grid.num_points))
        t0 = time.perf_counter()
        traced = trace_point_paths(env, array, grid.positions(np.arange(cols.start, cols.stop)))
        t1 = time.perf_counter()
        h = channel_vectors(*traced[:3], array.num_antennas)
        t2 = time.perf_counter()
        gains[:, cols] = np.abs(h.conj() @ codebook.T).T
        t3 = time.perf_counter()
        for stage, dt in zip(MAP_STAGES, (t1 - t0, t2 - t1, t3 - t2)):
            spent[stage] += dt
    return gains, spent


def bench_map_build(spacing: float, repeat: int) -> None:
    config = bc.load_scenario(ROOT / "configs" / "large.json")
    g = config.grid
    grid = bc.GridSpec(g.extent_x, g.extent_y, spacing, spacing, g.origin)
    n_ant = config.array.num_antennas
    book = bc.build_codebook(n_ant)
    print(f"map build, large scene at {spacing} m spacing, "
          f"{grid.num_points} points, {n_ant} antennas:")
    coords = grid.positions(np.arange(grid.num_points))
    paths = trace_point_paths(config.environment, config.array, coords)[:3]
    want, best_o, _ = bench(oracle_channel_vectors, *paths, n_ant, repeat=repeat)
    got, best_n, _ = bench(channel_vectors, *paths, n_ant, repeat=repeat)
    assert got.tobytes() == want.tobytes(), "channel_vectors disagrees with its oracle"
    del want, got
    print(f"  channel_vectors  per (point, slot)={best_o:7.3f} s  "
          f"per distinct angle={best_n:7.3f} s  speedup={best_o / best_n:5.1f}x  "
          f"{len(np.unique(paths[0]))} of {paths[0].size} slot angles distinct  "
          "same channels: True")
    built, best_b, _ = bench(bc.build_ckm, config.environment, config.array, book, grid,
                             repeat=repeat)
    runs = [staged_build(config, grid, book) for _ in range(repeat)]
    staged, spent = min(runs, key=lambda run: sum(run[1].values()))
    assert staged.tobytes() == built.gains.tobytes(), "staged build disagrees with build_ckm"
    total = sum(spent.values())
    split = "  ".join(f"{k}={v:6.3f} s ({v / total:4.0%})" for k, v in spent.items())
    print(f"  build_ckm={best_b:7.3f} s ({grid.num_points / best_b:,.0f} points/s)  "
          f"chunks of {ckm._CHUNK_POINTS}: {split}  same gains: True")
    blob, best_s, _ = bench(bc.save_ckm, built, repeat=repeat)
    loaded, best_l, _ = bench(bc.load_ckm, blob, repeat=repeat)
    assert loaded == built, "reloaded map differs from the built map"
    peak_s, peak_l = traced_peak(bc.save_ckm, built), traced_peak(bc.load_ckm, blob)
    mb = 1e-6
    print(f"  blob={len(blob) * mb:6.1f} MB  save_ckm={best_s:6.3f} s "
          f"(peak {peak_s * mb:6.1f} MB)  load_ckm={best_l:6.3f} s "
          f"(peak {peak_l * mb:6.1f} MB)  same map: True")


def traced_peak(fn, *args) -> int:
    """Bytes ``fn(*args)`` holds at most at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


STREAM_SEED = 7919


def stream_counters(n: int) -> np.ndarray:
    """The first ``n`` noise-stream counters [t, si, k] of a sweep of 3
    users at SNR indices 1 and 2, in run_trials' order."""
    return np.indices((-(-n // 6), 2, 3)).reshape(3, -1).T[:n] + [0, 1, 0]


def seed_by_default_rng(counters):
    return [np.random.default_rng([STREAM_SEED, 202, *row]) for row in counters.tolist()]


def seed_by_table(counters):
    rng = np.random.default_rng(0)
    for words in seed_words([STREAM_SEED, 202], counters):
        rng.bit_generator.state = pcg64_state(words)
    return rng


def bench_stream_seeding(counts, repeat: int) -> None:
    print(f"stream seeding, noise streams [seed, 202, t, si, k] at seed {STREAM_SEED}:")
    for n in counts:
        counters = stream_counters(n)
        fresh, best_f, _ = bench(seed_by_default_rng, counters, repeat=repeat)
        _, best_t, _ = bench(seed_by_table, counters, repeat=repeat)
        _, best_w, _ = bench(seed_words, [STREAM_SEED, 202], counters, repeat=repeat)
        table = seed_words([STREAM_SEED, 202], counters)
        same = all(pcg64_state(w) == g.bit_generator.state for w, g in zip(table, fresh))
        assert same and len(fresh) == len(table) == n, f"stream states disagree at {n} streams"
        print(f"  streams={n}  default_rng={best_f / n * 1e6:6.2f} us/stream  "
              f"table + load={best_t / n * 1e6:5.2f} us/stream (table {best_w / n * 1e6:4.2f})  "
              f"speedup={best_f / best_t:5.1f}x  same states: True")


ALG3_SCENES = ("desk", "large", "deep")


def counted(fn, counts, key):
    """``fn``, counting its calls in ``counts[key]``."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def alg3_seconds(call, engines, repeat: int):
    """Records of ``call`` and the least and median time inside alg3 with
    each of ``engines`` as the ``run_multi_user`` it runs, over ``repeat``
    rounds of one call per engine, so that a drift of the host's speed
    reaches all of them alike."""
    spent = [0.0]

    def timed(engine):
        def run(*args):
            t0 = time.perf_counter()
            try:
                return engine(*args)
            finally:
                spent[0] += time.perf_counter() - t0
        return run

    out = [[None, []] for _ in engines]
    for _ in range(repeat):
        for slot, engine in zip(out, engines):
            with mock.patch.object(harness, "run_multi_user", timed(engine)):
                spent[0] = 0.0
                slot[0] = call()
                slot[1].append(spent[0])
    return [(records, min(times), float(np.median(times))) for records, times in out]


def bench_alg3(trials_per_scene, full_trials_per_scene, repeat: int) -> None:
    print("alg3 sweeps, one run_trials call at the config's SNR points, seed 0: "
          "alg3 alone, then the config's own algorithm list; times inside run_multi_user, "
          "us per user-round, best (median) of the repeats:")
    for scene, trials, full_trials in zip(ALG3_SCENES, trials_per_scene, full_trials_per_scene):
        config = bc.load_scenario(ROOT / "configs" / f"{scene}.json")
        book = bc.build_codebook(config.array.num_antennas)
        gain_map = bc.build_ckm(config.environment, config.array, book, config.grid)
        K = len(config.priors)
        _, best, median = bench(lambda: [
            bc.beamtree.compute_point_weights(gain_map, prior, config.beta, config.retain_beams)
            for prior in config.priors], repeat=repeat)
        print(f"  {scene:5s} set-up: compute_point_weights {best / K * 1e6:7.1f} "
              f"({median / K * 1e6:7.1f}) us per user")
        for algorithms, n in ((["alg3"], trials), (list(config.algorithms), full_trials)):

            def call():
                return bc.run_trials(config, gain_map, algorithms=algorithms, trials=n, seed=0)

            counts = dict.fromkeys(("trial-rounds", "joint keys", "rounds", "groups", "folded",
                                    "derived", "passes", "views", "profiles", "hits"), 0)
            memos = {}  # each user's memo of pruning profiles, by id

            def profile(user, rows):
                memos[id(user._profiles)] = user._profiles
                counts["profiles"] += 1
                counts["hits"] += rows.tobytes() in user._profiles
                return prune_profile(user, rows)

            def engine(states, *args):
                result = multiuser.run_multi_user(states, *args)
                counts["rounds"] += sum(map(len, result[2]))
                K = len(states)  # a trial plays until its last user's search is over
                counts["trial-rounds"] += sum(max(map(len, result[2][e : e + K]))
                                              for e in range(0, len(result[2]), K))
                return result

            def fold(states, *args):
                counts["folded"] += len(states)
                return fold_states(states, *args)

            def derive_view(state, alive, *args):
                counts["passes"] += 1
                counts["views"] += len(alive)
                return derive_views(state, alive, *args)

            prune_profile, state, patch = multiuser._profile, bc.beamtree.SearchState, mock.patch.object
            fold_states, derive_views = multiuser.fold, state._derive_view
            with (
                patch(harness, "run_multi_user", engine),
                patch(multiuser, "probe_episodes",
                      counted(multiuser.probe_episodes, counts, "groups")),
                patch(multiuser, "joint_layer",
                      counted(multiuser.joint_layer, counts, "joint keys")),
                patch(multiuser, "fold", fold),
                patch(multiuser, "_profile", profile),
                patch(state, "_derive", counted(state._derive, counts, "derived")),
                patch(state, "_derive_view", derive_view),
            ):
                warm = call()
            timings = alg3_seconds(call, (multiuser.run_multi_user, oracles.one_trial_at_a_time),
                                   repeat)
            with patch(harness, "run_multi_user",
                       functools.partial(oracles.one_trial_at_a_time, fresh=True)):
                fresh = call()
            assert all(records == warm == fresh for records, _, _ in timings), (
                f"engine and per-episode oracle disagree on {scene}"
            )
            peak = f"peak {traced_peak(call) * 1e-6:5.1f} MB  " if algorithms == ["alg3"] else ""
            rounds, kept = counts["rounds"], [m.nbytes for m in memos.values()]
            engine_t, oracle_t = (
                f"{best / rounds * 1e6:6.1f} ({median / rounds * 1e6:6.1f})"
                for _, best, median in timings
            )
            print(f"  {scene:5s} {'+'.join(algorithms)}  trials={n}  "
                  f"trial-rounds={counts['trial-rounds']} in {counts['joint keys']} joint keys  "
                  f"user-rounds={rounds} in {counts['groups']} probing groups, folded as "
                  f"{counts['folded']} states  views derived={counts['views']} in "
                  f"{counts['passes']} passes for {counts['derived']} states  "
                  f"memo hit rate={1 - counts['views'] / counts['derived']:.2f}  "
                  f"profiles hit rate={counts['hits'] / max(1, counts['profiles']):.2f} "
                  f"of {counts['profiles']}, kept {sum(kept) * 1e-3:.0f} kB "
                  f"(max {max(kept, default=0) * 1e-3:.0f} kB a user)  "
                  f"alg3 engine {engine_t} (per-episode oracle {oracle_t}, speedup "
                  f"{timings[1][1] / timings[0][1]:4.2f}x)  {peak}same records: True")


BASELINE_SCENES = ("desk", "large")


def bench_baselines(trials_per_scene, repeat: int) -> None:
    print("baselines, one run_trials call at the config's SNR points, seed 0: "
          "batched against one oracle episode at a time, best (median) of the repeats:")
    for scene, n in zip(BASELINE_SCENES, trials_per_scene):
        config = bc.load_scenario(ROOT / "configs" / f"{scene}.json")
        book = bc.build_codebook(config.array.num_antennas)
        gain_map = bc.build_ckm(config.environment, config.array, book, config.grid)
        for algo, name in (("baseline-hier", "baseline_hierarchical"),
                           ("baseline-exhaustive", "baseline_exhaustive")):

            def call():
                return bc.run_trials(config, gain_map, algorithms=[algo], trials=n, seed=0)

            def per_episode():
                oracle = oracles.one_episode_at_a_time(getattr(oracles, name))
                with mock.patch.object(harness, name, oracle):
                    return call()

            records, best_b, med_b = bench(call, repeat=repeat)
            want, best_o, med_o = bench(per_episode, repeat=repeat)
            assert records == want, f"batched and per-episode {algo} disagree on {scene}"
            print(f"  {scene:5s} {algo}  trials={n}  batched={best_b / n * 1e3:6.3f} "
                  f"({med_b / n * 1e3:6.3f}) ms/trial  per-episode={best_o / n * 1e3:6.3f} "
                  f"({med_o / n * 1e3:6.3f}) ms/trial  speedup={best_o / best_b:5.1f}x  "
                  "same records: True")


SETUP_SCENES = ("desk", "large", "deep")


def alternated(pairs, repeat: int):
    """Each ``(fn, args)`` of ``pairs`` called once per round for ``repeat``
    rounds: the last output, and the least and median time of each."""
    times, out = [[] for _ in pairs], [None] * len(pairs)
    for _ in range(repeat):
        for i, (fn, args) in enumerate(pairs):
            t0 = time.perf_counter()
            out[i] = fn(*args)
            times[i].append(time.perf_counter() - t0)
    return [(o, min(t), float(np.median(t))) for o, t in zip(out, times)]


def bench_call_setup(trials_per_scene, repeat: int) -> None:
    print("call set-up, per run_trials call at perfbench's call sizes, "
          "best (median) of the alternated repeats:")
    for scene, n in zip(SETUP_SCENES, trials_per_scene):
        config = bc.load_scenario(ROOT / "configs" / f"{scene}.json")
        n_ant, K = config.array.num_antennas, len(config.priors)
        book = bc.build_codebook(n_ant)
        gain_map = bc.build_ckm(config.environment, config.array, book, config.grid)
        rng = np.random.default_rng(0)
        drawn = [bc.position.sample_true_position(config.priors[e % K], rng) for e in range(n * K)]
        points = list(dict.fromkeys(drawn))  # distinct, in order of first draw
        channels = bc.channel.synthesize_channel(
            config.environment, config.array, config.grid.positions(np.array(points)))
        L = gain_map.num_layers
        (per_point, *t_pp), (stacked, *t_st) = alternated(
            [(oracles.gains_per_point, (book, channels, L)),
             (harness._bottom_gains, (book, channels, L))], repeat)
        assert per_point.tobytes() == stacked.tobytes(), f"oracle gains differ on {scene}"
        inputs = [(s.point_ids, s.point_mass, s.gains, s.beta, s.retain_beams) for s in (
            bc.beamtree.compute_point_weights(gain_map, p, config.beta, config.retain_beams)
            for p in config.priors)]
        kept = [(ids, mass, gains[:, layer_rows(L)], oracles.threshold_keep(
            gains[:, layer_rows(L)], beta, retain)) for ids, mass, gains, beta, retain in inputs]
        (states, *t_state), (dense, *t_dense) = alternated(
            [(lambda: [bc.beamtree.SearchState(*i) for i in inputs], ()),
             (lambda: [oracles.dense_contributions(m, b, k) for _, m, b, k in kept], ())], repeat)
        for state, (contrib, nonzero) in zip(states, dense):
            assert contrib.tobytes() == state.contrib.tobytes() and all(
                a.tobytes() == b.tobytes() for a, b in zip(nonzero, state._nonzero, strict=True)
            ), f"contributions differ from the dense product on {scene}"

        def ms(best, median):
            return f"{best * 1e3:7.3f} ({median * 1e3:7.3f})"

        print(f"  {scene:5s} N={n_ant} trials={n} points={len(points)} users={K}  "
              f"oracle gains per point={ms(*t_pp)} stacked={ms(*t_st)} ms  "
              f"states built={ms(*t_state)} dense contributions alone={ms(*t_dense)} ms  "
              "same bytes: True")


SEARCHES = {"alg1": ("run_single_user", strategy.optimal_layer),
            "alg2": ("run_lookahead", lookahead.next_layer)}


def bench_searches(trials_per_scene, repeat: int) -> None:
    print("alg1 and alg2, one run_trials call at the config's SNR points, seed 0: "
          "batched against one oracle episode at a time, best (median) of the repeats:")
    for scene, n in zip(BASELINE_SCENES, trials_per_scene):
        config = bc.load_scenario(ROOT / "configs" / f"{scene}.json")
        book = bc.build_codebook(config.array.num_antennas)
        gain_map = bc.build_ckm(config.environment, config.array, book, config.grid)
        for algo, (name, choose_layer) in SEARCHES.items():

            def call():
                return bc.run_trials(config, gain_map, algorithms=[algo], trials=n, seed=0)

            def per_episode():
                with mock.patch.object(harness, name, oracles.one_search_at_a_time(choose_layer)):
                    return call()

            counts = dict.fromkeys(("rounds", "groups", "levels", "derived", "passes", "views"), 0)

            def counted_search(states, batch):
                result = search(states, batch)
                counts["rounds"] += len(result[2])
                return result

            def derive_view(state, alive, *args):
                counts["passes"] += 1
                counts["views"] += len(alive)
                return derive_views(state, alive, *args)

            search, state, patch = getattr(harness, name), bc.beamtree.SearchState, mock.patch.object
            derive_views = state._derive_view
            with (patch(harness, name, counted_search),
                  patch(strategy, "probe_episodes",
                        counted(strategy.probe_episodes, counts, "groups")),
                  patch(strategy, "apply_observation",
                        counted(strategy.apply_observation, counts, "levels")),
                  patch(state, "_derive", counted(state._derive, counts, "derived")),
                  patch(state, "_derive_view", derive_view)):
                call()
            records, best_b, med_b = bench(call, repeat=repeat)
            want, best_o, med_o = bench(per_episode, repeat=repeat)
            assert records == want, f"batched and per-episode {algo} disagree on {scene}"
            print(f"  {scene:5s} {algo}  trials={n}  episode rounds={counts['rounds']} "
                  f"in {counts['groups']} probing array rounds over {counts['levels']} levels  "
                  f"views derived={counts['views']} in {counts['passes']} passes "
                  f"for {counts['derived']} states  "
                  f"batched={best_b / n * 1e3:6.3f} ({med_b / n * 1e3:6.3f}) ms/trial  "
                  f"per-episode={best_o / n * 1e3:6.3f} ({med_o / n * 1e3:6.3f}) ms/trial  "
                  f"speedup={best_o / best_b:5.1f}x  same records: True")


FULL_SCENES = ("desk", "large", "deep")


def bench_full_size(trials_per_scene, repeat: int) -> None:
    print("full size, one run_trials call per algorithm at the config's SNR points, seed 0: "
          "best (median) of the repeats, and the call's tracemalloc peak:")
    for scene, n in zip(FULL_SCENES, trials_per_scene):
        config = bc.load_scenario(ROOT / "configs" / f"{scene}.json")
        book = bc.build_codebook(config.array.num_antennas)
        gain_map = bc.build_ckm(config.environment, config.array, book, config.grid)
        for algo in config.algorithms:

            def call():
                return bc.run_trials(config, gain_map, algorithms=[algo], trials=n, seed=0)

            _, best, median = bench(call, repeat=repeat)
            print(f"  {scene:5s} {algo:19s} trials={n} snr points={len(config.snr_db)}  "
                  f"{best * 1e3:8.1f} ({median * 1e3:8.1f}) ms  "
                  f"peak {traced_peak(call) * 1e-6:6.1f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trees", type=int, default=20,
                        help="random trees per depth for the planning workload")
    parser.add_argument("--layers", type=int, nargs="+", default=[5, 7, 9, 10],
                        help="codebook depths for the planning workload")
    parser.add_argument("--map-spacing", type=float, default=0.5,
                        help="grid spacing in metres of the large scene's map build")
    parser.add_argument("--streams", type=int, nargs="+", default=[720, 15_000],
                        help="noise-stream counts for the stream-seeding stage")
    parser.add_argument("--alg3-trials", type=int, nargs=3, default=[200, 100, 20],
                        metavar=ALG3_SCENES, help="trials of the alg3-only calls per scene")
    parser.add_argument("--alg3-full-trials", type=int, nargs=3, default=[1000, 1000, 1000],
                        metavar=ALG3_SCENES,
                        help="trials of the calls of each config's own algorithm list")
    parser.add_argument("--baseline-trials", type=int, nargs=2, default=[300, 100],
                        metavar=BASELINE_SCENES,
                        help="trials of the baseline, alg1 and alg2 calls per scene")
    parser.add_argument("--setup-trials", type=int, nargs=3, default=[30, 20, 16],
                        metavar=SETUP_SCENES, help="trials of one call's set-up per scene")
    parser.add_argument("--full-trials", type=int, nargs=3, default=[1000, 1000, 300],
                        metavar=FULL_SCENES, help="trials of the full-size calls per scene")
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

    print(f"probing, a cold fill of {FILL_CHANNELS} drawn channels x every bottom row:")
    for n in PROBE_ANTENNAS:
        codebook = bc.build_codebook(n)
        draw = np.random.default_rng(n)
        hs = draw.standard_normal((FILL_CHANNELS, n)) + 1j * draw.standard_normal((FILL_CHANNELS, n))
        points = np.arange(FILL_CHANNELS)[:, None]
        rows = np.arange(len(codebook))[layer_rows(layers_of(len(codebook)))][None]
        want, best_v, _ = bench(oracles.responses_by_vdot, hs, codebook, points, rows,
                                repeat=args.repeat)
        got, best_t, _ = bench(fill_by_take, hs, codebook, points, rows, repeat=args.repeat)
        assert got.tobytes() == want.tobytes(), f"fills disagree at N={n}"
        print(f"  N={n}  {got.size} entries  per-entry vdot={best_v * 1e3:7.3f} ms  "
              f"batched take={best_t * 1e3:7.3f} ms  "
              f"speedup={best_v / best_t:5.1f}x  same values: True")

    bench_map_build(args.map_spacing, args.repeat)
    bench_stream_seeding(args.streams, args.repeat)
    bench_alg3(args.alg3_trials, args.alg3_full_trials, args.repeat)
    bench_baselines(args.baseline_trials, args.repeat)
    bench_call_setup(args.setup_trials, args.repeat)
    bench_searches(args.baseline_trials, args.repeat)
    bench_full_size(args.full_trials, args.repeat)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
