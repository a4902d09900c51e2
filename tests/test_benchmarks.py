"""Smoke test of the committed benchmark script: a tiny run must finish
and report that both planners chose the same layers, that a batched
response fill reads the values of one ``np.vdot`` per entry, that the map
build's channel routine and staged build match their references, and that
the stream table loads the states default_rng seeds.  The map build's
BCKM round trip must report that the saved map loads back equal, the alg3
section must time the set-up of one user's search state per scene, alg3
sweeps, alone and beside the other searches, must time the lock-step
engine (best and median) beside the per-episode oracle, count
trial-rounds against joint keys and fold members against the states and
views they folded into, and report equal records, and the batched
baselines, alg1 and alg2 the records of their per-episode oracles, each
time as best (median); alg1 and alg2 must count the levels they walked
and the views they derived against the passes that derived them.  The call set-up section must time, per scene,
the per-point against the stacked oracle gains and the built search
states beside the dense contribution product, each pair with equal
bytes, and the full-size section one call per (scene, algorithm) as best
(median) with its peak."""

import importlib.util
import re
from pathlib import Path

import beamckm as bc

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv = ["--trees", "2", "--layers", "5", "7", "--repeat", "1", "--map-spacing", "8",
            "--streams", "7", "50", "--alg3-trials", "2", "2", "1",
            "--alg3-full-trials", "2", "1", "1", "--baseline-trials", "3", "2",
            "--setup-trials", "2", "2", "1", "--full-trials", "2", "1", "1"]
    assert module.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    lines = [l.split() for l in out if "same layer: True" in l]
    assert [l[1] for l in lines] == ["5", "7"]
    fills = [l.split()[0] for l in out if "same values: True" in l]
    assert fills == ["N=32", "N=128", "N=1024"]
    assert sum("same channels: True" in l for l in out) == 1
    assert sum("same gains: True" in l for l in out) == 1
    streams = [l.split()[0] for l in out if "same states: True" in l]
    assert streams == ["streams=7", "streams=50"]
    sweeps = [l.split()[:2] for l in out if "same records: True" in l]
    full = "alg1+alg2+alg3+baseline-hier+baseline-exhaustive"
    scenes = ("desk", "large", "deep")
    baselines = ("baseline-hier", "baseline-exhaustive")
    assert sweeps == [[scene, algos] for scene in scenes for algos in ("alg3", full)] + [
        [scene, algo] for scene in scenes[:2] for algo in baselines
    ] + [[scene, algo] for scene in scenes[:2] for algo in ("alg1", "alg2")]
    # each alg3 line: engine and oracle, best (median) of the repeats
    timed = r"[\d.]+ \( *[\d.]+\)"
    alg3 = [l for l in out if "per-episode oracle" in l]
    assert [l.split()[:2] for l in alg3] == [[s, a] for s in scenes for a in ("alg3", full)]
    # each scene's state set-up, best (median) per user of the repeats
    setup = [l for l in out if "compute_point_weights" in l]
    assert [l.split()[:2] for l in setup] == [[s, "set-up:"] for s in scenes]
    assert all(re.search(f"compute_point_weights +{timed} us per user$", l) for l in setup)
    pattern = f"alg3 engine +{timed} \\(per-episode oracle +{timed}, speedup [\\d.]+x\\)"
    assert all(re.search(pattern, l) and "same records: True" in l for l in alg3)
    # what the grouping buys: trial-rounds against joint keys, fold members against views
    grouping = (r"trial-rounds=(\d+) in (\d+) joint keys  user-rounds=(\d+) in \d+ probing "
                r"groups, folded as (\d+) states  views derived=(\d+) in \d+ passes")
    for line in alg3:
        trial_rounds, keys, members, folded, views = map(int, re.search(grouping, line).groups())
        assert 0 < keys <= trial_rounds <= members and 0 < folded <= members and views > 0
    # the baselines, alg1 and alg2: best (median) per trial of the batched and the oracle runs
    timed_ms = r"[\d.]+ \( *[\d.]+\) ms/trial"
    batched = [l for l in out if "batched=" in l]
    assert len(batched) == 8 and all(
        re.search(f"batched= *{timed_ms}.*per-episode= *{timed_ms}", l) for l in batched)
    # alg1 and alg2: the levels walked, the views derived and the passes that derived them
    searched = (r"probing array rounds over (\d+) levels  views derived=(\d+) in (\d+) passes "
                r"for (\d+) states")
    searches = [l for l in out if re.search(searched, l)]
    assert [l.split()[:2] for l in searches] == [[s, a] for s in scenes[:2] for a in ("alg1", "alg2")]
    for line in searches:
        levels, views, passes, derived = map(int, re.search(searched, line).groups())
        assert 0 < levels and 0 < passes <= views <= derived
    # the call set-up: per-point against stacked gains, built states beside the dense
    # product, best (median) in ms
    setup = [l for l in out if "same bytes: True" in l]
    assert [l.split()[0] for l in setup] == list(scenes)
    pairs = [("oracle gains per point", "stacked"), ("states built", "dense contributions alone")]
    pattern = "  ".join(f"{old}= *{timed} {new}= *{timed} ms" for old, new in pairs)
    assert all(re.search(pattern, l) for l in setup)
    # full size: one call per scene and algorithm, best (median) and its peak
    pattern = f"snr points=6 +{timed} ms +peak +[\\d.]+ MB$"
    full_size = [l.split()[:3] for l in out if re.search(pattern, l)]
    assert full_size == [[s, a, f"trials={n}"]
                         for s, n in zip(scenes, (2, 1, 1)) for a in bc.ALGORITHMS]


def test_map_round_trip_reports_same_map(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.bench_map_build(8.0, 1)
    out = capsys.readouterr().out.splitlines()
    assert sum("same map: True" in l for l in out) == 1
