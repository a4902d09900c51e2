"""Tests of the benchmark itself: tiny runs, output checks, tracer cleanup.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402  (puts the repository's src/ on sys.path)
from checks import check_records  # noqa: E402
from tracer import SITES, Tracer  # noqa: E402

from beamckm import harness  # noqa: E402
from beamckm.codebook import BeamId  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TRIALS = 2


def tiny(name: str) -> bench.Workload:
    """The named workload cut down to a second or two of work."""
    wl = bench.WORKLOADS[name]
    spacing = None if wl.spacing is None else 4.0
    return dataclasses.replace(wl, trials=TRIALS, block_trials=1, spacing=spacing)


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return tmp_path


def run_cli(name, trace, monkeypatch, capsys, seed=3):
    monkeypatch.setitem(bench.WORKLOADS, name, tiny(name))
    monkeypatch.setattr(bench, "MIN_PASSES", 1)
    argv = ["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, out_dir, monkeypatch, capsys):
    result, out = run_cli(name, trace, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    for metric, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), metric
        line = rf"^\s+{re.escape(metric)}\s+\S+\s+{re.escape(m['unit'])}$"
        assert re.search(line, out, re.MULTILINE), metric


def test_same_seed_gives_identical_records_traced_or_not(tmp_path, monkeypatch, capsys):
    files = []
    for i, trace in enumerate((0, 0, 1)):
        monkeypatch.setattr(bench, "OUT", tmp_path / str(i))
        run_cli("desk-sweep", trace, monkeypatch, capsys, seed=11)
        files.append((tmp_path / str(i) / f"records-desk-sweep-seed11-trace{trace}.csv").read_bytes())
    assert files[0] == files[1] == files[2]


@pytest.fixture(scope="module")
def desk_records():
    setup = bench.set_up(tiny("desk-sweep"))
    records = {
        algo: harness.run_trials(
            setup.config,
            setup.gain_map,
            algorithms=[algo],
            trials=TRIALS,
            seed=5,
            snr_db=bench.SNR_DB,
        )
        for algo in harness.ALGORITHMS
    }
    return setup, records


def check(setup, algo, records):
    cfg = setup.config
    return check_records(
        records, algo, TRIALS, bench.SNR_VALUES, len(cfg.users), cfg.array.num_antennas
    )


def test_clean_records_pass_every_check(desk_records):
    setup, records = desk_records
    for algo, recs in records.items():
        assert check(setup, algo, recs) == [], algo


def _first(recs, **changes):
    return [dataclasses.replace(recs[0], **changes)] + recs[1:]


def _miss_noiseless(recs):
    out = list(recs)
    i = next(i for i, r in enumerate(out) if math.isinf(r.snr_db))
    oracle = out[i].oracle
    wrong = BeamId(oracle.layer, oracle.index % 2**oracle.layer + 1)
    out[i] = dataclasses.replace(out[i], chosen=wrong)
    return out


def _uneven_alg3_total(recs):
    cell = (recs[0].trial_id, recs[0].snr_db)
    return [
        dataclasses.replace(r, overhead=r.overhead + 0.1)
        if (r.trial_id, r.snr_db) == cell
        else r
        for r in recs
    ]


CORRUPTIONS = {
    "dropped record": ("alg1", lambda r: r[1:]),
    "duplicated record": ("alg2", lambda r: r[:-1] + r[:1]),
    "wrong algorithm": ("alg1", lambda r: _first(r, algorithm="alg2")),
    "upper-layer chosen beam": ("alg1", lambda r: _first(r, chosen=BeamId(1, 1))),
    "upper-layer oracle beam": ("alg2", lambda r: _first(r, oracle=BeamId(2, 3))),
    "positive gain ratio": ("alg3", lambda r: _first(r, gain_ratio_db=0.25)),
    "NaN gain ratio": ("alg1", lambda r: _first(r, gain_ratio_db=math.nan)),
    "hierarchical overhead": ("baseline-hier", lambda r: _first(r, overhead=r[0].overhead - 2)),
    "exhaustive overhead": ("baseline-exhaustive", lambda r: _first(r, overhead=31.0)),
    "alg3 shares differ": ("alg3", lambda r: _first(r, overhead=r[0].overhead + 1.0)),
    "alg3 total not an integer": ("alg3", _uneven_alg3_total),
    "noiseless exhaustive miss": ("baseline-exhaustive", _miss_noiseless),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_record_fails_the_checks(corruption, desk_records):
    setup, records = desk_records
    algo, corrupt = CORRUPTIONS[corruption]
    assert check(setup, algo, corrupt(records[algo]))


def test_corrupted_sweep_counts_as_failed_operation(out_dir, monkeypatch, capsys):
    real = harness.run_trials

    def corrupted(*args, **kwargs):
        recs = real(*args, **kwargs)
        return _first(recs, gain_ratio_db=1.0)

    monkeypatch.setattr(harness, "run_trials", corrupted)
    result, _ = run_cli("desk-sweep", 0, monkeypatch, capsys)
    assert result["correct"] is False
    assert result["failed"] == len(harness.ALGORITHMS)
    assert result["attempted"] == 1 + len(harness.ALGORITHMS)


def test_failed_reload_counts_as_failed_operation(out_dir, monkeypatch, capsys):
    real = bench.ckm.load_ckm

    def damaged(blob):
        loaded = real(blob)
        loaded.gains[0, 0] += 1.0
        return loaded

    monkeypatch.setattr(bench.ckm, "load_ckm", damaged)
    result, _ = run_cli("map-build", 0, monkeypatch, capsys)
    assert result["correct"] is False
    assert result["failed"] == 1


def _site_values():
    return [
        getattr(importlib.import_module(f"beamckm.{module}"), attr) for module, attr, _ in SITES
    ]


def test_traced_run_restores_every_wrapped_attribute(out_dir, monkeypatch, capsys):
    before = _site_values()
    run_cli("large-sweep", 1, monkeypatch, capsys)
    after = _site_values()
    assert all(a is b for a, b in zip(after, before))


def test_tracer_restores_attributes_when_traced_work_raises():
    before = _site_values()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert all(a is not b for a, b in zip(_site_values(), before))
            raise RuntimeError("traced work failed")
    assert all(a is b for a, b in zip(_site_values(), before))


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "desk-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_overhead_ratio_is_a_share_of_untraced_throughput(out_dir, monkeypatch, capsys):
    result, _ = run_cli("desk-sweep", 1, monkeypatch, capsys)
    assert 0.0 < result["metrics"]["trace.overhead_ratio"]["value"] < 1.0
