"""Smoke test of the committed benchmark script: a tiny run must finish
and report that both planners chose the same layers and that the scalar
and batched probes read the same magnitudes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_runs(capsys):
    spec = importlib.util.spec_from_file_location("bench_kernels", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--trees", "2", "--layers", "5", "7", "--repeat", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    lines = [l.split() for l in out if "same layer: True" in l]
    assert [l[1] for l in lines] == ["5", "7"]
    probes = [l.split()[0] for l in out if "same magnitudes: True" in l]
    assert probes == ["N=32", "N=128", "N=1024"]
