"""Every lookup site that the per-layer benchmark tracer wraps must exist.

``perfbench/tracer.py`` patches beamckm functions by (module, attribute)
name. A refactor that drops one of those names would only show when a
traced benchmark run crashes, so this loads the tracer by path, without
importing the benchmark runner, and resolves each site here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = load_tracer().SITES


def test_sites_listed():
    assert SITES
    assert ("harness", "synthesize_channel", "channel.synthesize_channel") in SITES


@pytest.mark.parametrize("module_name, attr, span", SITES, ids=[f"{m}.{a}" for m, a, _ in SITES])
def test_site_resolves(module_name, attr, span):
    module = importlib.import_module(f"beamckm.{module_name}")
    assert callable(getattr(module, attr))
    # the span names the function the site is expected to hold
    assert getattr(module, attr).__name__ == span.rpartition(".")[2]
