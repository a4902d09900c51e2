"""Every lookup site that the per-layer benchmark tracer wraps must exist
and stay on the runtime path.

``perfbench/tracer.py`` patches beamckm functions by (module, attribute)
name. A refactor that drops one of those names would only show when a
traced benchmark run crashes, and one that stops calling a wrapped name
would only show as a metric that reads 0. So this loads the tracer by
path, without importing the benchmark runner, resolves each site, and runs
a short traced sweep.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import beamckm as bc

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
CONFIGS = ROOT / "configs"


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


def test_traced_sweep_reaches_every_episode_and_decision_site():
    """A traced desk sweep writes the untraced records, and each episode
    function and per-round decision the tracer reports on runs under it.

    A site that still resolves but has left the runtime path would record
    no span here, and its per-layer metrics would read 0."""
    tracer_module = load_tracer()
    config = bc.load_scenario(CONFIGS / "desk.json")
    ckm = bc.build_ckm(
        config.environment, config.array, bc.build_codebook(config.array.num_antennas), config.grid
    )

    def sweep():
        return bc.run_trials(config, ckm, algorithms=bc.ALGORITHMS, trials=2, seed=0)

    plain = sweep()
    tracer = tracer_module.Tracer()
    with tracer.installed():
        traced = sweep()
    assert traced == plain
    recorded = {span[0] for span in tracer.spans}
    expected = set(tracer_module.EPISODES) | {
        "multiuser.joint_layer",
        "lookahead.subtree_view",
        "strategy.optimal_layer",
        "channel.synthesize_channel",
        "channel.trace_point_paths",
    }
    assert expected <= recorded, sorted(expected - recorded)


def test_traced_map_build_reaches_the_tracer_site():
    """A traced map build writes the untraced map, and its path tracing runs
    under the ``ckm`` site, inside the build's span."""
    ckm_module = importlib.import_module("beamckm.ckm")
    config = bc.load_scenario(CONFIGS / "desk.json")
    grid = bc.GridSpec(16.0, 8.0, 2.0, 2.0, config.grid.origin)

    def build():
        return ckm_module.build_ckm(
            config.environment, config.array, bc.build_codebook(config.array.num_antennas), grid
        )

    plain = build()
    tracer = load_tracer().Tracer()
    with tracer.installed():
        traced = build()
    assert traced == plain
    builds = [i for i, span in enumerate(tracer.spans) if span[0] == "ckm.build_ckm"]
    assert len(builds) == 1
    traces = [span for span in tracer.spans if span[0] == "channel.trace_point_paths"]
    assert [span[3] for span in traces] == builds
