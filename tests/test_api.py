"""The package exports the simulator's API and nothing else.

``beamckm`` binds what a map build, a sweep and its summary call, and the
types they take or return. Internal functions and types are reached
through their own modules (``beamckm.beamtree.SearchState``)."""

import importlib
import types

import pytest

import beamckm as bc

API = [
    "ALGORITHMS",
    "ArrayConfig",
    "BeamId",
    "CkmFormatError",
    "CkmGrid",
    "Environment",
    "GridSpec",
    "Obstacle",
    "PositionPrior",
    "RegionSpec",
    "Scatterer",
    "ScenarioConfig",
    "SubRegion",
    "TrialRecord",
    "UserSpec",
    "build_ckm",
    "build_codebook",
    "load_ckm",
    "load_scenario",
    "read_results_csv",
    "run_trials",
    "save_ckm",
    "scenario_from_dict",
    "summarize",
    "write_cdf_csv",
    "write_results_csv",
    "write_summary_csv",
]

# names the package no longer exports, by the module that defines them
INTERNAL = {
    "channel": ["Episodes", "Responses", "channel_vectors", "probe", "synthesize_channel"],
    "beamtree": ["SearchState", "apply_observation", "candidate_beams", "compute_point_weights"],
    "strategy": ["best_activation", "optimal_layer", "run_single_user"],
    "lookahead": ["run_lookahead"],
    "multiuser": ["run_multi_user"],
    "harness": ["baseline_exhaustive", "baseline_hierarchical", "noise_std_for_snr", "region_points"],
    "codebook": ["bottom_angles", "num_layers"],
    "position": ["sample_true_position"],
}


def test_all_lists_the_api_and_each_name_resolves():
    assert bc.__all__ == API
    for name in API:
        assert getattr(bc, name) is not None


def test_package_binds_no_other_public_name():
    public = {
        name
        for name, value in vars(bc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(API)


@pytest.mark.parametrize(
    "module_name, name",
    [(m, n) for m, names in INTERNAL.items() for n in names],
    ids=[f"{m}.{n}" for m, names in INTERNAL.items() for n in names],
)
def test_internal_name_stays_in_its_module(module_name, name):
    module = importlib.import_module(f"beamckm.{module_name}")
    assert getattr(module, name).__module__ == module.__name__
    assert name not in vars(bc)
