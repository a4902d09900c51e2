"""Map-aided hierarchical beam training: codebooks, gain maps, search
strategies, and a reproducible Monte-Carlo harness.

The package exports the names in ``__all__``: what a map build, a sweep
and its summary call, and the types they take or return. The internals
are imported from their modules (``beamckm.beamtree.SearchState``)."""

from .channel import ArrayConfig, Environment, Obstacle, Scatterer
from .ckm import CkmFormatError, CkmGrid, GridSpec, build_ckm, load_ckm, save_ckm
from .codebook import BeamId, build_codebook
from .harness import (
    ALGORITHMS,
    RegionSpec,
    ScenarioConfig,
    TrialRecord,
    UserSpec,
    load_scenario,
    read_results_csv,
    run_trials,
    scenario_from_dict,
    summarize,
    write_cdf_csv,
    write_results_csv,
    write_summary_csv,
)
from .position import PositionPrior, SubRegion

__version__ = "0.1.0"

__all__ = [
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
