"""Map-aided hierarchical beam training: codebooks, gain maps, search
strategies, and a reproducible Monte-Carlo harness."""

from .beamtree import (
    SearchState,
    apply_observation,
    candidate_beams,
    compute_point_weights,
)
from .channel import (
    ArrayConfig,
    Environment,
    Episodes,
    Obstacle,
    Responses,
    Scatterer,
    channel_vectors,
    probe,
    synthesize_channel,
)
from .ckm import (
    CkmFormatError,
    CkmGrid,
    GridSpec,
    build_ckm,
    load_ckm,
    save_ckm,
)
from .codebook import (
    BeamId,
    bottom_angles,
    build_codebook,
    num_layers,
)
from .harness import (
    ALGORITHMS,
    RegionSpec,
    ScenarioConfig,
    TrialRecord,
    UserSpec,
    baseline_exhaustive,
    baseline_hierarchical,
    load_scenario,
    noise_std_for_snr,
    read_results_csv,
    region_points,
    run_trials,
    scenario_from_dict,
    summarize,
    write_cdf_csv,
    write_results_csv,
    write_summary_csv,
)
from .lookahead import run_lookahead
from .multiuser import run_multi_user
from .position import PositionPrior, SubRegion, sample_true_position
from .strategy import best_activation, optimal_layer, run_single_user

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ArrayConfig",
    "BeamId",
    "CkmFormatError",
    "CkmGrid",
    "Environment",
    "Episodes",
    "GridSpec",
    "Obstacle",
    "PositionPrior",
    "RegionSpec",
    "Responses",
    "Scatterer",
    "ScenarioConfig",
    "SearchState",
    "SubRegion",
    "TrialRecord",
    "UserSpec",
    "apply_observation",
    "baseline_exhaustive",
    "baseline_hierarchical",
    "best_activation",
    "bottom_angles",
    "build_ckm",
    "build_codebook",
    "candidate_beams",
    "channel_vectors",
    "compute_point_weights",
    "load_ckm",
    "load_scenario",
    "noise_std_for_snr",
    "num_layers",
    "optimal_layer",
    "probe",
    "read_results_csv",
    "region_points",
    "run_lookahead",
    "run_multi_user",
    "run_single_user",
    "run_trials",
    "sample_true_position",
    "save_ckm",
    "scenario_from_dict",
    "summarize",
    "synthesize_channel",
    "write_cdf_csv",
    "write_results_csv",
    "write_summary_csv",
]
