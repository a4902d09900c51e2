"""Monte-Carlo harness: scenario configs, paired trial runs, summaries.

A scenario JSON pins the array, the map grid, the propagation environment,
the per-user location priors, and the sweep settings.  Trials are paired:
every algorithm and SNR point sees the same sampled user positions, and
the per-probe noise stream depends only on (seed, trial, SNR index, user),
so algorithm comparisons are common-random-number comparisons.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .beamtree import compute_point_weights
from .channel import (
    ArrayConfig,
    Environment,
    Obstacle,
    Scatterer,
    _check_point,
    responses,
    synthesize_channel,
)
from .ckm import CkmGrid, GridSpec
from .codebook import BeamId, HierarchicalCodebook, build_codebook
from .lookahead import run_lookahead
from .multiuser import run_multi_user
from .position import PositionPrior, SubRegion, sample_true_position
from .strategy import ProbeRound, probe_round, run_single_user

# unused here; perfbench's tracer looks this name up on this module
from .channel import probe  # noqa: F401

ALGORITHMS = ("alg1", "alg2", "alg3", "baseline-hier", "baseline-exhaustive")

CSV_FIELDS = (
    "trial_id",
    "algorithm",
    "snr_db",
    "user_id",
    "overhead",
    "chosen_layer",
    "chosen_index",
    "oracle_layer",
    "oracle_index",
    "gain_ratio_db",
    "se_bps_hz",
)


@dataclass(frozen=True)
class RegionSpec:
    """One prior region: an axis-aligned rectangle (grid points whose cell
    centers fall inside, bounds closed) or an explicit coordinate list."""

    prior: float
    rect: tuple[float, float, float, float] | None = None
    points: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if (self.rect is None) == (self.points is None):
            raise ValueError("region needs exactly one of 'rect' or 'points'")
        if self.rect is not None:
            r = np.asarray(self.rect, dtype=float)
            if r.shape != (4,) or not np.isfinite(r).all():
                raise ValueError(
                    f"rect must be four finite numbers [x0, y0, x1, y1], got {self.rect!r}"
                )
        for k, p in enumerate(self.points or ()):
            _check_point(p, f"points[{k}]")


@dataclass(frozen=True)
class UserSpec:
    subregions: tuple[RegionSpec, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    array: ArrayConfig
    grid: GridSpec
    environment: Environment
    users: tuple[UserSpec, ...]
    snr_db: tuple[float, ...]
    trials: int = 1000
    seed: int = 0
    beta: float = 0.5
    eta: float = 0.9
    algorithms: tuple[str, ...] = ALGORITHMS
    ckm_staleness_sigma: float = 0.0
    retain_beams: int | None = None
    name: str = "scenario"

    def __post_init__(self):
        if not self.users:
            raise ValueError("scenario needs at least one user")
        if not self.snr_db:
            raise ValueError("scenario needs at least one SNR point")
        _check_snrs(self.snr_db)
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.retain_beams is not None and self.retain_beams < 1:
            raise ValueError(f"retain_beams must be >= 1 or null, got {self.retain_beams}")
        if not (math.isfinite(self.ckm_staleness_sigma) and self.ckm_staleness_sigma >= 0.0):
            raise ValueError(
                f"ckm_staleness_sigma must be finite and >= 0, got {self.ckm_staleness_sigma}"
            )
        _check_algorithms(self.algorithms)
        # a scatterer on the BS or a region covering no grid point fails here, not mid-run
        self.environment.geometry_arrays(self.array.bs_position)
        user_priors(self)


def _check_keys(obj: dict, allowed: dict, where: str) -> None:
    """Strict schema guard: unknown keys are config bugs, not extensions."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in {where}")
    missing = sorted(k for k, required in allowed.items() if required and k not in obj)
    if missing:
        raise ValueError(f"missing key(s) {missing} in {where}")


def _check_algorithms(algos) -> None:
    """A sweep runs each algorithm once: at least one, none repeated."""
    bad = [a for a in algos if a not in ALGORITHMS]
    if bad:
        raise ValueError(f"unknown algorithm(s) {bad}; valid: {list(ALGORITHMS)}")
    if not algos:
        raise ValueError("algorithms must name at least one algorithm")
    if len(set(algos)) != len(algos):
        raise ValueError(f"algorithms must not repeat, got {list(algos)}")


def _whole(value, field: str) -> int:
    """An integer; fractions are rejected instead of truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _snr_value(x) -> float:
    if isinstance(x, str):
        s = x.strip().lower()
        if s in ("inf", "infinity"):
            return math.inf
        try:
            return float(s)
        except ValueError:
            raise ValueError(f"SNR entries must be numbers or 'inf', got {x!r}") from None
    return float(x)


def _check_snrs(snrs) -> None:
    """SNR points must be finite numbers or +inf (noiseless)."""
    bad = [s for s in snrs if math.isnan(s) or s == -math.inf]
    if bad:
        raise ValueError(f"SNR entries must be numbers or 'inf', got {bad}")


def scenario_from_dict(cfg: dict) -> ScenarioConfig:
    """Build a validated config from a parsed JSON object."""
    _check_keys(
        cfg,
        {
            "array": True,
            "grid": True,
            "environment": True,
            "users": True,
            "snr_db": True,
            "trials": False,
            "seed": False,
            "beta": False,
            "eta": False,
            "algorithms": False,
            "ckm_staleness_sigma": False,
            "retain_beams": False,
            "name": False,
        },
        "scenario",
    )
    arr = cfg["array"]
    _check_keys(
        arr,
        {"num_antennas": True, "carrier_frequency_hz": True, "bs_position": True},
        "array",
    )
    array = ArrayConfig(
        num_antennas=_whole(arr["num_antennas"], "num_antennas"),
        carrier_frequency_hz=float(arr["carrier_frequency_hz"]),
        bs_position=tuple(float(v) for v in arr["bs_position"]),
    )
    gr = cfg["grid"]
    _check_keys(
        gr,
        {
            "extent_x": True,
            "extent_y": True,
            "spacing_x": True,
            "spacing_y": True,
            "origin": False,
        },
        "grid",
    )
    grid = GridSpec(
        extent_x=float(gr["extent_x"]),
        extent_y=float(gr["extent_y"]),
        spacing_x=float(gr["spacing_x"]),
        spacing_y=float(gr["spacing_y"]),
        origin=tuple(float(v) for v in gr.get("origin", (0.0, 0.0))),
    )
    env = cfg["environment"]
    _check_keys(
        env,
        {
            "scatterers": False,
            "obstacles": False,
            "max_paths": False,
            "pathloss_exponent": False,
            "rng_seed": False,
        },
        "environment",
    )
    scatterers = []
    for i, s in enumerate(env.get("scatterers", [])):
        _check_keys(s, {"position": True, "reflection": True}, f"scatterers[{i}]")
        scatterers.append(
            Scatterer(
                position=tuple(float(v) for v in s["position"]),
                reflection=float(s["reflection"]),
            )
        )
    obstacles = []
    for i, o in enumerate(env.get("obstacles", [])):
        _check_keys(o, {"start": True, "end": True}, f"obstacles[{i}]")
        obstacles.append(
            Obstacle(
                start=tuple(float(v) for v in o["start"]),
                end=tuple(float(v) for v in o["end"]),
            )
        )
    environment = Environment(
        scatterers=tuple(scatterers),
        obstacles=tuple(obstacles),
        max_paths=_whole(env.get("max_paths", 4), "max_paths"),
        pathloss_exponent=float(env.get("pathloss_exponent", 1.0)),
        rng_seed=_whole(env.get("rng_seed", 0), "rng_seed"),
    )
    users = []
    for ui, u in enumerate(cfg["users"]):
        _check_keys(u, {"subregions": True}, f"users[{ui}]")
        regions = []
        for ri, r in enumerate(u["subregions"]):
            _check_keys(
                r,
                {"prior": True, "rect": False, "points": False},
                f"users[{ui}].subregions[{ri}]",
            )
            rect = r.get("rect")
            pts = r.get("points")
            try:
                region = RegionSpec(
                    prior=float(r["prior"]),
                    rect=None if rect is None else tuple(float(v) for v in rect),
                    points=None if pts is None else tuple(tuple(float(v) for v in p) for p in pts),
                )
            except ValueError as exc:
                raise ValueError(f"users[{ui}].subregions[{ri}]: {exc}") from None
            regions.append(region)
        users.append(UserSpec(subregions=tuple(regions)))
    retain = cfg.get("retain_beams")
    return ScenarioConfig(
        array=array,
        grid=grid,
        environment=environment,
        users=tuple(users),
        snr_db=tuple(_snr_value(v) for v in cfg["snr_db"]),
        trials=_whole(cfg.get("trials", 1000), "trials"),
        seed=_whole(cfg.get("seed", 0), "seed"),
        beta=float(cfg.get("beta", 0.5)),
        eta=float(cfg.get("eta", 0.9)),
        algorithms=tuple(cfg.get("algorithms", ALGORITHMS)),
        ckm_staleness_sigma=float(cfg.get("ckm_staleness_sigma", 0.0)),
        retain_beams=None if retain is None else _whole(retain, "retain_beams"),
        name=str(cfg.get("name", "scenario")),
    )


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def region_points(grid: GridSpec, region: RegionSpec) -> np.ndarray:
    """Grid-point indices covered by one region, ascending."""
    if region.rect is not None:
        x0, y0, x1, y1 = region.rect
        if x1 < x0 or y1 < y0:
            raise ValueError(f"rect {region.rect} has negative extent")
        coords = grid.point_coords()
        inside = (
            (coords[:, 0] >= x0)
            & (coords[:, 0] <= x1)
            & (coords[:, 1] >= y0)
            & (coords[:, 1] <= y1)
        )
        idx = np.flatnonzero(inside)
        if idx.size == 0:
            raise ValueError(f"rect {region.rect} covers no grid point")
        return idx
    idx = np.array([grid.snap_index(p) for p in region.points], dtype=np.int64)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("explicit point list snaps onto duplicate grid points")
    return idx


def user_priors(config: ScenarioConfig) -> list[PositionPrior]:
    """One location prior per user from its declared regions."""
    priors = []
    for user in config.users:
        subs = tuple(
            SubRegion(points=tuple(int(i) for i in region_points(config.grid, r)), prior=r.prior)
            for r in user.subregions
        )
        priors.append(PositionPrior(subregions=subs))
    return priors


@dataclass(frozen=True)
class TrialRecord:
    """One user's outcome for one (trial, algorithm, SNR) cell."""

    trial_id: int
    algorithm: str
    snr_db: float
    user_id: int
    overhead: float
    chosen: BeamId
    oracle: BeamId
    gain_ratio_db: float
    se_bps_hz: float


def reference_gain(ckm: CkmGrid) -> float:
    """Scene-scale matched gain: median over grid points of the best
    bottom-layer map gain.  SNR settings are relative to this, so a
    configured SNR describes a typical aligned link, not the raw transmit
    power."""
    best = ckm.bottom_gains.max(axis=0).astype(np.float64)
    return float(np.median(best))


def noise_std_for_snr(snr_db: float, ref_gain: float) -> float:
    """Per-probe complex noise std giving the requested SNR at the
    reference gain; infinite SNR means a noiseless run."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return ref_gain * 10.0 ** (-snr_db / 20.0)


def baseline_hierarchical(
    channel,
    codebook: HierarchicalCodebook,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Map-blind bisection: probe both children at every layer, keep the
    stronger, always 2L probes.  ``channel`` is a channel vector or its
    ``Responses`` to ``codebook``."""
    resp = responses(channel, codebook)
    L = codebook.num_layers
    idx = 1
    transcript = []
    for layer in range(1, L + 1):
        transcript.append(probe_round(resp, layer, (2 * idx - 1, 2 * idx), noise_std, rng))
        idx = transcript[-1].feedback
    return BeamId(L, idx), 2 * L, transcript


def baseline_exhaustive(
    channel,
    codebook: HierarchicalCodebook,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Probe every bottom beam once, keep the strongest.  ``channel`` is a
    channel vector or its ``Responses`` to ``codebook``."""
    L = codebook.num_layers
    beams = range(1, codebook.num_antennas + 1)
    r = probe_round(responses(channel, codebook), L, beams, noise_std, rng)
    return BeamId(L, r.feedback), r.probes, [r]


def _finish(
    trial: int,
    algo: str,
    snr: float,
    user: int,
    overhead: float,
    chosen: BeamId,
    oracle: BeamId,
    gains: np.ndarray,
    sigma: float,
) -> TrialRecord:
    g_c = float(gains[chosen.index - 1])
    g_o = float(gains[oracle.index - 1])
    ratio_db = -math.inf if g_c == 0.0 else 20.0 * math.log10(g_c / g_o)
    se = math.inf if sigma == 0.0 else math.log2(1.0 + (g_c / sigma) ** 2)
    return TrialRecord(trial, algo, snr, user, overhead, chosen, oracle, ratio_db, se)


def run_trials(
    config: ScenarioConfig,
    ckm: CkmGrid,
    algorithms=None,
    trials: int | None = None,
    seed: int | None = None,
    snr_db=None,
) -> list[TrialRecord]:
    """Paired Monte-Carlo sweep over trials x SNR points x algorithms."""
    if ckm.num_antennas != config.array.num_antennas:
        raise ValueError("map antenna count does not match the scenario array")
    if ckm.grid != config.grid:
        raise ValueError("map grid does not match the scenario grid")
    algos = tuple(algorithms) if algorithms is not None else config.algorithms
    _check_algorithms(algos)
    n_trials = config.trials if trials is None else _whole(trials, "trials")
    base_seed = config.seed if seed is None else _whole(seed, "seed")
    if n_trials < 1 or base_seed < 0:
        raise ValueError(f"trials must be >= 1 and seed >= 0, got {n_trials} and {base_seed}")
    snrs = config.snr_db if snr_db is None else tuple(_snr_value(v) for v in snr_db)
    _check_snrs(snrs)
    codebook = build_codebook(config.array.num_antennas)
    priors = user_priors(config)
    K = len(priors)
    L = ckm.num_layers
    ref = reference_gain(ckm)
    bottom = codebook.layer_matrix(L)
    # Every trial's positions first, then one traced batch of the distinct
    # grid points, in order of first draw, so an unreachable point is
    # reported as the first trial to draw it would.
    trial_points = []
    for t in range(n_trials):
        pos_rng = np.random.default_rng([base_seed, 101, t])
        trial_points.append([sample_true_position(priors[k], pos_rng) for k in range(K)])
    row_of: dict[int, int] = {}
    for pts in trial_points:
        for p in pts:
            row_of.setdefault(p, len(row_of))
    coords = np.array([ckm.grid.point_position(p) for p in row_of])
    channels = synthesize_channel(config.environment, config.array, coords)
    gains = [np.abs(bottom @ np.conj(h)) for h in channels]
    # each point's codeword responses, computed on first use and shared by
    # every SNR and algorithm of this call
    resps = [responses(h, codebook) for h in channels]
    best = [BeamId(L, int(np.argmax(g)) + 1) for g in gains]
    # each user's search state is built once; episodes start from copies
    states = None
    if {"alg1", "alg2", "alg3"} & set(algos):
        states = [
            compute_point_weights(ckm, p, config.beta, retain_beams=config.retain_beams)
            for p in priors
        ]
    records: list[TrialRecord] = []
    for t, pts in enumerate(trial_points):
        rows = [row_of[p] for p in pts]
        resp = [resps[r] for r in rows]
        gvecs = [gains[r] for r in rows]
        oracles = [best[r] for r in rows]
        for si, snr in enumerate(snrs):
            sigma = noise_std_for_snr(snr, ref)
            # every algorithm draws the same noise: seed once, rewind for the next
            rngs = [np.random.default_rng([base_seed, 202, t, si, k]) for k in range(K)]
            starts = [r.bit_generator.state for r in rngs] if len(algos) > 1 else []
            for ai, algo in enumerate(algos):
                if ai:
                    for r, start in zip(rngs, starts):
                        r.bit_generator.state = start
                if algo == "alg3":
                    chosen, total, _ = run_multi_user(
                        ckm, states, resp, sigma, config.beta, config.eta,
                        codebook=codebook, rngs=rngs, retain_beams=config.retain_beams,
                    )
                    overheads = [total / K] * K
                else:
                    chosen, overheads = [], []
                    for k in range(K):
                        if algo in ("alg1", "alg2"):
                            search = run_single_user if algo == "alg1" else run_lookahead
                            ch, ov, _ = search(
                                ckm, states[k], resp[k], sigma, config.beta,
                                codebook=codebook, rng=rngs[k], retain_beams=config.retain_beams,
                            )
                        elif algo == "baseline-hier":
                            ch, ov, _ = baseline_hierarchical(resp[k], codebook, sigma, rngs[k])
                        else:
                            ch, ov, _ = baseline_exhaustive(resp[k], codebook, sigma, rngs[k])
                        chosen.append(ch)
                        overheads.append(float(ov))
                records.extend(
                    _finish(t, algo, snr, k, overheads[k], chosen[k], oracles[k], gvecs[k], sigma)
                    for k in range(K)
                )
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def write_results_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_FIELDS)
        for r in records:
            w.writerow(
                [
                    r.trial_id,
                    r.algorithm,
                    _fmt(r.snr_db),
                    r.user_id,
                    _fmt(r.overhead),
                    r.chosen.layer,
                    r.chosen.index,
                    r.oracle.layer,
                    r.oracle.index,
                    _fmt(r.gain_ratio_db),
                    _fmt(r.se_bps_hz),
                ]
            )


def read_results_csv(path) -> list[TrialRecord]:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_FIELDS:
            raise ValueError(f"unexpected results header {header}")
        for row in reader:
            out.append(
                TrialRecord(
                    trial_id=int(row[0]),
                    algorithm=row[1],
                    snr_db=float(row[2]),
                    user_id=int(row[3]),
                    overhead=float(row[4]),
                    chosen=BeamId(int(row[5]), int(row[6])),
                    oracle=BeamId(int(row[7]), int(row[8])),
                    gain_ratio_db=float(row[9]),
                    se_bps_hz=float(row[10]),
                )
            )
    return out


def _cdf(values: np.ndarray) -> list[tuple[float, float]]:
    vals = np.sort(np.asarray(values, dtype=np.float64))
    xs = np.unique(vals)
    return [(float(x), float(np.searchsorted(vals, x, side="right") / vals.size)) for x in xs]


def summarize(records, cdf_kinds=()) -> tuple[list[dict], dict]:
    """Aggregate per (algorithm, SNR): mean/median per-trial probe totals,
    beam hit rate, mean gain loss and spectral efficiency; optionally
    empirical CDF tables for 'overhead' (per-trial totals) and 'gain'
    (per-row dB loss)."""
    for kind in cdf_kinds:
        if kind not in ("overhead", "gain"):
            raise ValueError(f"unknown CDF kind {kind!r}")
    groups: dict = {}
    for r in records:
        groups.setdefault((r.algorithm, r.snr_db), []).append(r)
    stats = []
    tables: dict = {kind: [] for kind in cdf_kinds}
    for algo, snr in sorted(groups, key=lambda k: (k[0], k[1])):
        rows = groups[(algo, snr)]
        per_trial: dict = {}
        for r in rows:
            per_trial[r.trial_id] = per_trial.get(r.trial_id, 0.0) + r.overhead
        totals = np.array(sorted(per_trial.values()), dtype=np.float64)
        totals_by_id = np.array([per_trial[t] for t in sorted(per_trial)])
        gains = np.array([r.gain_ratio_db for r in rows])
        stats.append(
            {
                "algorithm": algo,
                "snr_db": snr,
                "trials": len(per_trial),
                "users": len({r.user_id for r in rows}),
                "mean_overhead": float(totals.mean()),
                "median_overhead": float(np.median(totals)),
                "hit_rate": float(np.mean([r.chosen == r.oracle for r in rows])),
                "mean_gain_ratio_db": float(gains.mean()),
                "mean_se_bps_hz": float(np.mean([r.se_bps_hz for r in rows])),
            }
        )
        if "overhead" in tables:
            tables["overhead"].extend(
                {"algorithm": algo, "snr_db": snr, "value": v, "cdf": c}
                for v, c in _cdf(totals_by_id)
            )
        if "gain" in tables:
            tables["gain"].extend(
                {"algorithm": algo, "snr_db": snr, "value": v, "cdf": c}
                for v, c in _cdf(gains)
            )
    return stats, tables


def write_summary_csv(stats: list[dict], path) -> None:
    fields = (
        "algorithm",
        "snr_db",
        "trials",
        "users",
        "mean_overhead",
        "median_overhead",
        "hit_rate",
        "mean_gain_ratio_db",
        "mean_se_bps_hz",
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(fields)
        for row in stats:
            w.writerow([row[f] if f in ("algorithm", "trials", "users") else _fmt(row[f]) for f in fields])


def write_cdf_csv(table: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("algorithm", "snr_db", "value", "cdf"))
        for row in table:
            w.writerow([row["algorithm"], _fmt(row["snr_db"]), _fmt(row["value"]), _fmt(row["cdf"])])
