"""Monte-Carlo harness: scenario configs, paired trial runs, summaries.

A scenario JSON pins the array, the map grid, the propagation environment,
the per-user location priors, and the sweep settings.  Trials are paired:
every algorithm and SNR point sees the same sampled user positions, and
the per-probe noise stream depends only on (seed, trial, SNR index, user),
so algorithm comparisons are common-random-number comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import numbers
import types
import typing
from dataclasses import dataclass

import numpy as np

from .beamtree import compute_point_weights
from .channel import (
    ArrayConfig,
    Environment,
    Obstacle,
    Responses,
    Scatterer,
    _check_point,
    synthesize_channel,
    trace_point_paths,
)
from .ckm import CkmGrid, GridSpec
from .codebook import BeamId, build_codebook, num_layers
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
            if r[2] < r[0] or r[3] < r[1]:
                raise ValueError(f"rect {self.rect} has negative extent")
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
        trace_point_paths(self.environment, self.array, np.empty((0, 2)))
        user_priors(self)


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


def _check_snrs(snrs) -> None:
    """SNR points must be finite numbers or +inf (noiseless), none repeated:
    ``summarize`` groups records by SNR, so a repeat would double a group."""
    bad = [s for s in snrs if math.isnan(s) or s == -math.inf]
    if bad:
        raise ValueError(f"SNR entries must be numbers or 'inf', got {bad}")
    if len(set(snrs)) != len(snrs):
        raise ValueError(f"SNR points must not repeat, got {list(snrs)}")


@functools.cache
def _schema(tp) -> tuple[dict[str, bool], dict]:
    """A config dataclass's JSON keys (init fields, each flagged required
    when it has no default) and its resolved field types."""
    keys = {
        f.name: f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        for f in dataclasses.fields(tp)
        if f.init
    }
    return keys, typing.get_type_hints(tp)


def _from_json(tp, value, path: str):
    """Parsed JSON ``value`` as type ``tp``, read from the config
    dataclasses' own fields; every error names the JSON path."""
    where = path or "scenario"
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a JSON object")
        keys, hints = _schema(tp)
        unknown = sorted(set(value) - set(keys))
        if unknown:
            raise ValueError(f"unknown key(s) {unknown} in {where}")
        missing = sorted(k for k, required in keys.items() if required and k not in value)
        if missing:
            raise ValueError(f"missing key(s) {missing} in {where}")
        kwargs = {
            k: _from_json(hints[k], v, f"{path}.{k}" if path else k) for k, v in value.items()
        }
        try:
            return tp(**kwargs)
        except ValueError as exc:
            if not path:
                raise
            raise ValueError(f"{path}: {exc}") from None
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):  # X | None
        return None if value is None else _from_json(args[0], value, path)
    if typing.get_origin(tp) is tuple:  # fixed lengths are the dataclass's own check
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(_from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is int:
        return _whole(value, where)
    if tp is float:
        # a real number, or a numeric string such as "inf"
        if isinstance(value, (numbers.Real, str)) and not isinstance(value, bool):
            try:
                return float(value)
            except (ValueError, OverflowError):
                pass
        raise ValueError(f"{where} must be a number, got {value!r}")
    if not isinstance(value, str):  # str is the schema's last leaf type
        raise ValueError(f"{where} must be a string, got {value!r}")
    return value


def scenario_from_dict(cfg: dict) -> ScenarioConfig:
    """Build a validated config from a parsed JSON object."""
    return _from_json(ScenarioConfig, cfg, "")


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def region_points(grid: GridSpec, region: RegionSpec) -> np.ndarray:
    """Grid-point indices covered by one region, ascending."""
    if region.rect is not None:
        x0, y0, x1, y1 = region.rect
        x, y = grid.cell_center(np.arange(grid.nx), np.arange(grid.ny))
        ix = np.flatnonzero((x >= x0) & (x <= x1))
        iy = np.flatnonzero((y >= y0) & (y <= y1))
        if ix.size == 0 or iy.size == 0:
            raise ValueError(f"rect {region.rect} covers no grid point")
        return (iy[:, None] * grid.nx + ix).ravel()
    idx = np.array([grid.snap_index(p) for p in region.points], dtype=np.int64)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("explicit point list snaps onto duplicate grid points")
    return idx


def user_priors(config: ScenarioConfig) -> list[PositionPrior]:
    """One location prior per user from its declared regions."""
    priors = []
    for i, user in enumerate(config.users):
        subs = []
        for j, r in enumerate(user.subregions):
            try:
                points = tuple(int(k) for k in region_points(config.grid, r))
                subs.append(SubRegion(points=points, prior=r.prior))
            except ValueError as exc:
                raise ValueError(f"users[{i}].subregions[{j}]: {exc}") from None
        priors.append(PositionPrior(subregions=tuple(subs)))
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
    """Scene-scale matched gain: median of the best bottom-layer map gain
    over the grid points that some path reaches.  SNR settings are relative
    to this, so a configured SNR describes a typical aligned link, not the
    raw transmit power, however much of the grid is shadowed."""
    best = ckm.bottom_gains.max(axis=0).astype(np.float64)
    reached = best[best > 0.0]
    if reached.size == 0:
        raise ValueError("no grid point of the map has a positive gain")
    return float(np.median(reached))


def noise_std_for_snr(snr_db: float, ref_gain: float) -> float:
    """Per-probe complex noise std giving the requested SNR at the
    reference gain; infinite SNR means a noiseless run."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    return ref_gain * 10.0 ** (-snr_db / 20.0)


def baseline_hierarchical(
    resp: Responses,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Map-blind bisection over a point's cached responses: probe both
    children at every layer, keep the stronger, always 2L probes."""
    L = num_layers(resp.codewords.shape[1])
    idx = 1
    transcript = []
    for layer in range(1, L + 1):
        transcript.append(probe_round(resp, layer, (2 * idx - 1, 2 * idx), noise_std, rng))
        idx = transcript[-1].feedback
    return BeamId(L, idx), 2 * L, transcript


def baseline_exhaustive(
    resp: Responses,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> tuple[BeamId, int, list[ProbeRound]]:
    """Probe every bottom beam once from a point's cached responses, keep
    the strongest."""
    n = resp.codewords.shape[1]
    L = num_layers(n)
    r = probe_round(resp, L, range(1, n + 1), noise_std, rng)
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
    snrs = (
        config.snr_db if snr_db is None else _from_json(tuple[float, ...], list(snr_db), "snr_db")
    )
    _check_snrs(snrs)
    codebook = build_codebook(config.array.num_antennas)
    priors = user_priors(config)
    K = len(priors)
    L = ckm.num_layers
    ref = reference_gain(ckm)
    # row blocks OpenBLAS multiplies on this thread, bit for bit as one product
    blocks = np.split(codebook.layer_matrix(L), max(1, 2**L // max(4, 2048 // 2**L)))
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
    gains = [np.abs(np.concatenate([b @ hc for b in blocks])) for hc in np.conj(channels)]
    # each point's codeword responses, computed on first use and shared by
    # every SNR and algorithm of this call
    resps = [Responses(h, codebook.matrix) for h in channels]
    best = [BeamId(L, int(np.argmax(g)) + 1) for g in gains]
    # each user's search state is built once: alg1 and alg2 walk its cached
    # tree, alg3 starts from copies
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
            # every algorithm draws the same noise: seed once, rewind for the
            # next; a noiseless probe draws nothing, so it gets no generator
            rngs, starts = [None] * K, []
            if sigma:
                rngs = [np.random.default_rng([base_seed, 202, t, si, k]) for k in range(K)]
                if len(algos) > 1:
                    starts = [r.bit_generator.state for r in rngs]
            for ai, algo in enumerate(algos):
                if ai:
                    for r, start in zip(rngs, starts):
                        r.bit_generator.state = start
                if algo == "alg3":
                    chosen, total, _ = run_multi_user(
                        ckm, states, resp, sigma, config.beta, config.eta,
                        rngs=rngs, retain_beams=config.retain_beams,
                    )
                    overheads = [total / K] * K
                else:
                    chosen, overheads = [], []
                    for k in range(K):
                        if algo in ("alg1", "alg2"):
                            search = run_single_user if algo == "alg1" else run_lookahead
                            ch, ov, _ = search(
                                ckm, states[k], resp[k], sigma, config.beta,
                                rng=rngs[k], retain_beams=config.retain_beams,
                            )
                        elif algo == "baseline-hier":
                            ch, ov, _ = baseline_hierarchical(resp[k], sigma, rngs[k])
                        else:
                            ch, ov, _ = baseline_exhaustive(resp[k], sigma, rngs[k])
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
        header = next(reader, [])
        if tuple(header) != CSV_FIELDS:
            raise ValueError(f"unexpected results header {header}")
        for row in reader:
            try:
                if len(row) != len(CSV_FIELDS):
                    raise ValueError(f"{len(row)} fields, expected {len(CSV_FIELDS)}")
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
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
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
