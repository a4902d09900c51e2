"""Monte-Carlo harness: scenario configs, paired trial runs, summaries.

A scenario JSON pins the array, the map grid, the propagation environment,
the per-user location priors, and the sweep settings.  Trials are paired:
every algorithm and SNR point sees the same sampled user positions, and
the per-probe noise stream depends only on (seed, trial, SNR index, user),
so algorithm comparisons are common-random-number comparisons.

Streams: trial t's positions are drawn from ``default_rng([seed, 101, t])``
and the probe noise of user k at noisy SNR index si from
``default_rng([seed, 202, t, si, k])``; a noiseless SNR point has no noise
stream.  ``run_trials`` seeds them with ``streams.seed_words`` tables,
which reproduce numpy's seeding bit for bit: the positions in one, the
noise streams in one per chunk of ``CHUNK_TRIALS`` trials.  It draws each
noise stream once per chunk, as a block of its first normals that every
algorithm reads from the start.  Every algorithm runs as array rounds
over all (trial, user) episodes of the chunk at one SNR point at once,
the map-aided ones from each user's built search state over one
``channel.Episodes``.
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
from dataclasses import dataclass, field

import numpy as np

from .beamtree import compute_point_weights
from .channel import (
    ArrayConfig,
    Environment,
    Episodes,
    Obstacle,
    Responses,
    Scatterer,
    _check_point,
    received,
    synthesize_channel,
    trace_point_paths,
)
from .ckm import CkmGrid, GridSpec
from .codebook import BeamId, build_codebook, layer_rows, layer_start, layers_of
from .lookahead import run_lookahead
from .multiuser import run_multi_user
from .position import PositionPrior, SubRegion, sample_true_position
from .strategy import run_single_user
from .streams import normal_blocks, pcg64_state, seed_words

# unused here; perfbench's tracer looks this name up on this module
from .channel import probe  # noqa: F401

ALGORITHMS = ("alg1", "alg2", "alg3", "baseline-hier", "baseline-exhaustive")

# trials whose noise seeds, noise blocks and baseline episodes a sweep holds at once
CHUNK_TRIALS = 256

# most grid points one user's regions may cover together: a prior keeps 16
# bytes per covered point, so this caps a user's prior at 160 MB
MAX_REGION_POINTS = 10**7

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
    # one location prior per user, resolved on this grid
    priors: tuple[PositionPrior, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.users:
            raise ValueError("scenario needs at least one user")
        _check_sweep(self.algorithms, self.trials, self.seed, self.snr_db)
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if self.retain_beams is not None and self.retain_beams < 1:
            raise ValueError(f"retain_beams must be >= 1 or null, got {self.retain_beams}")
        if not (math.isfinite(self.ckm_staleness_sigma) and self.ckm_staleness_sigma >= 0.0):
            raise ValueError(
                f"ckm_staleness_sigma must be finite and >= 0, got {self.ckm_staleness_sigma}"
            )
        # a scatterer on the BS or a region covering no grid point fails here, not mid-run
        trace_point_paths(self.environment, self.array, np.empty((0, 2)))
        priors = []
        for i, user in enumerate(self.users):
            # a user's regions are counted before any of their point ids is built
            regions = [(f"users[{i}].subregions[{j}]", r) for j, r in enumerate(user.subregions)]
            size = sum(_at(at, lambda: _region_size(self.grid, r)) for at, r in regions)
            if size > MAX_REGION_POINTS:
                raise ValueError(
                    f"users[{i}]: regions cover {size} grid points, more than {MAX_REGION_POINTS}"
                )
            subs = [_at(at, lambda: SubRegion(region_points(self.grid, r), r.prior))
                    for at, r in regions]
            priors.append(_at(f"users[{i}]", lambda: PositionPrior(subregions=tuple(subs))))
        object.__setattr__(self, "priors", tuple(priors))


def _check_sweep(algorithms, trials: int, seed: int, snr_db) -> None:
    """The sweep settings of a config or of ``run_trials``' overrides.  SNR
    points are numbers or +inf, none repeated: ``summarize`` groups by SNR."""
    bad = [a for a in algorithms if a not in ALGORITHMS]
    if bad:
        raise ValueError(f"unknown algorithm(s) {bad}; valid: {list(ALGORITHMS)}")
    if not algorithms:
        raise ValueError("algorithms must name at least one algorithm")
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"algorithms must not repeat, got {list(algorithms)}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not snr_db:
        raise ValueError("snr_db needs at least one SNR point")
    bad = [s for s in snr_db if math.isnan(s) or s == -math.inf]
    if bad:
        raise ValueError(f"SNR entries must be numbers or 'inf', got {bad}")
    if len(set(snr_db)) != len(snr_db):
        raise ValueError(f"SNR points must not repeat, got {list(snr_db)}")


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
    dataclasses' own fields (a tuple or numpy array reads as a list);
    every error names the JSON path."""
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
        value = value.tolist() if isinstance(value, np.ndarray) else value
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {value!r}")
        return tuple(_from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is int:  # a fraction is rejected, not truncated
        whole = isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not (whole or isinstance(value, (int, np.integer))):
            raise ValueError(f"{where} must be an integer, got {value!r}")
        return int(value)
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


def _at(where: str, fn):
    """``fn()``; its ValueError names ``where`` in the config."""
    try:
        return fn()
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _rect_axes(grid: GridSpec, rect) -> tuple[np.ndarray, np.ndarray]:
    """Column and row indices of the grid cells whose centers a rect covers."""
    x0, y0, x1, y1 = rect
    x, y = grid.cell_center(np.arange(grid.nx), np.arange(grid.ny))
    ix = np.flatnonzero((x >= x0) & (x <= x1))
    iy = np.flatnonzero((y >= y0) & (y <= y1))
    if ix.size == 0 or iy.size == 0:
        raise ValueError(f"rect {rect} covers no grid point")
    if ix.size * iy.size > MAX_REGION_POINTS:
        raise ValueError(
            f"rect {rect} covers {ix.size * iy.size} grid points, more than {MAX_REGION_POINTS}"
        )
    return ix, iy


def _region_size(grid: GridSpec, region: RegionSpec) -> int:
    """Grid points one region covers, counted without building their ids."""
    if region.rect is None:
        return len(region.points)
    ix, iy = _rect_axes(grid, region.rect)
    return ix.size * iy.size


def region_points(grid: GridSpec, region: RegionSpec) -> np.ndarray:
    """Grid-point indices covered by one region, ascending."""
    if region.rect is not None:
        ix, iy = _rect_axes(grid, region.rect)
        return (iy[:, None] * grid.nx + ix).ravel()
    idx = np.array([grid.snap_index(p) for p in region.points], dtype=np.int64)
    if len(np.unique(idx)) != len(idx):
        raise ValueError("explicit point list snaps onto duplicate grid points")
    return idx


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


def noise_std_for_snr(snr_db: float, ref_gain: float) -> float:
    """Per-probe complex noise std giving the requested SNR at the
    reference gain (``CkmGrid.reference_gain``); infinite SNR means a
    noiseless run.  An SNR point so low that the std is not finite is a
    ValueError."""
    if math.isinf(snr_db) and snr_db > 0:
        return 0.0
    try:
        sigma = ref_gain * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        sigma = math.inf
    if not math.isfinite(sigma):
        raise ValueError(f"SNR point {snr_db!r} dB gives a noise std that is not finite")
    return sigma


def baseline_hierarchical(resp: Responses, points, noise_std: float, noise) -> np.ndarray:
    """Map-blind bisection of episodes on channels ``points`` of ``resp``: at
    each layer l probe both children with block pairs 2l-2 and 2l-1, keep
    the stronger (the first on ties); returns each episode's bottom index."""
    L = layers_of(resp.codewords.shape[0])
    pts = points[:, None]
    idx = np.ones_like(pts)
    for layer in range(1, L + 1):
        rows = layer_start(layer) + 2 * idx - 2 + np.arange(2)
        z = None if noise is None else noise[:, 2 * layer - 2 : 2 * layer]
        mags = received(resp.take(pts, rows), noise_std, z)
        idx = 2 * idx - 1 + np.argmax(mags, axis=1)[:, None]
    return idx[:, 0]


def baseline_exhaustive(resp: Responses, points, noise_std: float, noise) -> np.ndarray:
    """Probe every bottom beam once per episode, with its block's first N
    pairs, keep the strongest (the first on ties); returns each bottom index."""
    L = layers_of(resp.codewords.shape[0])
    rows = layer_start(L) + np.arange(2**L)
    z = None if noise is None else noise[:, : 2**L]
    return np.argmax(received(resp.take(points[:, None], rows), noise_std, z), axis=1) + 1


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
    try:
        se = math.inf if sigma == 0.0 else math.log2(1.0 + (g_c / sigma) ** 2)
    except OverflowError:  # a square past the float range: the 1 adds nothing
        se = 2.0 * math.log2(g_c / sigma)
    return TrialRecord(trial, algo, snr, user, overhead, chosen, oracle, ratio_db, se)


def run_trials(
    config: ScenarioConfig,
    ckm: CkmGrid,
    algorithms=None,
    trials: int | None = None,
    seed: int | None = None,
    snr_db=None,
) -> list[TrialRecord]:
    """Paired Monte-Carlo sweep over trials x SNR points x algorithms.

    A given ``algorithms``, ``trials``, ``seed`` or ``snr_db`` overrides the
    config's and is read as that JSON key of the scenario (a tuple or numpy
    array as a list): a bare string or an empty list is a ValueError."""
    if ckm.num_antennas != config.array.num_antennas:
        raise ValueError("map antenna count does not match the scenario array")
    if ckm.grid != config.grid:
        raise ValueError("map grid does not match the scenario grid")
    given = {"algorithms": algorithms, "trials": trials, "seed": seed, "snr_db": snr_db}
    algos, n_trials, base_seed, snrs = sweep = [
        getattr(config, k) if v is None else _from_json(_schema(ScenarioConfig)[1][k], v, k)
        for k, v in given.items()
    ]
    _check_sweep(*sweep)
    codebook = build_codebook(config.array.num_antennas)
    priors = config.priors
    K = len(priors)
    L = ckm.num_layers
    # an SNR point with no finite noise std fails before any trial is drawn
    sigmas = [noise_std_for_snr(snr, ckm.reference_gain) for snr in snrs]
    for snr, sigma in zip(snrs, sigmas):  # alg3 sums up to 2N-2 squared magnitudes
        if not math.isfinite((64.0 * sigma) * (64.0 * sigma) * len(codebook)):
            raise ValueError(f"SNR point {snr!r} dB is too low: probe magnitudes would overflow")
    # row blocks OpenBLAS multiplies on this thread, bit for bit as one product
    row_blocks = np.split(codebook[layer_rows(L)], max(1, 2**L // max(4, 2048 // 2**L)))
    # Every trial's positions first, then one traced batch of the distinct
    # grid points, in order of first draw, so an unreachable point is
    # reported as the first trial to draw it would.
    trial_points = []
    # one generator per stream kind, its state loaded from the table before each use
    pos_rng = np.random.default_rng(0)
    for words in seed_words([base_seed, 101], np.arange(n_trials)[:, None]):
        pos_rng.bit_generator.state = pcg64_state(words)
        trial_points.append([sample_true_position(priors[k], pos_rng) for k in range(K)])
    row_of: dict[int, int] = {}
    for pts in trial_points:
        for p in pts:
            row_of.setdefault(p, len(row_of))
    channels = synthesize_channel(
        config.environment, config.array, ckm.grid.positions(np.fromiter(row_of, np.int64))
    )
    gains = [np.abs(np.concatenate([b @ hc for b in row_blocks])) for hc in np.conj(channels)]
    # the codeword responses of every drawn point, each computed on first
    # use and shared by every SNR and algorithm of this call
    resp = Responses(channels, codebook)
    best = [BeamId(L, int(np.argmax(g)) + 1) for g in gains]
    # each user's search state is built once: every episode starts from it,
    # alg1 and alg2 walk the tree cached in its views, alg3 folds copies
    states = [
        compute_point_weights(ckm, p, config.beta, retain_beams=config.retain_beams)
        for p in priors
    ] if {"alg1", "alg2", "alg3"} & set(algos) else None
    # noise streams [seed, 202, t, si, k] of the noisy SNR points only: a
    # noiseless link reads no noise, so its stream is never seeded
    noisy = [si for si, sigma in enumerate(sigmas) if sigma]
    # a stream's block holds the baselines' probes, and 4L for a map-aided
    # search, which probes fewer on the bundled configs
    pairs = max(4 * L, 2**L if "baseline-exhaustive" in algos else 0)
    batched = {"baseline-hier": (baseline_hierarchical, 2 * L),
               "baseline-exhaustive": (baseline_exhaustive, 2**L)}
    records: list[TrialRecord] = []
    for start in range(0, n_trials, CHUNK_TRIALS):
        chunk = trial_points[start : start + CHUNK_TRIALS]
        points = np.array([[row_of[p] for p in pts] for pts in chunk])
        # each noisy SNR point's stream words and blocks, by (trial, user)
        # episode: meshgrid's default indexing puts the SNR points first
        idx = np.meshgrid(np.arange(start, start + len(chunk)), np.array(noisy, int), np.arange(K))
        w = seed_words([base_seed, 202], np.stack(idx, -1).reshape(-1, 3))
        blocks = normal_blocks(w, pairs).reshape(len(noisy), points.size, pairs, 2)
        w = w.reshape(len(noisy), points.size, 4)
        words, normals = dict(zip(noisy, w)), dict(zip(noisy, blocks))
        picks = {}  # by (algorithm, SNR index): the chunk's beams and overheads
        for si, sigma in enumerate(sigmas):
            for algo in algos:
                if algo in batched:
                    search, probes = batched[algo]
                    beams = search(resp, points.ravel(), sigma, normals.get(si)).tolist()
                    picks[algo, si] = [BeamId(L, i) for i in beams], [float(probes)] * points.size
                    continue
                batch = Episodes(resp, sigma, points.ravel(), normals.get(si), words.get(si))
                if algo == "alg3":  # each user carries an equal share of the trial's total
                    chosen, totals, _ = run_multi_user(states, batch, config.eta)
                    picks[algo, si] = chosen, np.repeat(totals / K, K).tolist()
                else:
                    search = run_single_user if algo == "alg1" else run_lookahead
                    chosen, probes, _ = search(states, batch)
                    picks[algo, si] = chosen, probes.astype(float).tolist()
        for t, rows in enumerate(points.tolist(), start):
            e = (t - start) * K  # the trial's first episode in the chunk
            for si, (snr, sigma) in enumerate(zip(snrs, sigmas)):
                for algo in algos:
                    chosen, overheads = (col[e : e + K] for col in picks[algo, si])
                    records.extend(
                        _finish(t, algo, snr, k, overheads[k], chosen[k], best[r], gains[r], sigma)
                        for k, r in enumerate(rows)
                    )
    return records


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_csv(path, header, rows) -> None:
    """A header line, then one line per row of already formatted fields."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_results_csv(records, path) -> None:
    _write_csv(path, CSV_FIELDS, (
        (r.trial_id, r.algorithm, _fmt(r.snr_db), r.user_id, _fmt(r.overhead),
         r.chosen.layer, r.chosen.index, r.oracle.layer, r.oracle.index,
         _fmt(r.gain_ratio_db), _fmt(r.se_bps_hz))
        for r in records
    ))


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
        for kind, values in (("overhead", totals), ("gain", gains)):
            if kind in tables:
                tables[kind].extend(
                    {"algorithm": algo, "snr_db": snr, "value": v, "cdf": c}
                    for v, c in _cdf(values)
                )
    return stats, tables


def write_summary_csv(stats: list[dict], path) -> None:
    measures = ("mean_overhead", "median_overhead", "hit_rate", "mean_gain_ratio_db", "mean_se_bps_hz")
    _write_csv(path, ("algorithm", "snr_db", "trials", "users", *measures), (
        (row["algorithm"], _fmt(row["snr_db"]), row["trials"], row["users"],
         *(_fmt(row[m]) for m in measures))
        for row in stats
    ))


def write_cdf_csv(table: list[dict], path) -> None:
    _write_csv(path, ("algorithm", "snr_db", "value", "cdf"), (
        (row["algorithm"], _fmt(row["snr_db"]), _fmt(row["value"]), _fmt(row["cdf"]))
        for row in table
    ))
