"""ULA array geometry, sparse multipath synthesis, and beam probing.

The propagation model is a deterministic stand-in for ray tracing: a LoS
path plus one single-bounce path per visible point scatterer, with segment
obstacles that can block either leg.  ``trace_point_paths`` traces it from
the ``Environment`` and ``ArrayConfig`` themselves, vectorized over
receivers.  Everything is a pure function of (environment seed, geometry),
so repeated calls are bit-identical.

Probing reads a channel's noiseless codeword responses from a
``Responses`` cache, which computes each one on first use: a response is
the same number at every SNR and for every algorithm, so a sweep computes
it once per drawn point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


def _check_point(value, name: str) -> None:
    """A 2-D position: exactly two finite coordinates."""
    xy = np.asarray(value, dtype=float)
    if xy.shape != (2,) or not np.isfinite(xy).all():
        raise ValueError(f"{name} must be two finite coordinates (x, y), got {value!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Half-wavelength ULA at the BS; broadside points along +y."""

    num_antennas: int
    carrier_frequency_hz: float
    bs_position: tuple[float, float]

    def __post_init__(self):
        n = self.num_antennas
        if n < 4 or n & (n - 1) != 0:
            raise ValueError(f"num_antennas must be a power of two >= 4, got {n}")
        f = self.carrier_frequency_hz
        if not (math.isfinite(f) and f > 0):
            raise ValueError(f"carrier_frequency_hz must be finite and positive, got {f}")
        _check_point(self.bs_position, "bs_position")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz


@dataclass(frozen=True)
class Scatterer:
    position: tuple[float, float]
    reflection: float  # amplitude reflection coefficient, |.| <= 1

    def __post_init__(self):
        _check_point(self.position, "scatterer position")
        if not 0.0 <= self.reflection <= 1.0:
            raise ValueError("reflection coefficient magnitude must be in [0, 1]")


@dataclass(frozen=True)
class Obstacle:
    """Blocking wall segment between two endpoints."""

    start: tuple[float, float]
    end: tuple[float, float]

    def __post_init__(self):
        _check_point(self.start, "obstacle start")
        _check_point(self.end, "obstacle end")


@dataclass(frozen=True)
class Environment:
    scatterers: tuple[Scatterer, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()
    max_paths: int = 4
    pathloss_exponent: float = 1.0
    rng_seed: int = 0
    # per-scatterer reflection phases, drawn once from rng_seed
    _scat_phases: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_paths < 1:
            raise ValueError("max_paths must be >= 1")
        if not math.isfinite(self.pathloss_exponent):
            raise ValueError(f"pathloss_exponent must be finite, got {self.pathloss_exponent}")
        rng = np.random.default_rng(self.rng_seed)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(self.scatterers))
        object.__setattr__(self, "_scat_phases", phases)


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _on_segment(sx, sy, ex, ey, px, py):
    # collinearity is tested by the caller; this checks the bounding box
    return (
        (np.minimum(sx, ex) <= px) & (px <= np.maximum(sx, ex))
        & (np.minimum(sy, ey) <= py) & (py <= np.maximum(sy, ey))
    )


def _blocked(ax, ay, bx, by, walls):
    """Whether segment a-b crosses any wall row (x1, y1, x2, y2); touching
    or collinear overlap counts as blocked.  Vectorized over (ax, ay); b
    may be an array or a point."""
    ax = np.asarray(ax, dtype=float)
    blocked = np.zeros(np.shape(ax), dtype=bool)
    for q1x, q1y, q2x, q2y in walls:
        o1 = _orient(ax, ay, bx, by, q1x, q1y)
        o2 = _orient(ax, ay, bx, by, q2x, q2y)
        o3 = _orient(q1x, q1y, q2x, q2y, ax, ay)
        o4 = _orient(q1x, q1y, q2x, q2y, bx, by)
        proper = (
            ((o1 > 0) != (o2 > 0))
            & ((o3 > 0) != (o4 > 0))
            & (o1 != 0) & (o2 != 0) & (o3 != 0) & (o4 != 0)
        )
        touch = (
            ((o1 == 0) & _on_segment(ax, ay, bx, by, q1x, q1y))
            | ((o2 == 0) & _on_segment(ax, ay, bx, by, q2x, q2y))
            | ((o3 == 0) & _on_segment(q1x, q1y, q2x, q2y, ax, ay))
            | ((o4 == 0) & _on_segment(q1x, q1y, q2x, q2y, bx, by))
        )
        blocked |= proper | touch
    return blocked


def _receiver_points(positions) -> np.ndarray:
    """(P, 2) float array of one (x, y) position or a (P, 2) array of them."""
    pts = np.asarray(positions, dtype=float)
    if pts.ndim not in (1, 2) or pts.shape[-1] != 2:
        raise ValueError(f"positions must have shape (2,) or (P, 2), got {pts.shape}")
    return pts.reshape(-1, 2)


def trace_point_paths(env: Environment, array: ArrayConfig, positions):
    """Path parameters (angles, amps, phases, counts) at receiver positions,
    one row per point of a (2,) or (P, 2) array.

    Each point has a LoS path and one bounce per scatterer that sees the BS,
    each dropped when a wall blocks a leg.  The survivors fill
    min(max_paths, scatterers + 1) slots strongest-first by amplitude (ties
    keep LoS before scatterer paths, then declaration order); empty slots
    are zero.  A scatterer or receiver on the BS raises ValueError.
    """
    pts = _receiver_points(positions)
    bs = np.asarray(array.bs_position, dtype=float)
    for i, scat in enumerate(env.scatterers):
        if np.array_equal(scat.position, bs):
            raise ValueError(f"scatterers[{i}] position coincides with the BS position")
    if np.any(np.all(pts == bs, axis=1)):
        raise ValueError("receiver position coincides with the BS")
    walls = np.array([(*o.start, *o.end) for o in env.obstacles], dtype=float).reshape(-1, 4)
    wavelength, ple = array.wavelength, env.pathloss_exponent
    amp0 = wavelength / (4.0 * np.pi)
    px, py = pts[:, 0], pts[:, 1]
    # slot 0 is LoS, slot s the bounce off scatterer s - 1
    c_ang, c_amp, c_phs = np.zeros((3, len(pts), len(env.scatterers) + 1))

    dx, dy = px - bs[0], py - bs[1]
    dist = np.sqrt(dx * dx + dy * dy)
    c_ang[:, 0] = dx / dist
    c_amp[:, 0] = np.where(_blocked(px, py, bs[0], bs[1], walls), 0.0, amp0 / dist**ple)
    c_phs[:, 0] = -2.0 * np.pi * np.mod(dist / wavelength, 1.0)

    for s, (scat, phase) in enumerate(zip(env.scatterers, env._scat_phases), start=1):
        sx, sy = scat.position
        if _blocked(sx, sy, bs[0], bs[1], walls):
            continue
        d1x, d1y = sx - bs[0], sy - bs[1]
        d1 = np.sqrt(d1x * d1x + d1y * d1y)
        d2x, d2y = px - sx, py - sy
        total = d1 + np.sqrt(d2x * d2x + d2y * d2y)
        c_ang[:, s] = d1x / d1
        c_amp[:, s] = np.where(
            _blocked(px, py, sx, sy, walls), 0.0, scat.reflection * amp0 / total**ple
        )
        c_phs[:, s] = -2.0 * np.pi * np.mod(total / wavelength, 1.0) + phase

    width = min(env.max_paths, c_amp.shape[1])
    sel = np.argsort(-c_amp, axis=1, kind="stable")[:, :width]
    rows = np.arange(len(pts))[:, None]
    amps = c_amp[rows, sel]
    keep = amps > 0.0
    return (
        np.where(keep, c_ang[rows, sel], 0.0),
        np.where(keep, amps, 0.0),
        np.where(keep, c_phs[rows, sel], 0.0),
        keep.sum(axis=1),
    )


def channel_vectors(angles, amps, phases, num_antennas: int) -> np.ndarray:
    """(P, N) array responses of traced paths: row p sums
    amp * e^{j phase} * steering vector over point p's slots, in slot order.

    Empty slots have amplitude 0 and add nothing.  The map and the trials
    both take their channels from here, so they agree bit for bit.
    """
    ant = np.arange(num_antennas)
    h = np.zeros((angles.shape[0], num_antennas), dtype=np.complex128)
    for s in range(angles.shape[1]):
        coef = amps[:, s] * np.exp(1j * phases[:, s])
        h += coef[:, None] * np.exp(-1j * np.pi * angles[:, s, None] * ant)
    return h


def synthesize_channel(env: Environment, array: ArrayConfig, positions) -> np.ndarray:
    """Sparse multipath channel vectors at receiver positions, traced in one
    batch: (N,) for one position (x, y), (P, N) for a (P, 2) array.

    Each contains the LoS path when unobstructed (angle = sine of the BS->UE
    direction measured from broadside, amplitude (lambda/4 pi)/d^ple) plus
    one bounce per visible scatterer, truncated to the max_paths strongest.
    Raises ValueError naming the first position that no path reaches.
    """
    pts = _receiver_points(positions)
    angles, amps, phases, counts = trace_point_paths(env, array, pts)
    unreached = np.flatnonzero(counts == 0)
    if unreached.size:
        raise ValueError(f"no propagation path reaches position {tuple(pts[unreached[0]])}")
    h = channel_vectors(angles, amps, phases, array.num_antennas)
    return h[0] if np.ndim(positions) == 1 else h


class Responses:
    """Noiseless responses ``h^H f`` of one channel to the rows of a codeword
    matrix, each computed by ``np.vdot`` on first use and then kept.

    ``values[r]`` is valid where ``computed[r]`` is set."""

    def __init__(self, channel, codewords: np.ndarray):
        h = np.asarray(channel)
        cw = np.asarray(codewords)
        if cw.ndim != 2 or h.shape != cw.shape[1:]:
            raise ValueError("channel/codeword dimension mismatch")
        self.channel = h
        self.codewords = cw
        self.values = np.empty(cw.shape[0], dtype=np.complex128)
        self.computed = np.zeros(cw.shape[0], dtype=bool)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """Responses of distinct codeword ``rows``, computing the missing ones."""
        todo = rows[~self.computed[rows]]
        if todo.size:
            for r in todo.tolist():
                self.values[r] = np.vdot(self.channel, self.codewords[r])
            self.computed[todo] = True
        return self.values[rows]


def probe_rows(
    resp: Responses,
    rows: np.ndarray,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Received pilot magnitudes ``|h^H f + n|`` of distinct codeword
    ``rows`` (an integer array), in order: the same arithmetic and the same
    noise draws as one ``probe`` per row.  Noise needs a generator, so that
    every draw comes from a seeded stream."""
    y = resp.take(rows)
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("a noisy probe needs an rng")
        z = rng.standard_normal((len(rows), 2))
        y = y + noise_std / np.sqrt(2.0) * (z[:, 0] + 1j * z[:, 1])
    return np.abs(y)


def probe(
    channel: np.ndarray,
    codeword: np.ndarray,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Magnitude of the received pilot |h^H f + n|, n ~ CN(0, noise_std^2).
    Noise needs a generator, so that every draw comes from a seeded stream."""
    h = np.asarray(channel)
    if h.shape != np.asarray(codeword).shape:
        raise ValueError("channel/codeword dimension mismatch")
    y = np.vdot(h, codeword)
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("a noisy probe needs an rng")
        re, im = rng.standard_normal(2)
        y = y + noise_std / np.sqrt(2.0) * (re + 1j * im)
    return float(np.abs(y))
