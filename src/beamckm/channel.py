"""ULA array geometry, sparse multipath synthesis, and beam probing.

The propagation model is a deterministic stand-in for ray tracing: a LoS
path plus one single-bounce path per visible point scatterer, with segment
obstacles that can block either leg.  Everything is a pure function of
(environment seed, geometry), so repeated calls are bit-identical.

Probing reads a channel's noiseless codeword responses from a
``Responses`` cache, which computes each one on first use: a response is
the same number at every SNR and for every algorithm, so a sweep computes
it once per drawn point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels

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

    def geometry_arrays(self, bs_position):
        """Packed arrays consumed by the path-tracing kernels."""
        ns = len(self.scatterers)
        scat_pos = np.array([s.position for s in self.scatterers], dtype=float).reshape(ns, 2)
        scat_refl = np.array([s.reflection for s in self.scatterers], dtype=float)
        obstacles = np.array(
            [[o.start[0], o.start[1], o.end[0], o.end[1]] for o in self.obstacles],
            dtype=float,
        ).reshape(len(self.obstacles), 4)
        bs = np.asarray(bs_position, dtype=float)
        on_bs = np.flatnonzero(np.all(scat_pos == bs, axis=1))
        if on_bs.size:
            raise ValueError(f"scatterers[{on_bs[0]}] position coincides with the BS position")
        scat_vis = ~kernels._blocked(scat_pos[:, 0], scat_pos[:, 1], bs[0], bs[1], obstacles)
        return bs, scat_pos, scat_refl, self._scat_phases, scat_vis, obstacles


def trace_point_paths(env: Environment, array: ArrayConfig, positions: np.ndarray):
    """Path parameters (angles, amps, phases, counts) for many receivers."""
    bs, scat_pos, scat_refl, scat_phase, scat_vis, obstacles = env.geometry_arrays(
        array.bs_position
    )
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if np.any(np.all(pts == bs, axis=1)):
        raise ValueError("receiver position coincides with the BS")
    return kernels.trace_paths(
        pts, bs, scat_pos, scat_refl, scat_phase, scat_vis, obstacles,
        array.wavelength, env.pathloss_exponent, env.max_paths,
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
    pos = np.asarray(positions, dtype=float)
    pts = pos.reshape(-1, 2)
    angles, amps, phases, counts = trace_point_paths(env, array, pts)
    unreached = np.flatnonzero(counts == 0)
    if unreached.size:
        raise ValueError(f"no propagation path reaches position {tuple(pts[unreached[0]])}")
    h = channel_vectors(angles, amps, phases, array.num_antennas)
    return h[0] if pos.ndim == 1 else h


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


def responses(channel, codebook) -> Responses:
    """The cached responses of ``channel`` to every codeword of ``codebook``:
    ``channel`` itself when it is already a cache for that codebook, else a
    new empty cache."""
    if isinstance(channel, Responses):
        if channel.codewords is not codebook.matrix:
            raise ValueError("responses were cached for another codebook")
        return channel
    return Responses(channel, codebook.matrix)


def probe_rows(
    resp: Responses,
    rows: np.ndarray,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Received pilot magnitudes ``|h^H f + n|`` of distinct codeword
    ``rows`` (an integer array), in order: the same arithmetic and the same
    noise draws as one ``probe`` per row."""
    y = resp.take(rows)
    if noise_std > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        z = rng.standard_normal((len(rows), 2))
        y = y + noise_std / np.sqrt(2.0) * (z[:, 0] + 1j * z[:, 1])
    return np.abs(y)


def probe(
    channel: np.ndarray,
    codeword: np.ndarray,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Magnitude of the received pilot |h^H f + n|, n ~ CN(0, noise_std^2)."""
    h = np.asarray(channel)
    if h.shape != np.asarray(codeword).shape:
        raise ValueError("channel/codeword dimension mismatch")
    y = np.vdot(h, codeword)
    if noise_std > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        re, im = rng.standard_normal(2)
        y = y + noise_std / np.sqrt(2.0) * (re + 1j * im)
    return float(np.abs(y))
