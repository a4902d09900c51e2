"""ULA array geometry, sparse multipath synthesis, and beam probing.

The propagation model is a deterministic stand-in for ray tracing: a LoS
path plus one single-bounce path per visible point scatterer, with segment
obstacles that can block either leg.  Everything is a pure function of
(environment seed, geometry), so repeated calls are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class ArrayConfig:
    """Half-wavelength ULA at the BS; broadside points along +y."""

    num_antennas: int
    carrier_frequency_hz: float
    bs_position: tuple[float, float]

    def __post_init__(self):
        n = self.num_antennas
        if n < 1 or n & (n - 1) != 0:
            raise ValueError(f"num_antennas must be a power of two, got {n}")
        if self.carrier_frequency_hz <= 0:
            raise ValueError("carrier_frequency_hz must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

    @property
    def antenna_spacing(self) -> float:
        return self.wavelength / 2.0


@dataclass(frozen=True)
class PropagationPath:
    """One plane-wave departure: complex gain and sine-space angle."""

    gain: complex
    spatial_angle: float


@dataclass(frozen=True)
class Scatterer:
    position: tuple[float, float]
    reflection: float  # amplitude reflection coefficient, |.| <= 1

    def __post_init__(self):
        if not 0.0 <= self.reflection <= 1.0:
            raise ValueError("reflection coefficient magnitude must be in [0, 1]")


@dataclass(frozen=True)
class Obstacle:
    """Blocking wall segment between two endpoints."""

    start: tuple[float, float]
    end: tuple[float, float]


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
        scat_vis = np.array(
            [
                not bool(
                    kernels._blocked(
                        np.atleast_1d(scat_pos[s, 0]), np.atleast_1d(scat_pos[s, 1]),
                        bs[0], bs[1], obstacles,
                    )[0]
                )
                for s in range(ns)
            ],
            dtype=bool,
        ).reshape(ns)
        return bs, scat_pos, scat_refl, self._scat_phases, scat_vis, obstacles


@dataclass(frozen=True)
class ChannelRealization:
    paths: tuple[PropagationPath, ...]
    receiver_position: tuple[float, float]

    def vector(self, num_antennas: int) -> np.ndarray:
        """Array response h = sum of gain * steering_vector over paths."""
        h = np.zeros(num_antennas, dtype=np.complex128)
        for p in self.paths:
            h += p.gain * steering_vector(p.spatial_angle, num_antennas)
        return h


def steering_vector(angle: float, n_antennas: int) -> np.ndarray:
    """ULA response [1, e^{-j pi angle}, ..., e^{-j pi angle (n-1)}]."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    if not -1.0 <= angle < 1.0:
        raise ValueError(f"spatial angle must lie in [-1, 1), got {angle}")
    return np.exp(-1j * np.pi * angle * np.arange(n_antennas))


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


def synthesize_channel(
    env: Environment, array: ArrayConfig, position
) -> ChannelRealization:
    """Sparse multipath channel at one receiver position.

    Contains the LoS path when unobstructed (angle = sine of the BS->UE
    direction measured from broadside, amplitude (lambda/4 pi)/d^ple) plus
    one bounce per visible scatterer, truncated to the max_paths strongest.
    """
    pos = np.asarray(position, dtype=float).reshape(2)
    angles, amps, phases, counts = trace_point_paths(env, array, pos[None, :])
    n = int(counts[0])
    if n == 0:
        raise ValueError(f"no propagation path reaches position {tuple(pos)}")
    paths = tuple(
        PropagationPath(
            gain=complex(amps[0, i] * np.exp(1j * phases[0, i])),
            spatial_angle=float(angles[0, i]),
        )
        for i in range(n)
    )
    return ChannelRealization(paths=paths, receiver_position=(pos[0], pos[1]))


def probe(
    channel: ChannelRealization | np.ndarray,
    codeword: np.ndarray,
    noise_std: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Magnitude of the received pilot |h^H f + n|, n ~ CN(0, noise_std^2)."""
    if isinstance(channel, ChannelRealization):
        h = channel.vector(len(codeword))
    else:
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
