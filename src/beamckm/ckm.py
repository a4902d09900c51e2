"""Beam channel-knowledge map: per-codeword gain maps over a quantized area.

The map stores the noiseless gain magnitude |h^H f| of every codeword at
every grid point.  Maps persist in a little-endian binary container
(magic ``BCKM``): a header with the grid, then one record per codeword.
Version 2 stores the grid extents; version 1 files, which lack them,
still load with extents of count x spacing.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .channel import ArrayConfig, Environment, channel_vectors, trace_point_paths
from .codebook import BeamId, HierarchicalCodebook

FORMAT_MAGIC = b"BCKM"
FORMAT_VERSION = 2
# magic, version, antennas, layers, nx, ny, spacings, origin, codewords
_HEADER_V1 = "<4sIIIIIddddI"
_EXTENTS = "<dd"  # v2 only, right after the v1 fields


class CkmFormatError(ValueError):
    """Raised for malformed CKM byte streams."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular quantization of the service area.

    Points sit at cell centers and are numbered row-major: index
    p = iy * nx + ix, position origin + ((ix + 0.5) dx, (iy + 0.5) dy).
    """

    extent_x: float
    extent_y: float
    spacing_x: float
    spacing_y: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        values = (self.extent_x, self.extent_y, self.spacing_x, self.spacing_y, *self.origin)
        if len(self.origin) != 2 or not all(math.isfinite(v) for v in values):
            raise ValueError(
                "grid extents, spacings and origin (x, y) must be finite, got extents "
                f"({self.extent_x}, {self.extent_y}), spacings ({self.spacing_x}, "
                f"{self.spacing_y}), origin {self.origin}"
            )
        if self.spacing_x <= 0 or self.spacing_y <= 0:
            raise ValueError("grid spacings must be positive")
        if self.extent_x <= 0 or self.extent_y <= 0:
            raise ValueError("grid extents must be positive")
        if not math.isfinite(self.extent_x / self.spacing_x * (self.extent_y / self.spacing_y)):
            raise ValueError(
                f"grid of extents ({self.extent_x}, {self.extent_y}) at spacings "
                f"({self.spacing_x}, {self.spacing_y}) has too many points to count"
            )

    @property
    def nx(self) -> int:
        return math.ceil(self.extent_x / self.spacing_x)

    @property
    def ny(self) -> int:
        return math.ceil(self.extent_y / self.spacing_y)

    @property
    def num_points(self) -> int:
        return self.nx * self.ny

    def cell_center(self, ix, iy):
        """(x, y) center of column ``ix`` and row ``iy``; ints or arrays."""
        return (
            self.origin[0] + (ix + 0.5) * self.spacing_x,
            self.origin[1] + (iy + 0.5) * self.spacing_y,
        )

    def point_coords(self) -> np.ndarray:
        """(num_points, 2) array of cell-center positions, row-major."""
        x, y = self.cell_center(np.arange(self.nx), np.arange(self.ny))
        xx, yy = np.meshgrid(x, y)  # rows vary in y
        return np.column_stack([xx.ravel(), yy.ravel()])

    def point_position(self, index: int) -> tuple[float, float]:
        iy, ix = divmod(int(index), self.nx)
        return self.cell_center(ix, iy)

    def snap_index(self, position) -> int:
        """Nearest grid point; ties and out-of-extent positions resolve
        toward the smaller row-major index / nearest boundary point."""
        x, y = float(position[0]), float(position[1])
        fx = (x - self.origin[0]) / self.spacing_x - 0.5
        fy = (y - self.origin[1]) / self.spacing_y - 0.5
        # round half toward the lower index so midpoint ties pick it
        ix = int(np.ceil(fx - 0.5))
        iy = int(np.ceil(fy - 0.5))
        ix = min(max(ix, 0), self.nx - 1)
        iy = min(max(iy, 0), self.ny - 1)
        return iy * self.nx + ix


@dataclass(frozen=True)
class CkmGrid:
    """Gain map for every codeword of one codebook over one grid.

    ``gains`` is float32 with one row per codeword in canonical order
    (layer-major, index ascending), one column per grid point.
    """

    grid: GridSpec
    num_antennas: int
    num_layers: int
    gains: np.ndarray

    def __post_init__(self):
        expect = (2 ** (self.num_layers + 1) - 2, self.grid.num_points)
        if self.gains.shape != expect:
            raise ValueError(f"gains shape {self.gains.shape}, expected {expect}")
        if self.gains.dtype != np.float32:
            raise ValueError("gains must be float32")
        # NaN propagates through both reductions, which need no temporary
        lo, hi = float(self.gains.min()), float(self.gains.max())
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError(f"gains must be finite and >= 0, got min {lo}, max {hi}")

    def layer_gains(self, layer: int) -> np.ndarray:
        """(2**layer, num_points) slice of one layer, index order."""
        start = 2**layer - 2
        return self.gains[start : start + 2**layer]

    @property
    def bottom_gains(self) -> np.ndarray:
        return self.layer_gains(self.num_layers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CkmGrid):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.num_antennas == other.num_antennas
            and self.num_layers == other.num_layers
            and np.array_equal(self.gains, other.gains)
        )


def build_ckm(
    env: Environment,
    array: ArrayConfig,
    codebook: HierarchicalCodebook,
    grid: GridSpec,
    staleness_sigma: float = 0.0,
    staleness_seed: int | None = None,
) -> CkmGrid:
    """Evaluate |h(point)^H f| for every (codeword, grid point).

    ``staleness_sigma`` > 0 multiplies each stored gain by an independent
    log-normal factor exp(sigma * Z), modelling an outdated map; the jitter
    stream is seeded separately from trial randomness.  A sigma that pushes
    a gain past the float32 range is rejected.
    """
    n_ant = array.num_antennas
    h = channel_vectors(*trace_point_paths(env, array, grid.point_coords())[:3], n_ant)
    gains = np.abs(h.conj() @ codebook.matrix.T).T  # (num_cw, num_points)
    if staleness_sigma > 0.0:
        seed = env.rng_seed if staleness_seed is None else staleness_seed
        jit_rng = np.random.default_rng(seed)
        gains = gains * np.exp(staleness_sigma * jit_rng.standard_normal(gains.shape))
        if not gains.max() <= np.finfo(np.float32).max:
            raise ValueError(
                f"staleness_sigma {staleness_sigma} pushes map gains past the float32 range"
            )
    return CkmGrid(
        grid=grid,
        num_antennas=n_ant,
        num_layers=codebook.num_layers,
        gains=np.ascontiguousarray(gains, dtype=np.float32),
    )


def save_ckm(ckm: CkmGrid) -> bytes:
    """Serialize to the BCKM little-endian container (current version)."""
    grid = ckm.grid
    out = bytearray(
        struct.pack(
            _HEADER_V1, FORMAT_MAGIC, FORMAT_VERSION, ckm.num_antennas, ckm.num_layers,
            grid.nx, grid.ny, grid.spacing_x, grid.spacing_y, grid.origin[0],
            grid.origin[1], ckm.gains.shape[0],
        )
    )
    out += struct.pack(_EXTENTS, grid.extent_x, grid.extent_y)
    row = 0
    for layer in range(1, ckm.num_layers + 1):
        for index in range(1, 2**layer + 1):
            out += struct.pack("<HH", layer, index)
            out += ckm.gains[row].astype("<f4", copy=False).tobytes()
            row += 1
    return bytes(out)


def load_ckm(data: bytes) -> CkmGrid:
    """Parse a BCKM byte stream; raises CkmFormatError on malformed input."""
    header = struct.calcsize(_HEADER_V1)
    if len(data) < header:
        raise CkmFormatError("truncated header")
    (magic, version, n_ant, n_layers, nx, ny, dx, dy, ox, oy, n_cw) = struct.unpack_from(
        _HEADER_V1, data, 0
    )
    if magic != FORMAT_MAGIC:
        raise CkmFormatError(f"bad magic {magic!r}")
    if version == 1:
        ex, ey = nx * dx, ny * dy
    elif version == 2:
        if len(data) < header + struct.calcsize(_EXTENTS):
            raise CkmFormatError("truncated header")
        ex, ey = struct.unpack_from(_EXTENTS, data, header)
        header += struct.calcsize(_EXTENTS)
    else:
        raise CkmFormatError(f"unsupported format version {version}")
    # n_ant is a uint32: bound the layers before building 2**n_layers
    if not 1 <= n_layers <= 31 or n_ant != 2**n_layers:
        raise CkmFormatError(
            f"antenna count {n_ant} inconsistent with {n_layers} layers"
        )
    try:
        grid = GridSpec(extent_x=ex, extent_y=ey, spacing_x=dx, spacing_y=dy, origin=(ox, oy))
    except ValueError as exc:
        raise CkmFormatError(f"invalid grid dimensions: {exc}") from None
    if (grid.nx, grid.ny) != (nx, ny):
        raise CkmFormatError(
            f"grid extents ({ex}, {ey}) at spacings ({dx}, {dy}) give "
            f"{grid.nx}x{grid.ny} points, header says {nx}x{ny}"
        )
    expected_cw = 2 ** (n_layers + 1) - 2
    if n_cw != expected_cw:
        raise CkmFormatError(
            f"codeword count {n_cw} inconsistent with {n_layers} layers"
        )
    n_pts = nx * ny
    record = struct.calcsize("<HH") + 4 * n_pts
    if len(data) != header + n_cw * record:
        raise CkmFormatError(
            f"payload length {len(data) - header}, expected {n_cw * record}"
        )
    gains = np.empty((n_cw, n_pts), dtype=np.float32)
    seen = set()
    off = header
    for _ in range(n_cw):
        layer, index = struct.unpack_from("<HH", data, off)
        off += 4
        if not (1 <= layer <= n_layers and 1 <= index <= 2**layer):
            raise CkmFormatError(f"codeword id ({layer},{index}) out of range")
        if (layer, index) in seen:
            raise CkmFormatError(f"duplicate codeword id ({layer},{index})")
        seen.add((layer, index))
        row = HierarchicalCodebook.row_of(BeamId(layer, index))
        gains[row] = np.frombuffer(data, dtype="<f4", count=n_pts, offset=off)
        off += 4 * n_pts
    try:
        return CkmGrid(grid=grid, num_antennas=n_ant, num_layers=n_layers, gains=gains)
    except ValueError as exc:
        raise CkmFormatError(f"invalid gains: {exc}") from None
