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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ArrayConfig, Environment, channel_vectors, trace_point_paths
from .codebook import beam_index, layer_rows, layer_start, layers_of, num_layers

FORMAT_MAGIC = b"BCKM"
FORMAT_VERSION = 2
# magic, version, antennas, layers, nx, ny, spacings, origin, codewords
_HEADER_V1 = "<4sIIIIIddddI"
_EXTENTS = "<dd"  # v2 only, right after the v1 fields
# grid points traced, synthesized and multiplied at a time by build_ckm
_CHUNK_POINTS = 1024
MAX_GRID_POINTS = (2**31 - 5) // 4  # numpy sizes a BCKM record, 4 + 4 bytes a point, in a C int


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
        cells = self.extent_x / self.spacing_x * (self.extent_y / self.spacing_y)
        count = self.num_points if math.isfinite(cells) else cells  # inf or nan: uncountable
        if not 0 < count <= MAX_GRID_POINTS:
            raise ValueError(
                f"grid of extents ({self.extent_x}, {self.extent_y}) at spacings "
                f"({self.spacing_x}, {self.spacing_y}) has "
                f"{'no' if count == 0 else 'too many'} points for a map ({count})"
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

    def positions(self, ids) -> np.ndarray:
        """(len(ids), 2) cell-center positions of grid-point indices."""
        iy, ix = np.divmod(np.asarray(ids, dtype=np.int64), self.nx)
        return np.column_stack(self.cell_center(ix, iy))

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
    (``codebook.row_of``), one column per grid point.  The row count fixes
    the codebook's depth ``num_layers`` and array size ``num_antennas``.
    """

    grid: GridSpec
    gains: np.ndarray
    num_layers: int = field(init=False)
    num_antennas: int = field(init=False)

    def __post_init__(self):
        shape = self.gains.shape
        if len(shape) != 2 or shape[1] != self.grid.num_points:
            raise ValueError(f"gains shape {shape}, expected (codewords, {self.grid.num_points})")
        object.__setattr__(self, "num_layers", layers_of(shape[0]))
        object.__setattr__(self, "num_antennas", 2**self.num_layers)
        if self.gains.dtype != np.float32:
            raise ValueError("gains must be float32")
        # NaN propagates through both reductions, which need no temporary
        lo, hi = float(self.gains.min()), float(self.gains.max())
        if not (lo >= 0.0 and hi < math.inf):
            raise ValueError(f"gains must be finite and >= 0, got min {lo}, max {hi}")

    @cached_property
    def reference_gain(self) -> float:
        """Scene-scale matched gain: median of the best bottom-layer map gain
        over the grid points that some path reaches.  SNR settings are
        relative to this, so a configured SNR describes a typical aligned
        link, not the raw transmit power, however much of the grid is
        shadowed.  Computed on first use and kept."""
        best = self.gains[layer_rows(self.num_layers)].max(axis=0).astype(np.float64)
        reached = best[best > 0.0]
        if reached.size == 0:
            raise ValueError("no grid point of the map has a positive gain")
        return float(np.median(reached))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CkmGrid):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.gains, other.gains)


def build_ckm(
    env: Environment,
    array: ArrayConfig,
    codebook: np.ndarray,
    grid: GridSpec,
    staleness_sigma: float = 0.0,
) -> CkmGrid:
    """Evaluate |h(point)^H f| for every (codeword, grid point).

    ``codebook`` is the array's codeword matrix (``build_codebook``).  Each
    chunk of grid points is traced, synthesized and multiplied in turn and
    written into one float32 map: no array spans the grid's channels.

    ``staleness_sigma`` > 0 multiplies each stored gain by an independent
    log-normal factor exp(sigma * Z), modelling an outdated map; the jitter
    stream is seeded from ``env.rng_seed``, apart from trial randomness.  A
    sigma that pushes a gain past the float32 range is rejected.
    """
    n_ant = array.num_antennas
    if np.shape(codebook) != (layer_start(num_layers(n_ant) + 1), n_ant):
        raise ValueError(f"codebook shape {np.shape(codebook)} does not fit {n_ant} antennas")
    gains = np.empty((len(codebook), grid.num_points), dtype=np.float32)
    if staleness_sigma > 0.0:
        # one float64 block: the normals are scaled and exponentiated in place
        jitter = np.random.default_rng(env.rng_seed).standard_normal(gains.shape)
        jitter *= staleness_sigma
        np.exp(jitter, out=jitter)
    for start in range(0, grid.num_points, _CHUNK_POINTS):
        cols = slice(start, min(start + _CHUNK_POINTS, grid.num_points))
        coords = grid.positions(np.arange(cols.start, cols.stop))
        h = channel_vectors(*trace_point_paths(env, array, coords)[:3], n_ant)
        chunk = np.abs(h.conj() @ codebook.T).T  # (num_cw, points of the chunk)
        if staleness_sigma > 0.0:
            chunk = chunk * jitter[:, cols]
            if not chunk.max() <= np.finfo(np.float32).max:
                raise ValueError(
                    f"staleness_sigma {staleness_sigma} pushes map gains past the float32 range"
                )
        gains[:, cols] = chunk
    return CkmGrid(grid, gains)


def _records(n_pts: int) -> np.dtype:
    """A BCKM payload record: a codeword's (layer, index) id, then its gains per grid point."""
    return np.dtype([("id", "<u2", 2), ("gains", "<f4", n_pts)])


def save_ckm(ckm: CkmGrid) -> bytearray:
    """Serialize to the BCKM little-endian container (current version):
    one buffer holding the header, then the records in row order."""
    grid, n_cw = ckm.grid, ckm.gains.shape[0]
    head = struct.calcsize(_HEADER_V1 + _EXTENTS[1:])
    out = bytearray(head + n_cw * _records(grid.num_points).itemsize)
    struct.pack_into(
        _HEADER_V1 + _EXTENTS[1:], out, 0, FORMAT_MAGIC, FORMAT_VERSION, ckm.num_antennas,
        ckm.num_layers, grid.nx, grid.ny, grid.spacing_x, grid.spacing_y, *grid.origin, n_cw,
        grid.extent_x, grid.extent_y,
    )
    records = np.frombuffer(out, _records(grid.num_points), offset=head)
    layer = np.repeat(np.arange(1, ckm.num_layers + 1), 2 ** np.arange(1, ckm.num_layers + 1))
    records["id"] = np.column_stack([layer, beam_index(np.arange(n_cw), layer)])
    records["gains"] = ckm.gains
    return out


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
    if n_cw != layer_start(n_layers + 1):
        raise CkmFormatError(
            f"codeword count {n_cw} inconsistent with {n_layers} layers"
        )
    n_pts = nx * ny
    record = _records(n_pts)
    if len(data) != header + n_cw * record.itemsize:
        raise CkmFormatError(
            f"payload length {len(data) - header}, expected {n_cw * record.itemsize}"
        )
    records = np.frombuffer(data, record, count=n_cw, offset=header)
    layer, index = records["id"].astype(np.int64).T
    # ids are u16: bound the layer before shifting, as 1 << 64 overflows int64
    bounded = np.clip(layer, 1, n_layers)
    known = (layer == bounded) & (1 <= index) & (index <= 1 << bounded)
    rows = np.where(known, layer_start(bounded) + index - 1, -1)
    # a record repeats an id when it is not the id's first occurrence
    repeat = ~np.isin(np.arange(n_cw), np.unique(rows, return_index=True)[1])
    bad = np.flatnonzero(~known | repeat)
    if bad.size:
        k = bad[0]  # the first offending record, in record order
        cw = f"({layer[k]},{index[k]})"
        raise CkmFormatError(
            f"codeword id {cw} out of range" if not known[k] else f"duplicate codeword id {cw}"
        )
    gains = np.empty((n_cw, n_pts), dtype=np.float32)
    gains[rows] = records["gains"]
    try:
        return CkmGrid(grid, gains)
    except ValueError as exc:
        raise CkmFormatError(f"invalid gains: {exc}") from None
