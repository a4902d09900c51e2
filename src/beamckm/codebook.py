"""Hierarchical binary beam codebook over a power-of-two ULA.

Beams are organized in layers 1..L with 2**l beams per layer; each beam
covers a half-open interval of sine-space [-1, 1) and splits into the two
beams below it.  The bottom layer is the orthogonal DFT codebook; upper
layers are synthesized by summing the member DFT columns with per-column
phase alignment (a plain sum puts deep nulls inside the covered interval,
which makes layer-by-layer descent unreliable).

The codebook is a plain read-only (2N-2, N) complex matrix, one unit-norm
codeword per row.  This module owns the row layout that the codeword
matrix, the gain map and the search states share (``row_of`` and its
helpers, and ``layers_of``, which reads the depth off a row count); no
other module spells it out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class BeamId:
    """Position of one beam in the hierarchy: layer in [1, L], index in [1, 2**layer]."""

    layer: int
    index: int

    def __post_init__(self):
        if self.layer < 1:
            raise ValueError(f"layer must be >= 1, got {self.layer}")
        # bit_length, not 2**layer, so a huge layer costs no big integer
        if self.index < 1 or int(self.index - 1).bit_length() > self.layer:
            raise ValueError(
                f"index {self.index} out of range for layer {self.layer}"
            )


def num_layers(num_antennas: int) -> int:
    """Depth of the hierarchy for a given array size."""
    return math.ceil(math.log2(num_antennas))


def bottom_angles(num_antennas: int) -> np.ndarray:
    """Center angles of the bottom-layer DFT beams, spacing 2/N."""
    n = np.arange(1, num_antennas + 1)
    return -1.0 + (2.0 * n - 1.0) / num_antennas


def layer_start(layer):
    """Row of a layer's first beam (``layer`` an int or an integer array);
    layer L+1's start is the codeword count of an L-layer codebook."""
    return 2**layer - 2


def layers_of(num_rows: int) -> int:
    """Depth L >= 1 of a codebook of ``num_rows`` codewords, the inverse of
    ``layer_start(L + 1)``; a count that is no whole codebook is a ValueError."""
    layers = (int(num_rows) + 2).bit_length() - 2
    if layers < 1 or layer_start(layers + 1) != num_rows:
        raise ValueError(f"{num_rows} rows are no full codebook of 2**(L+1) - 2 rows")
    return layers


def layer_rows(layer: int) -> slice:
    """Rows of one layer's beams, index order."""
    return slice(layer_start(layer), layer_start(layer + 1))


def row_of(beam: BeamId) -> int:
    """Row of a beam in the canonical codeword order."""
    return layer_start(beam.layer) + beam.index - 1


def beam_index(rows, layer: int):
    """1-based indices of ``layer``'s rows (an int or an array): ``row_of``'s inverse."""
    return rows - (layer_start(layer) - 1)


def build_codebook(num_antennas: int) -> np.ndarray:
    """All codewords of the hierarchy for a power-of-two array size N >= 4:
    a read-only (2N-2, N) complex matrix, one unit-norm codeword per row in
    canonical order (layer 1 first, indices ascending within a layer;
    ``row_of``)."""
    if num_antennas < 4 or num_antennas & (num_antennas - 1) != 0:
        raise ValueError(f"num_antennas must be a power of two >= 4, got {num_antennas}")
    n_ant = num_antennas
    depth = num_layers(n_ant)
    angles = bottom_angles(n_ant)
    # bottom layer: normalized DFT columns, entry m = exp(-j*pi*theta*m)/sqrt(N)
    bottom = np.exp(-1j * np.pi * np.outer(angles, np.arange(n_ant))) / np.sqrt(n_ant)
    # alignment coefficients cancel the linear phase of the array response so
    # that adjacent member columns add constructively across the whole support
    aligned = np.exp(1j * np.pi * angles * (n_ant - 1) / 2.0)[:, None] * bottom

    cw = np.empty((layer_start(depth + 1), n_ant), dtype=np.complex128)
    cw[layer_rows(depth)] = bottom
    for layer in range(depth - 1, 0, -1):
        # each beam sums its 2**(depth - layer) member columns; the norm is
        # the two real dots norm(v) takes per row, so it keeps norm(v)'s bits
        block = aligned.reshape(2**layer, -1, n_ant).sum(axis=1)
        norms = np.sqrt(np.vecdot(block.real, block.real) + np.vecdot(block.imag, block.imag))
        cw[layer_rows(layer)] = block / norms[:, None]
    cw.flags.writeable = False
    return cw
