"""Hierarchical binary beam codebook over a power-of-two ULA.

Beams are organized in layers 1..L with 2**l beams per layer; each beam
covers a half-open interval of sine-space [-1, 1) and splits into the two
beams below it.  The bottom layer is the orthogonal DFT codebook; upper
layers are synthesized by summing the member DFT columns with per-column
phase alignment (a plain sum puts deep nulls inside the covered interval,
which makes layer-by-layer descent unreliable).
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
        if not 1 <= self.index <= 2**self.layer:
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


class HierarchicalCodebook:
    """All codewords of the L-layer hierarchy, each with unit norm.

    Codewords are stored in one matrix in canonical order: layer 1 first,
    indices ascending within a layer.
    """

    def __init__(self, num_antennas: int, codewords: np.ndarray):
        self.num_antennas = num_antennas
        self.num_layers = num_layers(num_antennas)
        self._cw = codewords  # (total, N) complex

    @staticmethod
    def row_of(beam: BeamId) -> int:
        """Row of a beam in the canonical codeword matrix."""
        return 2**beam.layer - 2 + beam.index - 1

    def codeword(self, beam: BeamId) -> np.ndarray:
        if beam.layer > self.num_layers:
            raise ValueError(f"beam {beam} beyond layer {self.num_layers}")
        return self._cw[self.row_of(beam)]

    def layer_matrix(self, layer: int) -> np.ndarray:
        """(2**layer, N) view of one layer's codewords, index order."""
        start = 2**layer - 2
        return self._cw[start : start + 2**layer]

    @property
    def matrix(self) -> np.ndarray:
        return self._cw


def build_codebook(num_antennas: int) -> HierarchicalCodebook:
    """Construct the full hierarchy for a power-of-two array size >= 4."""
    if num_antennas < 4 or num_antennas & (num_antennas - 1) != 0:
        raise ValueError(f"num_antennas must be a power of two >= 4, got {num_antennas}")
    n_ant = num_antennas
    depth = num_layers(n_ant)
    angles = bottom_angles(n_ant)
    ant = np.arange(n_ant)
    # bottom layer: normalized DFT columns, entry m = exp(-j*pi*theta*m)/sqrt(N)
    bottom = np.exp(-1j * np.pi * np.outer(angles, ant)) / np.sqrt(n_ant)
    # alignment coefficients cancel the linear phase of the array response so
    # that adjacent member columns add constructively across the whole support
    align = np.exp(1j * np.pi * angles * (n_ant - 1) / 2.0)

    total = 2 ** (depth + 1) - 2
    cw = np.empty((total, n_ant), dtype=np.complex128)
    cw[2**depth - 2 :] = bottom
    for layer in range(depth - 1, 0, -1):
        members = 2 ** (depth - layer)
        start = 2**layer - 2
        for idx in range(2**layer):
            lo = idx * members
            sel = slice(lo, lo + members)
            v = (align[sel, None] * bottom[sel]).sum(axis=0)
            cw[start + idx] = v / np.linalg.norm(v)
    return HierarchicalCodebook(n_ant, cw)
