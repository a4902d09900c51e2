"""Hierarchical codebook: supports, construction, directivity.

The descent property at the end is the load-bearing one: at every layer
the wide beam whose support contains an angle must out-gain its siblings,
otherwise noiseless bisection cannot work.
"""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import beamckm as bc
from beamckm.codebook import (
    beam_index,
    bottom_angles,
    layer_rows,
    layer_start,
    layers_of,
    row_of,
)

from oracles import beam_support, codebook_by_row_norms


class TestBeamId:
    def test_bounds_enforced(self):
        bc.BeamId(3, 8)
        with pytest.raises(ValueError):
            bc.BeamId(3, 9)
        with pytest.raises(ValueError):
            bc.BeamId(0, 1)
        with pytest.raises(ValueError):
            bc.BeamId(2, 0)

    def test_huge_layer_checked_without_a_big_integer(self):
        # comparing index with 2**layer would build a 10**8-bit integer
        tracemalloc.start()
        try:
            bc.BeamId(10**8, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        with pytest.raises(ValueError):
            bc.BeamId(3, 9)

    def test_ordering_is_layer_major(self):
        assert bc.BeamId(1, 2) < bc.BeamId(2, 1) < bc.BeamId(2, 3)


class TestLayerCount:
    def test_values(self):
        assert bc.codebook.num_layers(128) == 7
        assert bc.codebook.num_layers(8) == 3
        assert bc.codebook.num_layers(4) == 2


class TestBeamSupport:
    def test_known_intervals(self):
        assert beam_support(bc.BeamId(1, 1)) == (-1.0, 0.0)
        assert beam_support(bc.BeamId(2, 3)) == (0.0, 0.5)
        assert beam_support(bc.BeamId(3, 5)) == (0.0, 0.25)

    def test_layers_tile_the_angle_axis(self):
        for layer in range(1, 5):
            edges = [beam_support(bc.BeamId(layer, n)) for n in range(1, 2**layer + 1)]
            assert edges[0][0] == -1.0
            assert edges[-1][1] == 1.0
            for (completed, nxt) in zip(edges, edges[1:]):
                assert completed[1] == nxt[0]

    def test_children_partition_parent(self):
        parent = beam_support(bc.BeamId(2, 2))
        left = beam_support(bc.BeamId(3, 3))
        right = beam_support(bc.BeamId(3, 4))
        assert left[0] == parent[0] and right[1] == parent[1] and left[1] == right[0]


class TestBottomAngles:
    def test_centers_are_odd_grid(self):
        angles = bottom_angles(8)
        np.testing.assert_allclose(angles, -1 + (2 * np.arange(1, 9) - 1) / 8)
        assert angles[0] == -0.875

    def test_each_center_inside_its_support(self):
        for num in (8, 16):
            angles = bottom_angles(num)
            depth = bc.codebook.num_layers(num)
            for n, angle in enumerate(angles, start=1):
                lo, hi = beam_support(bc.BeamId(depth, n))
                assert lo <= angle < hi


class TestBuildCodebook:
    def test_sizes(self):
        cb = bc.build_codebook(8)
        assert layers_of(cb.shape[0]) == 3
        assert cb.shape == (14, 8)
        assert cb.dtype == np.complex128

    def test_rejects_bad_sizes(self):
        for bad in (6, 2, 0):
            with pytest.raises(ValueError):
                bc.build_codebook(bad)

    def test_matrix_is_read_only(self):
        cb = bc.build_codebook(32)
        with pytest.raises(ValueError, match="read-only"):
            cb[row_of(bc.BeamId(5, 1))] = 0.0

    def test_bad_size_raises_on_every_call(self):
        for bad in (6, 2, 0, 3):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"power of two >= 4, got {bad}"):
                    bc.build_codebook(bad)
        bc.build_codebook(32)  # a float equal to a good size still fails after it
        with pytest.raises(TypeError):
            bc.build_codebook(32.0)

    def test_unit_norms(self):
        cb = bc.build_codebook(32)
        np.testing.assert_allclose(np.linalg.norm(cb, axis=1), 1.0, atol=1e-12)

    def test_bottom_layer_is_dft(self):
        cb = bc.build_codebook(8)
        angles = bottom_angles(8)
        for n in range(1, 9):
            expected = np.exp(-1j * np.pi * angles[n - 1] * np.arange(8)) / np.sqrt(8)
            np.testing.assert_allclose(cb[row_of(bc.BeamId(3, n))], expected, atol=1e-12)

    def test_row_mapping_round_trip(self):
        # rows enumerate the beams in BeamId order, one layer per slice, and
        # the index helper inverts row_of, at every depth up to 10
        for depth in range(1, 11):
            beams = sorted(bc.BeamId(l, n) for l in range(1, depth + 1) for n in range(1, 2**l + 1))
            total = layer_start(depth + 1)
            assert layers_of(total) == depth
            for bad in (total - 1, total + 1):
                with pytest.raises(ValueError, match="codebook"):
                    layers_of(bad)
            assert [row_of(beam) for beam in beams] == list(range(total))
            for l in range(1, depth + 1):
                rows = np.arange(total)[layer_rows(l)]
                assert rows.tolist() == [row_of(b) for b in beams if b.layer == l]
                np.testing.assert_array_equal(beam_index(rows, l), np.arange(1, 2**l + 1))
            assert all(beam_index(row_of(b), b.layer) == b.index for b in beams)
        cb = bc.build_codebook(16)
        beams = [bc.BeamId(l, n) for l in range(1, 5) for n in range(1, 2**l + 1)]
        assert cb.shape[0] == len(beams)
        for row, beam in enumerate(beams):
            np.testing.assert_array_equal(cb[row_of(beam)], cb[row])

    def test_only_the_codebook_spells_the_row_layout(self):
        # row offsets such as ``2**layer - 2`` or ``2 ** (l + 1) - 3``
        offset = re.compile(r"2\s*\*\*\s*(?:[\w.]+(?:\([^()]*\))?|\([^()]*\))\s*-\s*[23]\b")
        src = Path(bc.__file__).parent
        found = [
            f"{path.name}:{i}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            if path.name != "codebook.py"
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if offset.search(line)
        ]
        assert found == []

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_equals_the_per_row_norm_build(self, n):
        assert bc.build_codebook(n).tobytes() == codebook_by_row_norms(n).tobytes()

    def test_wide_beam_spans_its_members(self):
        # an upper codeword is the normalized phase-aligned sum of the
        # bottom codewords under it
        cb = bc.build_codebook(8)
        angles = bottom_angles(8)
        members = slice(0, 4)  # beams 1..4 sit under (1, 1)
        align = np.exp(1j * np.pi * angles[members] * (8 - 1) / 2.0)
        raw = (align[:, None] * cb[layer_rows(3)][members]).sum(axis=0)
        np.testing.assert_allclose(
            cb[row_of(bc.BeamId(1, 1))], raw / np.linalg.norm(raw), atol=1e-12
        )


class TestDescentProperty:
    """In-support dominance: the correct branch always wins noiselessly."""

    @pytest.mark.parametrize("num_antennas", [16, 32])
    def test_containing_beam_beats_sibling_everywhere(self, num_antennas):
        cb = bc.build_codebook(num_antennas)
        depth = layers_of(len(cb))
        # random interior angles: exactly on a support edge both siblings
        # tie by symmetry, so edges are excluded by sampling
        thetas = np.random.default_rng(8).uniform(-1.0, 1.0, size=2000)
        steer = np.exp(-1j * np.pi * np.outer(thetas, np.arange(num_antennas)))
        for layer in range(1, depth + 1):
            gains = np.abs(steer @ cb[layer_rows(layer)].conj().T)
            supports = np.array(
                [beam_support(bc.BeamId(layer, n)) for n in range(1, 2**layer + 1)]
            )
            owner = np.searchsorted(supports[:, 0], thetas, side="right") - 1
            sibling = owner ^ 1
            own = gains[np.arange(len(thetas)), owner]
            sib = gains[np.arange(len(thetas)), sibling]
            assert np.all(own > sib), f"layer {layer}: sibling won somewhere"
