"""Hierarchical codebook: supports, construction, directivity.

The descent property at the end is the load-bearing one: at every layer
the wide beam whose support contains an angle must out-gain its siblings,
otherwise noiseless bisection cannot work.
"""

import numpy as np
import pytest

import beamckm as bc
from beamckm.codebook import bottom_angles

from oracles import beam_support


class TestBeamId:
    def test_bounds_enforced(self):
        bc.BeamId(3, 8)
        with pytest.raises(ValueError):
            bc.BeamId(3, 9)
        with pytest.raises(ValueError):
            bc.BeamId(0, 1)
        with pytest.raises(ValueError):
            bc.BeamId(2, 0)

    def test_ordering_is_layer_major(self):
        assert bc.BeamId(1, 2) < bc.BeamId(2, 1) < bc.BeamId(2, 3)


class TestLayerCount:
    def test_values(self):
        assert bc.num_layers(128) == 7
        assert bc.num_layers(8) == 3
        assert bc.num_layers(4) == 2


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
            depth = bc.num_layers(num)
            for n, angle in enumerate(angles, start=1):
                lo, hi = beam_support(bc.BeamId(depth, n))
                assert lo <= angle < hi


class TestBuildCodebook:
    def test_sizes(self):
        cb = bc.build_codebook(8)
        assert cb.num_layers == 3
        assert cb.matrix.shape == (14, 8)

    def test_rejects_bad_sizes(self):
        for bad in (6, 2, 0):
            with pytest.raises(ValueError):
                bc.build_codebook(bad)

    def test_unit_norms(self):
        cb = bc.build_codebook(32)
        np.testing.assert_allclose(np.linalg.norm(cb.matrix, axis=1), 1.0, atol=1e-12)

    def test_bottom_layer_is_dft(self):
        cb = bc.build_codebook(8)
        angles = bottom_angles(8)
        for n in range(1, 9):
            expected = np.exp(-1j * np.pi * angles[n - 1] * np.arange(8)) / np.sqrt(8)
            np.testing.assert_allclose(cb.codeword(bc.BeamId(3, n)), expected, atol=1e-12)

    def test_row_mapping_round_trip(self):
        cb = bc.build_codebook(16)
        beams = [bc.BeamId(l, n) for l in range(1, 5) for n in range(1, 2**l + 1)]
        assert [cb.row_of(beam) for beam in beams] == list(range(cb.matrix.shape[0]))
        for row, beam in enumerate(beams):
            np.testing.assert_array_equal(cb.codeword(beam), cb.matrix[row])

    def test_wide_beam_spans_its_members(self):
        # an upper codeword is the normalized phase-aligned sum of the
        # bottom codewords under it
        cb = bc.build_codebook(8)
        angles = bottom_angles(8)
        members = slice(0, 4)  # beams 1..4 sit under (1, 1)
        align = np.exp(1j * np.pi * angles[members] * (8 - 1) / 2.0)
        raw = (align[:, None] * cb.layer_matrix(3)[members]).sum(axis=0)
        np.testing.assert_allclose(
            cb.codeword(bc.BeamId(1, 1)), raw / np.linalg.norm(raw), atol=1e-12
        )


class TestDescentProperty:
    """In-support dominance: the correct branch always wins noiselessly."""

    @pytest.mark.parametrize("num_antennas", [16, 32])
    def test_containing_beam_beats_sibling_everywhere(self, num_antennas):
        cb = bc.build_codebook(num_antennas)
        depth = cb.num_layers
        # random interior angles: exactly on a support edge both siblings
        # tie by symmetry, so edges are excluded by sampling
        thetas = np.random.default_rng(8).uniform(-1.0, 1.0, size=2000)
        steer = np.exp(-1j * np.pi * np.outer(thetas, np.arange(num_antennas)))
        for layer in range(1, depth + 1):
            gains = np.abs(steer @ cb.layer_matrix(layer).conj().T)
            supports = np.array(
                [beam_support(bc.BeamId(layer, n)) for n in range(1, 2**layer + 1)]
            )
            owner = np.searchsorted(supports[:, 0], thetas, side="right") - 1
            sibling = owner ^ 1
            own = gains[np.arange(len(thetas)), owner]
            sib = gains[np.arange(len(thetas)), sibling]
            assert np.all(own > sib), f"layer {layer}: sibling won somewhere"
