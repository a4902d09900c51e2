"""Gain-map grid quantization, construction, lookup, and the binary format.

Oracles: nearest grid point by brute-force Euclidean distance, and map
contents by probing a freshly synthesized channel at every grid point.
"""

import dataclasses
import math
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm.channel import trace_point_paths
from beamckm.codebook import layer_rows, layer_start

from conftest import toy_ckm

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def nearest_point_oracle(grid: bc.GridSpec, pos) -> int:
    """Closest cell center; among exact ties, the smallest row-major index."""
    coords = grid.positions(np.arange(grid.num_points))
    d2 = (coords[:, 0] - pos[0]) ** 2 + (coords[:, 1] - pos[1]) ** 2
    return int(np.flatnonzero(d2 == d2.min()).min())


# v2 header: the 60 bytes of v1 (magic .. codeword count), then the extents
V1_HEADER = 60
RECORDS = V1_HEADER + 16


def as_version_1(data: bytes) -> bytes:
    """The same map in the v1 layout, which has no extents."""
    v1 = bytearray(data[:V1_HEADER] + data[RECORDS:])
    struct.pack_into("<I", v1, 4, 1)
    return bytes(v1)


def tiny_scene(n=8):
    """Obstacle-free scene so every grid point keeps its LoS path."""
    array = bc.ArrayConfig(num_antennas=n, carrier_frequency_hz=8e10, bs_position=(3.0, -2.0))
    env = bc.Environment(scatterers=(bc.Scatterer((0.5, 4.0), 0.6),), rng_seed=3)
    grid = bc.GridSpec(extent_x=6.0, extent_y=5.0, spacing_x=1.0, spacing_y=1.0)
    return array, env, grid, bc.build_codebook(n)


class TestGridSpec:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            bc.GridSpec(extent_x=0.0, extent_y=1.0, spacing_x=1.0, spacing_y=1.0)
        with pytest.raises(ValueError):
            bc.GridSpec(extent_x=1.0, extent_y=1.0, spacing_x=0.0, spacing_y=1.0)
        with pytest.raises(ValueError):
            bc.GridSpec(extent_x=1.0, extent_y=-1.0, spacing_x=1.0, spacing_y=1.0)

    @pytest.mark.parametrize(
        "args, origin",
        [
            ((math.nan, 1.0, 1.0, 1.0), (0.0, 0.0)),
            ((math.inf, 1.0, 1.0, 1.0), (0.0, 0.0)),
            ((1.0, -math.inf, 1.0, 1.0), (0.0, 0.0)),
            ((1.0, 1.0, math.nan, 1.0), (0.0, 0.0)),
            ((1.0, 1.0, 1.0, math.inf), (0.0, 0.0)),
            ((1.0, 1.0, 1.0, 1.0), (math.nan, 0.0)),
            ((1.0, 1.0, 1.0, 1.0), (0.0, -math.inf)),
            ((1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
        ],
    )
    def test_rejects_non_finite_values(self, args, origin):
        with pytest.raises(ValueError, match="must be finite"):
            bc.GridSpec(*args, origin=origin)

    @pytest.mark.parametrize(
        "args",
        [(1.0, 1.0, 1e-310, 1.0), (1.0, 1.0, 1.0, 1e-310), (1e300, 1e300, 1e-10, 1e-10)],
    )
    def test_rejects_point_counts_that_overflow(self, args):
        with pytest.raises(ValueError, match="too many points"):
            bc.GridSpec(*args)

    def test_rejects_more_points_than_a_map_record_holds(self):
        most = bc.ckm.MAX_GRID_POINTS
        assert bc.GridSpec(most, 1.0, 1.0, 1.0).num_points == most
        assert bc.ckm._records(most).itemsize == 4 + 4 * most  # numpy's C-int bound
        with pytest.raises(ValueError, match=rf"too many points for a map \({most + 1}\)"):
            bc.GridSpec(most + 1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"too many points for a map \(4900000000\)"):
            bc.GridSpec(70_000.0, 70_000.0, 1.0, 1.0)

    @pytest.mark.parametrize("args", [(1e-300, 1.0, 1e300, 1.0), (1.0, 1e-300, 1.0, 1e300)])
    def test_rejects_a_grid_without_points(self, args):
        """Positive extents whose ratio to the spacing underflows count no
        cell; the grid is rejected with its extents and spacings named."""
        ex, ey, sx, sy = args
        named = f"extents ({ex}, {ey}) at spacings ({sx}, {sy}) has no points for a map (0)"
        with pytest.raises(ValueError, match=re.escape(named)):
            bc.GridSpec(*args)

    def test_counts_round_up_partial_cells(self):
        grid = bc.GridSpec(extent_x=10.0, extent_y=7.0, spacing_x=3.0, spacing_y=2.0)
        assert (grid.nx, grid.ny, grid.num_points) == (4, 4, 16)

    def test_coords_are_row_major_cell_centers(self):
        grid = bc.GridSpec(
            extent_x=3.0, extent_y=2.0, spacing_x=1.0, spacing_y=1.0, origin=(10.0, -4.0)
        )
        coords = grid.positions(np.arange(grid.num_points))
        assert coords.shape == (6, 2)
        np.testing.assert_allclose(coords[0], [10.5, -3.5])
        np.testing.assert_allclose(coords[1], [11.5, -3.5])  # x varies fastest
        np.testing.assert_allclose(coords[3], [10.5, -2.5])
        for p in range(grid.num_points):
            np.testing.assert_allclose(grid.cell_center(p % grid.nx, p // grid.nx), coords[p])

    def test_snap_matches_brute_force_nearest(self):
        grid = bc.GridSpec(
            extent_x=7.0, extent_y=5.0, spacing_x=1.25, spacing_y=0.75, origin=(-2.0, 1.0)
        )
        rng = np.random.default_rng(42)
        pos = np.column_stack(
            [
                rng.uniform(-4.0, 7.0, size=400),  # includes out-of-extent values
                rng.uniform(-1.0, 8.0, size=400),
            ]
        )
        for p in pos:
            assert grid.snap_index(p) == nearest_point_oracle(grid, p)

    def test_snap_prefers_nearer_point(self):
        grid = bc.GridSpec(extent_x=2.0, extent_y=1.0, spacing_x=1.0, spacing_y=1.0)
        assert grid.snap_index((0.9, 0.5)) == 0  # 0.4 cells from the first center
        assert grid.snap_index((1.1, 0.5)) == 1  # 0.6 cells from the first center

    def test_snap_midpoint_tie_takes_smaller_index(self):
        grid = bc.GridSpec(extent_x=2.0, extent_y=2.0, spacing_x=1.0, spacing_y=1.0)
        assert grid.snap_index((1.0, 0.5)) == 0  # two-way tie in x
        assert grid.snap_index((1.0, 1.0)) == 0  # four-way tie
        assert grid.snap_index((1.0, 1.0)) == nearest_point_oracle(grid, (1.0, 1.0))

    def test_snap_clamps_outside_positions(self):
        grid = bc.GridSpec(extent_x=4.0, extent_y=3.0, spacing_x=1.0, spacing_y=1.0)
        assert grid.snap_index((-50.0, -50.0)) == 0
        assert grid.snap_index((50.0, 50.0)) == grid.num_points - 1


class TestBuildCkm:
    def test_gains_match_direct_probe_everywhere(self):
        array, env, grid, cb = tiny_scene()
        ckm = bc.build_ckm(env, array, cb, grid)
        assert ckm.gains.shape == (2 * 8 - 2, grid.num_points)
        for p in range(grid.num_points):
            h = bc.channel.synthesize_channel(env, array, grid.positions([p])[0])
            direct = np.abs(cb @ h.conj())
            np.testing.assert_allclose(ckm.gains[:, p], direct, rtol=1e-5, atol=1e-12)

    def test_codebook_of_another_array_rejected(self):
        array, env, grid, _ = tiny_scene(32)
        with pytest.raises(ValueError, match="codebook"):
            bc.build_ckm(env, array, bc.build_codebook(16), grid)

    def test_max_paths_beyond_the_scene_changes_no_byte(self):
        # desk has three scatterers, so slots past the fourth stay empty
        config = bc.load_scenario(CONFIGS / "desk.json")
        env, array, grid = config.environment, config.array, config.grid
        cb = bc.build_codebook(array.num_antennas)
        wide = dataclasses.replace(env, max_paths=64)
        traced = trace_point_paths(wide, array, grid.positions(np.arange(grid.num_points)))
        assert traced[0].shape == (grid.num_points, len(env.scatterers) + 1)
        assert bc.save_ckm(bc.build_ckm(wide, array, cb, grid)) == bc.save_ckm(
            bc.build_ckm(env, array, cb, grid)
        )

    def test_blocked_points_store_zero_gain(self):
        # a full-width wall: points beyond it reach nothing and map to zero
        array = bc.ArrayConfig(num_antennas=8, carrier_frequency_hz=8e10, bs_position=(1.0, -3.0))
        env = bc.Environment(obstacles=(bc.Obstacle((-10.0, 2.0), (10.0, 2.0)),))
        grid = bc.GridSpec(extent_x=2.0, extent_y=4.0, spacing_x=1.0, spacing_y=1.0)
        ckm = bc.build_ckm(env, array, bc.build_codebook(8), grid)
        blocked = visible = 0
        for p in range(grid.num_points):
            try:
                bc.channel.synthesize_channel(env, array, grid.positions([p])[0])
            except ValueError:
                np.testing.assert_array_equal(ckm.gains[:, p], 0.0)
                blocked += 1
            else:
                assert ckm.gains[:, p].max() > 0.0
                visible += 1
        assert blocked > 0 and visible > 0

    def test_staleness_zero_is_identity(self):
        array, env, grid, cb = tiny_scene()
        a = bc.build_ckm(env, array, cb, grid)
        b = bc.build_ckm(env, array, cb, grid, staleness_sigma=0.0)
        assert a == b

    def test_staleness_deterministic_and_seeded(self):
        # the jitter is drawn from the scene's own rng_seed
        array, env, grid, cb = tiny_scene()
        other = dataclasses.replace(env, rng_seed=env.rng_seed + 1)
        stale = bc.build_ckm(env, array, cb, grid, staleness_sigma=0.3)
        assert stale == bc.build_ckm(env, array, cb, grid, staleness_sigma=0.3)
        jitter = [
            bc.build_ckm(e, array, cb, grid, staleness_sigma=0.3).gains
            / bc.build_ckm(e, array, cb, grid).gains
            for e in (env, other)
        ]
        assert not np.allclose(jitter[0], jitter[1], rtol=1e-3)

    def test_staleness_applies_lognormal_jitter(self):
        array, env, grid, cb = tiny_scene()
        sigma = 0.25
        plain = bc.build_ckm(env, array, cb, grid).gains.astype(np.float64)
        stale = bc.build_ckm(env, array, cb, grid, staleness_sigma=sigma).gains.astype(
            np.float64
        )
        assert np.all(plain > 0)
        z = np.log(stale / plain) / sigma
        assert abs(z.mean()) < 0.2
        assert 0.85 < z.std() < 1.15

    def test_staleness_overflow_rejected(self):
        # exp(200 Z) passes the float32 range for about a third of the gains
        array, env, grid, cb = tiny_scene()
        with pytest.raises(ValueError, match="staleness_sigma"):
            bc.build_ckm(env, array, cb, grid, staleness_sigma=200.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -3.0])
    def test_unusable_gains_rejected(self, bad):
        grid = bc.GridSpec(extent_x=2.0, extent_y=1.0, spacing_x=1.0, spacing_y=1.0)
        gains = np.ones((6, 2), np.float32)
        gains[4, 1] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            bc.CkmGrid(grid, gains)

    def test_grid_table_shape_and_dtype_enforced(self):
        grid = bc.GridSpec(extent_x=2.0, extent_y=1.0, spacing_x=1.0, spacing_y=1.0)
        # the row count must be a whole codebook's, 2**(L+1) - 2 for L >= 1
        for rows in (0, 1, 5, 10, 12):
            with pytest.raises(ValueError, match="codebook"):
                bc.CkmGrid(grid, np.zeros((rows, 2), np.float32))
        with pytest.raises(ValueError):
            bc.CkmGrid(grid, np.zeros((6, 2)))
        with pytest.raises(ValueError, match="shape"):
            bc.CkmGrid(grid, np.zeros(12, np.float32))
        with pytest.raises(ValueError, match="shape"):
            bc.CkmGrid(grid, np.zeros((6, 3), np.float32))


class TestLookup:
    def test_lookup_uses_nearest_point(self):
        ckm = toy_ckm(np.array([[3.0, 0.0, 0.0, 0.0], [7.0, 0.0, 0.0, 0.0]]))
        gains = ckm.gains[layer_rows(2)][0]  # beam (2, 1) at each grid point
        assert gains[ckm.grid.snap_index((0.9, 0.5))] == 3.0
        assert gains[ckm.grid.snap_index((1.1, 0.5))] == 7.0

    def test_lookup_tie_takes_smaller_index(self):
        ckm = toy_ckm(np.array([[3.0, 0.0, 0.0, 0.0], [7.0, 0.0, 0.0, 0.0]]))
        assert ckm.gains[layer_rows(2)][0, ckm.grid.snap_index((1.0, 0.5))] == 3.0

    def test_row_accessors_agree_with_layout(self):
        rng = np.random.default_rng(5)
        ckm = toy_ckm(rng.uniform(0.1, 1.0, size=(3, 8)))
        np.testing.assert_array_equal(ckm.gains[layer_rows(1)], ckm.gains[0:2])
        np.testing.assert_array_equal(ckm.gains[layer_rows(3)], ckm.gains[6:14])
        assert ckm.gains.shape[0] == layer_start(ckm.num_layers + 1) == 14
        np.testing.assert_array_equal(ckm.gains[layer_rows(2)][2], ckm.gains[4])


class TestBinaryFormat:
    def make(self):
        array, env, grid, cb = tiny_scene()
        return bc.build_ckm(env, array, cb, grid)

    def test_round_trip_is_bit_exact(self):
        ckm = self.make()
        data = bc.save_ckm(ckm)
        back = bc.load_ckm(data)
        assert back == ckm
        assert back.gains.tobytes() == ckm.gains.tobytes()
        assert bc.save_ckm(back) == data
        # a map's depth and array size follow from its row count alone
        grid = bc.GridSpec(extent_x=3.0, extent_y=1.0, spacing_x=1.0, spacing_y=1.0)
        for layers in range(1, 6):
            zeros = np.zeros((layer_start(layers + 1), grid.num_points), np.float32)
            ckm = bc.CkmGrid(grid, zeros)
            assert (ckm.num_layers, ckm.num_antennas) == (layers, 2**layers)
            assert bc.load_ckm(bc.save_ckm(ckm)) == ckm

    def test_records_in_any_order_load_into_canonical_rows(self):
        ckm = self.make()
        data = bc.save_ckm(ckm)
        record = 4 + 4 * ckm.grid.num_points
        body = data[RECORDS:]
        records = [body[i : i + record] for i in range(0, len(body), record)]
        back = bc.load_ckm(data[:RECORDS] + b"".join(reversed(records)))
        assert back == ckm
        assert back.gains.tobytes() == ckm.gains.tobytes()

    def test_header_fields(self):
        data = bc.save_ckm(self.make())
        assert data[:4] == b"BCKM"
        version, n_ant, n_layers, nx, ny = struct.unpack_from("<IIIII", data, 4)
        assert (version, n_ant, n_layers, nx, ny) == (2, 8, 3, 6, 5)
        assert struct.unpack_from("<dd", data, V1_HEADER) == (6.0, 5.0)

    def test_truncated_header_rejected(self):
        with pytest.raises(bc.CkmFormatError, match="truncated"):
            bc.load_ckm(b"BCKM\x01")

    def test_bad_magic_rejected(self):
        data = bytearray(bc.save_ckm(self.make()))
        data[:4] = b"XCKM"
        with pytest.raises(bc.CkmFormatError, match="magic"):
            bc.load_ckm(bytes(data))

    def test_bad_version_rejected(self):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<I", data, 4, 3)
        with pytest.raises(bc.CkmFormatError, match="version"):
            bc.load_ckm(bytes(data))

    def test_antenna_layer_mismatch_rejected(self):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<I", data, 8, 16)  # claim 16 antennas with 3 layers
        with pytest.raises(bc.CkmFormatError, match="antenna"):
            bc.load_ckm(bytes(data))

    def test_more_layers_than_u16_ids_hold_rejected(self):
        # a 16-layer header with a consistent antenna count: bottom index
        # 65,536 would not fit a record's u16 id, so no such map is read
        header = bytearray(bc.save_ckm(self.make())[:RECORDS])
        struct.pack_into("<II", header, 8, 2**16, 16)
        with pytest.raises(bc.CkmFormatError, match="antenna count 65536 inconsistent with 16 layers"):
            bc.load_ckm(bytes(header))
        struct.pack_into("<II", header, 8, 2**15, 15)  # 15 layers pass this check
        with pytest.raises(bc.CkmFormatError, match="codeword count"):
            bc.load_ckm(bytes(header))

    def test_huge_layer_count_rejected_cheaply(self):
        # a 76-byte header; computing 2**n_layers alone would take 12.5 MB
        header = bytearray(bc.save_ckm(self.make())[:RECORDS])
        struct.pack_into("<I", header, 12, 10**8)
        tracemalloc.start()
        try:
            with pytest.raises(bc.CkmFormatError, match="antenna"):
                bc.load_ckm(bytes(header))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_bad_grid_dimensions_rejected(self):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<I", data, 16, 0)  # nx = 0
        with pytest.raises(bc.CkmFormatError, match="grid"):
            bc.load_ckm(bytes(data))

    def test_grid_no_map_holds_rejected(self):
        """A header for a 70,000 x 70,000 grid, 4.9e9 points, more than a
        record's gains field holds."""
        header = bytearray(bc.save_ckm(self.make())[:RECORDS])
        struct.pack_into("<IIdd", header, 16, 70_000, 70_000, 1.0, 1.0)
        struct.pack_into("<dd", header, V1_HEADER, 70_000.0, 70_000.0)
        with pytest.raises(bc.CkmFormatError, match=r"too many points for a map \(4900000000\)"):
            bc.load_ckm(bytes(header))

    def test_wrong_codeword_count_rejected(self):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<I", data, 56, 15)
        with pytest.raises(bc.CkmFormatError, match="codeword count"):
            bc.load_ckm(bytes(data))

    def test_wrong_payload_length_rejected(self):
        data = bc.save_ckm(self.make())
        with pytest.raises(bc.CkmFormatError, match="payload"):
            bc.load_ckm(data + b"\x00")
        with pytest.raises(bc.CkmFormatError, match="payload"):
            bc.load_ckm(data[:-1])

    def test_out_of_range_codeword_id_rejected(self):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<HH", data, RECORDS, 9, 1)  # layer 9 of 3
        with pytest.raises(bc.CkmFormatError, match="out of range"):
            bc.load_ckm(bytes(data))

    def test_duplicate_codeword_id_rejected(self):
        ckm = self.make()
        data = bytearray(bc.save_ckm(ckm))
        record = 4 + 4 * ckm.grid.num_points
        data[RECORDS + record : RECORDS + 4 + record] = data[RECORDS : RECORDS + 4]
        with pytest.raises(bc.CkmFormatError, match="duplicate"):
            bc.load_ckm(bytes(data))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -3.0])
    def test_unusable_gain_rejected(self, bad):
        ckm = self.make()
        data = bytearray(bc.save_ckm(ckm))
        # the third gain of the second codeword record
        record = 4 + 4 * ckm.grid.num_points
        struct.pack_into("<f", data, RECORDS + record + 4 + 2 * 4, bad)
        with pytest.raises(bc.CkmFormatError, match="invalid gains"):
            bc.load_ckm(bytes(data))

    def test_version_1_still_loads(self):
        ckm = self.make()
        assert bc.load_ckm(as_version_1(bc.save_ckm(ckm))) == ckm

    def test_version_1_rebuilds_extents_from_counts(self):
        # v1 cannot say that a grid ends mid-cell: 0.3 m at 0.1 m spacing
        # reloads as 3 x 0.1 m, whose count rounds up to 4
        grid = bc.GridSpec(extent_x=0.3, extent_y=1.0, spacing_x=0.1, spacing_y=1.0)
        ckm = bc.CkmGrid(grid, np.zeros((2, grid.num_points), dtype=np.float32))
        data = bc.save_ckm(ckm)
        assert bc.load_ckm(data) == ckm
        with pytest.raises(bc.CkmFormatError, match="header says 3x1"):
            bc.load_ckm(as_version_1(data))

    def test_extents_inconsistent_with_counts_rejected(self):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<d", data, V1_HEADER, 7.5)  # 8 columns, header says 6
        with pytest.raises(bc.CkmFormatError, match="header says 6x5"):
            bc.load_ckm(bytes(data))

    @pytest.mark.parametrize(
        "offset, value",
        [(V1_HEADER + 8, 0.0), (V1_HEADER + 8, -1.0), (V1_HEADER + 8, math.nan),
         (V1_HEADER + 8, math.inf), (24, 1e-310)],  # extent_y; spacing_x overflowing the count
    )
    def test_bad_extent_rejected(self, offset, value):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<d", data, offset, value)
        with pytest.raises(bc.CkmFormatError, match="grid"):
            bc.load_ckm(bytes(data))

    def test_truncated_extents_rejected(self):
        data = bc.save_ckm(self.make())
        with pytest.raises(bc.CkmFormatError, match="truncated"):
            bc.load_ckm(data[: V1_HEADER + 8])

    @settings(max_examples=200, deadline=None)
    @given(
        extent=st.tuples(st.floats(1e-3, 20.0), st.floats(1e-3, 20.0)),
        spacing=st.tuples(st.floats(0.1, 4.0), st.floats(0.1, 4.0)),
        origin=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        num_layers=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @example(extent=(0.1, 1.0), spacing=(0.2, 1.0), origin=(0.0, 0.0), num_layers=1, seed=0)
    @example(extent=(0.3, 4.9), spacing=(0.1, 0.7), origin=(0.0, 0.0), num_layers=2, seed=1)
    @example(extent=(64.5, 1.0), spacing=(1.0, 1.0), origin=(0.0, 0.0), num_layers=1, seed=2)
    def test_round_trip_over_arbitrary_grids(self, extent, spacing, origin, num_layers, seed):
        grid = bc.GridSpec(*extent, *spacing, origin=origin)
        n_cw = layer_start(num_layers + 1)
        gains = np.random.default_rng(seed).random((n_cw, grid.num_points), dtype=np.float32)
        ckm = bc.CkmGrid(grid, gains)
        data = bc.save_ckm(ckm)
        back = bc.load_ckm(data)
        assert back.grid == grid
        assert back == ckm
        assert bc.save_ckm(back) == data

    def test_save_peak_is_the_blob(self):
        # 126 codewords x 4,096 points: a 2 MB blob, saved without a second copy
        grid = bc.GridSpec(extent_x=64.0, extent_y=64.0, spacing_x=1.0, spacing_y=1.0)
        gains = np.random.default_rng(3).random((layer_start(7), grid.num_points), np.float32)
        ckm = bc.CkmGrid(grid, gains)
        tracemalloc.start()
        try:
            data = bc.save_ckm(ckm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * len(data)
        assert bc.load_ckm(data) == ckm

    @pytest.mark.parametrize("layer, index", [(65535, 1), (64, 1), (0, 1), (2, 0), (2, 5)])
    def test_id_past_any_shift_is_out_of_range(self, layer, index):
        data = bytearray(bc.save_ckm(self.make()))
        struct.pack_into("<HH", data, RECORDS, layer, index)
        with pytest.raises(bc.CkmFormatError, match=rf"\({layer},{index}\) out of range"):
            bc.load_ckm(bytes(data))

    def test_first_offending_record_is_named(self):
        ckm = self.make()
        record = 4 + 4 * ckm.grid.num_points
        data = bytearray(bc.save_ckm(ckm))
        # record 2 repeats record 0's id before record 5 goes out of range
        data[RECORDS + 2 * record : RECORDS + 2 * record + 4] = data[RECORDS : RECORDS + 4]
        struct.pack_into("<HH", data, RECORDS + 5 * record, 9, 1)
        with pytest.raises(bc.CkmFormatError, match=r"duplicate codeword id \(1,1\)"):
            bc.load_ckm(bytes(data))
        struct.pack_into("<HH", data, RECORDS + record, 7, 7)
        with pytest.raises(bc.CkmFormatError, match=r"\(7,7\) out of range"):
            bc.load_ckm(bytes(data))


class TestMapConsistency:
    def test_best_map_beam_matches_best_true_beam(self, small_scene):
        """At every reachable grid point the map's best bottom beam is the
        beam an exhaustive noiseless sweep would pick."""
        ckm, grid = small_scene["ckm"], small_scene["grid"]
        cb = small_scene["codebook"]
        checked = 0
        for p in range(grid.num_points):
            try:
                h = bc.channel.synthesize_channel(
                    small_scene["env"], small_scene["array"], grid.positions([p])[0]
                )
            except ValueError:
                continue
            true_mags = np.abs(cb[layer_rows(4)] @ h.conj())
            map_mags = ckm.gains[layer_rows(4), p]
            # skip near-ties that float32 storage could legitimately flip
            order = np.sort(true_mags)
            if order[-1] - order[-2] < 1e-6 * order[-1]:
                continue
            assert int(np.argmax(map_mags)) == int(np.argmax(true_mags))
            checked += 1
        assert checked > 200
