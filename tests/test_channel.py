"""Array responses, deterministic multipath synthesis, and noisy probing.

Closed-form oracles: steering entries by direct formula, LoS gain from
the free-space amplitude law, and the probe noise magnitude against the
Rayleigh mean.  Hypothesis scenes check that a trial's channel is the
map's channel at the same grid point, bit for bit, and that both are the
sum of per-path steering vectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm.channel import trace_point_paths

from oracles import steering_vector


def make_array(n=16, bs=(8.0, -1.0)):
    return bc.ArrayConfig(num_antennas=n, carrier_frequency_hz=8e10, bs_position=bs)


class TestSteeringVector:
    def test_zero_angle_is_all_ones(self):
        np.testing.assert_array_equal(steering_vector(0.0, 8), np.ones(8))

    def test_entries_match_formula_and_unit_modulus(self):
        angle = -0.3217
        v = steering_vector(angle, 16)
        np.testing.assert_allclose(v, np.exp(-1j * np.pi * angle * np.arange(16)))
        np.testing.assert_allclose(np.abs(v), 1.0)

    def test_adjacent_dft_angles_orthogonal(self):
        n = 16
        inner = np.vdot(steering_vector(2.0 / n, n), steering_vector(0.0, n))
        assert abs(inner) < 1e-10

    def test_rejects_angle_outside_range(self):
        with pytest.raises(ValueError):
            steering_vector(1.0, 8)
        with pytest.raises(ValueError):
            steering_vector(-1.01, 8)


def traced_paths(env, array, pos):
    """Angles and amplitudes of the counted path slots at one position."""
    angles, amps, _, counts = trace_point_paths(env, array, np.array([pos], dtype=float))
    n = int(counts[0])
    return angles[0, :n], amps[0, :n]


class TestSynthesizeChannel:
    def test_broadside_position_has_zero_los_angle(self):
        array = make_array(bs=(8.0, 0.0))
        env = bc.Environment()
        angles, amps = traced_paths(env, array, (8.0, 10.0))
        assert len(angles) == 1
        assert angles[0] == 0.0
        # a broadside plane wave reaches every antenna with the same phase
        h = bc.synthesize_channel(env, array, (8.0, 10.0))
        np.testing.assert_allclose(h, np.full(16, h[0]), rtol=1e-12)
        np.testing.assert_allclose(abs(h[0]), amps[0], rtol=1e-12)

    def test_los_amplitude_follows_inverse_distance(self):
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment()
        near = traced_paths(env, array, (0.0, 5.0))[1][0]
        far = traced_paths(env, array, (0.0, 10.0))[1][0]
        np.testing.assert_allclose(near / far, 2.0, rtol=1e-12)
        lam = array.wavelength
        np.testing.assert_allclose(near, (lam / (4 * np.pi)) / 5.0, rtol=1e-12)

    def test_los_angle_is_projected_direction(self):
        array = make_array(bs=(0.0, 0.0))
        angles, _ = traced_paths(bc.Environment(), array, (3.0, 4.0))
        np.testing.assert_allclose(angles[0], 3.0 / 5.0, rtol=1e-12)

    def test_deterministic_across_calls(self):
        array = make_array()
        env = bc.Environment(
            scatterers=(bc.Scatterer((3.0, 9.0), 0.6),), rng_seed=12
        )
        a = bc.synthesize_channel(env, array, (5.0, 5.0))
        b = bc.synthesize_channel(env, array, (5.0, 5.0))
        assert a.shape == (16,) and a.dtype == np.complex128
        assert a.tobytes() == b.tobytes()

    def test_scatterer_adds_reflected_path(self):
        array = make_array(bs=(0.0, 0.0))
        scat = bc.Scatterer((4.0, 3.0), 0.5)
        env = bc.Environment(scatterers=(scat,))
        angles, amps = traced_paths(env, array, (0.0, 8.0))
        assert len(angles) == 2
        # departure angle points at the scatterer
        np.testing.assert_allclose(angles[1], 4.0 / 5.0, rtol=1e-12)
        lam = array.wavelength
        length = 5.0 + np.hypot(4.0, 5.0)  # BS->scatterer + scatterer->UE
        np.testing.assert_allclose(amps[1], 0.5 * (lam / (4 * np.pi)) / length, rtol=1e-12)

    def test_obstacle_blocks_los_leaving_reflection(self):
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment(
            scatterers=(bc.Scatterer((-4.0, 5.0), 0.5),),
            obstacles=(bc.Obstacle((-1.0, 5.0), (1.0, 5.0)),),
        )
        angles, _ = traced_paths(env, array, (0.0, 10.0))
        assert len(angles) == 1
        assert angles[0] == pytest.approx(-4.0 / np.hypot(4, 5))

    def test_fully_blocked_position_raises(self):
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment(obstacles=(bc.Obstacle((-5.0, 5.0), (5.0, 5.0)),))
        with pytest.raises(ValueError):
            bc.synthesize_channel(env, array, (0.0, 10.0))

    def test_position_at_bs_raises(self):
        array = make_array(bs=(2.0, 2.0))
        with pytest.raises(ValueError):
            bc.synthesize_channel(bc.Environment(), array, (2.0, 2.0))

    def test_max_paths_keeps_strongest(self):
        array = make_array(bs=(0.0, 0.0))
        scats = tuple(
            bc.Scatterer((x, 6.0), r)
            for x, r in [(-6.0, 0.9), (6.0, 0.2), (-2.0, 0.6), (2.0, 0.4)]
        )
        full = bc.Environment(scatterers=scats, max_paths=10)
        cut = bc.Environment(scatterers=scats, max_paths=3)
        pos = (0.0, 12.0)
        amps_full = sorted(traced_paths(full, array, pos)[1], reverse=True)
        amps_cut = traced_paths(cut, array, pos)[1]
        assert len(amps_cut) == 3
        np.testing.assert_allclose(sorted(amps_cut, reverse=True), amps_full[:3])


class TestTracePointPaths:
    def test_width_is_capped_by_the_scene(self):
        # one scatterer: at most two paths, however large max_paths is
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment(scatterers=(bc.Scatterer((-4.0, 5.0), 0.5),), max_paths=64)
        traced = trace_point_paths(env, array, np.array([[0.0, 10.0], [3.0, 4.0]]))
        for part in traced[:3]:
            assert part.shape == (2, 2)
        np.testing.assert_array_equal(traced[3], [2, 2])

    def test_no_receivers_still_checks_the_scene(self):
        array = make_array(bs=(0.0, 0.0))
        traced = trace_point_paths(bc.Environment(), array, np.empty((0, 2)))
        assert [part.shape for part in traced] == [(0, 1), (0, 1), (0, 1), (0,)]
        on_bs = bc.Environment(scatterers=(bc.Scatterer((0.0, 0.0), 0.5),))
        with pytest.raises(ValueError, match=r"scatterers\[0\] position coincides"):
            trace_point_paths(on_bs, array, np.empty((0, 2)))

    @pytest.mark.parametrize(
        "positions",
        [np.full((4, 3), 2.0), [5.0, 6.0, 7.0, 8.0], np.full((1, 2, 2), 3.0), 5.0, [[5.0], [6.0]]],
        ids=["rows-of-3", "flat-4", "3-d", "scalar", "rows-of-1"],
    )
    def test_malformed_positions_rejected(self, positions):
        # these once traced made-up points, dropped points or failed in reshape
        array, env = make_array(), bc.Environment()
        for fn in (bc.synthesize_channel, trace_point_paths):
            with pytest.raises(ValueError, match=r"shape \(2,\) or \(P, 2\)"):
                fn(env, array, positions)


@st.composite
def lattice_scenes(draw):
    """Small scenes on the integer lattice: cell centres, the BS, the
    scatterers and the wall ends all sit on integer points, so walls often
    touch or run collinear with a path; ``max_paths`` often truncates."""
    n_ant = draw(st.sampled_from([4, 8, 16]))
    bs = (float(draw(st.integers(0, 5))), -1.0)
    spot = st.tuples(st.integers(-2, 7), st.integers(-1, 7)).map(
        lambda p: (float(p[0]), float(p[1]))
    )
    scat_pos = draw(st.lists(spot.filter(lambda p: p != bs), max_size=4, unique=True))
    scatterers = tuple(
        bc.Scatterer(p, draw(st.sampled_from([0.2, 0.5, 1.0]))) for p in scat_pos
    )
    walls = draw(st.lists(st.tuples(spot, spot), max_size=3))
    obstacles = tuple(bc.Obstacle(a, b) for a, b in walls)
    env = bc.Environment(
        scatterers=scatterers,
        obstacles=obstacles,
        max_paths=draw(st.integers(1, 4)),
        pathloss_exponent=draw(st.sampled_from([1.0, 2.0])),
        rng_seed=draw(st.integers(0, 2**16)),
    )
    array = bc.ArrayConfig(num_antennas=n_ant, carrier_frequency_hz=8e10, bs_position=bs)
    grid = bc.GridSpec(6.0, 6.0, 1.0, 1.0, origin=(-0.5, -0.5))
    return env, array, grid


def map_field(env, array, grid):
    """The channel field behind build_ckm: one row per grid point."""
    traced = trace_point_paths(env, array, grid.point_coords())
    return bc.channel_vectors(*traced[:3], array.num_antennas), traced


class TestChannelField:
    @settings(max_examples=80, deadline=None)
    @given(lattice_scenes())
    def test_trial_channels_equal_map_field_rows(self, scene):
        env, array, grid = scene
        field, (_, _, _, counts) = map_field(env, array, grid)
        cb = bc.build_codebook(array.num_antennas)
        gains = np.abs(field.conj() @ cb.matrix.T).T.astype(np.float32)
        np.testing.assert_array_equal(bc.build_ckm(env, array, cb, grid).gains, gains)
        for p in range(grid.num_points):
            pos = grid.point_position(p)
            if counts[p] == 0:
                with pytest.raises(ValueError, match="no propagation path"):
                    bc.synthesize_channel(env, array, pos)
                np.testing.assert_array_equal(field[p], 0.0)
            else:
                h = bc.synthesize_channel(env, array, pos)
                assert h.tobytes() == field[p].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(lattice_scenes())
    def test_field_rows_are_reference_path_sums(self, scene):
        env, array, grid = scene
        n_ant = array.num_antennas
        field, (angles, amps, phases, counts) = map_field(env, array, grid)
        for p in range(grid.num_points):
            slots = range(counts[p])
            if any(angles[p, s] == 1.0 for s in slots):
                continue  # outside steering_vector's [-1, 1)
            ref = np.zeros(n_ant, dtype=np.complex128)
            for s in slots:
                gain = complex(amps[p, s] * np.exp(1j * phases[p, s]))
                ref += gain * steering_vector(float(angles[p, s]), n_ant)
            np.testing.assert_array_equal(field[p], ref)

    @settings(max_examples=60, deadline=None)
    @given(lattice_scenes(), st.data())
    def test_batch_rows_equal_one_point_channels(self, scene, data):
        """A batch of positions, in any order and with repeats, gives each
        position's one-point channel bit for bit, or names the first
        position in the batch that no path reaches."""
        env, array, grid = scene
        order = data.draw(st.lists(st.integers(0, grid.num_points - 1), min_size=1, max_size=12))
        coords = np.array([grid.point_position(p) for p in order])
        one_point = []
        for pos in coords:
            try:
                one_point.append(bc.synthesize_channel(env, array, pos))
            except ValueError as exc:
                with pytest.raises(ValueError) as batch_exc:
                    bc.synthesize_channel(env, array, coords)
                assert str(batch_exc.value) == str(exc)
                return
        batch = bc.synthesize_channel(env, array, coords)
        assert batch.shape == (len(order), array.num_antennas)
        for h, row in zip(one_point, batch):
            assert h.shape == (array.num_antennas,)
            assert h.tobytes() == row.tobytes()


class TestProbe:
    def test_noiseless_is_exact_inner_product(self):
        h = steering_vector(0.25, 8) * (0.3 - 0.1j)
        f = steering_vector(0.25, 8) / np.sqrt(8)
        np.testing.assert_allclose(bc.probe(h, f, 0.0), abs(0.3 - 0.1j) * np.sqrt(8))

    def test_matched_beam_wins_single_path(self):
        cb = bc.build_codebook(16)
        angle = bc.bottom_angles(16)[6]
        h = 0.8 * steering_vector(angle, 16)
        mags = [bc.probe(h, cb.codeword(bc.BeamId(4, i)), 0.0) for i in range(1, 17)]
        assert int(np.argmax(mags)) + 1 == 7

    def test_orthogonal_beam_reads_zero(self):
        n = 8
        h = steering_vector(0.0, n)
        f = steering_vector(2.0 / n, n) / np.sqrt(n)
        assert bc.probe(h, f, 0.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bc.probe(np.ones(8, dtype=complex), np.ones(4, dtype=complex), 0.0)

    def test_noise_without_rng_rejected(self):
        h = np.ones(4, dtype=complex)
        assert bc.probe(h, h / 2.0, 0.0) == 2.0
        with pytest.raises(ValueError, match="needs an rng"):
            bc.probe(h, h / 2.0, 0.1)

    def test_zero_channel_noise_magnitude_is_rayleigh(self):
        # |n| with n ~ CN(0, sigma^2) has mean sigma * sqrt(pi) / 2
        sigma = 0.7
        rng = np.random.default_rng(123)
        h = np.zeros(4, dtype=complex)
        f = np.ones(4, dtype=complex) / 2.0
        draws = np.array([bc.probe(h, f, sigma, rng) for _ in range(100_000)])
        np.testing.assert_allclose(draws.mean(), sigma * np.sqrt(np.pi) / 2, rtol=0.01)


class TestProbeRows:
    """The batched probe over cached responses against the scalar ``probe``."""

    @settings(max_examples=150, deadline=None)
    @given(
        log_n=st.integers(2, 8),
        sigma=st.sampled_from([0.0, 1e-12, 0.05, 1e3]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_batched_equals_scalar_bit_for_bit(self, log_n, sigma, seed, data):
        n = 2**log_n
        cb = bc.build_codebook(n)
        draw = np.random.default_rng(seed)
        h = draw.standard_normal(n) + 1j * draw.standard_normal(n)
        resp = bc.Responses(h, cb.matrix)
        scalar_rng = np.random.default_rng(seed + 1)
        batch_rng = np.random.default_rng(seed + 1)
        # two rounds on one cache: the second finds some rows computed
        for _ in range(2):
            size = data.draw(st.sampled_from([1, 2, int(draw.integers(1, 2 * n - 1))]))
            rows = np.sort(draw.choice(2 * n - 2, size=size, replace=False))
            want = np.array([bc.probe(h, cb.matrix[r], sigma, scalar_rng) for r in rows])
            got = bc.probe_rows(resp, rows, sigma, batch_rng)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_noise_without_rng_rejected(self):
        cb = bc.build_codebook(16)
        resp = bc.Responses(np.ones(16, dtype=complex), cb.matrix)
        rows = np.array([0, 1])
        assert bc.probe_rows(resp, rows, 0.0).shape == (2,)
        with pytest.raises(ValueError, match="needs an rng"):
            bc.probe_rows(resp, rows, 0.1)

    def test_take_computes_each_response_once(self, monkeypatch):
        cb = bc.build_codebook(16)
        h = steering_vector(0.3, 16) * (0.5 - 0.2j)
        vdot = np.vdot
        computed = []

        def counting_vdot(a, b):
            computed.append(b.tobytes())
            return vdot(a, b)

        monkeypatch.setattr(np, "vdot", counting_vdot)
        resp = bc.Responses(h, cb.matrix)
        for rows in ([1, 2, 5], [2, 5, 7, 9], [1, 2, 5, 7, 9], [9]):
            got = resp.take(np.array(rows))
            assert got.tolist() == [vdot(h, cb.matrix[r]) for r in rows]
        assert sorted(computed) == sorted(cb.matrix[r].tobytes() for r in (1, 2, 5, 7, 9))
        assert np.flatnonzero(resp.computed).tolist() == [1, 2, 5, 7, 9]

    def test_shape_mismatch_rejected(self):
        cb = bc.build_codebook(16)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bc.Responses(np.ones(8, dtype=complex), cb.matrix)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bc.Responses(np.ones(16, dtype=complex), cb.matrix[0])


class TestGeometryEdgeCases:
    def test_touching_obstacle_counts_as_blocked(self):
        # ray grazing an endpoint of the wall is treated as blocked
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment(obstacles=(bc.Obstacle((0.0, 5.0), (3.0, 5.0)),))
        with pytest.raises(ValueError):
            bc.synthesize_channel(env, array, (0.0, 10.0))

    def test_collinear_overlap_blocks(self):
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment(obstacles=(bc.Obstacle((0.0, 2.0), (0.0, 6.0)),))
        with pytest.raises(ValueError):
            bc.synthesize_channel(env, array, (0.0, 10.0))
