"""Array responses, deterministic multipath synthesis, and noisy probing.

Closed-form oracles: steering entries by direct formula, LoS gain from
the free-space amplitude law, and the probe noise magnitude against the
Rayleigh mean.  Hypothesis scenes check that a trial's channel is the
map's channel at the same grid point, bit for bit, and that both are the
sum of per-path steering vectors.  ``channel_vectors``, which computes one
steering vector per distinct angle, is checked bit for bit against the
oracle that computes one per (point, slot), and the codeword responses,
filled by ``np.vecdot`` over gathered rows, against one ``np.vdot`` per
entry.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamckm as bc
from beamckm import channel
from beamckm.channel import trace_point_paths
from beamckm.codebook import layer_rows, row_of
from beamckm.streams import normal_blocks, seed_words

import oracles
from conftest import noise_of
from oracles import steering_vector

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        h = bc.channel.synthesize_channel(env, array, (8.0, 10.0))
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
        a = bc.channel.synthesize_channel(env, array, (5.0, 5.0))
        b = bc.channel.synthesize_channel(env, array, (5.0, 5.0))
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
            bc.channel.synthesize_channel(env, array, (0.0, 10.0))

    def test_position_at_bs_raises(self):
        array = make_array(bs=(2.0, 2.0))
        with pytest.raises(ValueError):
            bc.channel.synthesize_channel(bc.Environment(), array, (2.0, 2.0))

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
        for fn in (bc.channel.synthesize_channel, trace_point_paths):
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
    traced = trace_point_paths(env, array, grid.positions(np.arange(grid.num_points)))
    return bc.channel.channel_vectors(*traced[:3], array.num_antennas), traced


class TestChannelField:
    @settings(max_examples=80, deadline=None)
    @given(lattice_scenes())
    def test_trial_channels_equal_map_field_rows(self, scene):
        env, array, grid = scene
        field, (_, _, _, counts) = map_field(env, array, grid)
        cb = bc.build_codebook(array.num_antennas)
        gains = np.abs(field.conj() @ cb.T).T.astype(np.float32)
        np.testing.assert_array_equal(bc.build_ckm(env, array, cb, grid).gains, gains)
        for p in range(grid.num_points):
            pos = grid.positions([p])[0]
            if counts[p] == 0:
                with pytest.raises(ValueError, match="no propagation path"):
                    bc.channel.synthesize_channel(env, array, pos)
                np.testing.assert_array_equal(field[p], 0.0)
            else:
                h = bc.channel.synthesize_channel(env, array, pos)
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
        coords = grid.positions(order)
        one_point = []
        for pos in coords:
            try:
                one_point.append(bc.channel.synthesize_channel(env, array, pos))
            except ValueError as exc:
                with pytest.raises(ValueError) as batch_exc:
                    bc.channel.synthesize_channel(env, array, coords)
                assert str(batch_exc.value) == str(exc)
                return
        batch = bc.channel.synthesize_channel(env, array, coords)
        assert batch.shape == (len(order), array.num_antennas)
        for h, row in zip(one_point, batch):
            assert h.shape == (array.num_antennas,)
            assert h.tobytes() == row.tobytes()


class TestChannelVectorsOracle:
    @pytest.mark.parametrize("scene", ["desk", "large", "deep"])
    def test_traced_grid_points_match_oracle(self, scene):
        config = bc.load_scenario(CONFIGS / f"{scene}.json")
        coords = config.grid.positions(np.arange(config.grid.num_points))
        traced = trace_point_paths(config.environment, config.array, coords)[:3]
        n_ant = config.array.num_antennas
        got = bc.channel.channel_vectors(*traced, n_ant)
        assert got.tobytes() == oracles.channel_vectors(*traced, n_ant).tobytes()

    def test_repeated_angles_and_empty_slots_match_oracle(self):
        """Angles repeat within a row, across rows and across slots; empty
        slots (amplitude 0, angle 0) sit between and after filled ones."""
        rng = np.random.default_rng(5)
        pool = np.array([-1.0, -0.5, -0.1, 0.0, 0.1, 0.25, 0.3, 0.7, 0.999])
        angles = rng.choice(pool, size=(300, 4))
        amps = rng.uniform(0.0, 2.0, size=(300, 4))
        phases = rng.uniform(-np.pi, np.pi, size=(300, 4))
        empty = rng.random((300, 4)) < 0.3
        empty[:20] = True  # rows no path reaches
        angles[empty], amps[empty], phases[empty] = 0.0, 0.0, 0.0
        assert len(np.unique(angles)) == len(pool)
        for n_ant in (4, 32, 128):
            got = bc.channel.channel_vectors(angles, amps, phases, n_ant)
            assert got.tobytes() == oracles.channel_vectors(angles, amps, phases, n_ant).tobytes()
            np.testing.assert_array_equal(got[:20], 0.0)


class TestProbe:
    def test_noiseless_is_exact_inner_product(self):
        h = steering_vector(0.25, 8) * (0.3 - 0.1j)
        f = steering_vector(0.25, 8) / np.sqrt(8)
        np.testing.assert_allclose(bc.channel.probe(h, f, 0.0), abs(0.3 - 0.1j) * np.sqrt(8))

    def test_matched_beam_wins_single_path(self):
        cb = bc.build_codebook(16)
        angle = bc.codebook.bottom_angles(16)[6]
        h = 0.8 * steering_vector(angle, 16)
        mags = [bc.channel.probe(h, cb[row_of(bc.BeamId(4, i))], 0.0) for i in range(1, 17)]
        assert int(np.argmax(mags)) + 1 == 7

    def test_orthogonal_beam_reads_zero(self):
        n = 8
        h = steering_vector(0.0, n)
        f = steering_vector(2.0 / n, n) / np.sqrt(n)
        assert bc.channel.probe(h, f, 0.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bc.channel.probe(np.ones(8, dtype=complex), np.ones(4, dtype=complex), 0.0)

    def test_noise_without_rng_rejected(self):
        h = np.ones(4, dtype=complex)
        assert bc.channel.probe(h, h / 2.0, 0.0) == 2.0
        with pytest.raises(ValueError, match="needs an rng"):
            bc.channel.probe(h, h / 2.0, 0.1)

    def test_zero_channel_noise_magnitude_is_rayleigh(self):
        # |n| with n ~ CN(0, sigma^2) has mean sigma * sqrt(pi) / 2
        sigma = 0.7
        rng = np.random.default_rng(123)
        h = np.zeros(4, dtype=complex)
        f = np.ones(4, dtype=complex) / 2.0
        draws = np.array([bc.channel.probe(h, f, sigma, rng) for _ in range(100_000)])
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
        resp = bc.channel.Responses(h, cb)
        scalar_rng = np.random.default_rng(seed + 1)
        # a block of 3 pairs: most second rounds read past it and draw more
        link = oracles.Link(resp, sigma, *noise_of(seed + 1))
        # two rounds on one cache: the second finds some rows computed
        for _ in range(2):
            size = data.draw(st.sampled_from([1, 2, int(draw.integers(1, 2 * n - 1))]))
            rows = np.sort(draw.choice(2 * n - 2, size=size, replace=False))
            want = np.array([bc.channel.probe(h, cb[r], sigma, scalar_rng) for r in rows])
            got = oracles.probe_rows(link, rows)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            # the link has read as many pairs of its stream as the scalar probes drew
            batch_rng = np.random.default_rng(seed + 1)
            batch_rng.standard_normal((link.used, 2))
            assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_noise_without_block_rejected(self):
        cb = bc.build_codebook(16)
        resp = bc.channel.Responses(np.ones(16, dtype=complex), cb)
        rows = np.array([0, 1])
        assert oracles.probe_rows(oracles.Link(resp, 0.0), rows).shape == (2,)
        # a noisy link is rejected when it is made, before any probe
        with pytest.raises(ValueError, match="needs a noise block"):
            oracles.Link(resp, 0.1)
        # one without seed words reads its block and no further
        link = oracles.Link(resp, 0.1, noise_of(5)[0])
        assert oracles.probe_rows(link, rows).shape == (2,)
        with pytest.raises(ValueError, match="read past its noise block"):
            oracles.probe_rows(link, rows)

    def test_take_computes_each_response_once(self, monkeypatch):
        cb = bc.build_codebook(16)
        h = steering_vector(0.3, 16) * (0.5 - 0.2j)
        vdot, vecdot = np.vdot, np.vecdot
        computed = []

        def counting_vecdot(a, b):
            out = vecdot(a, b)
            # one codeword per entry computed
            computed.extend(f.tobytes() for f in np.broadcast_to(b, out.shape + b.shape[-1:]))
            return out

        monkeypatch.setattr(np, "vecdot", counting_vecdot)
        resp = bc.channel.Responses(h, cb)
        for rows in ([1, 2, 5], [2, 5, 7, 9], [1, 2, 5, 7, 9], [9]):
            got = resp.take(0, np.array(rows))
            assert got.tolist() == [vdot(h, cb[r]) for r in rows]
        assert sorted(computed) == sorted(cb[r].tobytes() for r in (1, 2, 5, 7, 9))
        assert np.flatnonzero(resp.computed).tolist() == [1, 2, 5, 7, 9]

    def test_batched_take_over_a_table_of_channels(self, monkeypatch):
        """Episodes of several channels, some sharing a channel, read each
        entry as one ``np.vdot`` of that channel, computed once."""
        cb = bc.build_codebook(16)
        draw = np.random.default_rng(3)
        hs = draw.standard_normal((4, 16)) + 1j * draw.standard_normal((4, 16))
        vdot, vecdot = np.vdot, np.vecdot
        computed = []

        def counting_vecdot(a, b):
            out = vecdot(a, b)
            # one (channel, codeword) pair per entry computed
            shape = out.shape + a.shape[-1:]
            pairs = zip(np.broadcast_to(a, shape), np.broadcast_to(b, shape))
            computed.extend((h.tobytes(), f.tobytes()) for h, f in pairs)
            return out

        monkeypatch.setattr(np, "vecdot", counting_vecdot)
        resp = bc.channel.Responses(hs, cb)
        points = np.array([[2], [0], [2], [3]])
        for rows in (np.array([[1, 2], [1, 2], [3, 4], [29, 0]]), np.arange(30)):
            got = resp.take(points, rows)
            want = [[vdot(hs[p], cb[r]) for r in row] for p, row in
                    zip(points[:, 0], np.broadcast_to(rows, got.shape))]
            assert got.tolist() == want
            assert len(computed) == len(set(computed)) == resp.computed.sum()
        assert resp.computed[[0, 2, 3]].all() and not resp.computed[1].any()

    def test_shape_mismatch_rejected(self):
        cb = bc.build_codebook(16)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bc.channel.Responses(np.ones(8, dtype=complex), cb)
        with pytest.raises(ValueError, match="dimension mismatch"):
            bc.channel.Responses(np.ones(16, dtype=complex), cb[0])


class TestProbeEpisodes:
    """``probe_episodes`` reads each episode's next noise pairs, whether a
    group's episodes share one offset or not, with the bytes of one
    ``oracles.probe_rows`` per episode over its own ``Link``."""

    def test_shared_and_differing_offsets_keep_the_per_episode_bytes(self):
        n, E = 16, 6
        draw = np.random.default_rng(17)
        resp = bc.channel.Responses(random_channels(draw, E, n), bc.build_codebook(n))
        words = seed_words([5, 202], np.arange(E)[:, None])
        batch = bc.channel.Episodes(resp, np.arange(E) % 4, np.full(E, 0.3),
                                    normal_blocks(words, 8), words)
        links = oracles.links_of(batch)
        every, odd, even = np.arange(E), np.arange(1, E, 2), np.arange(0, E, 2)
        calls = [
            (every, np.array([2, 3]), True),  # all at offset 0
            (even, np.array([[6, 7, 8], [8, 9, 10], [0, 1, 2]]), True),  # even ones at 2
            (every, np.array([4, 5, 6, 7]), False),  # at 5 and 2
            (odd, np.array([11, 12]), True),  # odd ones at 6
            (every, np.arange(14, 20), False),  # at 9 and 8, past the block of 8 pairs
            (every[::-1], np.arange(20, 23), False),
        ]
        for eps, rows, shared in calls:
            start = batch.used[eps]
            assert (start == start[0]).all() == shared
            got = bc.channel.probe_episodes(batch, eps, rows)
            per_episode = np.broadcast_to(rows, (len(eps), rows.shape[-1]))
            want = np.array([oracles.probe_rows(links[e], r) for e, r in zip(eps, per_episode)])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert batch.used.tolist() == [link.used for link in links]
        assert batch.block.shape[1] > 8

    def test_mixed_noise_levels_keep_each_levels_bytes(self):
        """One batch of episodes at two noise levels (its first ones) and
        noiseless ones, as a sweep merges its SNR points, gives each
        episode the magnitudes and probe count of a batch at its level only,
        also when one noisy episode reads past its block."""
        n, E, levels = 16, 5, (0.3, 1.7)
        draw = np.random.default_rng(23)
        resp = bc.channel.Responses(random_channels(draw, E, n), bc.build_codebook(n))
        words = seed_words([9, 202], np.arange(len(levels) * E)[:, None])
        blocks = normal_blocks(words, 6)
        mixed = bc.channel.Episodes(resp, np.tile(np.arange(E), 3), np.repeat(levels, E), blocks,
                                    words)
        alone = [bc.channel.Episodes(resp, np.arange(E), np.full(E, s), blocks[j * E : (j + 1) * E],
                                     words[j * E : (j + 1) * E]) for j, s in enumerate(levels)]
        alone.append(bc.channel.Episodes(resp, np.arange(E)))
        scrambled = np.array([12, 3, 7, 0, 14, 9, 5, 11])
        calls = [
            (np.arange(3 * E), np.array([2, 3])),  # every episode at offset 0
            (scrambled, np.arange(8)[:, None] + np.array([4, 6, 9])),  # rows per episode
            (np.array([13, 6, 1]), np.arange(20, 25)),  # episode 6 reads past its 6 pairs
            (np.arange(3 * E)[::-1], np.arange(26, 29)),  # and every one past its block
        ]
        for eps, rows in calls:
            got = bc.channel.probe_episodes(mixed, eps, rows)
            for j, batch in enumerate(alone):
                at = np.flatnonzero(eps // E == j)
                want = bc.channel.probe_episodes(
                    batch, eps[at] - j * E, rows if rows.ndim == 1 else rows[at])
                assert got[at].tobytes() == want.tobytes()
            assert mixed.used.tolist() == [u for batch in alone for u in batch.used.tolist()]
        assert mixed.block.shape[1] > 6 and all(b.block.shape[1] > 6 for b in alone[:2])

    def test_more_noise_stds_than_blocks_rejected(self):
        resp = bc.channel.Responses(np.ones((1, 16), complex), bc.build_codebook(16))
        words = seed_words([9, 202], np.arange(2)[:, None])
        with pytest.raises(ValueError, match="3 noise stds, but 2 noise block rows"):
            bc.channel.Episodes(resp, np.zeros(4, np.int64), np.full(3, 0.3),
                                normal_blocks(words, 4), words)
        with pytest.raises(ValueError, match="need noise blocks"):
            bc.channel.Episodes(resp, np.zeros(4, np.int64), np.full(3, 0.3))
        # A scalar std, or more stds than episodes, cannot say which
        # episodes are noisy: it is rejected, not read as a prefix.
        words = seed_words([9, 202], np.arange(8)[:, None])
        block = normal_blocks(words, 4)
        with pytest.raises(ValueError, match=r"shape \(\) for 4 episodes"):
            bc.channel.Episodes(resp, np.zeros(4, np.int64), 0.3, block, words)
        with pytest.raises(ValueError, match=r"shape \(1, 4\) for 4 episodes"):
            bc.channel.Episodes(resp, np.zeros(4, np.int64), np.full((1, 4), 0.3), block, words)
        with pytest.raises(ValueError, match=r"shape \(5,\) for 4 episodes"):
            bc.channel.Episodes(resp, np.zeros(4, np.int64), np.full(5, 0.3), block, words)


def random_channels(draw, count: int, n: int) -> np.ndarray:
    return draw.standard_normal((count, n)) + 1j * draw.standard_normal((count, n))


def asked(shape, points, rows) -> np.ndarray:
    """The (P, R) mask of the entries a broadcast (points, rows) reads."""
    mask = np.zeros(shape, dtype=bool)
    mask[np.broadcast_arrays(points, rows)] = True
    return mask


class TestResponseFill:
    """``Responses.take`` fills against one ``np.vdot`` per entry, byte for
    byte, on both paths: one channel's rows, and an (E, 1) array of
    channels against rows broadcast with it."""

    @pytest.mark.parametrize("n", [4, 32, 128, 512])
    def test_link_path_equals_vdot(self, n):
        draw = np.random.default_rng(n)
        cb = bc.build_codebook(n)
        hs = random_channels(draw, 3, n)
        resp = bc.channel.Responses(hs, cb)
        want_mask = np.zeros(resp.values.shape, dtype=bool)
        for _ in range(4):
            p = int(draw.integers(3))
            # rows repeat within a call and across calls
            rows = draw.integers(0, len(cb), size=int(draw.integers(1, 2 * n)))
            got = resp.take(p, rows)
            want = oracles.responses_by_vdot(hs, cb, p, rows)
            assert got.tobytes() == want.tobytes()
            want_mask |= asked(want_mask.shape, p, rows)
            assert np.array_equal(resp.computed, want_mask)

    @pytest.mark.parametrize("n", [4, 32, 128, 512])
    def test_batched_path_equals_vdot(self, n):
        draw = np.random.default_rng(n + 1)
        cb = bc.build_codebook(n)
        hs = random_channels(draw, 5, n)
        resp = bc.channel.Responses(hs, cb)
        want_mask = np.zeros(resp.values.shape, dtype=bool)
        for width in (1, 3, n):
            # points repeat across episodes, rows within and across them
            points = draw.integers(0, 5, size=(7, 1))
            rows = draw.integers(0, len(cb), size=(7, width))
            got = resp.take(points, rows)
            want = oracles.responses_by_vdot(hs, cb, points, rows)
            assert got.shape == (7, width)
            assert got.tobytes() == want.tobytes()
            want_mask |= asked(want_mask.shape, points, rows)
            assert np.array_equal(resp.computed, want_mask)

    def test_codes_repeated_across_a_merged_batch_fill_once(self, monkeypatch):
        """Episodes that share a channel at several SNR points, as one merged
        batch holds them, ask for the same entries many times in one call:
        each missing entry is filled once, with the bytes of one ``np.vdot``,
        on a table wider than one ``_FILL_BYTES`` slice."""
        n = 512
        cb = bc.build_codebook(n)
        hs = random_channels(np.random.default_rng(31), 3, n)
        assert 3 * len(cb) * cb[0].nbytes > 4 * channel._FILL_BYTES
        vecdot, computed = np.vecdot, []

        def counting_vecdot(a, b):
            out = vecdot(a, b)
            # one (channel, codeword) pair per entry computed
            shape = out.shape + a.shape[-1:]
            pairs = zip(np.broadcast_to(a, shape), np.broadcast_to(b, shape))
            computed.extend((h.tobytes(), f.tobytes()) for h, f in pairs)
            return out

        resp = bc.channel.Responses(hs, cb)
        draw = np.random.default_rng(32)
        points = np.tile([0, 2, 1, 2], 4)[:, None]  # 4 episodes at each of 4 SNR points
        for rows in (np.arange(200, 300), np.tile(draw.integers(0, len(cb), (4, 90)), (4, 1))):
            before = resp.computed.sum()
            with monkeypatch.context() as m:
                m.setattr(np, "vecdot", counting_vecdot)
                got = resp.take(points, rows)
            want = oracles.responses_by_vdot(hs, cb, points, rows)
            assert got.tobytes() == want.tobytes()
            assert len(computed) == len(set(computed)) == resp.computed.sum() - before
            computed.clear()

    def test_fill_larger_than_its_slice_budget(self):
        n = 512
        cb = bc.build_codebook(n)
        hs = random_channels(np.random.default_rng(9), 12, n)
        resp = bc.channel.Responses(hs, cb)
        points, rows = np.arange(12)[:, None], np.arange(len(cb))[None]
        # the fill gathers rows in slices of _FILL_BYTES: this one takes dozens
        assert points.size * rows.size * 16 * n > 20 * channel._FILL_BYTES
        got = resp.take(points, rows)
        assert got.tobytes() == oracles.responses_by_vdot(hs, cb, points, rows).tobytes()
        assert resp.computed.all()

    @pytest.mark.parametrize("scene", ["desk", "large", "deep"])
    def test_scene_channels_equal_vdot(self, scene):
        config = bc.load_scenario(CONFIGS / f"{scene}.json")
        ids = np.arange(config.grid.num_points)
        counts = trace_point_paths(config.environment, config.array, config.grid.positions(ids))[3]
        pick = np.random.default_rng(4).choice(ids[counts > 0], size=24, replace=False)
        hs = bc.channel.synthesize_channel(config.environment, config.array, config.grid.positions(pick))
        cb = bc.build_codebook(config.array.num_antennas)
        points, rows = np.arange(24)[:, None], np.arange(len(cb))[None]
        # a link's round on the first channel, then the whole table batched
        first = bc.channel.Responses(hs, cb).take(0, rows[0])
        assert first.tobytes() == oracles.responses_by_vdot(hs, cb, 0, rows[0]).tobytes()
        got = bc.channel.Responses(hs, cb).take(points, rows)
        assert got.tobytes() == oracles.responses_by_vdot(hs, cb, points, rows).tobytes()

    def test_batched_fill_memory_is_bounded(self):
        """A 120-point x 128-bottom-row fill at N = 128 gathers its rows in
        slices: gathered whole, each of its two gathers would take 31 MB."""
        n = 128
        cb = bc.build_codebook(n)
        resp = bc.channel.Responses(random_channels(np.random.default_rng(2), 120, n), cb)
        points = np.arange(120)[:, None]
        rows = np.arange(len(cb))[layer_rows(7)][None]
        tracemalloc.start()
        try:
            resp.take(points, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resp.computed[:, layer_rows(7)].all()
        assert peak < 4 * 2**20


class TestGeometryEdgeCases:
    def test_touching_obstacle_counts_as_blocked(self):
        # ray grazing an endpoint of the wall is treated as blocked
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment(obstacles=(bc.Obstacle((0.0, 5.0), (3.0, 5.0)),))
        with pytest.raises(ValueError):
            bc.channel.synthesize_channel(env, array, (0.0, 10.0))

    def test_collinear_overlap_blocks(self):
        array = make_array(bs=(0.0, 0.0))
        env = bc.Environment(obstacles=(bc.Obstacle((0.0, 2.0), (0.0, 6.0)),))
        with pytest.raises(ValueError):
            bc.channel.synthesize_channel(env, array, (0.0, 10.0))
