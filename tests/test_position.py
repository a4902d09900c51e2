"""Prior-weighted uncertainty regions, point masses, and sampling."""

import numpy as np
import pytest

import beamckm as bc


def two_region_prior():
    # masses: 0.7 over 7 points and 0.3 over 3 points -> 0.1 each
    return bc.PositionPrior(
        (
            bc.SubRegion(tuple(range(7)), 0.7),
            bc.SubRegion((10, 11, 12), 0.3),
        )
    )


class TestValidation:
    def test_empty_subregion_rejected(self):
        with pytest.raises(ValueError):
            bc.SubRegion((), 1.0)

    def test_prior_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bc.SubRegion((0,), 0.0)
        with pytest.raises(ValueError):
            bc.SubRegion((0,), 1.2)
        with pytest.raises(ValueError):
            bc.SubRegion((0,), -0.5)

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            bc.PositionPrior((bc.SubRegion((0,), 0.5), bc.SubRegion((1,), 0.4)))

    def test_no_subregions_rejected(self):
        with pytest.raises(ValueError):
            bc.PositionPrior(())

    def test_overlapping_subregions_rejected(self):
        with pytest.raises(ValueError):
            bc.PositionPrior((bc.SubRegion((0, 1), 0.5), bc.SubRegion((1, 2), 0.5)))

    def test_point_repeated_within_a_subregion_rejected(self):
        with pytest.raises(ValueError, match=r"repeat grid points \[4\]"):
            bc.PositionPrior((bc.SubRegion((4, 9, 4), 1.0),))

    def test_single_full_region_accepted(self):
        prior = bc.PositionPrior((bc.SubRegion((4, 9), 1.0),))
        np.testing.assert_array_equal(prior.points, [4, 9])


class TestMasses:
    def test_uniform_split_within_each_region(self):
        prior = two_region_prior()
        masses = prior.masses
        np.testing.assert_allclose(masses, 0.1)
        np.testing.assert_allclose(masses.sum(), 1.0)
        np.testing.assert_array_equal(
            prior.points, [0, 1, 2, 3, 4, 5, 6, 10, 11, 12]
        )

    def test_unequal_regions(self):
        prior = bc.PositionPrior(
            (bc.SubRegion((0, 1), 0.6), bc.SubRegion((5, 6, 7), 0.4))
        )
        np.testing.assert_allclose(
            prior.masses, [0.3, 0.3, 0.4 / 3, 0.4 / 3, 0.4 / 3]
        )


class TestSampling:
    def test_frequencies_match_masses(self):
        prior = two_region_prior()
        rng = np.random.default_rng(99)
        draws = np.array(
            [bc.position.sample_true_position(prior, rng) for _ in range(100_000)]
        )
        pts = prior.points
        masses = prior.masses
        freq = np.array([(draws == p).mean() for p in pts])
        assert set(np.unique(draws)) <= set(pts.tolist())
        np.testing.assert_allclose(freq, masses, atol=0.01)

    def test_deterministic_under_seed(self):
        prior = two_region_prior()
        a = [bc.position.sample_true_position(prior, np.random.default_rng(3)) for _ in range(5)]
        b = [bc.position.sample_true_position(prior, np.random.default_rng(3)) for _ in range(5)]
        assert a == b

    def test_draws_what_choice_then_integers_draws(self):
        """The subregion draw is rng.choice(p=...) bit for bit: the same
        uniform, searched in the same cdf, so later draws line up too."""
        draw = np.random.default_rng(41)
        for case in range(200):
            sizes = draw.integers(1, 6, size=draw.integers(1, 7))
            weights = draw.random(len(sizes)) ** draw.integers(1, 5) + 1e-9
            priors = weights / weights.sum()
            start = np.cumsum(np.r_[0, sizes])
            prior = bc.PositionPrior(tuple(
                bc.SubRegion(np.arange(a, b), float(q))
                for a, b, q in zip(start[:-1], start[1:], priors)
            ))
            p = np.array([s.prior for s in prior.subregions])
            ours, ref = np.random.default_rng(case), np.random.default_rng(case)
            for _ in range(5):
                s = ref.choice(len(sizes), p=p / p.sum())
                want = int(prior.subregions[s].points[ref.integers(sizes[s])])
                assert bc.position.sample_true_position(prior, ours) == want
