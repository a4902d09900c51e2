"""User position uncertainty: prior-weighted disjoint subregions of grid points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRIOR_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SubRegion:
    """Grid-point indices forming one uncertainty region with its prior mass."""

    points: tuple[int, ...]
    prior: float

    def __post_init__(self):
        if len(self.points) == 0:
            raise ValueError("subregion must contain at least one point")
        if not 0.0 < self.prior <= 1.0:
            raise ValueError(f"prior must lie in (0, 1], got {self.prior}")

    @property
    def num_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PositionPrior:
    subregions: tuple[SubRegion, ...]

    def __post_init__(self):
        if len(self.subregions) == 0:
            raise ValueError("prior must contain at least one subregion")
        total = sum(s.prior for s in self.subregions)
        if abs(total - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"subregion priors sum to {total}, expected 1")
        seen: set[int] = set()
        for s in self.subregions:
            overlap = seen.intersection(s.points)
            if overlap:
                raise ValueError(f"subregions overlap at grid points {sorted(overlap)}")
            seen.update(s.points)

    def all_points(self) -> np.ndarray:
        """Grid-point indices of every subregion, declaration order."""
        return np.concatenate([np.asarray(s.points, dtype=np.int64) for s in self.subregions])

    def point_masses(self) -> np.ndarray:
        """Per-point probability aligned with all_points(); sums to 1."""
        return np.concatenate(
            [np.full(s.num_points, s.prior / s.num_points) for s in self.subregions]
        )


def sample_true_position(prior: PositionPrior, rng: np.random.Generator) -> int:
    """Draw a grid-point index: subregion by prior, then uniform within it."""
    priors = np.array([s.prior for s in prior.subregions])
    s = rng.choice(len(priors), p=priors / priors.sum())
    reg = prior.subregions[s]
    return int(reg.points[rng.integers(reg.num_points)])

