"""User position uncertainty: prior-weighted disjoint subregions of grid points."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PRIOR_SUM_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class SubRegion:
    """Grid-point indices forming one uncertainty region with its prior mass.

    ``points`` may be any int sequence; it is kept as a read-only int64 array.
    """

    points: np.ndarray
    prior: float

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.int64)
        if points.size == 0:
            raise ValueError("subregion must contain at least one point")
        if not 0.0 < self.prior <= 1.0:
            raise ValueError(f"prior must lie in (0, 1], got {self.prior}")
        object.__setattr__(self, "points", _read_only(points))

    @property
    def num_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class PositionPrior:
    """Disjoint subregions whose priors sum to one.

    ``points`` (every subregion's grid-point indices, declaration order)
    and ``masses`` (each point's probability, aligned with ``points``) are
    read-only arrays built once here, as is the cdf of the subregion draw
    that ``sample_true_position`` reads.
    """

    subregions: tuple[SubRegion, ...]

    def __post_init__(self):
        if len(self.subregions) == 0:
            raise ValueError("prior must contain at least one subregion")
        total = sum(s.prior for s in self.subregions)
        if abs(total - 1.0) > PRIOR_SUM_TOL:
            raise ValueError(f"subregion priors sum to {total}, expected 1")
        arrays = [s.points for s in self.subregions]
        points = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        repeated = _repeated(points)
        if repeated:
            raise ValueError(f"subregions overlap or repeat grid points {repeated}")
        masses = np.repeat(
            [s.prior / s.num_points for s in self.subregions],
            [s.num_points for s in self.subregions],
        )
        object.__setattr__(self, "points", _read_only(points))
        object.__setattr__(self, "masses", _read_only(masses))
        priors = np.array([s.prior for s in self.subregions])
        # the cdf that Generator.choice(p=priors / sum) builds on every call
        cdf = (priors / priors.sum()).cumsum()
        object.__setattr__(self, "_draw_cdf", _read_only(cdf / cdf[-1]))


def _repeated(points: np.ndarray) -> list[int]:
    """Up to ten distinct values that occur more than once, ascending."""
    ordered = np.sort(points)
    return np.unique(ordered[1:][ordered[1:] == ordered[:-1]])[:10].tolist()


def sample_true_position(prior: PositionPrior, rng: np.random.Generator) -> int:
    """Draw a grid-point index: subregion by prior, as ``rng.choice`` draws
    it (one uniform searched in the cdf), then uniform within it."""
    s = prior._draw_cdf.searchsorted(rng.random(), side="right")
    reg = prior.subregions[s]
    return int(reg.points[rng.integers(reg.num_points)])
