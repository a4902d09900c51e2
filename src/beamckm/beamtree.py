"""Per-user beam potentials and the pruned incomplete binary search tree.

Weights start from the map gains at the user's candidate points: each point
contributes its probability mass times the map gain of every bottom beam
that clears the point's own threshold (a fraction beta of the point's best
gain, optionally capped to the top-k survivors).  Upper-layer weights are
pairwise sums of the layer below, so a beam is a search candidate exactly
when some surviving point still backs a bottom beam underneath it.
"""

from __future__ import annotations

import numpy as np

from .ckm import CkmGrid
from .codebook import BeamId
from .position import PositionPrior


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class BeamWeightTable:
    """Mutable weight state for one user episode.

    The per-point arrays (ids, masses, gains, threshold mask, contribution
    matrix) are fixed at construction and read-only; observations only flip
    points or bottom beams dead.  ``uniform_fallback`` engages when every
    contribution is gone (noise pruned everything), after which bottom
    weights are uniform over the surviving subtree so that descent can finish.
    """

    def __init__(
        self,
        point_ids: np.ndarray,
        point_mass: np.ndarray,
        gains: np.ndarray,
        beta: float,
        num_layers: int,
        retain_beams: int | None = None,
    ):
        if not 0.0 < beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {beta}")
        if retain_beams is not None and retain_beams < 1:
            raise ValueError("retain_beams must be >= 1")
        self.point_ids = np.asarray(point_ids, dtype=np.int64)
        self.point_mass = np.asarray(point_mass, dtype=np.float64)
        self.gains = np.asarray(gains, dtype=np.float64)  # (P, total codewords)
        self.beta = beta
        self.retain_beams = retain_beams
        self.num_layers = num_layers
        nb = 2**num_layers
        self.num_bottom = nb
        bottom = self.gains[:, 2**num_layers - 2 :]
        if bottom.shape[1] != nb:
            raise ValueError("gain matrix does not cover the full codebook")
        # per-point threshold: beta * best bottom gain at that point
        gamma = self.beta * bottom.max(axis=1, keepdims=True)
        keep = bottom >= gamma
        if retain_beams is not None:
            rank = np.empty_like(keep, dtype=np.int64)
            order = np.argsort(-bottom, axis=1, kind="stable")
            np.put_along_axis(rank, order, np.arange(nb)[None, :], axis=1)
            keep &= rank < retain_beams
        # fixed per-point contribution to each bottom beam's weight
        self.contrib = self.point_mass[:, None] * bottom * keep
        self.keep = keep
        for name in ("point_ids", "point_mass", "gains", "contrib", "keep"):
            setattr(self, name, _read_only(getattr(self, name)))
        self.point_alive = np.ones(len(self.point_ids), dtype=bool)
        self.beam_alive = np.ones(nb, dtype=bool)
        self.uniform_fallback = False

    def fresh_copy(self) -> "BeamWeightTable":
        """This table in its initial state, for one more episode: fresh alive
        masks and fallback flag; the fixed arrays are shared."""
        out = object.__new__(BeamWeightTable)
        out.__dict__.update(self.__dict__)
        out.point_alive = np.ones(len(self.point_ids), dtype=bool)
        out.beam_alive = np.ones(self.num_bottom, dtype=bool)
        out.uniform_fallback = False
        return out

    @property
    def alive_points(self) -> np.ndarray:
        """Grid-point indices still in play."""
        return self.point_ids[self.point_alive]

    def bottom_weights(self) -> np.ndarray:
        if self.uniform_fallback:
            return self.beam_alive.astype(np.float64)
        w = self.contrib[self.point_alive].sum(axis=0)
        return np.where(self.beam_alive, w, 0.0)

    def layer_weights(self) -> list[np.ndarray]:
        """Weights per layer, index 0 = layer 1; pairwise-sum recursion."""
        w = self.bottom_weights()
        out = [w]
        for _ in range(self.num_layers - 1):
            w = w.reshape(-1, 2).sum(axis=1)
            out.append(w)
        out.reverse()
        return out

    def layer_gain_columns(self, layer: int, indices: np.ndarray) -> np.ndarray:
        """(P, len(indices)) per-point map gains of beams (layer, indices)."""
        start = 2**layer - 2
        cols = start + np.asarray(indices, dtype=np.int64) - 1
        return self.gains[:, cols]

    def kill_points(self, alive_mask: np.ndarray) -> None:
        """Restrict alive points to those flagged in ``alive_mask`` (aligned
        with the full point list)."""
        self.point_alive &= alive_mask

    def restrict_to_subtree(self, root: BeamId) -> None:
        """Zero every bottom beam outside the root's descendant span; falls
        back to a uniform subtree if nothing survives (also when a fallback
        subtree is later contradicted by a new observation)."""
        shift = self.num_layers - root.layer
        lo = (root.index - 1) << shift
        hi = root.index << shift
        mask = np.zeros(self.num_bottom, dtype=bool)
        mask[lo:hi] = True
        self.beam_alive &= mask
        if self.bottom_weights().max(initial=0.0) <= 0.0:
            self.beam_alive = mask
            self.uniform_fallback = True


class PrunedTree:
    """Candidate masks per layer plus the current search root."""

    def __init__(self, masks: list[np.ndarray], root: BeamId | None = None):
        self.masks = [np.asarray(m, dtype=bool) for m in masks]
        self.num_layers = len(self.masks)
        self.root = root
        self._csum: np.ndarray | None = None

    @classmethod
    def from_bottom_weights(cls, weights, root: BeamId | None = None) -> "PrunedTree":
        """Build candidate masks from raw bottom weights (test/toy helper)."""
        w = np.asarray(weights, dtype=np.float64)
        depth = int(np.log2(len(w)))
        if 2**depth != len(w):
            raise ValueError("bottom weight length must be a power of two")
        masks = [w > 0]
        for _ in range(depth - 1):
            w = w.reshape(-1, 2).sum(axis=1)
            masks.append(w > 0)
        masks.reverse()
        return cls(masks, root=root)

    def candidates(self, layer: int) -> np.ndarray:
        """1-based candidate indices at a layer, ascending."""
        return np.flatnonzero(self.masks[layer - 1]) + 1

    def candidate_count(self, layer: int) -> int:
        return int(self.masks[layer - 1].sum())

    def bottom_candidates(self) -> np.ndarray:
        return self.candidates(self.num_layers)

    def is_candidate(self, beam: BeamId) -> bool:
        if beam.layer > self.num_layers:
            return False
        return bool(self.masks[beam.layer - 1][beam.index - 1])

    def candidates_under(self, layer: int, node: BeamId | None) -> np.ndarray:
        """Candidates at ``layer`` descending from ``node`` (all if None)."""
        cands = self.candidates(layer)
        if node is None or node.layer >= layer:
            return cands
        shift = layer - node.layer
        lo = (node.index - 1) << shift
        hi = node.index << shift
        return cands[(cands > lo) & (cands <= hi)]

    def prefix_sums(self) -> np.ndarray:
        """(L, 2**L + 1) per-layer candidate-count prefix sums for kernels."""
        if self._csum is None:
            nb = 2**self.num_layers
            csum = np.zeros((self.num_layers, nb + 1), dtype=np.int64)
            for l in range(1, self.num_layers + 1):
                counts = np.cumsum(self.masks[l - 1])
                csum[l - 1, 1 : 2**l + 1] = counts
                csum[l - 1, 2**l + 1 :] = counts[-1]
            self._csum = csum
        return self._csum

    def ancestor_closed(self) -> bool:
        """True when every candidate's parent is also a candidate."""
        for l in range(self.num_layers, 1, -1):
            child_any = self.masks[l - 1].reshape(-1, 2).any(axis=1)
            if np.any(child_any & ~self.masks[l - 2]):
                return False
        return True


def compute_point_weights(
    ckm: CkmGrid,
    prior: PositionPrior | np.ndarray | BeamWeightTable,
    beta: float,
    retain_beams: int | None = None,
    point_mass: np.ndarray | None = None,
) -> BeamWeightTable:
    """Weight table from the map gains at the prior's candidate points.

    ``prior`` may be a PositionPrior or a raw array of grid-point indices
    (then ``point_mass`` supplies the masses, default uniform).  It may also
    be a table already built from this map with the same ``beta`` and
    ``retain_beams``; the result is then its ``fresh_copy()``, so a sweep
    builds each user's table once and every episode starts from a copy.
    """
    if isinstance(prior, BeamWeightTable):
        built_for = (prior.beta, prior.retain_beams, prior.num_layers)
        if built_for != (beta, retain_beams, ckm.num_layers):
            raise ValueError("weight table was built for another beta, retain_beams or map")
        if point_mass is not None:
            raise ValueError("a built weight table already holds its point masses")
        return prior.fresh_copy()
    if isinstance(prior, PositionPrior):
        point_ids = prior.all_points()
        mass = prior.point_masses()
    else:
        point_ids = np.asarray(prior, dtype=np.int64)
        if point_ids.size == 0:
            raise ValueError("empty point set")
        if point_mass is None:
            mass = np.full(len(point_ids), 1.0 / len(point_ids))
        else:
            mass = np.asarray(point_mass, dtype=np.float64)
    gains = ckm.gains[:, point_ids].T.astype(np.float64)
    return BeamWeightTable(
        point_ids=point_ids,
        point_mass=mass,
        gains=gains,
        beta=beta,
        num_layers=ckm.num_layers,
        retain_beams=retain_beams,
    )


def candidate_beams(table: BeamWeightTable) -> PrunedTree:
    """Pruned tree of all beams with positive weight."""
    layers = table.layer_weights()
    if layers[-1].max(initial=0.0) <= 0.0:
        raise ValueError("all bottom weights are zero; no candidate beams")
    return PrunedTree([w > 0 for w in layers])


def apply_observation(
    table: BeamWeightTable, tree: PrunedTree, observed: BeamId
) -> PrunedTree:
    """Fold one feedback result into the state; returns the rebuilt tree.

    Points whose map-argmax among the just-probed candidates disagrees with
    the observation are dropped, the bottom layer is restricted to the
    observed beam's subtree, and weights are recomputed from what survives.
    """
    if not tree.is_candidate(observed):
        raise ValueError(f"observed beam {observed} is not a candidate")
    cand = tree.candidates(observed.layer)
    sub = table.layer_gain_columns(observed.layer, cand)
    winners = cand[np.argmax(sub, axis=1)]  # ties resolve to smaller index
    table.kill_points(winners == observed.index)
    table.restrict_to_subtree(observed)
    out = candidate_beams(table)
    out.root = observed
    return out
