"""Per-user beam potentials and the pruned incomplete binary search tree.

Weights start from the map gains at the user's candidate points: each point
contributes its probability mass times the map gain of every bottom beam
that clears the point's own threshold (a fraction beta of the point's best
gain, optionally capped to the top-k survivors).  Upper-layer weights are
pairwise sums of the layer below, so a beam is a search candidate exactly
when some surviving point still backs a bottom beam underneath it.

A ``SearchState`` is one user's search over that tree.  Each observation
updates it once, and the update derives the layer weights and candidate
masks; the prefix sums and the planner's pair weights follow on first use.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .ckm import CkmGrid
from .codebook import BeamId
from .position import PositionPrior


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class _Lazy:
    """Prefix sums and pair weights of one derived state, filled on first use."""

    __slots__ = ("csum", "pairs")

    def __init__(self):
        self.csum: np.ndarray | None = None
        self.pairs: tuple[np.ndarray, np.ndarray] | None = None


class SearchState:
    """One user's pruned search tree and the weights that decide it.

    The per-point arrays (ids, masses, gains, threshold mask, contribution
    matrix) are fixed at construction and read-only.  ``update`` folds in an
    observation: points and bottom beams drop out and the observed beam
    becomes the ``root``.  ``uniform_fallback`` engages when every
    contribution is gone (noise pruned everything), after which bottom
    weights are uniform over the surviving bottom beams so that descent can
    finish.  Everything derived from this (``layer_weights``, ``masks``,
    ``prefix_sums()``, ``pair_weights()``) is read-only.
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
        self._reset()
        self._derive()
        # the derived state before any observation, shared by every fresh copy
        self._initial = (self.layer_weights, self.masks, self._lazy)

    def _reset(self) -> None:
        self.point_alive = np.ones(len(self.point_ids), dtype=bool)
        self.beam_alive = np.ones(self.num_bottom, dtype=bool)
        self.uniform_fallback = False
        self.root: BeamId | None = None

    def fresh_copy(self) -> "SearchState":
        """This state before any observation, for one more episode.  The
        fixed arrays and the initial derived arrays are shared; prefix sums
        and pair weights computed by any copy before its first update are
        kept for the next copies."""
        out = object.__new__(SearchState)
        out.__dict__.update(self.__dict__)
        out._reset()
        out.layer_weights, out.masks, out._lazy = self._initial
        return out

    def update(self, point_mask: np.ndarray, observed: BeamId | None = None) -> None:
        """Fold one observation into the state.

        Points not flagged in ``point_mask`` (aligned with the full point
        list) leave the alive set.  An ``observed`` beam becomes the root and
        restricts the bottom layer to its subtree.  If no bottom weight is
        left, the uniform fallback engages: over the observed subtree when
        there is one (also when it contradicts an earlier fallback subtree),
        else over the bottom beams still alive."""
        self.point_alive &= point_mask
        if observed is not None:
            shift = self.num_layers - observed.layer
            span = np.zeros(self.num_bottom, dtype=bool)
            span[(observed.index - 1) << shift : observed.index << shift] = True
            self.beam_alive &= span
            self.root = observed
        self._derive()
        if self.bottom_weights.max(initial=0.0) <= 0.0:
            if observed is not None:
                self.beam_alive = span
            self.uniform_fallback = True
            self._derive()

    def _derive(self) -> None:
        """Layer weights (index 0 = layer 1, pairwise-sum recursion) and
        candidate masks of the alive points and beams; starts new lazy
        caches.  The layers share one read-only buffer in codebook order."""
        nb = self.num_bottom
        flat = np.empty(2 * nb - 2)
        if self.uniform_fallback:
            flat[nb - 2 :] = self.beam_alive
        else:
            flat[nb - 2 :] = np.where(
                self.beam_alive, self.contrib[self.point_alive].sum(axis=0), 0.0
            )
        for l in range(self.num_layers - 1, 0, -1):
            below = flat[2 ** (l + 1) - 2 : 2 ** (l + 2) - 2]
            flat[2**l - 2 : 2 ** (l + 1) - 2] = below[0::2] + below[1::2]
        flat.flags.writeable = False
        positive = flat > 0
        positive.flags.writeable = False
        spans = [slice(2**l - 2, 2 ** (l + 1) - 2) for l in range(1, self.num_layers + 1)]
        self.layer_weights = tuple(flat[s] for s in spans)
        self.masks = tuple(positive[s] for s in spans)
        self._lazy = _Lazy()

    @property
    def alive_points(self) -> np.ndarray:
        """Grid-point indices still in play."""
        return self.point_ids[self.point_alive]

    @property
    def bottom_weights(self) -> np.ndarray:
        return self.layer_weights[-1]

    @property
    def root_layer(self) -> int:
        """Layer of the root; 0 before the first observation."""
        return 0 if self.root is None else self.root.layer

    def layer_gain_columns(self, layer: int, indices: np.ndarray) -> np.ndarray:
        """(P, len(indices)) per-point map gains of beams (layer, indices)."""
        start = 2**layer - 2
        cols = start + np.asarray(indices, dtype=np.int64) - 1
        return self.gains[:, cols]

    def candidates(self, layer: int) -> np.ndarray:
        """1-based candidate indices at a layer, ascending.  An update keeps
        every alive bottom beam under the root, so below the root's layer
        these are all descendants of the root."""
        return np.flatnonzero(self.masks[layer - 1]) + 1

    def bottom_candidates(self) -> np.ndarray:
        return self.candidates(self.num_layers)

    def is_candidate(self, beam: BeamId) -> bool:
        if beam.layer > self.num_layers:
            return False
        return bool(self.masks[beam.layer - 1][beam.index - 1])

    def prefix_sums(self) -> np.ndarray:
        """(L, 2**L + 1) per-layer candidate-count prefix sums for kernels."""
        lazy = self._lazy
        if lazy.csum is None:
            nb = 2**self.num_layers
            csum = np.zeros((self.num_layers, nb + 1), dtype=np.int64)
            for l in range(1, self.num_layers + 1):
                counts = np.cumsum(self.masks[l - 1])
                csum[l - 1, 1 : 2**l + 1] = counts
                csum[l - 1, 2**l + 1 :] = counts[-1]
            lazy.csum = _read_only(csum)
        return lazy.csum

    def pair_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Entry and hop weights of the planner over the bottom candidates
        (``kernels.pair_weights``)."""
        lazy = self._lazy
        if lazy.pairs is None:
            entry, hops = kernels.pair_weights(
                self.prefix_sums(), self.bottom_weights, self.bottom_candidates(), self.num_layers
            )
            lazy.pairs = (_read_only(entry), _read_only(hops))
        return lazy.pairs


def compute_point_weights(
    ckm: CkmGrid,
    prior: PositionPrior | np.ndarray | SearchState,
    beta: float,
    retain_beams: int | None = None,
) -> SearchState:
    """Search state from the map gains at the prior's candidate points.

    ``prior`` may be a PositionPrior or a raw array of grid-point indices
    of uniform mass.  It may also be a state already built from this map
    with the same ``beta`` and ``retain_beams``; the result is then its
    ``fresh_copy()``, so a sweep builds each user's state once and every
    episode starts from a copy.
    """
    if isinstance(prior, SearchState):
        built_for = (prior.beta, prior.retain_beams, prior.num_layers)
        if built_for != (beta, retain_beams, ckm.num_layers):
            raise ValueError("search state was built for another beta, retain_beams or map")
        return prior.fresh_copy()
    if isinstance(prior, PositionPrior):
        point_ids = prior.all_points()
        mass = prior.point_masses()
    else:
        point_ids = np.asarray(prior, dtype=np.int64)
        if point_ids.size == 0:
            raise ValueError("empty point set")
        mass = np.full(len(point_ids), 1.0 / len(point_ids))
    outside = (point_ids < 0) | (point_ids >= ckm.grid.num_points)
    if outside.any():
        raise ValueError(
            f"grid-point id {int(point_ids[outside.argmax()])} outside "
            f"[0, {ckm.grid.num_points})"
        )
    gains = ckm.gains[:, point_ids].T.astype(np.float64)
    return SearchState(point_ids, mass, gains, beta, ckm.num_layers, retain_beams)


def candidate_beams(state: SearchState) -> SearchState:
    """The state, once checked to have a beam with positive weight."""
    if state.bottom_weights.max(initial=0.0) <= 0.0:
        raise ValueError("all bottom weights are zero; no candidate beams")
    return state


def apply_observation(state: SearchState, observed: BeamId) -> None:
    """Fold one feedback result into the state.

    Points whose map-argmax among the candidates at the observed layer
    disagrees with the observation are dropped, and the state descends to
    the observed beam (``SearchState.update``).
    """
    if not state.is_candidate(observed):
        raise ValueError(f"observed beam {observed} is not a candidate")
    cand = state.candidates(observed.layer)
    sub = state.layer_gain_columns(observed.layer, cand)
    winners = cand[np.argmax(sub, axis=1)]  # ties resolve to smaller index
    state.update(winners == observed.index, observed)
