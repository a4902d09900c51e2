"""Per-user beam potentials and the pruned incomplete binary search tree.

Weights start from the map gains at the user's candidate points: each point
contributes its probability mass times the map gain of every bottom beam
that clears the point's own threshold (a fraction beta of the point's best
gain, optionally capped to the top-k survivors).  Upper-layer weights are
pairwise sums of the layer below, so a beam is a search candidate exactly
when some surviving point still backs a bottom beam underneath it.

A ``SearchState`` is one user's search over that tree.  Each observation
updates it once, and the update derives one flat view of the tree: the
weights and the candidate rows, both in codebook row order.  Every query
slices that view; the planner's pair weights follow on first use.

A state is a function of the prior, the map, beta and the feedback path,
so the map-aided searches of a sweep walk one tree of cached states per
user (``strategy.run_episode``): each state keeps its ``children`` by
observed beam and its ``plans`` by layer-choice function.
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


class SearchState:
    """One user's pruned search tree and the weights that decide it.

    The per-point arrays (ids, masses, gains, threshold mask, contribution
    matrix) are fixed at construction and read-only.  ``update`` folds in an
    observation: points and bottom beams drop out and the observed beam
    becomes the ``root``.  ``uniform_fallback`` engages when every
    contribution is gone (noise pruned everything), after which bottom
    weights are uniform over the surviving bottom beams so that descent can
    finish.

    Each update derives ``weights``, one weight per codeword in codebook
    row order (``HierarchicalCodebook.row_of``), and ``rows``, the
    ascending rows of positive weight: the candidates of every layer.
    Both are read-only, as is everything sliced or computed from them
    (``layer_weights``, ``candidate_rows``, ``pair_weights()``).

    ``children`` and ``plans`` cache the search below this state.  An
    update sets both to None: a state folded in place drops its cache.
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
        # first codebook row of layers 1..L+1 (the last is one past the bottom)
        self._first_rows = 2 ** np.arange(1, num_layers + 2) - 2
        # per layer pair 1 <= p < q <= L: p, q, and as columns the ancestor
        # shift L-p, the subtree widening q-p and the first row of layer q
        p, q = np.triu_indices(num_layers, k=1)
        p, q = p + 1, q + 1
        self._pair_index = tuple(
            _read_only(a)
            for a in (p, q, (num_layers - p)[:, None], (q - p)[:, None], (2**q - 2)[:, None])
        )
        for name in ("point_ids", "point_mass", "gains", "contrib", "keep", "_first_rows"):
            setattr(self, name, _read_only(getattr(self, name)))
        self.point_alive = np.ones(len(self.point_ids), dtype=bool)
        self.beam_alive = np.ones(nb, dtype=bool)
        self.uniform_fallback = False
        self.root: BeamId | None = None
        self._derive()
        self.pair_weights()
        self.children: dict | None = {}
        self.plans: dict | None = {}

    def copy(self) -> "SearchState":
        """This state with its own alive masks over the shared read-only
        arrays, pair weights and search cache: an update of the copy leaves
        this state and its cache alone."""
        out = object.__new__(SearchState)
        out.__dict__.update(self.__dict__)
        out.point_alive, out.beam_alive = self.point_alive.copy(), self.beam_alive.copy()
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
        """Weights of the alive points and beams (bottom layer, then the
        pairwise-sum recursion upward), the candidate rows, and where each
        layer's candidates start among them; clears the pair weights and
        the search cache."""
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
        rows = np.flatnonzero(flat > 0)
        rows.flags.writeable = False
        self.weights = flat
        self.rows = rows
        # layer l's candidates are rows[_starts[l - 1] : _starts[l]]
        self._starts = tuple(rows.searchsorted(self._first_rows).tolist())
        self._pairs = self.children = self.plans = None

    @property
    def alive_points(self) -> np.ndarray:
        """Grid-point indices still in play."""
        return self.point_ids[self.point_alive]

    @property
    def bottom_weights(self) -> np.ndarray:
        return self.weights[self.num_bottom - 2 :]

    @property
    def root_layer(self) -> int:
        """Layer of the root; 0 before the first observation."""
        return 0 if self.root is None else self.root.layer

    def layer_weights(self, layer: int) -> np.ndarray:
        """Weights of the beams at a layer, index order."""
        return self.weights[2**layer - 2 : 2 ** (layer + 1) - 2]

    def candidate_rows(self, layer: int) -> np.ndarray:
        """Codebook rows of the candidates at a layer, ascending."""
        return self.rows[self._starts[layer - 1] : self._starts[layer]]

    def candidates(self, layer: int) -> np.ndarray:
        """1-based candidate indices at a layer, ascending.  An update keeps
        every alive bottom beam under the root, so below the root's layer
        these are all descendants of the root."""
        return self.candidate_rows(layer) - (2**layer - 3)

    def bottom_candidates(self) -> np.ndarray:
        return self.candidates(self.num_layers)

    def is_candidate(self, beam: BeamId) -> bool:
        if beam.layer > self.num_layers:
            return False
        return bool(self.weights[2**beam.layer - 3 + beam.index] > 0)

    def pair_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Entry and hop weights of the weighted probe cost, per layer pair.

        Returns ``(S, G)``, both indexed by 1-based layer.  ``S[q]`` (length
        L+1) is the cost of entering at layer q: the summed bottom-candidate
        weight times the candidate count at q.  ``G[p, q]`` ((L+1, L+1),
        nonzero only for 1 <= p < q <= L) is the cost of a step from active
        layer p to the next active layer q: each bottom candidate's weight
        times the candidates at q under its ancestor at p, counted only when
        there are two or more.  The weighted probe cost of an activation
        l1 < .. < lk is then ``S[l1] + G[l1, l2] + .. + G[lk-1, lk]``.
        """
        if self._pairs is None:
            L = self.num_layers
            p, q, up, widen, first = self._pair_index
            bottom = self.candidate_rows(L)
            w = self.weights[bottom]
            S = np.zeros(L + 1)
            S[1:] = w.sum() * np.diff(self._starts)
            # rows of each bottom candidate's subtree at q under its ancestor at p
            lo = first + (((bottom - (self.num_bottom - 2)) >> up) << widen)
            cnt = self.rows.searchsorted(lo + (1 << widen)) - self.rows.searchsorted(lo)
            G = np.zeros((L + 1, L + 1))
            G[p, q] = np.where(cnt >= 2, cnt, 0) @ w
            self._pairs = (_read_only(S), _read_only(G))
        return self._pairs


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
    ``copy()``, so a sweep builds each user's state once and every episode
    starts from a copy that shares its search cache; a sweep never folds
    a built state in place, so each copy starts before any observation.
    """
    if isinstance(prior, SearchState):
        built_for = (prior.beta, prior.retain_beams, prior.num_layers)
        if built_for != (beta, retain_beams, ckm.num_layers):
            raise ValueError("search state was built for another beta, retain_beams or map")
        return prior.copy()
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
    rows = state.candidate_rows(observed.layer)
    winners = rows[np.argmax(state.gains[:, rows], axis=1)]  # ties resolve to smaller index
    state.update(winners == 2**observed.layer - 3 + observed.index, observed)
