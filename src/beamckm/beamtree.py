"""Per-user beam potentials and the pruned incomplete binary search tree.

Weights start from the map gains at the user's candidate points: each point
contributes its probability mass times the map gain of every bottom beam
that clears the point's own threshold (a fraction beta of the point's best
gain, optionally capped to the top-k survivors).  Upper-layer weights are
pairwise sums of the layer below, so a beam is a search candidate exactly
when some surviving point still backs a bottom beam underneath it.

A ``SearchState`` is one user's search over that tree.  Each observation
updates it once, and the update derives one flat view of the tree: the
weights and the candidate rows, both in codebook row order.  Every search
works on that view, a layer's ``candidate_rows`` and ``weights[row]``;
only the ``codebook`` module knows which rows hold which beam, and
(layer, index) pairs appear only where a beam is named (``BeamId``,
``strategy.ProbeRound``).  The planner's pair weights follow on first use.

Every episode starts from a built state.  A view is a function of the
alive masks and the fallback flag, and so is the search below it: a
view keeps its ``plans`` by (layer choice, root layer) and its
``children``, the states that fold each observed (layer, index) into
it.  So the map-aided searches of a sweep walk one tree of cached states
per user (``strategy.run_searches``), and alg3's episodes, which fold
copies, read the plans of every view they reach through the bounded
memo of views that a built state's copies share (``SearchState``).
"""

from __future__ import annotations

import functools

import numpy as np

from .ckm import CkmGrid
from .codebook import BeamId, layer_rows, layer_start, layers_of, row_of
from .position import PositionPrior, _read_only

_MAX_VIEWS = 512  # views one memo stores (see SearchState)


class _Memo(dict):
    nbytes = 0  # of the arrays it stores


class _View:
    """A state's flat weights, candidate rows and each layer's first among
    them, its pair weights, and the search below it: ``strategy``'s plans
    by (layer choice, root layer) and the child state per observed
    (layer, index)."""

    __slots__ = ("weights", "rows", "starts", "pairs", "plans", "children")

    def __init__(self, weights, rows, starts):
        self.weights, self.rows, self.starts = weights, rows, starts
        self.pairs, self.plans, self.children = None, {}, {}


class SearchState:
    """One user's pruned search tree and the weights that decide it.

    ``gains`` holds one row per point and one column per codeword, so its
    width fixes the depth ``num_layers`` (``codebook.layers_of``).  The
    per-point arrays (ids, masses, gains, contribution matrix) are fixed at
    construction and read-only.  ``update`` folds in an observation: points
    and bottom beams drop out and the observed beam becomes the ``root``.
    ``uniform_fallback`` engages when every contribution is gone (noise
    pruned everything), after which bottom weights are uniform over the
    surviving bottom beams so that descent can finish.

    Each update derives ``weights``, one weight per codeword in codebook
    row order (``codebook.row_of``), and ``rows``, the ascending rows of
    positive weight: the candidates of every layer.  Both are read-only,
    as is everything sliced or computed from them (``candidate_rows``,
    ``pair_weights()``).  These, with the plans and children below them,
    form the ``view``: a pure function of ``(point_alive, beam_alive,
    uniform_fallback)`` over the read-only arrays, so every ``copy()``
    shares one memo of views keyed by ``np.packbits`` of both masks plus
    the flag.  A hit hands out what a miss computes from the same masks by
    the same numpy calls, bit for bit.  The memo stores the first
    ``_MAX_VIEWS`` (512) views, at most about 6 kB each at N=128 (3.1 MB
    per user) and 19 kB at N=512 (9.6 MB) by ``tracemalloc``; later ones
    are derived each time they recur.  The copies share ``multiuser``'s
    memo of pruning profiles by probed rows too, bounded in bytes
    (``multiuser._PROFILE_BYTES``).  Masks and ``root`` are each copy's own.
    """

    def __init__(
        self,
        point_ids: np.ndarray,
        point_mass: np.ndarray,
        gains: np.ndarray,
        beta: float,
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
        if self.gains.ndim != 2:
            raise ValueError(f"gains shape {self.gains.shape}, expected (points, codewords)")
        if not self.point_ids.shape == self.point_mass.shape == (len(self.gains),):
            raise ValueError(
                f"point_ids {self.point_ids.shape}, point_mass {self.point_mass.shape} and "
                f"gains {self.gains.shape} must hold one entry or row per point"
            )
        self.num_layers = num_layers = layers_of(self.gains.shape[1])
        nb = 2**num_layers
        self._layer_rows = (None, *map(layer_rows, range(1, num_layers + 1)))  # by layer
        bottom = self.gains[:, self._layer_rows[num_layers]]
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
        # first codebook row of layers 1..L+1 (the last is one past the bottom)
        self._first_rows = layer_start(np.arange(1, num_layers + 2))
        # per layer pair 1 <= p < q <= L: p, q, and as columns the ancestor
        # shift L-p, the subtree widening q-p and the first row of layer q
        p, q = np.triu_indices(num_layers, k=1)
        p, q = p + 1, q + 1
        self._pair_index = tuple(
            _read_only(a)
            for a in (p, q, (num_layers - p)[:, None], (q - p)[:, None], layer_start(q)[:, None])
        )
        for name in ("point_ids", "point_mass", "gains", "contrib", "_first_rows"):
            setattr(self, name, _read_only(getattr(self, name)))
        self.point_alive = np.ones(len(self.point_ids), dtype=bool)
        self.beam_alive = np.ones(nb, dtype=bool)
        self.uniform_fallback = False
        self.root: BeamId | None = None
        self._views: dict[bytes, _View] = {}
        self._profiles = _Memo()  # multiuser's pruning profiles, by probed rows
        self._derive()
        self.pair_weights()

    def copy(self) -> "SearchState":
        """This state with its own alive masks over the shared read-only
        arrays and view memo: an update of the copy leaves this state alone."""
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
        else over the bottom beams still alive.  Observing nothing and
        keeping every alive point of a state with candidates changes
        nothing, the view included.  The one-state call of ``fold``."""
        fold([self], np.asarray(point_mask)[None], [observed])

    def _derive(self, key: bytes | None = None) -> None:
        """Point the state at the view of its masks and flag (memo key ``key``)."""
        if key is None:
            key = _keys(self.point_alive[None], self.beam_alive[None], [self.uniform_fallback])[0]
        view = self._views.get(key) or self._derive_view()
        if len(self._views) < _MAX_VIEWS:
            self._views.setdefault(key, view)
        self.view = view
        self.weights, self.rows, self._starts = view.weights, view.rows, view.starts

    def _derive_view(self) -> _View:
        """Weights of the alive points and beams (bottom layer, then pairwise
        sums upward), the candidate rows and each layer's first among them."""
        L, at = self.num_layers, self._layer_rows
        flat = np.empty(at[L].stop)
        if self.uniform_fallback:
            flat[at[L]] = self.beam_alive
        else:
            flat[at[L]] = np.where(
                self.beam_alive, self.contrib[self.point_alive].sum(axis=0), 0.0
            )
        for l in range(L - 1, 0, -1):
            below = flat[at[l + 1]]
            flat[at[l]] = below[0::2] + below[1::2]
        flat.flags.writeable = False
        rows = np.flatnonzero(flat > 0)
        rows.flags.writeable = False
        # layer l's candidates are rows[starts[l - 1] : starts[l]]
        return _View(flat, rows, tuple(np.searchsorted(rows, self._first_rows).tolist()))

    @property
    def alive_points(self) -> np.ndarray:
        """Grid-point indices still in play."""
        return self.point_ids[self.point_alive]

    @property
    def root_layer(self) -> int:
        """Layer of the root; 0 before the first observation."""
        return 0 if self.root is None else self.root.layer

    def candidate_rows(self, layer: int) -> np.ndarray:
        """Codebook rows of the candidates at a layer, ascending.  An update
        keeps every alive bottom beam under the root, so below the root's
        layer these are all descendants of the root."""
        return self.rows[self._starts[layer - 1] : self._starts[layer]]

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
        if self.view.pairs is None:
            L = self.num_layers
            p, q, up, widen, first = self._pair_index
            bottom = self.candidate_rows(L)
            w = self.weights[bottom]
            S = np.zeros(L + 1)
            S[1:] = w.sum() * np.diff(self._starts)
            # rows of each bottom candidate's subtree at q under its ancestor at p
            lo = first + (((bottom - self._layer_rows[L].start) >> up) << widen)
            below = np.concatenate(([0], np.cumsum(self.weights > 0)))  # candidates before row r
            cnt = below[lo + (1 << widen)] - below[lo]
            G = np.zeros((L + 1, L + 1))
            G[p, q] = np.where(cnt >= 2, cnt, 0) @ w
            self.view.pairs = (_read_only(S), _read_only(G))
        return self.view.pairs


def _keys(point_alive: np.ndarray, beam_alive: np.ndarray, fallback) -> list[bytes]:
    """Each row's view memo key: ``np.packbits`` of its masks and flag."""
    packed = np.packbits(np.concatenate((point_alive, beam_alive), axis=1), axis=1)
    blob, w = packed.tobytes(), packed.shape[1]
    return [blob[i * w : i * w + w] + (b"\x01" if f else b"\x00") for i, f in enumerate(fallback)]


@functools.cache
def _spans(num_layers: int) -> np.ndarray:
    """Row r: the bottom beams under codebook row r; the last row, all of them."""
    bottom = np.arange(2**num_layers)
    return _read_only(np.concatenate([np.arange(2**l)[:, None] == bottom >> (num_layers - l)
                                      for l in range(1, num_layers + 1)] + [bottom[None] >= 0]))


def fold(states, point_masks: np.ndarray, observed) -> None:
    """``SearchState.update`` of each of ``states`` (copies of one built state)
    by its row of ``point_masks`` and ``observed`` beam or None: masks, subtrees
    and view keys as arrays, then each changed state's view and fallback."""
    L = states[0].num_layers
    alive = np.array([s.point_alive for s in states])
    kept = alive & point_masks
    rows, spans = [-1 if o is None else row_of(o) for o in observed], _spans(L)
    span = np.array([spans[r] for r in rows])
    beams = np.array([s.beam_alive for s in states]) & span
    keys = _keys(kept, beams, [s.uniform_fallback for s in states])
    same = (kept == alive).all(axis=1).tolist() if -1 in rows else None
    for i, (s, o, key) in enumerate(zip(states, observed, keys)):
        if o is None and same[i] and s.rows.size:
            continue
        s.point_alive, s.beam_alive = kept[i], beams[i]
        if o is not None:
            s.root = o
        s._derive(key)
        if not s.candidate_rows(L).size:
            if o is not None:
                s.beam_alive = span[i]
            s.uniform_fallback = True
            s._derive()


def compute_point_weights(
    ckm: CkmGrid,
    prior: PositionPrior,
    beta: float,
    retain_beams: int | None = None,
) -> SearchState:
    """Search state from the map gains at the prior's candidate points."""
    point_ids = prior.points
    outside = (point_ids < 0) | (point_ids >= ckm.grid.num_points)
    if outside.any():
        raise ValueError(
            f"grid-point id {int(point_ids[outside.argmax()])} outside "
            f"[0, {ckm.grid.num_points})"
        )
    # one C-ordered row per point: the contribution sums depend on this layout
    gains = np.take(ckm.gains, point_ids, axis=1).T.astype(np.float64, order="C")
    return SearchState(point_ids, prior.masses, gains, beta, retain_beams)


def candidate_beams(state: SearchState) -> SearchState:
    """The state, once checked to have a beam with positive weight."""
    if not state.candidate_rows(state.num_layers).size:
        raise ValueError("all bottom weights are zero; no candidate beams")
    return state


def apply_observation(state: SearchState, observed: BeamId) -> None:
    """Fold one feedback result into the state.

    Points whose map-argmax among the candidates at the observed layer
    disagrees with the observation are dropped, and the state descends to
    the observed beam (``SearchState.update``).
    """
    row = row_of(observed) if observed.layer <= state.num_layers else None
    if row is None or not state.weights[row] > 0:
        raise ValueError(f"observed beam {observed} is not a candidate")
    rows = state.candidate_rows(observed.layer)
    winners = rows[np.argmax(state.gains[:, rows], axis=1)]  # ties resolve to smaller index
    state.update(winners == row, observed)
