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
What depends on the depth alone is built once per depth (``_tables``) and
shared read-only: a state builds no layout of its own.

Every episode starts from a built state.  A view is a function of the
alive masks and the fallback flag, and so is the search below it: a
view keeps its ``plans`` by (layer choice, root layer) and its
``children``, the states that fold each observed (layer, index) into
it.  So the map-aided searches of a sweep walk one tree of cached states
per user (``strategy.run_searches``), and alg3 (``multiuser``) folds
copies of the distinct states its episodes reach with ``fold``, which
derives all of their missing views in one ``np.bincount`` pass.
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
    construction and read-only, as are the tables of its depth (``_tables``).
    ``update`` folds in an observation: points and bottom beams drop out and
    the observed beam becomes the ``root``.  ``uniform_fallback`` engages
    when every contribution is gone (noise pruned everything), after which
    bottom weights are uniform over the surviving bottom beams so that
    descent can finish.

    Each update derives ``weights``, one weight per codeword in codebook
    row order (``codebook.row_of``), and ``rows``, the ascending rows of
    positive weight: the candidates of every layer.  Both are read-only,
    as is everything sliced or computed from them (``candidate_rows``,
    ``pair_weights()``).  These, with the plans and children below them,
    form the ``view``: a pure function of ``(point_alive, beam_alive,
    uniform_fallback)`` over the read-only arrays, so every ``copy()``
    shares one memo of views keyed by ``np.packbits`` of both masks plus
    the flag (``_derive_all``).  A miss derives the view with the other
    missing views of its ``fold`` in one pass (``_derive_view``).  The
    memo stores the first ``_MAX_VIEWS`` (512) views, at most about 6 kB
    each at N=128 (3.1 MB per user) and 19 kB at N=512 (9.6 MB) by
    ``tracemalloc``; later ones are derived each time they recur.  The
    copies share ``multiuser``'s memo of pruning profiles by probed rows
    too, bounded in bytes (``multiuser._PROFILE_BYTES``).  Masks and
    ``root`` are each copy's own.
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
        self._layer_rows, self._first_rows, self._pair_index, self._spans = _tables(num_layers)
        bottom = self.gains[:, self._layer_rows[num_layers]]
        # per-point threshold: beta * best bottom gain at that point
        gamma = self.beta * bottom.max(axis=1, keepdims=True)
        keep = bottom >= gamma
        if retain_beams is not None:  # each beam's rank at its point, ties to the lower index
            keep &= np.argsort(np.argsort(-bottom, axis=1, kind="stable"), axis=1) < retain_beams
        # fixed per-point contribution to each bottom beam's weight, and its
        # nonzero entries in row-major order (see _derive_view)
        self.contrib = self.point_mass[:, None] * bottom * keep
        nonzero = np.nonzero(self.contrib)
        self._nonzero = tuple(map(_read_only, (*nonzero, self.contrib[nonzero])))
        for name in ("point_ids", "point_mass", "gains", "contrib"):
            setattr(self, name, _read_only(getattr(self, name)))
        self.point_alive = np.ones(len(self.point_ids), dtype=bool)
        self.beam_alive = np.ones(bottom.shape[1], dtype=bool)
        self.uniform_fallback = False
        self.root: BeamId | None = None
        self._views: dict[bytes, _View] = {}
        self._profiles = _Memo()  # multiuser's pruning profiles, by probed rows
        _derive_all([self])
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
        nothing, the view included.  ``fold`` folds many states at once."""
        if self._take(self.point_alive & point_mask, observed):
            _derive_all([self])
            if self._fall_back(observed):
                _derive_all([self])

    def _take(self, kept: np.ndarray, observed: BeamId | None) -> bool:
        """Whether the alive mask ``kept`` (a subset of the alive points) and
        the ``observed`` beam, if any, change the state, and if so take them:
        ``observed`` becomes the root and bounds the alive bottom beams."""
        same = observed is None and np.count_nonzero(kept) == np.count_nonzero(self.point_alive)
        if same and self.rows.size:
            return False
        self.point_alive = kept
        if observed is not None:
            self.root = observed
            self.beam_alive = self.beam_alive & self._spans[row_of(observed)]
        return True

    def _fall_back(self, observed: BeamId | None) -> bool:
        """Whether no bottom candidate is left, and then the uniform fallback,
        over the ``observed`` beam's subtree if there is one."""
        if self.candidate_rows(self.num_layers).size:
            return False
        if observed is not None:
            self.beam_alive = self._spans[row_of(observed)]
        self.uniform_fallback = True
        return True

    def _derive(self, view: _View) -> None:
        """Point the state at ``view``, the view of its masks and flag."""
        self.view = view
        self.weights, self.rows, self._starts = view.weights, view.rows, view.starts

    def _derive_view(self, alive: np.ndarray, beams: np.ndarray, fallback) -> list[_View]:
        """The views of rows of alive masks, beam masks and fallback flags in
        one pass, as columns (a lone view, as alg1 and alg2 derive, in one
        dimension): bottom weights (1.0 per alive beam under the fallback),
        pairwise sums upward, each view's rows and layer starts.  The bottom
        sums are one ``np.bincount`` over the nonzero contributions in
        row-major order, with the bits of ``contrib[alive].sum(axis=0)``: both
        add in point order, and a skipped +0.0 changes no bits (contributions
        are >= 0)."""
        L, at, nb = self.num_layers, self._layer_rows, 2**self.num_layers
        r, c, v = self._nonzero
        if len(alive) == 1:
            j = np.flatnonzero(alive[0, r])
            sums, beams, fallback = np.bincount(c[j], v[j], nb), beams[0], fallback[0]
        else:
            vi, j = np.nonzero(alive[:, r])
            sums = np.bincount(c[j] * len(alive) + vi, v[j], nb * len(alive)).reshape(nb, -1)
            beams, fallback = beams.T, np.asarray(fallback, dtype=bool)
        flat = np.empty((at[L].stop, *sums.shape[1:]))
        flat[at[L]] = np.where(fallback, beams, np.where(beams, sums, 0.0))
        for l in range(L - 1, 0, -1):
            below = flat[at[l + 1]]
            np.add(below[0::2], below[1::2], out=flat[at[l]])
        if flat.ndim == 1:
            rows = np.flatnonzero(flat > 0)
            flat.flags.writeable = rows.flags.writeable = False
            return [_View(flat, rows, tuple(np.searchsorted(rows, self._first_rows).tolist()))]
        positive = flat > 0  # the candidates; per layer their count, summed up: its end
        counts = np.add.reduceat(positive, self._first_rows[:-1], dtype=np.int64)
        rows, views, lo = np.nonzero(positive.T)[1], [], 0
        for weights, ends in zip(flat.T, counts.T.cumsum(axis=1).tolist()):
            weights, here = weights.copy(), rows[lo : lo + ends[-1]].copy()
            weights.flags.writeable = here.flags.writeable = False
            views.append(_View(weights, here, (0, *ends)))
            lo += ends[-1]
        return views

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
            p, q, lo, hi = self._pair_index
            bottom = self.candidate_rows(L)
            w = self.weights[bottom]
            S, starts = np.zeros(L + 1), self._starts
            S[1:] = w.sum() * np.array([b - a for a, b in zip(starts, starts[1:])])
            # candidates at q under each bottom candidate's ancestor at p
            at = bottom - self._layer_rows[L].start
            cnt = self.rows.searchsorted(hi[:, at]) - self.rows.searchsorted(lo[:, at])
            G = np.zeros((L + 1, L + 1))
            G[p, q] = np.where(cnt >= 2, cnt, 0) @ w
            self.view.pairs = (_read_only(S), _read_only(G))
        return self.view.pairs


@functools.cache
def _tables(num_layers: int) -> tuple:
    """The read-only tables that every state of one depth shares: each
    layer's codebook rows (a slice by layer, from 1); the first row of
    layers 1..L+1 (the last is one past the bottom); per layer pair
    1 <= p < q <= L, p and q and, per bottom beam b, the rows [lo, hi) at
    q of the subtree under b's ancestor at p (``SearchState.pair_weights``);
    and per codebook row, the mask of the bottom beams under it."""
    p, q = (i + 1 for i in np.triu_indices(num_layers, k=1))
    up, widen = (num_layers - p)[:, None], (q - p)[:, None]
    bottom = np.arange(2**num_layers)
    lo = layer_start(q)[:, None] + ((bottom >> up) << widen)
    spans = np.concatenate([np.arange(2**l)[:, None] == bottom >> (num_layers - l)
                            for l in range(1, num_layers + 1)])
    return ((None, *map(layer_rows, range(1, num_layers + 1))),
            _read_only(layer_start(np.arange(1, num_layers + 2))),
            tuple(map(_read_only, (p, q, lo, lo + (1 << widen)))), _read_only(spans))


def fold(states, point_masks, observed) -> None:
    """``SearchState.update`` of each of ``states`` (copies of one built state)
    by its row of ``point_masks`` and ``observed`` beam or None, with the
    views of the states that change, then of those that fall back, taken
    in one pass each (``_derive_all``)."""
    changed = [(s, o) for s, m, o in zip(states, point_masks, observed)
               if s._take(s.point_alive & m, o)]
    _derive_all([s for s, _ in changed])
    _derive_all([s for s, o in changed if s._fall_back(o)])


def _derive_all(states) -> None:
    """Point each of ``states`` (copies of one built state) at the view of
    its masks and flag: the memo's, else derived with the other missing ones
    in one pass (``SearchState._derive_view``) and stored while the memo
    holds fewer than ``_MAX_VIEWS``.  A memo key is ``np.packbits`` of both
    masks, then the flag byte."""
    keys = [np.packbits(np.concatenate((s.point_alive, s.beam_alive))).tobytes()
            + (b"\x01" if s.uniform_fallback else b"\x00") for s in states]
    memo = states[0]._views if states else {}
    new = {key: s for s, key in zip(states, keys) if key not in memo}  # a state of each
    if new:
        made = list(new.values())
        views = made[0]._derive_view(np.array([s.point_alive for s in made]),
                                     np.array([s.beam_alive for s in made]),
                                     [s.uniform_fallback for s in made])
        new = dict(zip(new, views))
        memo.update(list(new.items())[: max(0, _MAX_VIEWS - len(memo))])
    for s, key in zip(states, keys):
        s._derive(memo.get(key) or new[key])


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
