"""Per-layer tracing from outside the program.

The tracer swaps each traced beamckm function for a wrapper at every site
where a caller looks it up: names bound by ``from .x import y`` live in the
caller's module, so ``probe`` is patched in ``harness``, ``strategy``,
``lookahead`` and ``multiuser``. Each wrapper records a span (name, start,
end, parent span, episode id) in memory; a few also read counts off the
arguments or results at the same boundary. ``installed()`` restores every
original attribute on exit, also when the traced work raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module of beamckm, attribute looked up there, span name)
SITES: tuple[tuple[str, str, str], ...] = (
    ("codebook", "build_codebook", "codebook.build_codebook"),
    ("harness", "build_codebook", "codebook.build_codebook"),
    ("harness", "synthesize_channel", "channel.synthesize_channel"),
    ("channel", "trace_point_paths", "channel.trace_point_paths"),
    ("ckm", "trace_point_paths", "channel.trace_point_paths"),
    ("harness", "probe", "channel.probe"),
    ("strategy", "probe", "channel.probe"),
    ("lookahead", "probe", "channel.probe"),
    ("multiuser", "probe", "channel.probe"),
    ("kernels", "activation_rewards", "kernels.activation_rewards"),
    ("ckm", "build_ckm", "ckm.build_ckm"),
    ("ckm", "save_ckm", "ckm.save_ckm"),
    ("ckm", "load_ckm", "ckm.load_ckm"),
    ("harness", "sample_true_position", "position.sample_true_position"),
    ("strategy", "compute_point_weights", "beamtree.compute_point_weights"),
    ("lookahead", "compute_point_weights", "beamtree.compute_point_weights"),
    ("multiuser", "compute_point_weights", "beamtree.compute_point_weights"),
    ("beamtree", "candidate_beams", "beamtree.candidate_beams"),
    ("strategy", "candidate_beams", "beamtree.candidate_beams"),
    ("lookahead", "candidate_beams", "beamtree.candidate_beams"),
    ("multiuser", "candidate_beams", "beamtree.candidate_beams"),
    ("strategy", "apply_observation", "beamtree.apply_observation"),
    ("lookahead", "apply_observation", "beamtree.apply_observation"),
    ("multiuser", "apply_observation", "beamtree.apply_observation"),
    ("strategy", "optimal_layer", "strategy.optimal_layer"),
    ("multiuser", "optimal_layer", "strategy.optimal_layer"),
    ("harness", "run_single_user", "strategy.run_single_user"),
    ("lookahead", "subtree_view", "lookahead.subtree_view"),
    ("harness", "run_lookahead", "lookahead.run_lookahead"),
    ("multiuser", "joint_layer", "multiuser.joint_layer"),
    ("multiuser", "prune_user_points", "multiuser.prune_user_points"),
    ("harness", "run_multi_user", "multiuser.run_multi_user"),
    ("harness", "baseline_hierarchical", "harness.baseline_hierarchical"),
    ("harness", "baseline_exhaustive", "harness.baseline_exhaustive"),
    ("harness", "run_trials", "harness.run_trials"),
    ("harness", "write_results_csv", "harness.write_results_csv"),
    ("harness", "summarize", "harness.summarize"),
)

# episode functions and the algorithm each one runs
EPISODES = {
    "strategy.run_single_user": "alg1",
    "lookahead.run_lookahead": "alg2",
    "multiuser.run_multi_user": "alg3",
    "harness.baseline_hierarchical": "baseline-hier",
    "harness.baseline_exhaustive": "baseline-exhaustive",
}

# per-layer metrics: name -> unit, in report order
LAYER_METRICS = {
    "codebook.build_codebook.s": "s",
    "channel.synthesize_channel.calls": "count",
    "channel.synthesize_channel.self_s": "s",
    "channel.probe.calls": "count",
    "channel.probe.self_s": "s",
    "channel.trace_point_paths.s": "s",
    "kernels.activation_rewards.calls": "count",
    "kernels.activation_rewards.self_s": "s",
    "kernels.activation_rewards.cells": "count",
    "ckm.build_ckm.self_s": "s",
    "ckm.save_ckm.s": "s",
    "ckm.load_ckm.s": "s",
    "ckm.bytes": "B",
    "position.sample_true_position.self_s": "s",
    "beamtree.compute_point_weights.calls": "count",
    "beamtree.compute_point_weights.self_s": "s",
    "beamtree.compute_point_weights.distinct_ratio": "ratio",
    "beamtree.candidate_beams.calls": "count",
    "beamtree.candidate_beams.self_s": "s",
    "beamtree.apply_observation.calls": "count",
    "beamtree.apply_observation.self_s": "s",
    "beamtree.uniform_fallback_ratio": "ratio",
    "strategy.optimal_layer.calls": "count",
    "strategy.optimal_layer.self_s": "s",
    "strategy.run_single_user.self_s": "s",
    "strategy.rounds_per_episode": "rounds",
    "strategy.free_descent_ratio": "ratio",
    "lookahead.subtree_view.self_s": "s",
    "lookahead.run_lookahead.self_s": "s",
    "lookahead.skip_ratio": "ratio",
    "lookahead.rounds_per_episode": "rounds",
    "multiuser.joint_layer.calls": "count",
    "multiuser.joint_layer.self_s": "s",
    "multiuser.prune_user_points.calls": "count",
    "multiuser.prune_user_points.self_s": "s",
    "multiuser.prune_user_points.kept_ratio": "ratio",
    "multiuser.run_multi_user.self_s": "s",
    "multiuser.rounds_per_episode": "rounds",
    "multiuser.eavesdrop_ratio": "ratio",
    **{
        f"harness.episode_ms.{algo}.{q}": "ms"
        for algo in EPISODES.values()
        for q in ("p50", "p99")
    },
    "harness.run_trials.self_s": "s",
    "harness.write_results_csv.s": "s",
    "harness.summarize.s": "s",
    "trace.overhead_ratio": "ratio",
}


def wrapper_cost_s() -> float:
    """Seconds the generic part of a wrapper adds to one call: the median,
    over 7 repeats, of the extra time of 2000 wrapped calls of a no-op. The
    boundary counts that a few wrappers read are not included."""
    calls, repeats = 2000, 7

    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    extra = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            noop()
        plain = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        extra.append(perf_counter() - start - plain)
    return max(statistics.median(extra), 0.0) / calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _weights_key(args, kwargs):
    """Hashable (prior, beta, retain_beams) input of compute_point_weights."""
    prior = args[1]
    if isinstance(prior, np.ndarray):
        prior = tuple(prior.tolist())
    retain = kwargs.get("retain_beams", args[3] if len(args) > 3 else None)
    return prior, args[2], retain


class Tracer:
    """Spans and boundary counts of one traced pass."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._episode: int | None = None
        self._episodes = 0
        self._tables: list = []
        self._weight_inputs: set = set()

    @contextmanager
    def installed(self):
        """Wrap every site in ``SITES`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span in SITES:
                module = importlib.import_module(f"beamckm.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        algo = EPISODES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if algo is not None:
                self._episode = self._episodes
                self._episodes += 1
                self._tables = []
            before = (
                int(args[0].point_alive.sum())
                if name == "multiuser.prune_user_points"
                else None
            )
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._episode)
                if algo is not None:
                    self._episode = None
            self._count(name, algo, args, kwargs, result, before)
            return result

        return traced

    def _count(self, name, algo, args, kwargs, result, before):
        c = self.counts
        if name == "kernels.activation_rewards":
            c["cells"] += args[1].shape[0] * args[3].shape[0]
        elif name == "beamtree.compute_point_weights":
            self._weight_inputs.add(_weights_key(args, kwargs))
            self._tables.append(result)
        elif name == "multiuser.prune_user_points":
            c["prune.before"] += before
            c["prune.after"] += len(result)
        elif name == "multiuser.joint_layer":
            c["alg3.rounds"] += 1
        if algo in ("alg1", "alg2", "alg3"):
            c["tables"] += len(self._tables)
            c["fallback_tables"] += sum(t.uniform_fallback for t in self._tables)
            self._tables = []
        if algo == "alg1":
            rounds = result[2]
            c["alg1.episodes"] += 1
            c["alg1.rounds"] += len(rounds)
            c["alg1.free"] += sum(r.probes == 0 for r in rounds)
        elif algo == "alg2":
            c["alg2.episodes"] += 1
            layer = 0
            for r in result[2]:
                c["alg2.rounds"] += 1
                c["alg2.skips"] += r.layer - layer == 2
                layer = r.layer
        elif algo == "alg3":
            entries = [r for user in result[2] for r in user]
            c["alg3.episodes"] += 1
            c["alg3.entries"] += len(entries)
            c["alg3.eavesdrops"] += sum(r.indicator == 0 for r in entries)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of this pass; ``ckm.bytes`` and
        ``trace.overhead_ratio`` are measured by the caller."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        episode_ms = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
            if name in EPISODES:
                episode_ms[EPISODES[name]].append(1e3 * (end - start))
        c = self.counts
        out: dict[str, float] = {}
        for metric in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[layer]
            elif kind == "self_s":
                out[metric] = own[layer]
            elif kind == "s":
                out[metric] = total[layer]
        out["kernels.activation_rewards.cells"] = c["cells"]
        out["beamtree.compute_point_weights.distinct_ratio"] = _ratio(
            len(self._weight_inputs), calls["beamtree.compute_point_weights"]
        )
        out["beamtree.uniform_fallback_ratio"] = _ratio(c["fallback_tables"], c["tables"])
        out["strategy.rounds_per_episode"] = _ratio(c["alg1.rounds"], c["alg1.episodes"])
        out["strategy.free_descent_ratio"] = _ratio(c["alg1.free"], c["alg1.rounds"])
        out["lookahead.skip_ratio"] = _ratio(c["alg2.skips"], c["alg2.rounds"])
        out["lookahead.rounds_per_episode"] = _ratio(c["alg2.rounds"], c["alg2.episodes"])
        out["multiuser.prune_user_points.kept_ratio"] = _ratio(c["prune.after"], c["prune.before"])
        out["multiuser.rounds_per_episode"] = _ratio(c["alg3.rounds"], c["alg3.episodes"])
        out["multiuser.eavesdrop_ratio"] = _ratio(c["alg3.eavesdrops"], c["alg3.entries"])
        for algo, samples in episode_ms.items():
            p50, p99 = np.percentile(samples, [50, 99])
            out[f"harness.episode_ms.{algo}.p50"] = float(p50)
            out[f"harness.episode_ms.{algo}.p99"] = float(p99)
        return out

    def episode_counts(self) -> dict[str, int]:
        """Episodes per algorithm, the sample count behind each percentile."""
        return dict(Counter(EPISODES[s[0]] for s in self.spans if s[0] in EPISODES))

    def write_spans(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, episode in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent,
                            "episode": episode,
                        }
                    )
                    + "\n"
                )
