"""End-to-end acceptance checks for the beam-training toolkit.

Every test here verifies one headline behaviour of the shipped system on
the bundled desk-scale scenario (``configs/desk.json``) or on exhaustive
small-size enumeration, prints a single machine-greppable PASS/FAIL line
with the measured numbers, and enforces both the quantitative bar and a
wall-clock budget.  The Monte-Carlo sweep is run once per session and
shared; its cost is charged to every consumer when budgets are checked,
so each bar would hold even if that test had to pay for the sweep alone.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

import beamckm as bc
from beamckm.channel import trace_point_paths
from beamckm.codebook import layer_start
from beamckm.multiuser import prune_user_points
from beamckm.position import sample_true_position

from conftest import ACCEPTANCE_LINES, candidates, layer_weights
from oracles import enumerate_activations, overhead_for_target, similarity
from test_strategy import random_tree, simulated_probe_count

DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


def _check(name: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    """Record one PASS/FAIL summary line and enforce bar + time budget."""
    within = elapsed <= budget
    verdict = "PASS" if (ok and within) else "FAIL"
    line = f"[{verdict}] {name} ({elapsed:.1f}s / budget {budget:.0f}s): {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert within, line


@pytest.fixture(scope="session")
def desk():
    """Desk scenario, freshly built map, and the full paired Monte-Carlo
    sweep (every trial runs every algorithm at every SNR point)."""
    cfg = bc.load_scenario(str(DESK_CONFIG))
    codebook = bc.build_codebook(cfg.array.num_antennas)
    ckm = bc.build_ckm(cfg.environment, cfg.array, codebook, cfg.grid)
    t0 = time.perf_counter()
    records = bc.run_trials(cfg, ckm)
    sweep_time = time.perf_counter() - t0
    return {
        "cfg": cfg,
        "codebook": codebook,
        "ckm": ckm,
        "priors": cfg.priors,
        "records": records,
        "sweep_time": sweep_time,
    }


def _rows(desk, algo: str, snr: float):
    return [r for r in desk["records"] if r.algorithm == algo and r.snr_db == snr]


def _hit_rate(rows) -> float:
    return float(np.mean([r.chosen == r.oracle for r in rows]))


class TestProbeCostModel:
    def test_four_leaf_probe_costs_frozen(self, four_leaf_tree):
        """Hand-worked probe counts on the four-candidate depth-3 tree."""
        cases = [
            ((1, 3), 5, 2),
            ((2, 3), 3, 3),
            ((3,), 1, 4),
            ((1, 2, 3), 3, 4),
        ]
        t0 = time.perf_counter()
        got = [
            overhead_for_target(four_leaf_tree, act, bc.BeamId(3, tgt))
            for act, tgt, _ in cases
        ]
        elapsed = time.perf_counter() - t0
        expected = [c[2] for c in cases]
        _check(
            "four-leaf frozen probe costs",
            got == expected,
            elapsed,
            1.0,
            f"got {got}, expected {expected}",
        )

    def test_cost_formula_matches_probe_simulation(self):
        """Closed-form probe cost equals a step-by-step simulation of the
        probing schedule for every activation and target on random trees."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        checked = 0
        mismatches = []
        for num_layers in (3, 4):  # 8- and 16-beam bottom layers
            acts = enumerate_activations(0, num_layers)
            for _ in range(200):
                tree, _w = random_tree(rng, num_layers)
                cands = candidates(tree, num_layers)
                for act in acts:
                    for tgt in cands:
                        want = simulated_probe_count(
                            cands, num_layers, act, int(tgt)
                        )
                        have = overhead_for_target(
                            tree, act, bc.BeamId(num_layers, int(tgt))
                        )
                        checked += 1
                        if have != want:
                            mismatches.append((num_layers, act, int(tgt)))
        elapsed = time.perf_counter() - t0
        _check(
            "probe-cost formula vs simulation",
            not mismatches,
            elapsed,
            30.0,
            f"{checked} (tree, activation, target) cases, "
            f"{len(mismatches)} mismatches",
        )


class TestDeskScaleBehaviour:
    def test_noiseless_beam_selection_accuracy(self, desk):
        """With zero noise every algorithm should recover the brute-force
        best bottom beam nearly always; the map-aided ones must be exact
        whenever the channel has a single dominant propagation path."""
        t0 = time.perf_counter()
        cfg = desk["cfg"]
        hits = {a: _hit_rate(_rows(desk, a, math.inf)) for a in bc.ALGORITHMS}
        ok = all(h >= 0.99 for h in hits.values())

        # Re-trace each trial's paths to flag single-dominant rows
        # (strongest path at least twice the runner-up, or a lone path;
        # path slots come strongest first).
        priors = desk["priors"]
        single = {}
        for t in range(cfg.trials):
            rng = np.random.default_rng([cfg.seed, 101, t])
            pts = [sample_true_position(p, rng) for p in priors]
            pos = cfg.grid.positions(pts)
            _, amps, _, counts = trace_point_paths(cfg.environment, cfg.array, pos)
            for k in range(len(pts)):
                single[(t, k)] = counts[k] == 1 or amps[k, 0] >= 2.0 * amps[k, 1]
        frac = float(np.mean(list(single.values())))
        sd_hits = {}
        for algo in ("alg1", "alg2", "alg3"):
            rows = [
                r for r in _rows(desk, algo, math.inf)
                if single[(r.trial_id, r.user_id)]
            ]
            sd_hits[algo] = _hit_rate(rows)
            ok &= len(rows) > 0 and sd_hits[algo] == 1.0
        elapsed = time.perf_counter() - t0 + desk["sweep_time"]
        _check(
            "noiseless beam selection",
            ok,
            elapsed,
            120.0,
            "hits " + ", ".join(f"{a}={h:.4f}" for a, h in sorted(hits.items()))
            + f"; single-dominant rows {frac:.0%} with map-aided hits "
            + ", ".join(f"{a}={h:.4f}" for a, h in sorted(sd_hits.items())),
        )

    def test_overhead_ordering_at_10db(self, desk):
        """Per-user training overhead at 10 dB: reward-driven search never
        exceeds the lookahead variant, both beat the plain descent (which
        costs exactly two probes per layer), and the reward-driven search
        saves at least 15% against it."""
        t0 = time.perf_counter()
        mean = {
            a: float(np.mean([r.overhead for r in _rows(desk, a, 10.0)]))
            for a in ("alg1", "alg2", "baseline-hier")
        }
        baseline = 2.0 * desk["ckm"].num_layers
        ok = (
            mean["alg1"] <= mean["alg2"] <= mean["baseline-hier"]
            and mean["baseline-hier"] == baseline
            and mean["alg1"] <= 0.85 * baseline
        )
        elapsed = time.perf_counter() - t0 + desk["sweep_time"]
        _check(
            "overhead ordering at 10 dB",
            ok,
            elapsed,
            300.0,
            f"alg1 {mean['alg1']:.3f} <= alg2 {mean['alg2']:.3f} <= "
            f"descent {mean['baseline-hier']:.1f} (= 2 x layers), "
            f"alg1 saving {1 - mean['alg1'] / baseline:.0%} (need >= 15%)",
        )

    def test_multiuser_overhead_and_accuracy(self, desk):
        """Joint three-user training at 5 dB must cost at least 10% less in
        total than running the single-user search per user, and in the
        noiseless slice it must match every user's oracle beam in at least
        95% of trials."""
        t0 = time.perf_counter()
        per_trial_alg1: dict[int, float] = {}
        for r in _rows(desk, "alg1", 5.0):
            per_trial_alg1[r.trial_id] = per_trial_alg1.get(r.trial_id, 0.0) + r.overhead
        per_trial_alg3: dict[int, float] = {}
        for r in _rows(desk, "alg3", 5.0):
            per_trial_alg3[r.trial_id] = per_trial_alg3.get(r.trial_id, 0.0) + r.overhead
        mean_solo = float(np.mean(list(per_trial_alg1.values())))
        mean_joint = float(np.mean(list(per_trial_alg3.values())))

        trial_match: dict[int, bool] = {}
        for r in _rows(desk, "alg3", math.inf):
            trial_match[r.trial_id] = trial_match.get(r.trial_id, True) and (
                r.chosen == r.oracle
            )
        match_rate = float(np.mean(list(trial_match.values())))
        ok = mean_joint <= 0.9 * mean_solo and match_rate >= 0.95
        elapsed = time.perf_counter() - t0 + desk["sweep_time"]
        _check(
            "multi-user joint training",
            ok,
            elapsed,
            600.0,
            f"joint total {mean_joint:.3f} vs 0.9 x per-user sum "
            f"{0.9 * mean_solo:.3f} at 5 dB; noiseless all-user match "
            f"{match_rate:.3f} (need >= 0.95)",
        )

    def test_retained_beam_sweep_shape(self, desk):
        """Capping how many map beams each location hypothesis may retain:
        plain descent is unaffected, both map-aided searches cost more as
        the cap loosens but never exceed descent, and they coincide when a
        single beam is retained."""
        t0 = time.perf_counter()
        cfg = desk["cfg"]
        mean: dict[tuple[str, int], float] = {}
        for cap in range(1, 7):
            sweep_cfg = dataclasses.replace(cfg, beta=0.01, retain_beams=cap, trials=400)
            recs = bc.run_trials(
                sweep_cfg,
                desk["ckm"],
                algorithms=("alg1", "alg2", "baseline-hier"),
                snr_db=["inf"],
            )
            for algo in ("alg1", "alg2", "baseline-hier"):
                mean[(algo, cap)] = float(
                    np.mean([r.overhead for r in recs if r.algorithm == algo])
                )
        baseline = 2.0 * desk["ckm"].num_layers
        a1 = [mean[("alg1", c)] for c in range(1, 7)]
        a2 = [mean[("alg2", c)] for c in range(1, 7)]
        ok = (
            all(mean[("baseline-hier", c)] == baseline for c in range(1, 7))
            and all(x <= y + 1e-9 for x, y in zip(a1, a1[1:]))
            and all(x <= y + 1e-9 for x, y in zip(a2, a2[1:]))
            and all(v <= baseline for v in a1 + a2)
            and a1[0] == a2[0]
        )
        elapsed = time.perf_counter() - t0
        _check(
            "retained-beam cap sweep",
            ok,
            elapsed,
            600.0,
            f"alg1 {[round(v, 2) for v in a1]}, alg2 {[round(v, 2) for v in a2]}, "
            f"descent constant {baseline:.0f}; equal at cap 1: {a1[0] == a2[0]}",
        )

    def test_se_vs_snr_ordering(self, desk):
        """Mean spectral efficiency over the finite SNR grid: the perfect-CSI
        bound dominates the reward-driven search, which dominates plain
        descent, and the search sits within 0.5 bps/Hz of the bound at
        20 dB.  The bound is derived per row from the oracle gain."""
        t0 = time.perf_counter()
        detail = []
        ok = True
        gap20 = math.nan
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
            rows1 = _rows(desk, "alg1", snr)
            se1 = float(np.mean([r.se_bps_hz for r in rows1]))
            seh = float(np.mean([r.se_bps_hz for r in _rows(desk, "baseline-hier", snr)]))
            perfect = []
            for r in rows1:
                # invert: se = log2(1 + (gc/sigma)^2), ratio = 20 log10(gc/go)
                assert math.isfinite(r.gain_ratio_db), "chosen gain must be nonzero"
                oracle_snr = (2.0 ** r.se_bps_hz - 1.0) * 10.0 ** (-r.gain_ratio_db / 10.0)
                perfect.append(math.log2(1.0 + oracle_snr))
            sep = float(np.mean(perfect))
            ok &= sep >= se1 >= seh
            if snr == 20.0:
                gap20 = sep - se1
                ok &= gap20 <= 0.5
            detail.append(f"{snr:.0f}dB {sep:.2f}/{se1:.2f}/{seh:.2f}")
        elapsed = time.perf_counter() - t0 + desk["sweep_time"]
        _check(
            "spectral-efficiency ordering",
            ok,
            elapsed,
            600.0,
            "perfect/alg1/descent " + "; ".join(detail)
            + f"; 20 dB gap {gap20:.3f} (need <= 0.5)",
        )


class TestStructuralInvariants:
    def test_invariants(self, desk):
        """Weight conservation across layers after every update, monotone
        shrinkage of the location hypothesis set under pruning, scale
        invariance of the observation-matching score, bit-exact map
        serialization, and seed-determinism of the trial harness."""
        t0 = time.perf_counter()
        cfg = desk["cfg"]
        ckm = desk["ckm"]
        notes = []

        def layers_conserved(state) -> bool:
            sums = [layer_weights(state, l).sum() for l in range(1, state.num_layers + 1)]
            return bool(np.allclose(sums, sums[-1], rtol=1e-9, atol=0.0))

        # 1. weight conservation through a full descent with pruning
        state = bc.beamtree.compute_point_weights(ckm, desk["priors"][0], beta=cfg.beta)
        conserved = layers_conserved(state)
        for layer in range(1, ckm.num_layers + 1):
            cands = candidates(state, layer)
            node = bc.BeamId(layer, int(cands[0]))
            bc.beamtree.apply_observation(state, node)
            conserved &= layers_conserved(state)
        notes.append(f"layer sums conserved through descent: {conserved}")

        # 2. monotone point-set shrinkage: feed one hypothesis's own map
        # profile (plus noise) as the observation; survivors must only
        # ever shrink, toward that hypothesis
        table = bc.beamtree.compute_point_weights(ckm, desk["priors"][0], beta=cfg.beta)
        rng = np.random.default_rng(11)
        row = int(np.flatnonzero(table.point_alive)[7])
        L = ckm.num_layers
        cols = np.arange(layer_start(L), layer_start(L + 1))
        monotone = True
        start = count = table.alive_points.size
        for _ in range(12):
            g_obs = table.gains[row, cols] * rng.uniform(0.95, 1.05, cols.size)
            alive = prune_user_points(table, cols, g_obs, None, cfg.eta)
            monotone &= 1 <= alive.size <= count
            count = alive.size
        monotone &= count < start and table.point_ids[row] in alive
        notes.append(
            f"pruning monotone over 12 rounds: {monotone} ({start} -> {count} pts)"
        )

        # 3. observation-score scale invariance
        g = np.random.default_rng(5).uniform(0.0, 1.0, 16)
        gp = np.random.default_rng(6).uniform(0.0, 1.0, 16)
        scale_ok = all(
            math.isclose(similarity(c * g, gp), similarity(g, gp), rel_tol=1e-12)
            for c in (1e-6, 3.5, 1e6)
        )
        notes.append(f"similarity scale-invariant: {scale_ok}")

        # 4. map serialization round-trip, bit exact
        blob = bc.save_ckm(ckm)
        ck2 = bc.load_ckm(blob)
        rt_ok = bc.save_ckm(ck2) == blob and np.array_equal(ck2.gains, ckm.gains)
        notes.append(f"map round-trip bit-exact: {rt_ok}")

        # 5. seeded harness determinism
        reps = [
            bc.run_trials(
                cfg, ckm, trials=4, snr_db=[10.0], algorithms=("alg1", "alg3")
            )
            for _ in range(2)
        ]
        det_ok = reps[0] == reps[1]
        notes.append(f"run_trials seed-deterministic: {det_ok}")

        ok = conserved and monotone and scale_ok and rt_ok and det_ok
        elapsed = time.perf_counter() - t0
        _check("structural invariants", ok, elapsed, 60.0, "; ".join(notes))
