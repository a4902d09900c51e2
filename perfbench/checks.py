"""Output checks for one paired ``run_trials`` call of one algorithm.

Each check states a property every correct sweep has, whatever the seed:
the record grid is complete, beams are bottom-layer beams in range, no
chosen beam beats the oracle, the baselines spend their fixed probe
counts, alg3's per-user shares rebuild an integer per-trial total, and
the noiseless exhaustive sweep always finds the oracle beam.
"""

from __future__ import annotations

import math
from collections import defaultdict

MAX_PROBLEMS = 5


def check_records(
    records,
    algorithm: str,
    trials: int,
    snrs,
    num_users: int,
    num_antennas: int,
) -> list[str]:
    """Problems found in ``records``; an empty list means they pass."""
    num_layers = int(math.log2(num_antennas))
    problems: list[str] = []
    expected = trials * len(snrs) * num_users
    if len(records) != expected:
        problems.append(f"{len(records)} records, expected {expected}")
    keys = {(r.trial_id, r.snr_db, r.user_id) for r in records}
    wanted = {(t, s, u) for t in range(trials) for s in snrs for u in range(num_users)}
    if keys != wanted:
        problems.append(f"record keys differ from trials x SNR points x users ({len(keys ^ wanted)} off)")
    shares = defaultdict(list)
    for r in records:
        where = f"trial {r.trial_id} snr {r.snr_db} user {r.user_id}"
        if r.algorithm != algorithm:
            problems.append(f"{where}: algorithm {r.algorithm!r}, expected {algorithm!r}")
        for label, beam in (("chosen", r.chosen), ("oracle", r.oracle)):
            if beam.layer != num_layers or not 1 <= beam.index <= num_antennas:
                problems.append(f"{where}: {label} beam {beam} is not a bottom-layer beam")
        if not r.gain_ratio_db <= 0.0:
            problems.append(f"{where}: gain_ratio_db {r.gain_ratio_db} > 0")
        if algorithm == "baseline-hier" and r.overhead != 2 * num_layers:
            problems.append(f"{where}: overhead {r.overhead}, expected 2L = {2 * num_layers}")
        if algorithm == "baseline-exhaustive" and r.overhead != num_antennas:
            problems.append(f"{where}: overhead {r.overhead}, expected N = {num_antennas}")
        if algorithm == "baseline-exhaustive" and math.isinf(r.snr_db) and r.chosen != r.oracle:
            problems.append(f"{where}: noiseless exhaustive sweep missed the oracle beam")
        shares[(r.trial_id, r.snr_db)].append(r.overhead)
    if algorithm == "alg3":
        for (trial, snr), cell in sorted(shares.items()):
            total = math.fsum(cell)
            if any(s != cell[0] for s in cell) or abs(total - round(total)) > 1e-9 * max(total, 1.0):
                problems.append(f"trial {trial} snr {snr}: alg3 shares {cell} do not split an integer total")
    if len(problems) > MAX_PROBLEMS:
        problems = problems[:MAX_PROBLEMS] + [f"... {len(problems) - MAX_PROBLEMS} more"]
    return problems
