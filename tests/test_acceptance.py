"""Acceptance suite: every release criterion at its frozen tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import numpy as np
import pytest

from trotterbench import (
    NoiseParams,
    RunConfig,
    TfimParams,
    build_evolution_circuit,
    circuit_unitary,
    execute,
    run_command,
    scaling_command,
    symmetric_step,
    sweep_command,
)
from trotterbench.exact import build_hamiltonian

from oracles import naive_circuit_unitary, naive_hamiltonian, negated_angles

SCALING_DTS = [0.0125, 0.025, 0.05, 0.1, 0.2]
G_SWEEP = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
G_INVERSION = [3.0, 4.0, 5.0, 6.0]


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} [{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_1_trotter_order_scaling():
    rows = scaling_command(RunConfig().replace(g=2.0), SCALING_DTS)
    slopes = {r["order"]: r["slope"] for r in rows}
    ok = abs(slopes["first"] - 2.0) <= 0.1 and abs(slopes["sym2"] - 3.0) <= 0.15
    report(1, "order scaling", ok,
           f"slope_first={slopes['first']:.3f} (2.0±0.1), "
           f"slope_sym2={slopes['sym2']:.3f} (3.0±0.15)")


def test_criterion_2_negligible_error_regime():
    rmses = {}
    for order in ("first", "sym2"):
        cfg = RunConfig().replace(g=1.0, order=order)
        rmses[order] = run_command(cfg).errors.rmse_local
    ok = all(v <= 0.05 for v in rmses.values())
    report(2, "negligible error at g=1", ok,
           f"rmse_first={rmses['first']:.4f}, rmse_sym2={rmses['sym2']:.4f} "
           f"(bound 0.05)")


def test_criterion_3_commuting_limit():
    worst = 0.0
    for order in ("first", "sym2"):
        for dt in (0.2, 0.5):
            cfg = RunConfig().replace(g=0.0, order=order, dt=dt)
            worst = max(worst, run_command(cfg).errors.rmse_local)
    ok = worst <= 1e-9
    report(3, "zero-field commuting limit", ok, f"max rmse={worst:.2e} (bound 1e-9)")


def test_criterion_4_monotonicity_in_g():
    ok = True
    detail = []
    for order in ("first", "sym2"):
        results = sweep_command(RunConfig().replace(order=order), G_SWEEP)
        rmses = [r.errors.rmse_local for r in results]
        ok = ok and all(b >= a for a, b in zip(rmses, rmses[1:]))
        detail.append(f"{order}: " + "->".join(f"{v:.3f}" for v in rmses))
    report(4, "RMSE monotone in g", ok, "; ".join(detail))


def test_criterion_5_order_inversion():
    ratios = {}
    for g in G_INVERSION:
        per_order = {}
        for order in ("first", "sym2"):
            cfg = RunConfig().replace(g=g, order=order)
            per_order[order] = run_command(cfg).errors.rmse_local
        ratios[g] = per_order["sym2"] / per_order["first"]
    ok = all(r > 1.0 for r in ratios.values())
    report(5, "symmetric RMSE exceeds first order", ok,
           "ratios " + ", ".join(f"g={g:g}: {r:.2f}" for g, r in ratios.items())
           + " (reference ~2)")


def test_criterion_6_shot_statistics_contract():
    # the estimator that writes series.csv: shots-mode runs against the
    # ideal run of the same circuit, whose <Z_j> they sample
    base = RunConfig().replace(g=1.0, steps=20)
    ideal = run_command(base).sim.local[1:]
    shots, n_seeds = 1024, 100
    sigma = np.sqrt((1.0 - ideal**2) / shots)
    within = 0
    total = 0
    for seed in range(n_seeds):
        cfg = base.replace(mode="shots", shots=shots, seed=seed)
        est = run_command(cfg).sim.local[1:]
        within += int(np.sum(np.abs(est - ideal) <= 5 * sigma + 1e-15))
        total += ideal.size
    frac = within / total
    ok = frac >= 0.99
    report(6, "shot estimator within 5 sigma", ok,
           f"{within}/{total} triples within bound ({100 * frac:.2f}%, need >=99%)")


def test_criterion_7_noise_dominance():
    noise = dict(p1=0.002, p2=0.02, read01=0.02, read10=0.02)
    seeds = range(20)
    trajectories = 128
    ok = True
    detail = []
    for g in (1.0, 2.0):
        means = {}
        for order in ("first", "sym2"):
            ideal = run_command(
                RunConfig().replace(g=g, order=order)
            ).errors.rmse_local
            vals = [
                run_command(
                    RunConfig().replace(g=g, order=order, mode="noisy",
                                        traj=trajectories, seed=s, **noise),
                ).errors.rmse_local
                for s in seeds
            ]
            means[order] = float(np.mean(vals))
            dominance = means[order] / ideal
            ok = ok and dominance >= 2.0
            detail.append(f"g={g:g} {order}: noisy/ideal={dominance:.1f}")
        gap = abs(means["first"] - means["sym2"]) / means["first"]
        ok = ok and gap <= 0.3
        detail.append(f"g={g:g} order gap={gap:.2f}")
    report(7, "gate noise dominates and equalizes orders", ok, ", ".join(detail))


def test_criterion_8_oracle_cross_checks():
    # independent Hamiltonian construction
    h_ok = True
    for n in (2, 3, 5):
        params = TfimParams(n_spins=n, coupling=1.0, field=1.0)
        diff = np.max(np.abs(build_hamiltonian(params) - naive_hamiltonian(n, 1.0, 1.0)))
        h_ok = h_ok and diff <= 1e-10

    # time reversal of the symmetric step (angle negation inverts it)
    params = TfimParams(n_spins=5, coupling=1.0, field=2.0, dt=0.2)
    fwd = symmetric_step(params)
    rev = negated_angles(fwd)
    u = circuit_unitary(rev) @ circuit_unitary(fwd)
    rev_err = float(np.linalg.norm(u - np.eye(32), 2))

    # strided execution vs dense matrix product on random circuits
    from test_circuit import random_circuit

    exec_ok = True
    for seed in range(3):
        circ = random_circuit(5, 120, seed + 50)
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        raw /= np.linalg.norm(raw)
        state = execute(circ, raw.copy())
        exec_ok = exec_ok and (
            np.linalg.norm(state - naive_circuit_unitary(circ) @ raw) <= 1e-10
        )

    ok = h_ok and rev_err <= 1e-10 and exec_ok
    report(8, "oracle cross-checks", ok,
           f"hamiltonian match={h_ok}, reversal |U U' - I|={rev_err:.2e}, "
           f"execution match={exec_ok}")
