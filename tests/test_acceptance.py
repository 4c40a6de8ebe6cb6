"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import time

import numpy as np

from uichan import linalg
from uichan.bell import (Behaviour, behaviour_from_channel, bell_value, chsh_functional,
                         chsh_optimal_strategy, diagonal_moment_behaviour, fourier_coeffs,
                         sub_povm_total_bound)
from uichan.channels import channel_direct, channel_from_moments, cptp_report, moment_table
from uichan.models import (TensorModel, diagonal_fourier_lift, embed_tensor_as_commuting,
                           random_pvm_family, random_tensor_model)
from uichan.seesaw import SeesawConfig, optimize_bell

from oracles import lastcond_contraction, unitaries_from_pvm

GRID = [(n, m, dA, dB)
        for n in (2, 3) for m in (1, 2) for dA in (2, 3) for dB in (2, 3)]


def grid_tensor_models(count=100, seed_base=1000):
    out = []
    for i in range(count):
        n, m, dA, dB = GRID[i % len(GRID)]
        state = "vector" if i % 2 == 0 else "density"
        out.append(random_tensor_model(n, m, dA, dB, state=state, seed=seed_base + i))
    return out


def family_max_diff(a, b):
    return float(np.max(np.abs(a.supers - b.supers)))


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_swap_constant_channel():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        rng = linalg.rng_from_seed(600 + n)
        swap = linalg.swap_matrix(n, n)
        for _ in range(10):
            rho_target = linalg.wishart_density(rng, n * n)
            rho_in = linalg.wishart_density(rng, n * n)
            model = TensorModel(n=n, m=1, dA=n, dB=n, state=rho_target, U=(swap,), V=(swap,))
            out = channel_direct(model).apply_to(rho_in, 0, 0)
            worst = max(worst, float(np.max(np.abs(out - rho_target))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, ok, f"swap constant-channel max defect {worst:.3e} <= 1e-12, {elapsed:.2f}s < 5s")
    assert ok


def test_criterion_2_dual_formula_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    models = grid_tensor_models(100, seed_base=1000)
    models += [embed_tensor_as_commuting(tm) for tm in grid_tensor_models(100, seed_base=2000)]
    for model in models:
        direct = channel_direct(model)
        via_moments = channel_from_moments(moment_table(model))
        worst = max(worst, family_max_diff(direct, via_moments))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60.0
    report(2, ok, f"dual-formula max deviation {worst:.3e} <= 1e-10 over 200 models, "
                  f"{elapsed:.1f}s < 60s")
    assert ok


def test_criterion_3_embedding_invariance():
    worst = 0.0
    for tm in grid_tensor_models(100, seed_base=3000):
        worst = max(worst, family_max_diff(channel_direct(tm),
                                           channel_direct(embed_tensor_as_commuting(tm))))
    ok = worst <= 1e-12
    report(3, ok, f"tensor vs embedded channel max deviation {worst:.3e} <= 1e-12 on 100 seeds")
    assert ok


def test_criterion_4_cptp_audit():
    worst_eig = 0.0
    worst_tp = 0.0
    models = grid_tensor_models(50, seed_base=4000)
    models += [embed_tensor_as_commuting(tm) for tm in grid_tensor_models(50, seed_base=4500)]
    for model in models:
        rep = cptp_report(channel_direct(model))
        worst_eig = min(worst_eig, rep.min_choi_eigenvalue)
        worst_tp = max(worst_tp, rep.trace_defect)
    ok = worst_eig >= -1e-9 and worst_tp <= 1e-10
    report(4, ok, f"min Choi eigenvalue {worst_eig:.3e} >= -1e-9, "
                  f"trace defect {worst_tp:.3e} <= 1e-10 over 100 channels")
    assert ok


def test_criterion_5_fourier_bridge():
    worst_rec = 0.0
    worst_id = 0.0
    worst_bound = 0.0
    cases = [(n, d) for n in (2, 3) for d in (2, 3)]
    for i in range(50):
        n, d = cases[i % len(cases)]
        fam = random_pvm_family(d, 2, n, seed=5000 + i)
        c = fourier_coeffs(n)
        us = unitaries_from_pvm(fam)
        for x in range(2):
            worst_id = max(worst_id, float(np.max(np.abs(us[x][-1] - np.eye(d)))))
            for a in range(n):
                rec = sum(c[a, ap] * us[x][ap] for ap in range(n))
                worst_rec = max(worst_rec, float(np.max(np.abs(rec - fam.projectors[x][a]))))
        other = random_pvm_family(d, 2, n, seed=9000 + i)
        rng = linalg.rng_from_seed(5500 + i)
        lift = diagonal_fourier_lift(fam, other, linalg.haar_state_vector(rng, d * d))
        worst_bound = max(worst_bound, sub_povm_total_bound(lift))
    ok = worst_rec <= 1e-12 and worst_id <= 1e-12 and worst_bound <= 1 + 1e-10
    report(5, ok, f"reconstruction {worst_rec:.3e} <= 1e-12, last unitary vs identity "
                  f"{worst_id:.3e} <= 1e-12, sub-POVM bound {worst_bound:.12f} <= 1+1e-10")
    assert ok


def test_criterion_6_channel_behaviour_round_trip():
    worst_dev = 0.0
    worst_norm = 0.0
    strategies = []
    for i in range(50):
        alice = random_pvm_family(2, 2, 2, seed=6000 + i)
        bob = random_pvm_family(2, 2, 2, seed=6500 + i)
        psi = linalg.haar_state_vector(linalg.rng_from_seed(7000 + i), 4)
        strategies.append((alice, bob, psi))
    strategies.append(chsh_optimal_strategy())
    for alice, bob, psi in strategies:
        extracted = behaviour_from_channel(channel_direct(diagonal_fourier_lift(alice, bob, psi)))
        # independent Born-rule oracle
        rho = np.outer(psi, np.conj(psi))
        born = np.zeros_like(extracted.p)
        for x in range(2):
            for y in range(2):
                for a in range(2):
                    for b in range(2):
                        op = np.kron(np.asarray(alice.projectors[x][a]),
                                     np.asarray(bob.projectors[y][b]))
                        born[a, b, x, y] = np.real(np.trace(rho @ op))
        worst_dev = max(worst_dev, float(np.max(np.abs(extracted.p - born))))
        worst_norm = max(worst_norm, float(np.max(np.abs(extracted.p.sum(axis=(0, 1)) - 1.0))))
    ok = worst_dev <= 1e-10 and worst_norm <= 1e-12
    report(6, ok, f"extracted vs Born max deviation {worst_dev:.3e} <= 1e-10, "
                  f"normalization defect {worst_norm:.3e} <= 1e-12 over 51 strategies")
    assert ok


def test_criterion_7_seesaw_reaches_chsh_optimum():
    # target recomputed from the explicit optimal qubit strategy, independent
    # of the optimizer: equal-weight win terms cos^2(pi/8) each
    angles_a = (0.0, np.pi / 4)
    angles_b = (np.pi / 8, -np.pi / 8)
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    target = 0.0
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a ^ b) != (x & y):
                        continue
                    va = np.array([np.cos(angles_a[x]), np.sin(angles_a[x])])
                    va = va if a == 0 else np.array([-va[1], va[0]])
                    vb = np.array([np.cos(angles_b[y]), np.sin(angles_b[y])])
                    vb = vb if b == 0 else np.array([-vb[1], vb[0]])
                    amp = np.conj(np.kron(va, vb)) @ psi
                    target += 0.25 * float(np.abs(amp) ** 2)
    assert abs(target - np.cos(np.pi / 8) ** 2) <= 1e-12

    # deterministic-strategy bound by enumeration
    f = chsh_functional()
    classical = 0.0
    for fa in itertools.product(range(2), repeat=2):
        for fb in itertools.product(range(2), repeat=2):
            p = np.zeros((2, 2, 2, 2))
            for x in range(2):
                for y in range(2):
                    p[fa[x], fb[y], x, y] = 1.0
            classical = max(classical, bell_value(Behaviour(n=2, m=2, p=p), f))
    assert abs(classical - 0.75) <= 1e-15
    assert target > classical

    t0 = time.perf_counter()
    cfg = SeesawConfig(dA=2, dB=2, n=2, m=2, restarts=20, seed=7)
    result = optimize_bell(f, cfg)
    elapsed = time.perf_counter() - t0
    ok = abs(result.value - target) <= 1e-4 and elapsed < 60.0
    report(7, ok, f"see-saw value {result.value:.10f} vs target {target:.10f} "
                  f"(|diff| {abs(result.value - target):.3e} <= 1e-4), {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_8_lastcond_contraction_identity():
    worst = 0.0
    models = grid_tensor_models(20, seed_base=8000)
    models += [embed_tensor_as_commuting(tm) for tm in grid_tensor_models(20, seed_base=8500)]
    for model in models:
        fam = channel_direct(model)
        q = diagonal_moment_behaviour(fam)
        for a in range(1, fam.n + 1):
            for b in range(1, fam.n + 1):
                for x in range(1, fam.m + 1):
                    for y in range(1, fam.m + 1):
                        got = lastcond_contraction(fam, a, b, x, y)
                        worst = max(worst, abs(got - q[a - 1, b - 1, x - 1, y - 1]))
    ok = worst <= 1e-12
    report(8, ok, f"contraction vs diagonal-moment behaviour max deviation "
                  f"{worst:.3e} <= 1e-12 over 40 channels")
    assert ok
