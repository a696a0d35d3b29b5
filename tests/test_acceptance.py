"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import math
import time

import numpy as np
import pytest

from thetastrata.chars import all_characteristics, n_k, parity, product_split_tuple, split
from thetastrata.classify import classify, classify_from_pattern, detect_split, vanishing_set
from thetastrata.forms import evaluate_forms
from thetastrata.symplectic import act_on_tuple, random_symplectic
from thetastrata.theta import (
    block_diag,
    even_theta_constants,
    generic_siegel_point,
    random_siegel_point,
    siegel_action,
    theta_constant,
    validate_siegel,
)
from thetastrata.verify import (
    orbit_oracle_check,
    schottky_degeneration_check,
    transformation_check,
    transformation_generator_sweep,
)

from oracles import direct_theta_constant


def _report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def test_criterion_1_characteristic_census():
    t0 = time.time()
    expected = {1: (3, 1), 2: (10, 6), 3: (36, 28), 4: (136, 120)}
    ok = True
    for g, (even, odd) in expected.items():
        ok &= len(all_characteristics(g, "even")) == even
        ok &= len(all_characteristics(g, "odd")) == odd
    ok &= n_k(2, 1) == 1 and n_k(4, 1) == 28 and n_k(4, 2) == 36
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    assert _report(1, "characteristic census", ok, f"{elapsed:.2f}s")


def test_criterion_2_orbit_oracle():
    t0 = time.time()
    r1 = orbit_oracle_check(1)
    r2 = orbit_oracle_check(2)
    elapsed = time.time() - t0
    ok = r1["ok"] and r2["ok"] and elapsed < 60.0
    detail = (
        f"g=2: {r2['pairs']['ordered_comparisons']} pair and "
        f"{r2['triples']['ordered_comparisons']} triple comparisons, {elapsed:.1f}s"
    )
    assert _report(2, "orbit oracle agreement", ok, detail)


def test_criterion_3_action_calibration():
    t0 = time.time()
    sweep1 = transformation_generator_sweep(1, seed=31)
    sweep2 = transformation_generator_sweep(2, seed=32)
    words3 = transformation_check(3, seed=33, count=20)
    elapsed = time.time() - t0
    worst = max(sweep1["max_residual"], sweep2["max_residual"], words3["max_residual"])
    ok = sweep1["ok"] and sweep2["ok"] and words3["ok"] and elapsed < 300.0
    assert _report(3, "action calibration", ok, f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_theta_numerics():
    t0 = time.time()
    rng = np.random.default_rng(44)
    worst_oracle = 0.0
    done = 0
    for g in (1, 2, 3):
        evens = all_characteristics(g, "even")
        for _ in range(17 if g < 3 else 16):
            point = random_siegel_point(g, rng)
            m = evens[int(rng.integers(0, len(evens)))]
            tv = theta_constant(m, point, 1e-10)
            ref = direct_theta_constant(m, point, tv.radius + 8)
            worst_oracle = max(worst_oracle, abs(tv.value - ref))
            done += 1
    ok = done == 50 and worst_oracle < 1e-9

    worst_split = 0.0
    for i in range(20):
        k = int(rng.integers(1, 4))
        left = random_siegel_point(k, rng)
        right = random_siegel_point(4 - k, rng)
        block = block_diag(left, right)
        joint = even_theta_constants(block, 1e-12)
        lv = even_theta_constants(left, 1e-12) if k > 0 else {}
        rv = even_theta_constants(right, 1e-12)
        for m, tv in joint.items():
            m1, m2 = split(m, k)
            if parity(m1) == 0 and parity(m2) == 0:
                prod = lv[m1].value * rv[m2].value
            else:
                prod = 0.0  # an odd factor constant vanishes identically
            worst_split = max(worst_split, abs(tv.value - prod))
    ok &= worst_split < 1e-10
    elapsed = time.time() - t0
    detail = f"oracle {worst_oracle:.2e}, factorization {worst_split:.2e}, {elapsed:.1f}s"
    assert _report(4, "theta numerics", ok, detail)


def test_criterion_5_schottky_degeneration():
    t0 = time.time()
    low = [schottky_degeneration_check(g, seed=50 + g) for g in (1, 2, 3)]
    high = schottky_degeneration_check(4, seed=54)
    elapsed = time.time() - t0
    ok = all(r["ok"] for r in low) and high["ok"] and elapsed < 600.0
    detail = (
        f"max rel g<=3 {max(r['max_relative_magnitude'] for r in low):.1e}, "
        f"min generic g=4 {high['min_generic']:.1e}, max block {high['max_block']:.1e}, "
        f"{elapsed:.1f}s"
    )
    assert _report(5, "schottky degeneration", ok, detail)


def test_criterion_6_split_detection():
    t0 = time.time()
    rng = np.random.default_rng(66)
    blk13 = block_diag(validate_siegel([[1j]]), random_siegel_point(3, rng))
    rep = vanishing_set(blk13, rel_threshold=1e-6)
    ok = set(rep.members) == set(product_split_tuple(4, 1)) and rep.margin >= 10

    w13 = detect_split(rep.members, 1)
    from thetastrata.symplectic import tuples_equivalent

    ok &= w13.found and tuples_equivalent(w13.witness, product_split_tuple(4, 1))

    blk22 = block_diag(random_siegel_point(2, rng), random_siegel_point(2, rng))
    rep22 = vanishing_set(blk22)
    w22 = detect_split(rep22.members, 2)
    ok &= w22.found and tuples_equivalent(w22.witness, product_split_tuple(4, 2))
    ok &= set(w22.witness) <= set(rep22.members)

    false_positives = 0
    for seed in range(20):
        members = vanishing_set(generic_siegel_point(4, 600 + seed)).members
        if detect_split(members, 1).found or detect_split(members, 2).found:
            false_positives += 1
    ok &= false_positives == 0
    elapsed = time.time() - t0
    detail = f"margin {rep.margin:.1e}, false positives {false_positives}/20, {elapsed:.1f}s"
    assert _report(6, "split detection", ok, detail)


def test_criterion_7_classifier_end_to_end():
    t0 = time.time()
    rng = np.random.default_rng(77)
    cases = []

    for seed in (700, 701, 702):
        cases.append(("random g=4", classify(generic_siegel_point(4, seed)).label, "X0"))
    cases.append(("i*1_4", classify(validate_siegel(1j * np.eye(4))).label, "X6"))

    x5_point = block_diag(
        block_diag(random_siegel_point(1, rng), random_siegel_point(1, rng)),
        random_siegel_point(2, rng),
    )
    cases.append(("block(e,e,tau2)", classify(x5_point).label, "X5"))

    x4_point = block_diag(random_siegel_point(2, rng), random_siegel_point(2, rng))
    cases.append(("block(tau2,tau2')", classify(x4_point).label, "X4"))

    x3_point = block_diag(random_siegel_point(1, rng), random_siegel_point(3, rng))
    cases.append(("block(e,tau3)", classify(x3_point).label, "X3"))

    cases.append(("pattern FT=0", classify_from_pattern(True).label, "X1"))
    one = [product_split_tuple(4, 1)[0]]
    cases.append(("pattern FT=0,TN=0", classify_from_pattern(True, one).label, "X2"))
    evens = all_characteristics(4, "even")
    hyp = classify_from_pattern(True, [evens[0], evens[1]])
    cases.append(("pattern Hyp4", hyp.label, "X3"))
    conj = act_on_tuple(random_symplectic(4, 4, 770).mod_two(), product_split_tuple(4, 1))
    prod = classify_from_pattern(True, list(conj))
    cases.append(("pattern A1x(A3-Hyp3)", prod.label, "X3"))

    failures = [(name, got, want) for name, got, want in cases if got != want]
    elapsed = time.time() - t0
    ok = not failures
    detail = f"{len(cases)} cases, {elapsed:.1f}s" + (f", failures: {failures}" if failures else "")
    assert _report(7, "classifier end-to-end", ok, detail)


def test_criterion_8_invariance_spot_check():
    # Pinned statement: |F_T(gamma o tau)| = |det(C tau + D)|^8 |F_T(tau)|
    # within 1e-7 relative, for 10 seeded random short-word gamma at g=4.
    # The exponent 8 is derived here, not read from the code under test:
    # theta_m(0, tau)^8 picks up det^4 (the law of criterion 3), and every
    # term of F_T has sixteen theta factors, so F_T picks up det^8.
    # A word with C = 0 has |det(C tau + D)| = 1 and passes for any
    # exponent, so at least one sampled word must have |log|det|| >= 0.1.
    rng = np.random.default_rng(88)
    measured = []
    max_logdet = 0.0
    ok = True
    for i in range(10):
        gamma = random_symplectic(4, int(rng.integers(2, 7)), 880 + i)
        point = generic_siegel_point(4, 8800 + i)
        c = np.array(gamma.c, dtype=complex)
        d = np.array(gamma.d, dtype=complex)
        logdet = float(np.linalg.slogdet(c @ point.tau + d)[1])
        before = evaluate_forms(point, 1e-12)["FT"]
        after = evaluate_forms(siegel_action(gamma, point), 1e-12)["FT"]
        delta = after.log_abs - 8 * logdet - before.log_abs
        ok &= abs(math.expm1(delta)) < 1e-7
        max_logdet = max(max_logdet, abs(logdet))
        if abs(logdet) > 1e-12:
            measured.append((after.log_abs - before.log_abs) / logdet)
    ok &= max_logdet >= 0.1
    detail = (
        f"measured |det| exponents: {', '.join(f'{x:.3f}' for x in measured)}"
        if measured
        else "all sampled words had |det(C tau + D)| = 1"
    )
    detail += f"; max |log|det||: {max_logdet:.3f}"
    assert _report(8, "invariance spot-check (det exponent 8)", ok, detail)
