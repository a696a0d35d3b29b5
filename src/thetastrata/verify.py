"""Reusable verification suites behind the CLI and the acceptance tests.

Each check returns a JSON-ready dict with an "ok" flag; thresholds are
the pinned ones, not parameters, so a passing run means the documented
contract holds.
"""

from __future__ import annotations

import itertools

import numpy as np

from .chars import CharTuple, all_characteristics
from .forms import evaluate_forms, transformation_residuals
from .symplectic import orbit_bfs, orbit_profile, random_symplectic, standard_generators
from .theta import (
    block_diag,
    generic_siegel_point,
    random_siegel_point,
    validate_siegel,
)

__all__ = [
    "orbit_oracle_check",
    "transformation_check",
    "transformation_generator_sweep",
    "schottky_degeneration_check",
]

TRANSFORMATION_TOL = 1e-8
MAX_WORD_LENGTH = 6
SCHOTTKY_VANISH_TOL = 1e-10
SCHOTTKY_BLOCK_TOL = 1e-8
SCHOTTKY_GENERIC_FLOOR = 1e-4
SCHOTTKY_SAMPLES = 20  # random points through genus 3, generic ones at genus 4
SWEEP_POINTS = 5  # random points of the generator sweep, besides i * 1_g
SWEEP_TARGET = 1e-10  # theta truncation bound of the generator sweep


def _partition_by_orbit(tuples: list[CharTuple]) -> list[int]:
    """Orbit index per tuple under the BFS oracle."""
    index = {tuple(t.entries): i for i, t in enumerate(tuples)}
    orbit_of = [-1] * len(tuples)
    next_orbit = 0
    for i, t in enumerate(tuples):
        if orbit_of[i] >= 0:
            continue
        for member in orbit_bfs(t):
            j = index.get(tuple(member.entries))
            if j is not None:
                orbit_of[j] = next_orbit
        next_orbit += 1
    return orbit_of


def orbit_oracle_check(g: int) -> dict:
    """Exhaustively compare the invariant-based tuple equivalence with BFS
    orbit membership over all ordered pairs and triples of even
    characteristics.

    Two partitions of the same set agree on every ordered pair of elements
    iff they are equal, so full pairwise agreement is checked as partition
    equality between profile classes and BFS orbits: two labelings give
    the same partition iff pairing them adds no class to either.
    """
    if g > 2:
        raise ValueError("exhaustive oracle comparison is supported for genus 1 and 2")
    evens = all_characteristics(g, "even")
    report = {"genus": g, "ok": True}
    for label, size in (("pairs", 2), ("triples", 3)):
        tuples = [CharTuple(g, combo) for combo in itertools.product(evens, repeat=size)]
        by_profile = [orbit_profile(t) for t in tuples]
        by_orbit = _partition_by_orbit(tuples)
        agree = len(set(zip(by_profile, by_orbit))) == len(set(by_profile)) == len(set(by_orbit))
        report[label] = {
            "tuples": len(tuples),
            "ordered_comparisons": len(tuples) ** 2,
            "orbits": len(set(by_orbit)),
            "agree": agree,
        }
        report["ok"] = report["ok"] and agree
    return report


def transformation_check(g: int, seed: int, count: int) -> dict:
    """Seeded random words of 1 to MAX_WORD_LENGTH letters and random
    points: every eighth-power transformation residual (at theta target
    1e-10) must stay below 1e-8.  Raises ValueError for count < 1, which
    would pass with no check made."""
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    rng = np.random.default_rng(seed)
    evens = all_characteristics(g, "even")
    cases, checks = [], []
    for _ in range(count):
        word_length = int(rng.integers(1, MAX_WORD_LENGTH + 1))
        gamma = random_symplectic(g, word_length, int(rng.integers(0, 2**31)))
        m = evens[int(rng.integers(0, len(evens)))]
        cases.append((gamma, m, random_siegel_point(g, rng)))
        checks.append({"word_length": word_length, "char": str(m)})
    for check, residual in zip(checks, transformation_residuals(cases)):
        check["residual"] = residual
    worst = max(check["residual"] for check in checks)
    return {
        "genus": g,
        "seed": seed,
        "count": count,
        "max_residual": worst,
        "tolerance": TRANSFORMATION_TOL,
        "checks": checks,
        "ok": worst < TRANSFORMATION_TOL,
    }


def transformation_generator_sweep(g: int, seed: int) -> dict:
    """Every standard generator against every even characteristic, at
    tau = i*1_g and SWEEP_POINTS seeded random points."""
    rng = np.random.default_rng(seed)
    points = [validate_siegel(1j * np.eye(g))]
    points += [random_siegel_point(g, rng) for _ in range(SWEEP_POINTS)]
    cases = [
        (gamma, m, point)
        for gamma in standard_generators(g)
        for m in all_characteristics(g, "even")
        for point in points
    ]
    worst = max(transformation_residuals(cases, SWEEP_TARGET))
    return {
        "genus": g,
        "seed": seed,
        "checks": len(cases),
        "max_residual": worst,
        "tolerance": TRANSFORMATION_TOL,
        "ok": worst < TRANSFORMATION_TOL,
    }


def schottky_degeneration_check(g: int, seed: int) -> dict:
    """The 2^g-normalized Schottky combination vanishes identically through
    genus 3 and survives at generic genus-4 points while dying on
    four-elliptic blocks, on SCHOTTKY_SAMPLES seeded points."""
    rng = np.random.default_rng(seed)
    report = {"genus": g, "seed": seed, "ok": True}
    if g <= 3:
        rels = [
            evaluate_forms(random_siegel_point(g, rng))["FT"].relative_magnitude
            for _ in range(SCHOTTKY_SAMPLES)
        ]
        report["max_relative_magnitude"] = float(max(rels))
        report["threshold"] = SCHOTTKY_VANISH_TOL
        report["ok"] = bool(max(rels) < SCHOTTKY_VANISH_TOL)
        return report
    if g != 4:
        raise ValueError("schottky degeneration check is defined for genus <= 4")
    generic = [
        evaluate_forms(generic_siegel_point(4, int(rng.integers(0, 2**31))))["FT"].relative_magnitude
        for _ in range(SCHOTTKY_SAMPLES)
    ]
    vanishing = [evaluate_forms(validate_siegel(1j * np.eye(4)))["FT"].relative_magnitude]
    for _ in range(5):
        blocks = [random_siegel_point(1, rng) for _ in range(4)]
        point = blocks[0]
        for q in blocks[1:]:
            point = block_diag(point, q)
        vanishing.append(evaluate_forms(point)["FT"].relative_magnitude)
    report["min_generic"] = float(min(generic))
    report["generic_floor"] = SCHOTTKY_GENERIC_FLOOR
    report["max_block"] = float(max(vanishing))
    report["block_threshold"] = SCHOTTKY_BLOCK_TOL
    report["ok"] = bool(min(generic) > SCHOTTKY_GENERIC_FLOOR and max(vanishing) < SCHOTTKY_BLOCK_TOL)
    return report
