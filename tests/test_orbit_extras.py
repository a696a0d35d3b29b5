"""Deeper orbit-machinery checks beyond the exhaustive pair/triple oracle:
longer tuples (where the relation space is nontrivial), cross-genus split
detection, and property tests for the F2 kernel helpers."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetastrata._gf2 import kernel_basis, mask_to_indices, rref
from thetastrata.chars import CharTuple, all_characteristics, product_split_tuple
from thetastrata.classify import detect_split, vanishing_set
from thetastrata.symplectic import orbit_bfs, orbit_profile, tuples_equivalent
from thetastrata.theta import block_diag, random_siegel_point, validate_siegel


class TestGF2:
    @given(st.lists(st.integers(0, 2**10 - 1), max_size=12))
    def test_rref_canonical_under_shuffle(self, rows):
        rng = random.Random(17)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert rref(rows) == rref(shuffled)

    @given(st.lists(st.integers(0, 2**10 - 1), max_size=12))
    def test_rref_spans_same_space(self, rows):
        basis = rref(rows)
        # every original row reduces to zero against the basis
        for row in rows:
            for b in basis:
                row = min(row, row ^ b)
            assert row == 0

    @given(st.lists(st.integers(0, 2**6 - 1), min_size=1, max_size=10))
    def test_kernel_vectors_annihilate(self, vectors):
        p = len(vectors)
        for mask in kernel_basis(vectors):
            idx = mask_to_indices(mask, p)
            acc = 0
            for i in idx:
                acc ^= vectors[i]
            assert acc == 0 and idx

    @given(st.lists(st.integers(0, 2**8 - 1), max_size=10))
    def test_kernel_matches_brute_force(self, vectors):
        # oracle: every index mask over the p vectors whose XOR is zero
        p = len(vectors)
        kernel = set()
        for mask in range(1 << p):
            acc = 0
            for i in mask_to_indices(mask, p):
                acc ^= vectors[i]
            if acc == 0:
                kernel.add(mask)
        basis = kernel_basis(vectors)
        span = {0}
        for b in basis:
            span |= {x ^ b for x in span}
        assert span == kernel and len(span) == 1 << len(basis)
        # reduced and sorted: no row's top bit is set in another row
        assert list(basis) == sorted(basis, reverse=True)
        for b in basis:
            top = b.bit_length() - 1
            assert all(not (other >> top) & 1 for other in basis if other != b)

    def test_kernel_dimension(self):
        # rank-nullity over a crafted list with known rank
        vectors = [0b001, 0b010, 0b011, 0b100, 0b111]
        basis = kernel_basis(vectors)
        assert len(basis) == len(vectors) - 3


@pytest.mark.parametrize("length", [4, 5])
def test_longer_tuples_match_bfs_oracle(length):
    # sampled (not exhaustive) version of the pair/triple oracle at genus 2:
    # profile equality must coincide with BFS orbit membership for tuples
    # long enough to carry nontrivial linear relations
    rng = random.Random(length)
    evens = all_characteristics(2, "even")
    sample = []
    while len(sample) < 10:
        entries = tuple(rng.choice(evens) for _ in range(length))
        sample.append(CharTuple(2, entries))
    orbits = [orbit_bfs(t) for t in sample]
    for i, j in itertools.product(range(len(sample)), repeat=2):
        invariant = tuples_equivalent(sample[i], sample[j])
        oracle = sample[j] in orbits[i]
        assert invariant == oracle, (sample[i].to_strings(), sample[j].to_strings())


def test_longer_tuples_with_forced_relations():
    # tuples built to contain repeated entries and 4-term relations
    from thetastrata.chars import add

    evens = all_characteristics(2, "even")
    a, b, c = evens[0], evens[1], evens[3]
    d = add(add(a, b), c)
    tup = CharTuple(2, (a, b, c, d, a))
    prof = orbit_profile(tup)
    assert any(len(rel) == 4 for rel in prof.relation_basis)  # a+b+c+d = 0
    assert (0, 4) in prof.relation_basis  # repeated entry
    for member in list(orbit_bfs(tup))[:20]:
        assert tuples_equivalent(tup, member)


@pytest.mark.parametrize("g,k", [pytest.param(g, k, id=f"{g}-{k}") for g, k in ((2, 1), (3, 1), (3, 2))])
def test_detect_split_across_genera(g, k):
    rng = np.random.default_rng(1000 + 10 * g + k)
    blk = block_diag(random_siegel_point(k, rng), random_siegel_point(g - k, rng))
    members = vanishing_set(blk).members
    found = detect_split(members, k)
    assert found.found
    assert tuples_equivalent(found.witness, product_split_tuple(g, k))


def test_detect_split_genus_two_negative():
    # an indecomposable genus-2 point has no vanishing constants at all
    members = vanishing_set(random_siegel_point(2, np.random.default_rng(77))).members
    assert members == ()
    assert not detect_split(members, 1).found


def test_unresolved_on_contradictory_synthetic_set():
    from thetastrata.classify import classify_from_pattern

    # an orbit image of I_1 padded with extra unrelated characteristics:
    # a 1+3 witness exists but the vanishing count matches no stratum
    base = list(product_split_tuple(4, 1))
    extras = [m for m in all_characteristics(4, "even") if m not in base][:2]
    rep = classify_from_pattern(True, base + extras)
    assert rep.label == "UNRESOLVED"
    assert rep.notes
