import hashlib
import itertools
import json
import random
import re
from collections import deque

import numpy as np
import pytest

import thetastrata.symplectic as symplectic
from thetastrata.chars import (
    Characteristic,
    CharTuple,
    all_characteristics,
    bits_code,
    parity,
    product_split_tuple,
)
from thetastrata.classify import _basis_element
from thetastrata.errors import CapExceededError
from thetastrata.symplectic import (
    OrbitProfile,
    SymplecticInteger,
    SymplecticModTwo,
    _act_codes,
    act_on_tuple,
    affine_action,
    orbit_bfs,
    orbit_profile,
    random_symplectic,
    standard_generators,
    tuples_equivalent,
)
from thetastrata.verify import transformation_check

from oracles import block_inverse, block_product, integer_generators, is_symplectic, word_fold


def single(s):
    m = Characteristic.from_string(s)
    return CharTuple(m.genus, (m,))


@pytest.mark.parametrize("g,count", [(1, 2), (2, 4), (3, 7), (4, 11)])
def test_generator_counts(g, count):
    # 1 inversion + g diagonal + g(g-1)/2 off-diagonal translations
    gens = standard_generators(g)
    assert len(gens) == count == 1 + g * (g + 1) // 2


def test_generator_blocks_genus_one():
    inv, tr = standard_generators(1)
    assert (inv.a, inv.b, inv.c, inv.d) == (((0,),), ((1,),), ((-1,),), ((0,),))
    assert (tr.a, tr.b, tr.c, tr.d) == (((1,),), ((1,),), ((0,),), ((1,),))


def test_symplectic_invariant_enforced():
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticInteger(1, ((1,),), ((1,),), ((1,),), ((1,),))
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticModTwo(2, *(tuple(tuple(1 for _ in range(2)) for _ in range(2)),) * 4)


def test_integer_check_bites_on_every_constructor():
    # diag(A, D) is symplectic iff A^T D = 1; A = [[1, 1], [0, 1]], D = 1 is not
    a, zero, one = ((1, 1), (0, 1)), ((0, 0), (0, 0)), ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="not symplectic: "):
        SymplecticInteger(2, a, zero, zero, one)
    matrix = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=object)
    with pytest.raises(ValueError, match="not symplectic: "):
        SymplecticInteger._of(matrix)
    # diag(3, 1) is the identity mod 2 but not symplectic over Z
    with pytest.raises(ValueError, match="not symplectic: "):
        SymplecticInteger(1, ((3,),), ((0,),), ((0,),), ((1,),))
    assert SymplecticModTwo._of(np.array([[3, 0], [0, 1]])) == SymplecticModTwo.identity(1)


def test_mod_two_check_bites_on_every_constructor():
    # A = [[1, 1], [0, 1]], D = 1 stays non-symplectic mod 2 (A^T D = A)
    a, zero, one = ((1, 1), (0, 1)), ((0, 0), (0, 0)), ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="not symplectic mod 2"):
        SymplecticModTwo(2, a, zero, zero, one)
    with pytest.raises(ValueError, match="not symplectic mod 2"):
        SymplecticModTwo._of(np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    # a basis whose two pairs repeat one plane is no symplectic basis
    e, f = Characteristic.from_string("10|00").code, Characteristic.from_string("00|10").code
    assert _basis_element(2, [(e, f), (Characteristic.from_string("01|00").code,
                                       Characteristic.from_string("00|01").code)]) == SymplecticModTwo.identity(2)
    with pytest.raises(ValueError, match="not symplectic mod 2"):
        _basis_element(2, [(e, f), (e, f)])


def test_mod_two_elements_are_one_representation():
    gamma = random_symplectic(3, 6, 11)
    reduced = gamma.mod_two()
    g, m = 3, reduced.matrix
    # every way of building the same element of Sp(6, F2)
    e_rows = [bits_code(row) for row in np.roll(m, g, axis=(0, 1))[:, :g].T]
    f_rows = [bits_code(row) for row in np.roll(m, g, axis=(0, 1))[:, g:].T]
    built = [
        reduced,
        SymplecticModTwo(g, m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]),
        SymplecticModTwo._of(gamma.matrix),
        SymplecticModTwo._of(np.array(m.tolist(), dtype=object)),
        SymplecticModTwo._of(m.astype(np.int32) + 2),
        reduced @ SymplecticModTwo.identity(g),
        reduced.inverse().inverse(),
        SymplecticModTwo.from_json(reduced.to_json()),
        _basis_element(g, list(zip(e_rows, f_rows))),
    ]
    assert all(x.matrix.dtype == np.int64 for x in built)
    assert SymplecticModTwo.identity(g).matrix.dtype == np.int64
    assert all(x == reduced and hash(x) == hash(reduced) for x in built)
    assert len(set(built)) == 1
    assert all(type(x) is SymplecticModTwo for x in built)
    assert gamma.matrix.dtype == object and all(type(x) is int for x in gamma.matrix.flat)


def _bits_code_affine(reduced):
    """The affine action's row and shift codes by bits_code on M with both
    halves swapped."""
    g, m = reduced.genus, reduced.matrix
    shift = np.roll((m[:, :g] * m[:, g:]).sum(axis=1) % 2, g)
    return tuple(bits_code(row) for row in np.roll(m, g, axis=(0, 1))), bits_code(shift)


def test_affine_codes_match_bits_code_on_all_of_sp4_f2():
    gens = [gen.mod_two() for gen in standard_generators(2)]
    start = SymplecticModTwo.identity(2)
    seen, frontier = {start}, deque([start])
    while frontier:
        current = frontier.popleft()
        for gen in gens:
            image = current @ gen
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    assert len(seen) == 720  # |Sp(4, F2)| = |S_6|
    codes = np.arange(16)
    for reduced in seen:
        rows, shift = _bits_code_affine(reduced)
        # gamma . c: bit i (eps_1 first) is the parity of row i & c, then the shift
        expected = [sum(((row & c).bit_count() & 1) << (3 - i) for i, row in enumerate(rows)) ^ shift
                    for c in range(16)]
        assert _act_codes(reduced, codes).tolist() == expected


def test_inverse_and_composition():
    for seed in range(5):
        gamma = random_symplectic(3, 6, seed)
        assert gamma @ gamma.inverse() == SymplecticInteger.identity(3)
        m2 = gamma.mod_two()
        assert m2 @ m2.inverse() == SymplecticModTwo.identity(3)


def test_affine_action_identity():
    ident = SymplecticInteger.identity(2).mod_two()
    for m in all_characteristics(2, "all"):
        assert affine_action(ident, m) == m


def test_affine_action_genus_one_translation():
    # forced by theta(0, tau+1) identities and the transformation-law
    # calibration (see test_forms)
    _, tr = standard_generators(1)
    table = {"0|0": "0|1", "0|1": "0|0", "1|0": "1|0"}
    for src, dst in table.items():
        assert str(affine_action(tr, Characteristic.from_string(src))) == dst


def test_affine_action_genus_one_inversion():
    inv, _ = standard_generators(1)
    assert str(affine_action(inv, Characteristic.from_string("0|1"))) == "1|0"
    assert str(affine_action(inv, Characteristic.from_string("1|0"))) == "0|1"


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_parity_preserved_by_generators(g):
    for gamma in standard_generators(g):
        reduced = gamma.mod_two()
        for m in all_characteristics(g, "all"):
            assert parity(affine_action(reduced, m)) == parity(m)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_left_action_law(g):
    rng = random.Random(g)
    chars = all_characteristics(g, "all")
    for _ in range(60):
        g1 = random_symplectic(g, rng.randint(1, 5), rng.randrange(10**6))
        g2 = random_symplectic(g, rng.randint(1, 5), rng.randrange(10**6))
        m = rng.choice(chars)
        assert affine_action((g1 @ g2).mod_two(), m) == affine_action(
            g1.mod_two(), affine_action(g2.mod_two(), m)
        )


def _calibrated_action(gamma, eps, delta):
    """The calibrated affine map as a literal matrix sum on the integer
    blocks: eps' = D eps + C delta + diag(C D^T),
    delta' = B eps + A delta + diag(A B^T), all mod 2."""
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    g = len(eps)
    new_eps = tuple(
        sum(d[i][j] * eps[j] + c[i][j] * delta[j] + c[i][j] * d[i][j] for j in range(g)) % 2
        for i in range(g)
    )
    new_delta = tuple(
        sum(b[i][j] * eps[j] + a[i][j] * delta[j] + a[i][j] * b[i][j] for j in range(g)) % 2
        for i in range(g)
    )
    return new_eps, new_delta


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_affine_action_matches_literal_formula(g):
    # 20 seeded words whose C block is nonzero mod 2
    words = []
    seed = 500
    while len(words) < 20:
        gamma = random_symplectic(g, 6, seed)
        if any(any(row) for row in gamma.mod_two().c):
            words.append(gamma)
        seed += 1
    for gamma in words:
        reduced = gamma.mod_two()
        for bits in itertools.product((0, 1), repeat=2 * g):
            eps, delta = bits[:g], bits[g:]
            image = affine_action(reduced, Characteristic(g, eps, delta))
            assert image == Characteristic(g, *_calibrated_action(gamma, eps, delta))


def test_act_on_tuple_preserves_order_and_parity():
    tup = product_split_tuple(2, 1)
    gamma = random_symplectic(2, 4, 11).mod_two()
    out = act_on_tuple(gamma, tup)
    assert len(out) == len(tup)
    assert all(parity(m) == 0 for m in out)
    ident = SymplecticModTwo.identity(2)
    assert act_on_tuple(ident, tup) == tup


def test_orbit_profile_repeated_entry():
    m = Characteristic.from_string("0|0")
    prof = orbit_profile(CharTuple(1, (m, m)))
    assert prof.relation_basis == ((0, 1),)
    assert prof.triple_parities == ()


def test_orbit_profile_distinct_pair():
    prof = orbit_profile(CharTuple.from_strings(["0|0", "0|1"]))
    assert prof.relation_basis == ()
    assert prof.triple_parities == ()


def test_orbit_profile_triple():
    prof = orbit_profile(CharTuple.from_strings(["0|0", "0|1", "1|0"]))
    # 0|0 + 0|1 + 1|0 = 1|1, which is odd
    assert prof.triple_parities == (1,)
    assert prof.relation_basis == ()


def test_orbit_profile_triple_parity_indexing():
    import itertools

    from thetastrata.chars import add

    tup = CharTuple(4, product_split_tuple(4, 2).entries[:6])
    prof = orbit_profile(tup)
    assert len(prof.triple_parities) == 20  # C(6, 3)
    for pos, (i, j, k) in enumerate(itertools.combinations(range(6), 3)):
        expected = parity(add(add(tup[i], tup[j]), tup[k]))
        assert prof.triple_parities[pos] == expected


def test_empty_tuple_profile_rejected():
    with pytest.raises(ValueError, match="empty"):
        orbit_profile(CharTuple(1, ()))


def test_tuples_equivalent_reflexive_and_error_paths():
    tup = CharTuple.from_strings(["0|0", "0|1"])
    assert tuples_equivalent(tup, tup)
    with pytest.raises(ValueError, match="length"):
        tuples_equivalent(tup, single("0|0"))
    with pytest.raises(ValueError, match="genus"):
        tuples_equivalent(tup, CharTuple.from_strings(["00|00", "00|01"]))


def _orbit_past_cap():
    # the genus-2 orbit of 11|11 has 10 tuples; nothing near 2^24 is built
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symplectic, "ORBIT_MEMORY_CAP", 10)
        assert len(orbit_bfs(single("11|11"))) == 10
        patch.setattr(symplectic, "ORBIT_MEMORY_CAP", 9)
        orbit_bfs(single("11|11"))


ZERO2, ONE2 = ((0, 0), (0, 0)), ((1, 0), (0, 1))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: SymplecticInteger(2, ((1, 0),), ZERO2, ZERO2, ONE2), ValueError, "block A must be 2x2",
                 id="block-shape"),
    pytest.param(lambda: SymplecticInteger(0, (), (), (), ()), ValueError, "block A must be 0x0", id="genus-0-blocks"),
    pytest.param(lambda: SymplecticModTwo(1, ((1,),), ((2,),), ((0,),), ((1,),)), ValueError,
                 "block B must have entries 0/1", id="mod-two-entry-2"),
    pytest.param(lambda: setattr(SymplecticInteger.identity(1), "genus", 2), AttributeError,
                 "SymplecticInteger is immutable", id="set-attribute"),
    pytest.param(lambda: SymplecticInteger.identity(1) @ SymplecticInteger.identity(2), ValueError, "genus mismatch",
                 id="product-across-genera"),
    pytest.param(lambda: standard_generators(0), ValueError, "genus must be >= 1, got 0", id="generators-genus-0"),
    pytest.param(lambda: affine_action("gamma", Characteristic.from_string("0|0")), TypeError,
                 "expected a symplectic element, got str", id="action-of-non-element"),
    pytest.param(lambda: affine_action(SymplecticInteger.identity(2), Characteristic.from_string("0|0")), ValueError,
                 "genus mismatch: gamma has 2, m has 1", id="action-across-genera"),
    pytest.param(lambda: act_on_tuple(SymplecticModTwo.identity(2), single("0|0")), ValueError,
                 "genus mismatch: gamma has 2, tuple has 1", id="tuple-action-across-genera"),
    pytest.param(_orbit_past_cap, CapExceededError, "orbit exceeds memory cap 9", id="orbit-memory-cap"),
])
def test_input_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_tuples_equivalent_matches_bfs_on_pairs():
    a = CharTuple.from_strings(["0|0", "0|1"])
    b = CharTuple.from_strings(["0|1", "1|0"])
    assert b in orbit_bfs(a)  # oracle first
    assert tuples_equivalent(a, b)
    c = CharTuple.from_strings(["0|0", "0|0"])
    assert c not in orbit_bfs(a)
    assert not tuples_equivalent(c, a)


def test_orbit_bfs_transitive_on_evens():
    orbit1 = orbit_bfs(single("0|0"))
    assert {t[0] for t in orbit1} == set(all_characteristics(1, "even"))
    orbit2 = orbit_bfs(single("11|11"))
    assert {t[0] for t in orbit2} == set(all_characteristics(2, "even"))
    assert len(orbit2) == 10


def test_orbit_bfs_closed_under_generators():
    tup = CharTuple.from_strings(["00|11", "01|10"])
    orbit = orbit_bfs(tup)
    for gamma in standard_generators(2):
        reduced = gamma.mod_two()
        for member in orbit:
            assert act_on_tuple(reduced, member) in orbit


def test_orbit_bfs_genus_cap():
    with pytest.raises(CapExceededError, match="genus"):
        orbit_bfs(single("0000|0000"))


def test_profile_invariant_along_orbit():
    tup = product_split_tuple(3, 1)
    prof = orbit_profile(tup)
    for seed in range(10):
        gamma = random_symplectic(3, 5, seed).mod_two()
        assert orbit_profile(act_on_tuple(gamma, tup)) == prof


def test_split_tuple_orbit_members_stay_equivalent():
    # at genus 2 the split tuple is a single even characteristic; its BFS
    # orbit consists of single even characteristics, each equivalent to it
    i1 = product_split_tuple(2, 1)
    for member in orbit_bfs(i1):
        assert len(member) == 1
        assert parity(member[0]) == 0
        assert tuples_equivalent(i1, member)


def test_random_symplectic_determinism_and_validity():
    assert random_symplectic(2, 5, 42) == random_symplectic(2, 5, 42)
    assert random_symplectic(2, 5, 42) != random_symplectic(2, 5, 43)
    for seed in range(100):
        random_symplectic(2, 4, seed)  # constructor enforces the invariant
    with pytest.raises(ValueError, match="word_length"):
        random_symplectic(2, 0, 1)


def test_random_symplectic_single_letter_words():
    gens = standard_generators(2)
    pool = set(gens) | {g.inverse() for g in gens}
    for seed in range(20):
        assert random_symplectic(2, 1, seed) in pool


@pytest.mark.parametrize("word_length", range(1, 7))
def test_random_symplectic_equals_checked_fold(word_length):
    # the same draws in the same order, folded through the public checked
    # product and inverse, give the same word
    gens = standard_generators(4)
    for seed in range(50):
        rng = random.Random(seed)
        expected = None
        for _ in range(word_length):
            letter = rng.choice(gens)
            if rng.random() < 0.5:
                letter = letter.inverse()
            expected = letter if expected is None else expected @ letter
        assert random_symplectic(4, word_length, seed) == expected


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_random_symplectic_equals_oracle_fold(g):
    # a plain-Python fold of the same draws, sharing no arithmetic with
    # the package
    assert [[gen.a, gen.b, gen.c, gen.d] for gen in standard_generators(g)] == [
        [tuple(map(tuple, m)) for m in gen] for gen in integer_generators(g)
    ]
    for word_length in (1, 2, 3, 4, 5, 6, 12, 30):
        for seed in range(20):
            expected = word_fold(g, word_length, seed)
            assert is_symplectic(expected)
            gamma = random_symplectic(g, word_length, seed)
            assert gamma.to_json() == dict(zip("ABCD", expected))


def _digest(items):
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def _rows(gamma):
    return [[int(x) for x in row] for row in gamma.matrix]


# digests of the words and suites as drawn before the generator inverses
# were built once per genus: the same draws give the same work
PERFBENCH_WORD_SEEDS = (6003, 6011, 6018, 6023, 6024, 6038, 6039, 6054, 6057, 6065, 6075)


def test_perfbench_words_pinned():
    words = (random_symplectic(4, 6, s) for s in PERFBENCH_WORD_SEEDS)
    assert _digest(map(_rows, words)) == "addc28e528d4ee1c9a162b6b604413e860ceae0348d4682134c9a5d574a19d91"


def test_random_symplectic_sweep_pinned():
    words = (random_symplectic(g, n, s) for g in range(1, 5) for n in range(1, 31) for s in range(10))
    assert _digest(map(_rows, words)) == "a32991cbe1bbc2040e4a033658bbdad15a2cf9b13136d9d0ff893e20e625149d"


def test_unchecked_products_are_symplectic():
    # products and inverses skip the M^T J M = J check; every product the
    # pinned sweep forms (its shorter words are prefixes of its longer
    # ones) and the inverse of each satisfy it by a plain-Python check
    for g in range(1, 5):
        for n in range(1, 31):
            for s in range(10):
                gamma = random_symplectic(g, n, s)
                for x in (gamma, gamma.inverse()):
                    assert is_symplectic((x.a, x.b, x.c, x.d)), (g, n, s)


def test_transformation_check_pinned():
    reports = (transformation_check(4, s, 10) for s in (1, 2, 3))
    assert _digest(reports) == "1b8c68d95cc7477e94abe550137460b276d27fd3b7aae756575e55d44406fdbd"


def test_long_products_stay_exact():
    # T J^-1 T^-1 J acts as [[2, 1], [1, 1]] on the first coordinate pair,
    # so the entries of its n-th power grow like 2.618^n and pass 2^63 at
    # n = 46; an int64 shortcut would wrap
    jay, t = standard_generators(4)[:2]
    word = t @ jay.inverse() @ t.inverse() @ jay
    j_blocks, t_blocks = integer_generators(4)[:2]
    letters = [t_blocks, block_inverse(j_blocks), block_inverse(t_blocks), j_blocks]
    blocks = letters[0]
    for letter in letters[1:]:
        blocks = block_product(blocks, letter)
    power, expected = word, blocks
    for _ in range(49):
        power, expected = power @ word, block_product(expected, blocks)
    assert power.to_json() == dict(zip("ABCD", expected))
    assert is_symplectic(expected)
    assert max(abs(x) for m in expected for row in m for x in row) > 2**63


def test_json_round_trip():
    gamma = random_symplectic(2, 5, 3)
    assert SymplecticInteger.from_json(gamma.to_json()) == gamma
    reduced = gamma.mod_two()
    assert SymplecticModTwo.from_json(reduced.to_json()) == reduced


def test_repr_names_the_class_and_blocks():
    assert repr(SymplecticInteger.identity(1)) == "SymplecticInteger(1, ((1,),), ((0,),), ((0,),), ((1,),))"
    assert repr(SymplecticModTwo.identity(1)) == "SymplecticModTwo(1, ((1,),), ((0,),), ((0,),), ((1,),))"


def test_profile_is_hashable_value():
    prof = orbit_profile(product_split_tuple(2, 1))
    assert isinstance(prof, OrbitProfile)
    assert {prof: 1}[prof] == 1
