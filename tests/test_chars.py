import re

import pytest
from hypothesis import given, strategies as st

from thetastrata.chars import (
    Characteristic,
    CharTuple,
    add,
    all_characteristics,
    concat,
    even_count,
    n_k,
    odd_count,
    parity,
    product_split_tuple,
    split,
)
from thetastrata.classify import _plane_table

from oracles import brute_force_parity_census


@st.composite
def characteristics(draw, genus=None, max_genus=4):
    g = genus if genus is not None else draw(st.integers(1, max_genus))
    bits = st.lists(st.integers(0, 1), min_size=g, max_size=g)
    return Characteristic(g, tuple(draw(bits)), tuple(draw(bits)))


@st.composite
def char_pairs(draw, max_genus=4):
    g = draw(st.integers(1, max_genus))
    return draw(characteristics(genus=g)), draw(characteristics(genus=g))


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_census_matches_brute_force(g):
    even, odd = brute_force_parity_census(g)
    assert len(all_characteristics(g, "even")) == even == even_count(g)
    assert len(all_characteristics(g, "odd")) == odd == odd_count(g)
    assert len(all_characteristics(g, "all")) == 2 ** (2 * g)


def test_genus_one_lists():
    assert [str(m) for m in all_characteristics(1, "even")] == ["0|0", "0|1", "1|0"]
    assert [str(m) for m in all_characteristics(1, "odd")] == ["1|1"]


def test_lexicographic_order():
    for g in (2, 3):
        strings = [str(m).replace("|", "") for m in all_characteristics(g, "all")]
        assert strings == sorted(strings)


def test_parity_examples():
    assert parity(Characteristic.from_string("0|0")) == 0
    assert parity(Characteristic.from_string("1|1")) == 1
    assert parity(Characteristic.from_string("11|11")) == 0


def test_add_examples():
    m01 = Characteristic.from_string("0|1")
    m10 = Characteristic.from_string("1|0")
    assert str(add(m01, m01)) == "0|0"
    assert str(add(m01, m10)) == "1|1"
    assert str(add(Characteristic.from_string("01|10"), Characteristic.from_string("10|10"))) == "11|00"


def test_add_genus_mismatch():
    with pytest.raises(ValueError, match="genus mismatch"):
        add(Characteristic.from_string("0|0"), Characteristic.from_string("00|00"))


def test_bad_inputs():
    with pytest.raises(ValueError):
        all_characteristics(0)
    with pytest.raises(ValueError):
        all_characteristics(2, "mixed")
    with pytest.raises(ValueError):
        Characteristic(1, (2,), (0,))
    with pytest.raises(ValueError):
        Characteristic.from_string("01|0")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Characteristic(0, (), ()), "genus must be >= 1, got 0", id="genus-0"),
    pytest.param(lambda: Characteristic(2, (0,), (0, 1)), "eps and delta must each have length genus", id="short-eps"),
    pytest.param(lambda: Characteristic(2, (0, 1), (0, 1, 1)), "eps and delta must each have length genus",
                 id="long-delta"),
    pytest.param(lambda: Characteristic.from_code(2, 16), "no genus-2 characteristic has code 16", id="code-too-big"),
    pytest.param(lambda: Characteristic.from_code(2, -1), "no genus-2 characteristic has code -1", id="code-negative"),
    pytest.param(lambda: Characteristic.from_string("0a|01"), "malformed characteristic string: '0a|01'",
                 id="non-binary-string"),
    pytest.param(lambda: split(Characteristic.from_string("01|10"), 0),
                 "split position must satisfy 1 <= k < genus, got k=0", id="split-at-0"),
    pytest.param(lambda: CharTuple.from_strings([]), "empty tuple", id="empty-tuple"),
])
def test_input_guards(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_product_split_tuple_genus_two():
    assert product_split_tuple(2, 1).to_strings() == ["11|11"]
    assert n_k(2, 1) == 1


@pytest.mark.parametrize(
    "g,k,expected",
    [(4, 1, 28), (4, 2, 36), (4, 3, 28)],
)
def test_split_tuple_lengths(g, k, expected):
    # odd x odd census oracle: n_k = (#odd at k) x (#odd at g-k)
    oracle = brute_force_parity_census(k)[1] * brute_force_parity_census(g - k)[1]
    assert oracle == expected
    tup = product_split_tuple(g, k)
    assert len(tup) == n_k(g, k) == expected
    for m in tup:
        head, tail = split(m, k)
        assert parity(head) == 1 and parity(tail) == 1
        assert parity(m) == 0


def test_nk_symmetry():
    for g in (2, 3, 4):
        for k in range(1, g):
            assert n_k(g, k) == n_k(g, g - k)


def test_split_tuple_bad_k():
    with pytest.raises(ValueError):
        product_split_tuple(4, 0)
    with pytest.raises(ValueError):
        product_split_tuple(4, 4)


def test_char_tuple_enforces_even_and_genus():
    odd = Characteristic.from_string("1|1")
    with pytest.raises(ValueError, match="odd"):
        CharTuple(1, (odd,))
    with pytest.raises(ValueError, match="genus"):
        CharTuple(2, (Characteristic.from_string("0|0"),))


def test_tuple_string_round_trip():
    tup = product_split_tuple(4, 2)
    assert CharTuple.from_strings(tup.to_strings()) == tup


@given(char_pairs())
def test_add_commutes(pair):
    m1, m2 = pair
    assert add(m1, m2) == add(m2, m1)


@given(st.integers(1, 4).flatmap(
    lambda g: st.tuples(characteristics(genus=g), characteristics(genus=g), characteristics(genus=g))
))
def test_add_associates(triple):
    m1, m2, m3 = triple
    assert add(add(m1, m2), m3) == add(m1, add(m2, m3))


@given(characteristics())
def test_self_sum_is_even(m):
    assert parity(add(m, m)) == 0


@given(characteristics())
def test_string_round_trip(m):
    assert Characteristic.from_string(str(m)) == m


@given(char_pairs())
def test_concat_parity_adds(pair):
    m1, m2 = pair
    joined = concat(m1, m2)
    assert parity(joined) == (parity(m1) + parity(m2)) % 2
    assert split(joined, m1.genus) == (m1, m2)


@given(st.integers(1, 4).flatmap(lambda g: st.lists(
    st.lists(st.integers(0, 1), min_size=g, max_size=g), min_size=4, max_size=4)))
def test_code_operations_match_tuple_definitions(parts):
    # oracle: the drawn bit tuples themselves, not the characteristics'
    # own eps/delta views
    e1, d1, e2, d2 = (tuple(p) for p in parts)
    g = len(e1)
    m1, m2 = Characteristic(g, e1, d1), Characteristic(g, e2, d2)
    assert m1.code == int("".join(map(str, e1 + d1)), 2)
    assert Characteristic.from_code(g, m1.code) == m1
    assert (m1.eps, m1.delta) == (e1, d1)
    assert parity(m1) == sum(a * b for a, b in zip(e1, d1)) % 2
    xor = Characteristic(g, tuple(a ^ b for a, b in zip(e1, e2)), tuple(a ^ b for a, b in zip(d1, d2)))
    assert add(m1, m2) == xor
    expected = (sum(a * b for a, b in zip(e1, d2)) + sum(a * b for a, b in zip(e2, d1))) % 2
    assert _plane_table(g).pairs[m1.code, m2.code] == expected
    joined = concat(m1, m2)
    assert joined == Characteristic(2 * g, e1 + e2, d1 + d2)
    e, d = e1 + e2, d1 + d2
    for k in range(1, 2 * g):
        assert split(joined, k) == (Characteristic(k, e[:k], d[:k]), Characteristic(2 * g - k, e[k:], d[k:]))
