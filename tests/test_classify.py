import hashlib
import importlib
import json
import math

import mpmath as mp
import numpy as np
import pytest

import thetastrata.cli as cli
from thetastrata.chars import (
    Characteristic,
    CharTuple,
    add,
    all_characteristics,
    concat,
    parity,
    product_split_tuple,
    split,
)
from thetastrata.classify import (
    MARGIN_FLOOR,
    THETA_TARGET,
    _LABELS,
    StratumReport,
    _basis_element,
    _decide,
    REDUCE_WALK,
    _even_slots,
    _representative,
    _walk,
    _plane_table,
    _symplectic_basis,
    _vanishing,
    classify,
    classify_from_pattern,
    detect_split,
    vanishing_set,
)
from thetastrata.forms import _forms
from thetastrata.errors import CapExceededError
from thetastrata.symplectic import (
    SymplecticInteger,
    act_on_tuple,
    affine_action,
    random_symplectic,
    tuples_equivalent,
)
from thetastrata.theta import (
    _doubled,
    _drift_bound,
    _even_constants,
    _even_squares,
    block_diag,
    even_theta_constants,
    generic_siegel_point,
    point_to_json,
    random_siegel_point,
    siegel_action,
    siegel_reduction,
    truncation_radius,
    validate_siegel,
)

from oracles import (
    affine_image,
    arf_planes,
    block_stratum_label,
    direct_theta_constant,
    even_characteristics,
    is_symplectic,
    lll_reduced,
    odd_on_some_block_count,
    orthogonal_equal_key_pairs,
    plane_split_reference,
    split_set_orbit,
)


def _plane_int(words):
    """A plane's column of _PlaneTable.masks as one int: bit 64 w + b is
    bit b of word w."""
    return int.from_bytes(np.asarray(words, dtype="<u8").tobytes(), "little")


@pytest.fixture(scope="module")
def block_13():
    rng = np.random.default_rng(101)
    return block_diag(random_siegel_point(1, rng), random_siegel_point(3, rng))


@pytest.fixture(scope="module")
def block_22():
    return block_diag(
        random_siegel_point(2, np.random.default_rng(102)),
        random_siegel_point(2, np.random.default_rng(103)),
    )


@pytest.fixture(scope="module")
def block_112():
    rng = np.random.default_rng(104)
    point = block_diag(random_siegel_point(1, rng), random_siegel_point(1, rng))
    return block_diag(point, random_siegel_point(2, rng))


class TestVanishingSet:
    def test_generic_point_has_none(self):
        rep = vanishing_set(generic_siegel_point(4, 200))
        assert rep.members == ()
        assert rep.margin == float("inf")
        assert not rep.warning

    def test_block_one_three_matches_split_tuple(self):
        blk = block_diag(validate_siegel([[1j]]), random_siegel_point(3, np.random.default_rng(7)))
        rep = vanishing_set(blk, rel_threshold=1e-6)
        assert set(rep.members) == set(product_split_tuple(4, 1))
        assert rep.margin >= 10
        assert not rep.warning

    def test_four_elliptic_union_matches_enumeration(self):
        rng = np.random.default_rng(8)
        point = random_siegel_point(1, rng)
        for _ in range(3):
            point = block_diag(point, random_siegel_point(1, rng))
        rep = vanishing_set(point)
        # oracle: a tensor of four elliptic factors kills exactly the even
        # characteristics with some odd single-column restriction
        expected = set()
        for m in all_characteristics(4, "even"):
            cols = [(m.eps[i], m.delta[i]) for i in range(4)]
            if any(e * d == 1 for e, d in cols):
                expected.add(m)
        assert set(rep.members) == expected
        assert len(expected) == 55

    def test_precomputed_constants_give_the_same_set(self, block_13):
        # the squares kernel gives the set and the warning that
        # even_theta_constants' dict gives
        for point in (generic_siegel_point(4, 200), block_13):
            constants = even_theta_constants(point, THETA_TARGET)
            values = np.array([tv.value for tv in constants.values()])
            truncation = max(tv.tail_bound for tv in constants.values())
            for threshold in (1e-6, 1e-3):
                from_dict = _vanishing(list(constants), values, np.full(len(values), truncation), threshold)
                rep = vanishing_set(point, threshold)
                assert (rep.members, rep.warning) == (from_dict.members, from_dict.warning)
                assert rep.scale == pytest.approx(from_dict.scale, rel=1e-12)

    def test_margin_warning_fires_for_adversarial_threshold(self):
        p = generic_siegel_point(4, 201)
        from thetastrata.theta import even_theta_constants

        mags = sorted(abs(tv.value) for tv in even_theta_constants(p, 1e-12).values())
        scale = mags[-1]
        # place the threshold just above the smallest surviving magnitude
        rep = vanishing_set(p, rel_threshold=(mags[0] / scale) * 1.05)
        assert rep.members and rep.warning and rep.margin < 10


class TestThreshold:
    """A threshold outside (0, 1], or not a number, is refused with its value named."""

    BAD = [float("nan"), float("inf"), -float("inf"), 2.0, 0.0, -1e-6]

    @pytest.mark.parametrize("threshold", BAD)
    def test_classify_rejects(self, threshold):
        with pytest.raises(ValueError, match=f"got {threshold!r}"):
            classify(generic_siegel_point(4, 1), rel_threshold=threshold)

    @pytest.mark.parametrize("threshold", BAD)
    def test_vanishing_set_rejects(self, threshold):
        with pytest.raises(ValueError, match=f"got {threshold!r}"):
            vanishing_set(generic_siegel_point(4, 1), threshold)

    def test_classify_rejects_before_theta_work(self, monkeypatch):
        def no_theta(*args):
            raise AssertionError("theta constants summed before the threshold check")

        module = importlib.import_module("thetastrata.classify")
        monkeypatch.setattr(module, "_even_squares", no_theta)
        with pytest.raises(ValueError, match="got nan"):
            classify(generic_siegel_point(4, 1), rel_threshold=float("nan"))
        with pytest.raises(AssertionError, match="before the threshold check"):
            classify(generic_siegel_point(4, 1))

    def test_one_is_allowed(self):
        # every constant but the largest lies below the whole scale
        assert len(vanishing_set(generic_siegel_point(4, 1), 1.0)) == 135

    @pytest.mark.parametrize("evaluate", [classify, vanishing_set])
    def test_threshold_below_the_resolution_is_refused(self, evaluate):
        # |theta| resolves to sqrt(theta^2 bound) / scale, about 3e-7 here:
        # a threshold at or below that has no certain comparisons, and no
        # other route is tried
        point = generic_siegel_point(4, 1)
        squares, bounds = _even_squares(point, THETA_TARGET)
        resolution = math.sqrt(bounds.max() / np.abs(squares).max())
        assert 1e-7 < resolution < 1e-6
        for threshold in (1e-9, resolution * (1 - 1e-6)):
            with pytest.raises(ValueError, match="rel_threshold .* at or below the resolution"):
                evaluate(point, threshold)
        evaluate(point, resolution * 1.01)


class TestDetectSplit:
    def test_reflexive(self):
        i1 = product_split_tuple(4, 1)
        res = detect_split(list(i1), 1)
        assert res.found
        assert set(res.witness) == set(i1)
        assert tuples_equivalent(res.witness, i1)

    def test_empty_input(self):
        res = detect_split([], 2)
        assert not res.found and res.witness is None

    def test_two_two_block(self, block_22):
        members = vanishing_set(block_22).members
        res = detect_split(members, 2)
        assert res.found
        assert set(res.witness) <= set(members)
        assert tuples_equivalent(res.witness, product_split_tuple(4, 2))
        assert not detect_split(members, 1).found

    def test_one_three_block(self, block_13):
        members = vanishing_set(block_13).members
        assert detect_split(members, 1).found
        assert not detect_split(members, 2).found

    def test_invariant_under_affine_action(self, block_22):
        members = vanishing_set(block_22).members
        from thetastrata.chars import CharTuple

        gamma = random_symplectic(4, 4, 300).mod_two()
        moved = list(act_on_tuple(gamma, CharTuple(4, members)))
        assert detect_split(moved, 2).found
        assert not detect_split(moved, 1).found

    def test_nodes_count_planes(self, block_22):
        members = vanishing_set(block_22).members
        planes = _plane_table(4).masks.shape[1]
        assert detect_split(members, 1).nodes == planes
        assert detect_split(members, 2).nodes == planes
        # k' = 1 stops at the first plane P with I(P) inside the set
        i1 = product_split_tuple(4, 1)
        first = next(i for i, mask in enumerate(map(_plane_int, _plane_table(4).masks.T))
                     if {m for j, m in enumerate(all_characteristics(4, "even")) if mask >> j & 1} <= set(i1))
        assert detect_split(list(i1), 1).nodes == first + 1

    def test_rejects_odd_entries(self):
        with pytest.raises(ValueError, match="odd"):
            detect_split([Characteristic.from_string("1000|1000")], 1)

    def test_rejects_mixed_genera(self):
        members = [all_characteristics(4, "even")[0], all_characteristics(3, "even")[1]]
        with pytest.raises(ValueError, match="mixed genera"):
            detect_split(members, 1)

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must"):
            detect_split(list(product_split_tuple(4, 1)), 4)


def _standard_plane_codes(g, i):
    """Codes of e_i = [unit_i | 0] and f_i = [0 | unit_i]."""
    unit = tuple(int(j == i) for j in range(g))
    return Characteristic(g, unit, (0,) * g).code, Characteristic(g, (0,) * g, unit).code


def _arf_set(g, k):
    """{m even : Arf(q_m|W0) = 1} for W0 = span(e_1..e_k, f_1..f_k), from
    the definition q_m(v) = e(m + v) + e(m) and the symplectic basis
    formula Arf = sum_i q(e_i) q(f_i)."""
    out = set()
    for m in all_characteristics(g, "even"):
        def q(code):
            return parity(add(m, Characteristic.from_code(g, code))) ^ parity(m)

        arf = 0
        for i in range(k):
            e, f = _standard_plane_codes(g, i)
            arf ^= q(e) & q(f)
        if arf:
            out.add(m)
    return out


def _sp_order(n):
    """|Sp(2n, F2)| = 2^(n^2) prod_{i=1..n} (4^i - 1)."""
    order = 2 ** (n * n)
    for i in range(1, n + 1):
        order *= 4**i - 1
    return order


def _as_pairs(chars):
    return frozenset((m.eps, m.delta) for m in chars)


def _check_against_orbit(g, chars, k):
    """detect_split(chars, k) finds a split iff some member of the BFS
    orbit of the set I_k lies in chars, and its witness is such a member,
    ordered so that it is orbit-equivalent to I_k."""
    orbit = split_set_orbit(g, k)
    present = _as_pairs(chars)
    res = detect_split(chars, k)
    assert res.found == any(member <= present for member in orbit), (g, k, len(chars))
    if res.found:
        assert set(res.witness) <= set(chars)
        assert len(res.witness) == len(set(res.witness))
        assert _as_pairs(res.witness) in orbit
        assert tuples_equivalent(res.witness, product_split_tuple(g, k))
    else:
        assert res.witness is None
    return res.found


def _near_misses(g, k, count=4):
    """Members of the orbit of the set I_k, each with one element removed
    and, separately, with one even characteristic from outside added."""
    orbit = sorted(sorted(member) for member in split_set_orbit(g, k))
    evens = all_characteristics(g, "even")
    rng = np.random.default_rng(50 + 10 * g + k)
    out = []
    for i in rng.choice(len(orbit), size=min(count, len(orbit)), replace=False):
        member = [Characteristic(g, eps, delta) for eps, delta in orbit[i]]
        foreign = next(m for m in evens if m not in member)
        out += [member[1:], sorted(member + [foreign], key=lambda m: m.code)]
    return out


def _low_genus_sources(g):
    """Vanishing sets of the block products of genus g = 2 or 3."""
    rng = np.random.default_rng(1100 + g)
    sources = []
    for parts in {2: [(1, 1)], 3: [(1, 2), (2, 1), (1, 1, 1)]}[g]:
        point = None
        for size in parts:
            factor = random_siegel_point(size, rng)
            point = factor if point is None else block_diag(point, factor)
        sources.append(vanishing_set(point).members)
    return sources


# the fixtures' vanishing sets and their images under these words, in
# code order as classify reports them, are checked against the orbit
# oracle; every word has C != 0 mod 2 at genus 4, and CAPPED_X5_WORDS
# are the 1+1+2 images that once exceeded the split search's node budget
ORACLE_WORDS = (6002, 6003, 6011, 6026, 6044, 6056, 6067)
CAPPED_X5_WORDS = (6002, 6026, 6044, 6056, 6067)


class TestFindSplit:
    """The plane test of detect_split, checked against definitions and
    against tests/oracles.py's BFS orbit of the set I_k."""

    @pytest.mark.parametrize("g,k", [(g, k) for g in (2, 3, 4) for k in range(1, g)])
    def test_standard_subspace_gives_split_tuple(self, g, k):
        expected = set(product_split_tuple(g, k))
        assert _arf_set(g, k) == expected
        # the tables give the same set as the XOR over the planes span(e_i, f_i)
        table = _plane_table(g)
        by_plane = {(int(e), int(f)): _plane_int(mask) for e, f, mask in zip(table.e, table.f, table.masks.T)}
        mask = 0
        for i in range(k):
            e, f = _standard_plane_codes(g, i)
            mask ^= by_plane[tuple(sorted((e, f, e ^ f))[:2])]
        evens = all_characteristics(g, "even")
        assert {m for i, m in enumerate(evens) if mask >> i & 1} == expected
        res = detect_split(sorted(expected, key=lambda m: m.code), k)
        assert res.found and set(res.witness) == expected

    def test_plane_count_genus_four(self):
        masks = [_plane_int(words) for words in _plane_table(4).masks.T]
        assert len(masks) == len(set(masks)) == 5440

    def test_orbit_sizes(self):
        assert len(split_set_orbit(4, 1)) == _sp_order(4) // (_sp_order(1) * _sp_order(3)) == 5440
        assert len(split_set_orbit(4, 2)) == _sp_order(4) // (2 * _sp_order(2) ** 2) == 45696
        # I(W) = I(W-perp): the 3 + 1 sets are the 1 + 3 sets
        assert split_set_orbit(4, 3) == split_set_orbit(4, 1)

    def test_agrees_with_search(self, block_13, block_22, block_112):
        # the search is split_set_orbit's exhaustive BFS of the set I_k
        words = [random_symplectic(4, 6, s).mod_two() for s in ORACLE_WORDS]
        assert all(any(any(row) for row in w.c) for w in words)
        sources = [vanishing_set(p).members for p in (block_13, block_22, block_112)]
        sources.append(vanishing_set(validate_siegel(1j * np.eye(4))).members)
        for members in sources:
            images = [sorted(act_on_tuple(w, CharTuple(4, members)), key=lambda m: m.code) for w in words]
            for chars in [list(members)] + images:
                for k in (1, 2, 3):
                    _check_against_orbit(4, chars, k)

    @pytest.mark.parametrize("g,k", [(2, 1), (3, 1), (3, 2)])
    def test_agrees_with_search_low_genus(self, g, k):
        words = [random_symplectic(g, 6, s).mod_two() for s in ORACLE_WORDS]
        for members in _low_genus_sources(g):
            assert members
            images = [sorted(act_on_tuple(w, CharTuple(g, members)), key=lambda m: m.code) for w in words]
            for chars in [list(members)] + images:
                _check_against_orbit(g, chars, k)

    @pytest.mark.parametrize("g,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_near_misses(self, g, k):
        outcomes = [_check_against_orbit(g, chars, k) for chars in _near_misses(g, k)]
        # one element short is never a split, one foreign element extra always is
        assert outcomes == [False, True] * (len(outcomes) // 2)

    def test_rejects_a_third_case(self):
        with pytest.raises(ValueError, match="min"):
            detect_split([Characteristic.from_code(6, 0)], 3)

    def test_capped_x5_images_classify(self, block_112):
        for seed in CAPPED_X5_WORDS:
            rep = classify(siegel_action(random_symplectic(4, 6, seed), block_112))
            assert rep.label == "X5"
            assert {w.k: w.found for w in rep.splits} == {1: True, 2: True}

    def test_capped_x5_image_through_cli(self, block_112, tmp_path, capsys):
        path = tmp_path / "x5.json"
        point = siegel_action(random_symplectic(4, 6, 6056), block_112)
        path.write_text(json.dumps(point_to_json(point)))
        assert cli.run(["classify", "--tau", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["label"] == "X5"


def _reference_split(g, chars, k):
    """(found, witness, nodes) as detect_split must report them, from
    tests/oracles.py's plane choice: the witness is built from the
    oracle's planes by detect_split's own construction, and its set must
    be the oracle's I(W)."""
    planes, nodes, arf = plane_split_reference(g, [(m.eps, m.delta) for m in chars], k)
    if planes is None:
        return False, None, nodes
    codes = [tuple(Characteristic(g, v[:g], v[g:]).code for v in plane) for plane in planes]
    pairs = _symplectic_basis(g, codes)
    half = min(k, g - k)
    if half != k:
        pairs = pairs[half:] + pairs[:half]
    witness = act_on_tuple(_basis_element(g, pairs), product_split_tuple(g, k))
    assert {(m.eps, m.delta) for m in witness} == arf
    return True, witness, nodes


def _grown_set(rng, k, fewest, most):
    """An image of I_k under a random word with fewest to most - 1 random
    evens added, in code order."""
    word = random_symplectic(4, 6, int(rng.integers(1 << 30))).mod_two()
    chars = set(act_on_tuple(word, product_split_tuple(4, k)))
    evens = all_characteristics(4, "even")
    chars |= {evens[i] for i in rng.choice(len(evens), int(rng.integers(fewest, most)), replace=False)}
    return sorted(chars, key=lambda m: m.code)


# seeds of _wide_set whose first group with an orthogonal pair does not
# hold the least orthogonal pair overall, so that the order of the groups
# decides the witness (found by scanning seeds 1600-1899)
WIDE_SEEDS = (1741, 1808, 1864, 1883)


def _wide_set(seed):
    return _grown_set(np.random.default_rng(seed), 2, 70, 110)


def _selection_inputs(block_13, block_22, block_112):
    """Vanishing sets of the block fixtures and their ORACLE_WORDS images,
    of 1j * 1_4, seeded random even sets around I_1 and I_2 (the least
    member dropped in every third draw) and the wide sets."""
    words = [random_symplectic(4, 6, s).mod_two() for s in ORACLE_WORDS]
    sets = [vanishing_set(validate_siegel(1j * np.eye(4))).members]
    for members in (vanishing_set(p).members for p in (block_13, block_22, block_112)):
        sets.append(members)
        sets += [sorted(act_on_tuple(w, CharTuple(4, members)), key=lambda m: m.code) for w in words]
    rng = np.random.default_rng(1500)
    for draw in range(24):
        chars = _grown_set(rng, 1 + draw % 2, 0, 40)
        sets.append(chars[1:] if draw % 3 == 2 else chars)
    return sets + [_wide_set(seed) for seed in WIDE_SEEDS]


class TestSelectionRule:
    """detect_split picks the planes of tests/oracles.py's plain reference
    of the rule, so witnesses and node counts stay fixed."""

    def _check(self, sets):
        found = []
        for chars in sets:
            for k in (1, 2, 3):
                res = detect_split(chars, k)
                expected = _reference_split(4, chars, k)
                assert (res.found, res.witness, res.nodes) == expected, (len(chars), k)
                found.append(res.found)
        return found

    def test_matches_reference(self, block_13, block_22, block_112):
        found = self._check(_selection_inputs(block_13, block_22, block_112))
        assert any(found) and not all(found)

    def test_group_order_decides_on_wide_sets(self):
        for seed in WIDE_SEEDS:
            pairs = list(orthogonal_equal_key_pairs(4, [(m.eps, m.delta) for m in _wide_set(seed)]))
            assert min(pairs)[1:] != min(p[1:] for p in pairs)

    def test_low_genus_matches_reference(self):
        for g in (2, 3):
            for chars in _low_genus_sources(g):
                for k in range(1, g):
                    res = detect_split(chars, k)
                    assert (res.found, res.witness, res.nodes) == _reference_split(g, chars, k)

    def test_equal_folds_give_the_same_choice(self, block_13, block_22, block_112, monkeypatch):
        # with every fold equal, each group is found by the exact fallback
        sets = _selection_inputs(block_13, block_22, block_112)
        monkeypatch.setattr(importlib.import_module("thetastrata.classify"), "_MIX", np.uint64(0))
        self._check(sets)

    def test_candidate_bound(self, block_13, block_22, block_112):
        # detect_split keeps for k' = 2 only the planes whose key I(P) - V
        # has at most |I_1| - |I_2| / 2 elements: on tests/oracles.py's
        # planes, every orthogonal pair meets in exactly that many evens,
        # and every orthogonal pair with equal keys has keys that small
        bound = len(product_split_tuple(4, 1)) - len(product_split_tuple(4, 2)) // 2
        planes, evens = arf_planes(4), even_characteristics(4)
        pairs = 0
        for chars in _selection_inputs(block_13, block_22, block_112):
            held = {(m.eps, m.delta) for m in chars}
            absent = sum(1 << i for i, m in enumerate(evens) if m not in held)
            for _, i, j in orthogonal_equal_key_pairs(4, held):
                (_, _, arf_i), (_, _, arf_j) = planes[i], planes[j]
                assert (arf_i & arf_j).bit_count() == bound == 10
                assert (arf_i & absent).bit_count() <= bound
                pairs += 1
        assert pairs > 100

    def test_outcomes_pinned(self, block_13, block_22, block_112):
        # _reference_split builds its witness with detect_split's own
        # construction, so these bytes pin the witnesses apart from it: the
        # selection inputs and the vanishing sets of the seed-1 strata and
        # split22 plan points, each at k = 1, 2 and 3
        sets = _selection_inputs(block_13, block_22, block_112)
        sets += [classify(p).vanishing for w in ("strata", "split22") for p in _plan_points(w, 1)]
        outcomes = []
        for chars in sets:
            for k in (1, 2, 3):
                res = detect_split(chars, k)
                outcomes.append([res.found, res.witness.to_strings() if res.found else None, res.nodes])
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == "40a094953b7e79188904171d330e2eb0171cc136c3d49a0f726b102e8a2e6bc5"


class TestDerivedCounts:
    def test_enumerated_signature_sizes(self):
        counts = {parts: odd_on_some_block_count(parts) for parts in ((1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1))}
        assert counts == {(1, 3): 28, (2, 2): 36, (1, 1, 2): 46, (1, 1, 1, 1): 55}
        # a hyperelliptic genus-3 factor has one vanishing even e; with it
        # vanish the 3 genus-4 evens that are even on the genus-1 block and
        # equal e on the genus-3 block, so 28 + 3 = 31
        assert _LABELS == {
            (True, False, counts[(1, 3)]): "X3",
            (True, False, 31): "X4",
            (False, True, counts[(2, 2)]): "X4",
            (True, True, counts[(1, 1, 2)]): "X5",
            (True, True, counts[(1, 1, 1, 1)]): "X6",
        }

    def test_signatures_match_numerics(self, block_13, block_22, block_112):
        assert len(vanishing_set(block_13)) == 28
        assert len(vanishing_set(block_22)) == 36
        assert len(vanishing_set(block_112)) == 46


class TestClassify:
    def test_generic_is_x0(self):
        for seed in (210, 211, 212):
            rep = classify(generic_siegel_point(4, seed))
            assert rep.label == "X0"
            assert rep.form_magnitudes["FT"] >= rep.threshold

    def test_four_elliptic_is_x6(self):
        rep = classify(validate_siegel(1j * np.eye(4)))
        assert rep.label == "X6"
        assert len(rep.vanishing) == 55
        found = {w.k: w.found for w in rep.splits}
        assert found == {1: True, 2: True}

    def test_one_three_is_x3(self, block_13):
        rep = classify(block_13)
        assert rep.label == "X3"
        assert len(rep.vanishing) == 28

    def test_two_two_is_x4(self, block_22):
        rep = classify(block_22)
        assert rep.label == "X4"
        found = {w.k: w.found for w in rep.splits}
        assert found == {1: False, 2: True}

    def test_one_one_two_is_x5(self, block_112):
        rep = classify(block_112)
        assert rep.label == "X5"
        found = {w.k: w.found for w in rep.splits}
        assert found == {1: True, 2: True}

    def test_conjugation_stability(self, block_22, block_13):
        from thetastrata.chars import CharTuple

        for point, label in ((block_22, "X4"), (block_13, "X3")):
            base = classify(point)
            gamma = random_symplectic(4, 3, 400)
            moved = classify(siegel_action(gamma, point))
            assert moved.label == base.label == label
            expected = set(act_on_tuple(gamma.mod_two(), CharTuple(4, base.vanishing)))
            assert set(moved.vanishing) == expected

    def test_monotone_chain(self, block_13, block_22, block_112):
        reports = [
            classify(generic_siegel_point(4, 220)),
            classify(validate_siegel(1j * np.eye(4))),
            classify(block_13),
            classify(block_22),
            classify(block_112),
        ]
        for rep in reports:
            if rep.label == "X0":
                assert rep.form_magnitudes["FT"] >= rep.threshold
            else:
                assert rep.form_magnitudes["FT"] < rep.threshold
            if rep.label in ("X3", "X4", "X5", "X6"):
                assert rep.form_magnitudes["THETANULL"] < rep.threshold
                assert rep.form_magnitudes["F1"] < rep.threshold
                assert len(rep.vanishing) >= 2

    def test_genus_guard(self):
        with pytest.raises(ValueError, match="genus 4"):
            classify(random_siegel_point(2, np.random.default_rng(0)))

    def test_one_decision_path(self, block_13, block_22, block_112):
        # a block-diagonal tau and its image under a word with C != 0 mod 2
        # are decided by the same rule with the same evidence
        gamma = random_symplectic(4, 6, 6003)
        assert any(any(row) for row in gamma.mod_two().c)
        for point in (block_13, block_22, block_112):
            base, moved = classify(point), classify(siegel_action(gamma, point))
            assert moved.label == base.label
            assert moved.notes == base.notes
            assert [(w.k, w.found) for w in moved.splits] == [(w.k, w.found) for w in base.splits]

    @pytest.mark.parametrize("parts", [(1, 3), (3, 1), (2, 2), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_block_oracle(self, parts, seed):
        rng = np.random.default_rng(900 + seed)
        point = None
        for size in parts:
            factor = random_siegel_point(size, rng)
            point = factor if point is None else block_diag(point, factor)
        expected = block_stratum_label(point.tau.tolist())
        assert expected is not None
        assert classify(point).label == expected

    def test_every_report_names_its_rule(self, block_13, block_22, block_112):
        points = [generic_siegel_point(4, seed) for seed in (210, 211)]
        points += [validate_siegel(1j * np.eye(4)), block_13, block_22, block_112]
        for point in points:
            rep = classify(point)
            assert len(rep.notes) == 1, (rep.label, rep.notes)
            if rep.label == "X0":
                assert rep.notes[0].startswith("Schottky form survives")

    def test_report_serializes(self, block_13):
        payload = classify(block_13).to_json()
        assert payload["label"] == "X3"
        assert len(payload["vanishing"]) == 28
        assert {w["k"] for w in payload["splits"]} == {1, 2}


class TestClassifyFromPattern:
    def test_x1_and_x2(self):
        assert classify_from_pattern(True).label == "X1"
        one = list(product_split_tuple(4, 1))[0]
        assert classify_from_pattern(True, [one]).label == "X2"

    def test_x0(self):
        assert classify_from_pattern(False).label == "X0"

    def test_hyp4_branch(self):
        evens = all_characteristics(4, "even")
        two = [evens[0], evens[1]]
        rep = classify_from_pattern(True, two)
        assert rep.label == "X3"
        assert not any(w.found for w in rep.splits)

    def test_product_branch_with_flags(self):
        # the elliptic x threefold branch is settled by the count: I_1's 28
        # for a non-hyperelliptic genus-3 factor, 31 for a hyperelliptic
        # one, whose one vanishing genus-3 even joins each genus-1 even
        conj = act_on_tuple(random_symplectic(4, 4, 99).mod_two(), product_split_tuple(4, 1))
        assert classify_from_pattern(True, list(conj)).label == "X3"
        hyp3 = all_characteristics(3, "even")[0]
        extra = [concat(e, hyp3) for e in all_characteristics(1, "even")]
        rep = classify_from_pattern(True, list(product_split_tuple(4, 1)) + extra)
        assert len(rep.vanishing) == 31
        assert rep.label == "X4"

    def test_full_split_pattern(self):
        members = [
            m for m in all_characteristics(4, "even")
            if any(e * d == 1 for e, d in zip(m.eps, m.delta))
        ]
        assert len(members) == 55
        assert classify_from_pattern(True, members).label == "X6"

    def test_inconsistent_flags(self):
        with pytest.raises(ValueError, match="odd"):
            classify_from_pattern(True, [Characteristic.from_string("1|1")] )

    def test_rejects_repeated_and_foreign_members(self):
        i1 = list(product_split_tuple(4, 1))
        with pytest.raises(ValueError, match="repeated"):
            classify_from_pattern(True, i1 + i1[:3])
        with pytest.raises(ValueError, match="repeated"):
            classify_from_pattern(True, [i1[0], i1[0]])
        with pytest.raises(ValueError, match="genus 4"):
            classify_from_pattern(True, list(product_split_tuple(3, 1)))

    def test_every_report_names_its_rule(self):
        evens = all_characteristics(4, "even")
        conj = list(act_on_tuple(random_symplectic(4, 4, 99).mod_two(), product_split_tuple(4, 1)))
        full = [m for m in evens if any(e * d for e, d in zip(m.eps, m.delta))]
        cases = {
            "X0": (False, ()),
            "X1": (True, ()),
            "X2": (True, evens[:1]),
            "hyperelliptic X3": (True, evens[:2]),
            "28-set": (True, conj),
            "55-set": (True, full),
            "30-set": (True, conj + [m for m in evens if m not in conj][:2]),
        }
        labels = {}
        for name, args in cases.items():
            rep = classify_from_pattern(*args)
            labels[name] = rep.label
            assert len(rep.notes) == 2, (name, rep.notes)
            assert rep.notes[0].startswith("synthetic pattern:")
            assert not rep.notes[1].startswith("synthetic pattern:")
        assert labels == {
            "X0": "X0", "X1": "X1", "X2": "X2", "hyperelliptic X3": "X3", "28-set": "X3",
            "55-set": "X6", "30-set": "UNRESOLVED",
        }

    def test_agrees_with_classify(self, block_13, block_22, block_112):
        for point in (block_13, block_22, block_112, validate_siegel(1j * np.eye(4))):
            rep = classify(point)
            pattern = classify_from_pattern(True, rep.vanishing)
            assert pattern.label == rep.label
            assert [(w.k, w.found) for w in pattern.splits] == [(w.k, w.found) for w in rep.splits]
            assert pattern.notes[1:] == rep.notes


# The perfbench plans of the generic, strata and split22 workloads, rebuilt
# from the same generators: kind -> (block sizes or None for a generic
# point, [(seed of the Sp(8,Z) word, radius of the image)]).  A source has
# radius 5 and is redrawn until every image lands on its radius.
PLAN_FAMILIES = {
    "strata": [((1, 1, 2), [(6018, 5), (6003, 6), (6038, 7), (6075, 8)]),
               ((1, 1, 1, 1), [(6024, 5), (6038, 6), (6023, 7), (6075, 8)]),
               ((1, 3), [(6024, 5), (6011, 6), (6023, 7), (6065, 8)]),
               (None, [(6018, 5), (6054, 6), (6057, 7), (6065, 8)])],
    "split22": [((2, 2), [(6018, 5), (6039, 5)])],
}


def _plan_points(workload, seed):
    rng = np.random.default_rng([seed, ("generic", "strata", "split22").index(workload)])
    radius = lambda p: truncation_radius(p, 1e-12)  # noqa: E731  # perfbench's TARGET
    if workload == "generic":
        points = []
        while len(points) < 20:
            point = generic_siegel_point(4, rng)
            if radius(point) == 5:
                points.append(point)
        return points
    points = []
    for parts, slots in PLAN_FAMILIES[workload]:
        words = [random_symplectic(4, 6, s) for s, _ in slots]
        while True:
            if parts is None:
                source = generic_siegel_point(4, rng)
            else:
                source = None
                for size in parts:
                    factor = random_siegel_point(size, rng)
                    source = factor if source is None else block_diag(source, factor)
            if radius(source) != 5:
                continue
            images = []
            for gamma, (_, r) in zip(words, slots):
                try:
                    image = siegel_action(gamma, source)
                except ValueError:
                    break
                if radius(image) != r:
                    break
                images.append(image)
            else:
                break
        points += [source, *images]
    return points


def _cusp_points():
    """tau_t = Re tau + i t Im tau for three generic tau: every one is
    generic, and from t = 3 on F_T is below the threshold."""
    return [validate_siegel(base.tau.real + 1j * t * base.tau.imag)
            for base in (generic_siegel_point(4, s) for s in (200, 201, 202)) for t in (1, 2, 3, 4, 6, 8)]


def _full_path(point, threshold, reduced=False):
    """classify's report by the direct route: one _even_constants pass to
    THETA_TARGET at tau, the forms, the vanishing set and _decide, with
    the constants it used.  With reduced, the pass runs at the
    siegel_reduction gamma o tau and reads the constant of m from slot
    gamma . m."""
    if reduced:
        gamma, at, _ = siegel_reduction(point)
        values, truncation, _, _ = _even_constants(at, THETA_TARGET)
        values = values[_even_slots(gamma)]
    else:
        values, truncation, _, _ = _even_constants(point, THETA_TARGET)
    mags = {fid: fv.relative_magnitude for fid, fv in _forms(values, 4).items()}
    vrep = _vanishing(all_characteristics(4, "even"), values, np.full(len(values), truncation), threshold)
    warnings = ()
    if vrep.warning:
        warnings = (f"ill-separated vanishing spectrum: margin {vrep.margin:.3g} < {MARGIN_FLOOR}",)
    notes = []
    label, splits = _decide(mags["FT"] >= threshold, vrep.members, notes)
    report = StratumReport(label, mags, vrep.members, splits, threshold, THETA_TARGET, vrep.margin,
                           warnings, tuple(notes))
    return report, values


def _decision(report):
    return (report.label, report.vanishing, report.splits, report.warnings, report.notes)


@pytest.fixture(scope="module")
def decision_points(block_13, block_22, block_112):
    points = [p for w in ("generic", "strata", "split22") for seed in (1, 2, 3) for p in _plan_points(w, seed)]
    points += [generic_siegel_point(4, s) for s in (200, 201, 210, 211, 212, 220)]
    points += [validate_siegel(1j * np.eye(4)), block_13, block_22, block_112]
    return points + _cusp_points()


@pytest.fixture(scope="module")
def evidence_points(decision_points):
    """The decision points and the 20 L = 30 images."""
    return decision_points + [image for _, image in _long_words()]


class TestCoarseDecision:
    """classify's one pass over the squares at 2 tau against the direct
    route, which sums every constant at tau.  (The class name is kept so
    the ids of its tests stay the same.)"""

    def test_plan_points_rebuilt(self):
        # the rebuilt plans have the perfbench sizes and radius slots
        assert [len(_plan_points(w, 1)) for w in ("generic", "strata", "split22")] == [20, 20, 3]
        radii = [truncation_radius(p, 1e-12) for p in _plan_points("strata", 2)]
        assert radii == [5, 5, 6, 7, 8] * 4

    def test_same_decisions_as_the_full_path(self, evidence_points):
        # at the default threshold, the whole scale and just above the
        # smallest constant the default keeps; an image whose direct walk
        # at tau passes the radius cap is compared at its reduced point,
        # with the constants moved back to their slots
        for point in evidence_points:
            reduced = False
            try:
                truncation_radius(point, THETA_TARGET)
            except CapExceededError:
                reduced = True
            values = _full_path(point, 1e-6, reduced)[1]
            mags = np.abs(values) / np.abs(values).max()
            above = mags[mags >= 1e-6].min()  # the smallest constant the default threshold keeps
            for threshold in (1e-6, 1.0, min(1.0, above * 1.05)):
                ref = _full_path(point, threshold, reduced)[0]
                rep = classify(point, threshold)
                assert _decision(rep) == _decision(ref), (threshold, rep.label, ref.label)
                assert rep.theta_target == THETA_TARGET

    def test_cusp_labels_unchanged(self):
        # the known wrong cusp labels (X1 from t = 2 or 3, X3 at t = 8) are
        # the direct route's too
        labels = [classify(p).label for p in _cusp_points()]
        assert labels[0] == labels[6] == labels[12] == "X0"
        assert labels == [_full_path(p, 1e-6)[0].label for p in _cusp_points()]

    def test_report_names_its_target(self, block_13):
        generic = classify(generic_siegel_point(4, 1)).to_json()
        assert generic["theta_target"] == THETA_TARGET == 1e-14
        assert classify(block_13).to_json()["theta_target"] == THETA_TARGET
        assert classify_from_pattern(True).to_json()["theta_target"] is None

    def test_squares_match_the_direct_route(self, evidence_points):
        # |theta^2 - theta_direct^2| <= bound + 2 |theta_direct| b + b^2,
        # b the direct route's truncation plus rounding bound, at the
        # point each route sums
        for point in evidence_points:
            point = _representative(point)[1]
            squares, bounds = _even_squares(point, THETA_TARGET)
            values, truncation, rounding, _ = _even_constants(point, THETA_TARGET)
            b = truncation + rounding
            assert (np.abs(squares - values**2) <= bounds + 2 * np.abs(values) * b + b * b).all()
            assert bounds.max() < 1e-12 * np.abs(squares).max()
            # where F_T survives, the forms agree to 1e-8 relative (at most
            # 2e-10 on these points, F_T losing digits to its cancellation)
            mags, direct = _forms(np.sqrt(squares), 4), _forms(values, 4)
            if direct["FT"].relative_magnitude >= 1e-6:
                for fid, fv in direct.items():
                    assert mags[fid].relative_magnitude == pytest.approx(fv.relative_magnitude, rel=1e-8), fid


def _long_words():
    """The images of generic_siegel_point(4, 200) under the words of length
    30 at seeds 9000-9019, with their words."""
    base = generic_siegel_point(4, 200)
    words = [random_symplectic(4, 30, 9000 + s) for s in range(20)]
    return [(word, siegel_action(word, base)) for word in words]


@pytest.fixture(scope="module")
def reductions(evidence_points):
    return [(point, siegel_reduction(point)) for point in evidence_points]


def _blocks(gamma):
    return gamma.a, gamma.b, gamma.c, gamma.d


def _exact_image(gamma, point):
    """(gamma o tau, det(C tau + D)), with gamma o tau = (A tau + B)(C tau + D)^{-1},
    in 40-digit arithmetic."""
    with mp.workdps(40):
        tau = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in point.tau])
        a, b, c, d = (mp.matrix([[int(x) for x in row] for row in m]) for m in _blocks(gamma))
        return (a * tau + b) * mp.inverse(c * tau + d), mp.det(c * tau + d)


class TestSiegelReduction:
    def test_gamma_is_an_exact_symplectic_matrix(self, reductions):
        for _, r in reductions:
            assert all(type(x) is int for x in r.gamma.matrix.flat)
            assert is_symplectic(_blocks(r.gamma))

    def test_reduced_conditions(self, reductions):
        moved = 0
        for point, r in reductions:
            tau = r.point.tau
            assert np.abs(tau.real).max() <= 0.5 and abs(tau[0, 0]) >= 1
            assert lll_reduced(tau.imag.tolist())
            with mp.workdps(40):
                dets = [mp.det(mp.matrix(p.tau.imag.tolist())) for p in (point, r.point)]
            assert dets[1] >= dets[0] * (1 - 1e-12)
            moved += r.point is not point
        assert moved > len(reductions) // 2

    def test_point_is_the_image_within_the_drift(self, reductions):
        for point, r in reductions:
            if r.point is point:
                assert r.drift == 0 and r.gamma == SymplecticInteger.identity(4)
                continue
            image, _ = _exact_image(r.gamma, point)
            with mp.workdps(40):
                gap = mp.mnorm(image - mp.matrix([[mp.mpc(complex(x)) for x in row] for row in r.point.tau]), "f")
            assert 0 < r.drift < 1e-9 and gap <= r.drift

    def test_already_reduced_points_come_back_unchanged(self):
        # i 1_4 and the cusp points from t = 2 on: classify sums at tau itself
        points = [validate_siegel(1j * np.eye(4))] + [p for i, p in enumerate(_cusp_points()) if i % 6]
        for point in points:
            r = siegel_reduction(point)
            assert r.point is point and r.drift == 0.0 and r.gamma == SymplecticInteger.identity(4)

    def test_slots_are_the_affine_action(self, reductions):
        evens = all_characteristics(4, "even")
        for _, r in reductions[::7]:
            slots = _even_slots(r.gamma)
            reduced = r.gamma.mod_two()
            blocks = _blocks(reduced)
            for m, slot in zip(evens, slots):
                assert evens[slot] == affine_action(reduced, m)
                assert (evens[slot].eps, evens[slot].delta) == affine_image(blocks, m.eps, m.delta)

    def test_constants_move_with_the_modular_factor(self):
        # |theta_m(tau)|^8 = |det(C tau + D)|^-4 |theta_{gamma.m}(gamma o tau)|^8,
        # both sides by the plain box sum of tests/oracles.py
        points = _plan_points("strata", 1)
        evens = all_characteristics(4, "even")
        rng = np.random.default_rng(5)
        for point in (points[0], points[2], points[7], points[12]):
            r = siegel_reduction(point)
            assert r.point is not point
            _, det = _exact_image(r.gamma, point)
            slots = _even_slots(r.gamma)
            for i in rng.choice(len(evens), size=2, replace=False):
                at_tau = direct_theta_constant(evens[i], point, truncation_radius(point, 1e-14))
                at_image = direct_theta_constant(evens[slots[i]], r.point, truncation_radius(r.point, 1e-14))
                lhs, rhs = abs(at_tau) ** 8, float(abs(det)) ** -4 * abs(at_image) ** 8
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_rounding_bound_covers_the_drift(self):
        # the moduli at tau_r and at a point a distance delta away differ
        # by no more than the two kernels' bounds on them plus the drift
        # bound for delta; without the drift bound the sum is too small
        r = siegel_reduction(_plan_points("strata", 1)[4])
        rng = np.random.default_rng(11)
        step = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        step = (step + step.T) / 2
        delta = 1e-5
        moved = validate_siegel(r.point.tau + delta * step / np.linalg.norm(step, 2))
        here, bounds = _even_squares(r.point, THETA_TARGET)
        there, bounds2 = _even_squares(moved, THETA_TARGET)
        gap = np.abs(np.sqrt(np.abs(here)) - np.sqrt(np.abs(there)))
        plain = np.sqrt(bounds) + np.sqrt(bounds2)
        assert (gap <= plain + _drift_bound(r.point, delta)).all()
        assert (gap > plain).any()
        assert _drift_bound(r.point, 0.0) == 0.0


def test_classify_json_pinned(evidence_points):
    # every byte of classify's reports on the decision points and the
    # long-word images, as the squares at 2 tau gave them
    h = hashlib.sha256()
    for point in evidence_points:
        h.update(json.dumps(classify(point).to_json(), sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == "7a6d840ca9606ed94d8e065a429f6a3db96ccae0ec3dffd2258532aa2c4c83e7"


class TestLongWords:
    def test_long_word_images_are_x0(self):
        assert [classify(image).label for _, image in _long_words()] == ["X0"] * 20

    def test_the_cap_word_needs_the_reduction(self):
        # at seed 9006 the image's lambda_min asks for a box radius past the cap
        _, image = _long_words()[6]
        with pytest.raises(CapExceededError):
            truncation_radius(image, THETA_TARGET)
        assert truncation_radius(siegel_reduction(image).point, THETA_TARGET) <= 8

    def test_images_decide_as_their_sources(self):
        # label and split outcomes match the source's; the vanishing set
        # moves by the word mod 2; both margins are well separated (the two
        # reduce to different representatives, so the margins' error floors
        # differ)
        for seed in (1, 2, 3):
            points = _plan_points("strata", seed)
            for family, (_, slots) in enumerate(PLAN_FAMILIES["strata"]):
                source = classify(points[5 * family])
                for (word_seed, _), image in zip(slots, points[5 * family + 1:5 * family + 5]):
                    rep = classify(image)
                    word = random_symplectic(4, 6, word_seed)
                    assert rep.label == source.label and rep.theta_target == source.theta_target
                    assert [w.found for w in rep.splits] == [w.found for w in source.splits]
                    assert set(rep.vanishing) == set(act_on_tuple(word, CharTuple(4, source.vanishing))) \
                        if source.vanishing else rep.vanishing == ()
                    assert min(rep.margin, source.margin) >= MARGIN_FLOOR


class TestRepresentative:
    def test_small_walks_are_summed_at_tau(self):
        # every generic and split22 plan point: classify's route is the
        # one without the reduction
        for workload in ("generic", "split22"):
            for point in _plan_points(workload, 1):
                assert _walk(point) <= REDUCE_WALK
                assert _representative(point) == (None, point, 0.0)

    def test_large_walks_are_summed_at_the_reduced_point(self):
        points = [p for p in _plan_points("strata", 1) + [image for _, image in _long_words()]
                  if _walk(p) > REDUCE_WALK]
        assert len(points) >= 20
        for point in points:
            gamma, reduced, drift = _representative(point)
            assert reduced is not point and _walk(reduced) < _walk(point) / 2

    def test_walk_estimates_the_points_visited(self):
        # the volume estimate against the points the walk actually visits
        theta = importlib.import_module("thetastrata.theta")
        for point in _plan_points("strata", 2):
            visited = 0
            doubled = _doubled(point)
            radius, _, bound = theta._truncation(doubled, THETA_TARGET)
            for chunk in theta._ellipsoid(point.tau[None] / 2, np.array([bound]), np.array([2 * radius + 1]),
                                          np.zeros((1, 4)), np.zeros((1, 4)), half=True):
                visited += len(chunk[1])
            assert 0.8 < _walk(point) / visited < 1.25
