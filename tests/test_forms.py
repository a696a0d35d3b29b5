import math

import mpmath as mp
import numpy as np
import pytest

from thetastrata.chars import Characteristic, all_characteristics, even_count
from thetastrata.forms import FORM_IDS, _forms, evaluate_forms, form_weight, transformation_residual
from thetastrata.symplectic import (
    SymplecticInteger,
    affine_action,
    random_symplectic,
    standard_generators,
)
from thetastrata.theta import (
    block_diag,
    even_theta_constants,
    generic_siegel_point,
    random_siegel_point,
    siegel_action,
    theta_constant,
    validate_siegel,
)


def four_elliptic_block(seed):
    rng = np.random.default_rng(seed)
    point = random_siegel_point(1, rng)
    for _ in range(3):
        point = block_diag(point, random_siegel_point(1, rng))
    return point


class TestSchottky:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_identically_zero_through_genus_three(self, g):
        rng = np.random.default_rng(g)
        for _ in range(5):
            fv = evaluate_forms(random_siegel_point(g, rng))["FT"]
            assert fv.relative_magnitude < 1e-10

    def test_jacobi_quartic_identity_underlies_genus_one(self):
        # the genus-1 vanishing is theta3^4 = theta2^4 + theta4^4
        mp.mp.dps = 25
        q = mp.exp(-mp.pi)
        t2, t3, t4 = mp.jtheta(2, 0, q), mp.jtheta(3, 0, q), mp.jtheta(4, 0, q)
        assert abs(t3**4 - t2**4 - t4**4) < 1e-20

    def test_vanishes_at_four_elliptic_points(self):
        assert evaluate_forms(validate_siegel(1j * np.eye(4)))["FT"].relative_magnitude < 1e-8
        for seed in range(3):
            assert evaluate_forms(four_elliptic_block(seed))["FT"].relative_magnitude < 1e-8

    def test_survives_at_generic_points(self):
        for seed in range(6):
            fv = evaluate_forms(generic_siegel_point(4, seed))["FT"]
            assert fv.relative_magnitude > 1e-4

    def test_normalizer_formula(self):
        p = random_siegel_point(2, np.random.default_rng(5))
        consts = even_theta_constants(p, 1e-10)
        mags = np.abs([tv.value for tv in consts.values()])
        expected = (mags**16).sum() + (mags**8).sum() ** 2
        fv = evaluate_forms(p)["FT"]
        assert fv.normalizer == pytest.approx(expected, rel=1e-12)

    def test_genus_cap(self):
        with pytest.raises(ValueError, match="genus"):
            evaluate_forms(validate_siegel(1j * np.eye(7)))["FT"]


class TestThetaNull:
    def test_vanishes_on_split(self):
        fv = evaluate_forms(validate_siegel(np.diag([1j, 1j])))["THETANULL"]
        assert fv.relative_magnitude < 1e-8

    @pytest.mark.parametrize("g,k", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    def test_vanishes_on_every_block_split(self, g, k):
        rng = np.random.default_rng(10 * g + k)
        blk = block_diag(random_siegel_point(k, rng), random_siegel_point(g - k, rng))
        assert evaluate_forms(blk)["THETANULL"].relative_magnitude < 1e-8

    def test_genus_one_value_against_factors(self):
        p = validate_siegel([[1j]])
        fv = evaluate_forms(p)["THETANULL"]
        prod = 1.0
        for m in all_characteristics(1, "even"):
            prod *= theta_constant(m, p, 1e-12).value
        assert abs(fv.value - prod) < 1e-12
        assert abs(fv.value) > 0.5

    def test_normalizer_is_rms_power(self):
        p = random_siegel_point(2, np.random.default_rng(6))
        consts = even_theta_constants(p, 1e-10)
        mags = np.abs([tv.value for tv in consts.values()])
        expected = float((mags**2).mean()) ** (len(mags) / 2)
        fv = evaluate_forms(p)["THETANULL"]
        assert fv.normalizer == pytest.approx(expected, rel=1e-12)

    def test_generic_genus_four_nonzero_and_separated(self):
        # The geometric-mean normalizer makes the relative magnitude of a
        # product of 136 dispersed factors tiny even when genuinely
        # nonzero, so "nonzero" is asserted through the log magnitude and
        # through separation from points with true vanishing constants.
        generic = evaluate_forms(generic_siegel_point(4, 8))["THETANULL"]
        assert math.isfinite(generic.log_abs)
        assert generic.relative_magnitude > 0
        vanishing = evaluate_forms(four_elliptic_block(4))["THETANULL"]
        assert vanishing.relative_magnitude < 1e-30 * generic.relative_magnitude


class TestF1:
    def test_single_vanishing_constant_survives(self):
        fv = evaluate_forms(validate_siegel(np.diag([1j, 1j])))["F1"]
        assert fv.relative_magnitude > 1e-6

    def test_dies_on_one_three_split(self):
        rng = np.random.default_rng(9)
        blk = block_diag(validate_siegel([[1j]]), random_siegel_point(3, rng))
        assert evaluate_forms(blk)["F1"].relative_magnitude < 1e-8

    def test_matches_division_formula_where_safe(self):
        for g, seed in ((1, 1), (2, 2), (3, 3)):
            p = random_siegel_point(g, np.random.default_rng(seed))
            consts = even_theta_constants(p, 1e-12)
            vals = np.array([tv.value for tv in consts.values()])
            rel_mags = np.abs(vals) / np.abs(vals).max()
            assert rel_mags.min() > 1e-3  # division formula is safe here
            s = math.sqrt(float((np.abs(vals) ** 2).mean()))
            t8 = (vals / s) ** 8
            division = (np.prod(t8) / t8).sum()
            fv = evaluate_forms(p)["F1"]
            ours = fv.relative_magnitude * len(vals)
            assert abs(division) == pytest.approx(ours, rel=1e-8)

    def test_each_term_nonzero_where_no_constant_vanishes(self):
        p = random_siegel_point(2, np.random.default_rng(10))
        consts = even_theta_constants(p, 1e-12)
        vals = np.array([tv.value for tv in consts.values()])
        t8 = (vals / np.sqrt((np.abs(vals) ** 2).mean())) ** 8
        terms = np.prod(t8) / t8
        assert np.all(np.abs(terms) > 0)


def _field_points():
    rng = np.random.default_rng(12)
    points = [generic_siegel_point(4, seed) for seed in (0, 1)]
    points.append(block_diag(validate_siegel([[1j]]), random_siegel_point(3, rng)))
    points += [random_siegel_point(g, rng) for g in (1, 2, 3)]
    return points


class TestFieldRelations:
    @pytest.mark.parametrize("point", _field_points(), ids=["g4-0", "g4-1", "1+3", "g1", "g2", "g3"])
    def test_raw_fields_are_exponentials_of_the_logs(self, point):
        for fid, fv in evaluate_forms(point).items():
            assert fv.form_id == fid
            assert math.isfinite(fv.log_normalizer)
            assert fv.relative_magnitude == pytest.approx(
                math.exp(fv.log_abs - fv.log_normalizer), rel=1e-12, abs=0
            )
            if abs(fv.log_abs) < 700:
                assert abs(fv.value) == pytest.approx(math.exp(fv.log_abs), rel=1e-12)
            if abs(fv.log_normalizer) < 700:
                assert fv.normalizer == pytest.approx(math.exp(fv.log_normalizer), rel=1e-12)

    def test_normalizer_past_double_range_is_inf(self):
        # F1 has degree 1080 at genus 4 and s > e at 0.3i * 1_4, so the
        # normalizer e^{log_normalizer} ~ e^1473 leaves double range
        fv = evaluate_forms(validate_siegel(0.3j * np.eye(4)))["F1"]
        assert fv.normalizer == math.inf
        assert math.isfinite(fv.log_normalizer) and fv.log_normalizer > 1000

    def test_precomputed_constants_give_the_same_forms(self):
        # the kernel's array gives the forms that even_theta_constants' dict gives
        for point in _field_points():
            for target in (1e-10, 1e-12):
                constants = even_theta_constants(point, target)
                from_dict = _forms(np.array([tv.value for tv in constants.values()]), point.genus)
                assert evaluate_forms(point, target) == from_dict


class TestWeights:
    def test_weights_from_factor_counts(self):
        assert form_weight("FT", 4) == 8
        assert form_weight("THETANULL", 4) == even_count(4) // 2 == 68
        assert form_weight("F1", 4) == 8 * (even_count(4) - 1) // 2 == 540

    @pytest.mark.parametrize("g", [2, 3])
    def test_weights_at_lower_genus(self, g):
        # |E| = 2^{g-1} (2^g + 1) even characteristics: 10 at g = 2, 36 at g = 3
        evens = 2 ** (g - 1) * (2**g + 1)
        assert {fid: form_weight(fid, g) for fid in FORM_IDS} == {
            "FT": 8,
            "THETANULL": evens // 2,
            "F1": 4 * (evens - 1),
        }

    def test_odd_degree_has_no_weight(self):
        # Theta_null at genus 1 is a product of three constants: weight 3/2
        with pytest.raises(ValueError, match="odd"):
            form_weight("THETANULL", 1)
        assert form_weight("F1", 1) == 8

    @pytest.mark.parametrize("fid", ["FT", "THETANULL", "F1"])
    def test_modular_invariance_with_correct_weight(self, fid):
        # |F(gamma o tau)| = |det(C tau + D)|^w |F(tau)|, checked in logs
        w4 = form_weight(fid, 4)
        for seed in (1, 2, 3):
            gamma = random_symplectic(4, 3, seed)
            p = generic_siegel_point(4, 100 + seed)
            c = np.array(gamma.c, dtype=complex)
            d = np.array(gamma.d, dtype=complex)
            logdet = float(np.linalg.slogdet(c @ p.tau + d)[1])
            before = evaluate_forms(p, 1e-12)[fid]
            after = evaluate_forms(siegel_action(gamma, p), 1e-12)[fid]
            delta = after.log_abs - w4 * logdet - before.log_abs
            assert abs(math.expm1(delta)) < 1e-7


def _action_with_printed_shift(gamma, m):
    """The affine map as literally printed: matrix [[D, C], [B, A]] with the
    shift [diag(A B^T); diag(C D^T)] (eps and delta shifts swapped relative
    to the calibrated convention)."""
    r = gamma.mod_two()
    g = m.genus
    eps = tuple(
        (sum(r.d[i][j] * m.eps[j] + r.c[i][j] * m.delta[j] for j in range(g))
         + sum(r.a[i][j] * r.b[i][j] for j in range(g))) % 2
        for i in range(g)
    )
    delta = tuple(
        (sum(r.b[i][j] * m.eps[j] + r.a[i][j] * m.delta[j] for j in range(g))
         + sum(r.c[i][j] * r.d[i][j] for j in range(g))) % 2
        for i in range(g)
    )
    return Characteristic(g, eps, delta)


def _residual_with_label(gamma, moved_label, tau_label, point, target=1e-12):
    """|theta_{moved}(0, gamma o tau)^8 - det^4 theta_{tau_label}(0, tau)^8|, relative."""
    moved_point = siegel_action(gamma, point)
    lhs = theta_constant(moved_label, moved_point, target).value ** 8
    c = np.array(gamma.c, dtype=complex)
    d = np.array(gamma.d, dtype=complex)
    det = complex(np.linalg.det(c @ point.tau + d))
    rhs = det**4 * theta_constant(tau_label, point, target).value ** 8
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-12)


class TestTransformationResidual:
    def test_identity(self):
        p = random_siegel_point(2, np.random.default_rng(11))
        m = all_characteristics(2, "even")[3]
        assert transformation_residual(SymplecticInteger.identity(2), m, p) < 1e-12

    def test_genus_one_translation_at_i(self):
        _, tr = standard_generators(1)
        p = validate_siegel([[1j]])
        assert transformation_residual(tr, Characteristic.from_string("0|0"), p, 1e-12) < 1e-9

    @pytest.mark.parametrize("g", [1, 2])
    def test_generators_pass_calibration(self, g):
        p = validate_siegel(1j * np.eye(g))
        worst = max(
            transformation_residual(gamma, m, p, 1e-12)
            for gamma in standard_generators(g)
            for m in all_characteristics(g, "even")
        )
        assert worst < 1e-9

    def test_printed_shift_convention_rejected(self):
        # the shift [diag(AB^T); diag(CD^T)] violates the transformation
        # law already for the genus-1 translation
        _, tr = standard_generators(1)
        p = validate_siegel([[1j]])
        m = Characteristic.from_string("0|0")
        wrong = _residual_with_label(tr, _action_with_printed_shift(tr, m), m, p)
        good = _residual_with_label(tr, affine_action(tr.mod_two(), m), m, p)
        assert wrong > 1e-2
        assert good < 1e-9

    def test_label_orientation_calibrated_on_words(self):
        # generators are congruent to their inverses mod 2, so only a
        # composite word can distinguish which side the moved label lives
        # on; gamma = T S forces the transported-label orientation
        inv, tr = standard_generators(1)
        word = tr @ inv
        p = validate_siegel([[0.3 + 1.1j]])
        m = Characteristic.from_string("0|0")
        moved = affine_action(word.mod_two(), m)
        transported = _residual_with_label(word, moved, m, p)
        static = _residual_with_label(word, m, moved, p)
        assert transported < 1e-9
        assert static > 1e-2
        assert transformation_residual(word, m, p, 1e-12) < 1e-9

    @pytest.mark.parametrize("g", [2, 3])
    def test_seeded_random_words(self, g):
        rng = np.random.default_rng(g * 17)
        evens = all_characteristics(g, "even")
        for _ in range(10):
            gamma = random_symplectic(g, int(rng.integers(1, 7)), int(rng.integers(0, 2**31)))
            m = evens[int(rng.integers(0, len(evens)))]
            p = random_siegel_point(g, rng)
            assert transformation_residual(gamma, m, p, 1e-10) < 1e-8

    def test_genus_mismatch(self):
        p = validate_siegel([[1j]])
        with pytest.raises(ValueError, match="genus"):
            transformation_residual(
                SymplecticInteger.identity(2), Characteristic.from_string("0|0"), p
            )
