import itertools
import json
import math

import mpmath as mp
import numpy as np
import pytest

import thetastrata.theta as theta_module
from thetastrata.chars import Characteristic, all_characteristics, concat, product_split_tuple, split
from thetastrata.errors import CapExceededError
from thetastrata.symplectic import SymplecticInteger, random_symplectic, standard_generators
from thetastrata.theta import (
    _ellipsoid,
    _even_constants,
    _even_squares,
    block_diag,
    even_theta_constants,
    generic_siegel_point,
    point_from_json,
    point_to_json,
    random_siegel_point,
    siegel_action,
    theta_constant,
    theta_function,
    theta_functions,
    truncation_radius,
    truncation_tail_bound,
    validate_siegel,
)

from oracles import direct_theta_constant, direct_theta_sum, min_eig_2x2, shell_tail_bound

# classical genus-1 value theta_{[0|0]}(0, i) = pi^{1/4} / Gamma(3/4)
THETA00_AT_I = 1.0864348112133080
# direct-summation oracle value for theta_{[0|0]}(0, 2i) = sum exp(-2 pi n^2)
THETA00_AT_2I = 1.0037348854877391


class TestValidateSiegel:
    def test_identity_genus_four(self):
        p = validate_siegel(1j * np.eye(4))
        assert p.genus == 4
        assert p.lambda_min == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        p = validate_siegel(np.diag([1j, 2j]))
        assert p.lambda_min == pytest.approx(1.0, abs=1e-12)

    def test_coupled_imaginary_part(self):
        p = validate_siegel(1j * np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert p.lambda_min == pytest.approx(min_eig_2x2(2, 1, 2), abs=1e-10)
        assert p.lambda_min == pytest.approx(1.0, abs=1e-10)

    def test_rejects_asymmetric(self):
        bad = np.array([[1j, 0.5], [0.1, 1j]])
        with pytest.raises(ValueError, match="not symmetric"):
            validate_siegel(bad)

    def test_rejects_indefinite_and_reports(self):
        with pytest.raises(ValueError, match="lambda_min"):
            validate_siegel(np.diag([1j, -1j]))
        with pytest.raises(ValueError, match="lambda_min"):
            validate_siegel(1j * np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("entry", [[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0],
                                       [0.0, math.nan], [0.0, math.inf], [0.0, -math.inf]])
    def test_rejects_non_finite_entries(self, entry):
        # json reads Infinity and NaN, so a point file can hold them:
        # i 1_4 with tau_33 replaced
        obj = point_to_json(validate_siegel(1j * np.eye(4)))
        obj["tau"][3][3] = entry
        with pytest.raises(ValueError, match="non-finite"):
            point_from_json(json.loads(json.dumps(obj)))

    def test_symmetrizes_small_noise(self):
        m = 1j * np.eye(2)
        m[0, 1] += 1e-14
        p = validate_siegel(m)
        assert np.array_equal(p.tau, p.tau.T)


class TestEigen:
    def test_lambda_min_is_a_tight_lower_bound(self):
        # oracle: the smallest eigenvalue of the certified Im tau from
        # mpmath at 50 digits
        rng = np.random.default_rng(0)
        with mp.workdps(50):
            for g in range(1, 9):
                for _ in range(10):
                    w = rng.normal(size=(g, g))
                    p = validate_siegel(1j * (w @ w.T + 0.01 * np.eye(g)))
                    true = min(mp.eigsy(mp.matrix(p.tau.imag.tolist()))[0])
                    assert p.lambda_min <= true
                    assert (true - p.lambda_min) / true <= 1e-12


class TestTruncation:
    def test_radius_example(self):
        p = validate_siegel([[1j]])
        # shell-bound oracle: R=3 leaves ~6e-9, R=4 leaves ~4e-17
        assert shell_tail_bound(1, 1.0, 3) > 1e-12 > shell_tail_bound(1, 1.0, 4)
        assert truncation_radius(p, 1e-12) == 4

    def test_bound_matches_oracle(self):
        for g, lam, radius in [(1, 1.0, 4), (2, 0.5, 6), (4, 0.3, 9)]:
            ours = truncation_tail_bound(g, lam, radius)
            ref = shell_tail_bound(g, lam, radius)
            assert ours == pytest.approx(ref, rel=1e-9, abs=1e-320)
            assert ours >= ref  # reported bound stays an upper bound

    def test_doubling_im_never_increases_radius(self):
        for target in (1e-6, 1e-10, 1e-14):
            for scale in (0.3, 0.7, 1.3):
                p1 = validate_siegel(scale * 1j * np.eye(2))
                p2 = validate_siegel(2 * scale * 1j * np.eye(2))
                assert truncation_radius(p2, target) <= truncation_radius(p1, target)

    def test_cap_exceeded(self):
        p = validate_siegel([[1e-6j]])
        with pytest.raises(CapExceededError, match="cap"):
            truncation_radius(p, 1e-300)

    def test_tail_bound_that_needs_too_many_shells_raises(self):
        # at lambda_min 1e-10 the shells of a genus-4 box from radius 1 are
        # still growing 100000 shells out: their partial sum, 2.66e20, is
        # below what the shells up to 2,000,000 already add up to
        with pytest.raises(CapExceededError, match="still growing"):
            truncation_tail_bound(4, 1e-10, 1)

    @pytest.mark.parametrize("target", [math.nan, 0.0, -1e-10, math.inf])
    def test_target_must_be_positive(self, target):
        with pytest.raises(ValueError, match="target must be positive"):
            truncation_radius(validate_siegel(1j * np.eye(2)), target)

    def test_monotone_in_radius(self):
        vals = [truncation_tail_bound(3, 0.4, r) for r in range(1, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestThetaValues:
    def test_classical_value_at_i(self):
        p = validate_siegel([[1j]])
        tv = theta_constant(Characteristic.from_string("0|0"), p, 1e-12)
        assert tv.tail_bound < 1e-12
        assert abs(tv.value - THETA00_AT_I) < 1e-13
        mp.mp.dps = 25
        ref = float(mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4))
        assert abs(tv.value - ref) < 1e-13

    def test_value_at_2i_against_oracles(self):
        p = validate_siegel([[2j]])
        tv = theta_constant(Characteristic.from_string("0|0"), p, 1e-12)
        assert abs(tv.value - THETA00_AT_2I) < 1e-12
        mp.mp.dps = 25
        ref = float(mp.jtheta(3, 0, mp.exp(-2 * mp.pi)))
        assert abs(tv.value - ref) < 1e-13

    def test_odd_constants_vanish(self):
        p = validate_siegel([[1j]])
        tv = theta_constant(Characteristic.from_string("1|1"), p, 1e-8)
        assert abs(tv.value) <= 10 * tv.tail_bound
        p2 = validate_siegel(np.diag([1j, 1j]))
        tv2 = theta_constant(Characteristic.from_string("11|11"), p2, 1e-8)
        assert abs(tv2.value) <= 10 * tv2.tail_bound

    def test_even_function_of_z(self):
        p = random_siegel_point(2, np.random.default_rng(3))
        z = np.array([0.21 + 0.11j, -0.4 + 0.05j])
        for m in all_characteristics(2, "even")[:4]:
            plus = theta_function(m, z, p, 1e-12)
            minus = theta_function(m, -z, p, 1e-12)
            assert abs(plus.value - minus.value) <= 2 * plus.tail_bound + 1e-13

    def test_oracle_accuracy_random_points(self):
        # theta at target 1e-10 vs the radius-(R+8) plain summation oracle
        rng = np.random.default_rng(7)
        count = 0
        for g in (1, 2, 3):
            evens = all_characteristics(g, "even")
            for _ in range(6):
                p = random_siegel_point(g, rng)
                m = evens[int(rng.integers(0, len(evens)))]
                tv = theta_constant(m, p, 1e-10)
                ref = direct_theta_constant(m, p, tv.radius + 8)
                assert abs(tv.value - ref) < 1e-9
                count += 1
        assert count == 18

    def test_tail_bound_honesty(self):
        rng = np.random.default_rng(9)
        for g in (1, 2):
            p = random_siegel_point(g, rng)
            for m in all_characteristics(g, "even")[:3]:
                tv = theta_constant(m, p, 1e-6)
                wider = direct_theta_constant(m, p, tv.radius + 4)
                assert abs(tv.value - wider) <= tv.tail_bound + 1e-13

    def test_theta_function_with_z_against_oracle(self):
        p = random_siegel_point(2, np.random.default_rng(12))
        m = Characteristic.from_string("01|10")
        z = np.array([0.3 - 0.2j, 0.1 + 0.4j])
        tv = theta_function(m, z, p, 1e-10)
        rows = [[complex(x) for x in row] for row in p.tau]
        ref = direct_theta_sum(m.eps, m.delta, list(z), rows, tv.radius + 6)
        assert abs(tv.value - ref) < 1e-9

    def test_theta_function_far_centre_against_oracle(self):
        # |Im z| = 2.2 puts the ellipsoid's centre two box shells from the
        # origin and |theta| near 3e7; at target 1e-6 every term left out
        # is below 1e-9 |theta|, so a cut that ignores the linear term's
        # lift shows far above rounding
        p = random_siegel_point(2, np.random.default_rng(12))
        z = np.array([0.35 + 1.9j, -0.15 - 1.2j])
        rows = [[complex(x) for x in row] for row in p.tau]
        for m in all_characteristics(2):
            tv = theta_function(m, z, p, 1e-6)
            ref = direct_theta_sum(m.eps, m.delta, list(z), rows, tv.radius)
            assert abs(tv.value - ref) <= tv.tail_bound + 1e-13 * max(1, abs(ref))

    def test_genus_four_theta_function_with_z(self):
        # the image of a generic point under word 6038 (lambda_min 0.29), at
        # a z whose imaginary part lies along the softest direction of
        # Im tau, which moves the ellipsoid's centre furthest; against the
        # plain box sum at the same radius (R = 9: the oracle takes seconds)
        p = siegel_action(random_symplectic(4, 6, 6038), generic_siegel_point(4, 70))
        z = np.array([0.3, -0.2, 0.1, 0.4]) + 0.6j * np.linalg.eigh(p.tau.imag)[1][:, 0]
        rows = [[complex(x) for x in row] for row in p.tau]
        for m in (all_characteristics(4, "even")[5], all_characteristics(4, "odd")[17]):
            tv = theta_function(m, z, p, 1e-8)
            assert tv.radius == 9
            ref = direct_theta_sum(m.eps, m.delta, list(z), rows, tv.radius)
            assert abs(tv.value - ref) <= tv.tail_bound + 1e-13 * max(1, abs(ref))

    def test_batch_shape_checks(self):
        p = validate_siegel(1j * np.eye(2))
        m = Characteristic.from_string("00|00")
        with pytest.raises(ValueError, match="same length"):
            theta_functions([m, m], [np.zeros(2)], [p, p], 1e-10)
        with pytest.raises(ValueError, match="z must have length 2"):
            theta_functions([m], [np.zeros(3)], [p], 1e-10)

    @pytest.mark.parametrize("z", [[math.nan, 0, 0, 0], [0, complex(0, math.nan), 0, 0], [0, 0, math.inf, 0]])
    def test_non_finite_z_is_refused(self, z):
        # unchecked, a NaN in Re z gives a NaN value under a small tail
        # bound, and a NaN in Im z fails in the radius search
        p = validate_siegel(1j * np.eye(4))
        with pytest.raises(ValueError, match=r"z must be finite, got \["):
            theta_function(Characteristic.from_string("0000|0000"), z, p, 1e-10)

    def test_genus_mismatch_and_im_z_cap(self):
        p = validate_siegel([[1j]])
        with pytest.raises(ValueError, match="genus"):
            theta_constant(Characteristic.from_string("00|00"), p, 1e-10)
        with pytest.raises(ValueError, match="Im z"):
            theta_function(Characteristic.from_string("0|0"), [20j], p, 1e-10)


# test_half_ellipsoid_against_enumeration's problems by genus: (bound,
# edge) of the two half-call problems, then (bound, edge, centre, shift) of
# the two full-call ones
ENUMERATION_CALLS = {
    1: ([(350.0, 100), (200.0, 80)],
        [(300.0, 100, (95.3,), (0.3,)), (150.0, 80, (-70.6,), (-0.45,))]),
    3: ([(9.5, 7), (6.5, 5)],
        [(7.5, 7, (5.3, -1.6, 2.45), (0.3, -0.7, 1.15)), (5.0, 6, (-2.2, 0.4, -5.6), (-0.45, 0.1, 0.8))]),
    4: ([(5.0, 4), (3.5, 3)],
        [(4.0, 4, (3.3, -1.2, 0.6, 2.7), (0.3, -0.7, 1.15, 0.2)),
         (3.0, 4, (-2.4, 0.5, -3.1, 1.2), (-0.45, 0.1, 0.8, -0.3))]),
}


class TestBatch:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_batch_matches_individual(self, g):
        p = random_siegel_point(g, np.random.default_rng(20 + g))
        batch = even_theta_constants(p, 1e-12)
        assert list(batch) == all_characteristics(g, "even")
        for m, tv in batch.items():
            single = theta_constant(m, p, 1e-12)
            assert abs(tv.value - single.value) < 1e-12
            assert tv.radius == single.radius

    @pytest.mark.parametrize("word", [None, 6038])
    def test_genus_four_against_box_oracle(self, word):
        # the generic point has R = 5; its image under word 6038 has R = 7
        # and Im tau of condition number 8.9 (lambda_min 0.29)
        p = generic_siegel_point(4, 70)
        if word is not None:
            p = siegel_action(random_symplectic(4, 6, word), p)
        batch = even_theta_constants(p, 1e-12)
        evens = all_characteristics(4, "even")
        radius = {tv.radius for tv in batch.values()}
        assert radius == {truncation_radius(p, 1e-12)}
        assert word is None or radius.pop() >= 7
        for m in (evens[0], evens[5], evens[71], evens[135]):
            tv = batch[m]
            box = direct_theta_constant(m, p, tv.radius)
            assert abs(tv.value - box) <= tv.tail_bound + 1e-13

    @pytest.mark.parametrize("g", sorted(ENUMERATION_CALLS))
    def test_half_ellipsoid_against_enumeration(self, g):
        # plain-Python oracle: every x in the box with
        # q = (x - c)^T (Im form) (x - c) <= bound, its phase
        # x^T (Re form) x + 2 l^T x and its class of x mod 4; the half
        # enumeration (c = 0, l = 0) keeps only the x whose first nonzero
        # entry from the last coordinate down is positive.  The full
        # ellipsoids' centres sit near a face, so the box clips them.
        # Each call holds two problems with their own form, bound, edge,
        # centre and shift.  A walk of genus g updates its carried partial
        # sums g - 1 times: never at genus 1, three times at genus 4.
        forms = [random_siegel_point(g, np.random.default_rng(seed)).tau / 4 for seed in (90, 91)]
        origin = (0.0,) * g
        half_problems, full_problems = ENUMERATION_CALLS[g]
        calls = [(True, [(bound, edge, origin, origin) for bound, edge in half_problems]), (False, full_problems)]
        for half, problems in calls:
            expected = []
            for p, (form, (bound, edge, center, shift)) in enumerate(zip(forms, problems)):
                rows = form.tolist()
                size = 0
                for x in itertools.product(range(-edge, edge + 1), repeat=g):
                    d = [xi - ci for xi, ci in zip(x, center)]
                    quad = sum(d[i] * rows[i][j].imag * d[j] for i in range(g) for j in range(g))
                    phase = sum(x[i] * rows[i][j].real * x[j] for i in range(g) for j in range(g))
                    phase += 2 * sum(li * xi for li, xi in zip(shift, x))
                    if (not half or next((v for v in reversed(x) if v), 0) >= 0) and quad <= bound:
                        code = sum((v % 4) << (2 * j) for j, v in enumerate(x))
                        expected.append((p, code, round(quad, 9), round(phase, 9)))
                        size += 1
                assert 0 < size < (2 * edge + 1) ** g // 4
            bounds, edges, centers, shifts = (np.array(column) for column in zip(*problems))
            args = (np.array(forms), bounds, edges, centers, shifts, half)
            chunks = list(_ellipsoid(*args))
            assert len(chunks) == 1
            prob, q, phase, cls = chunks[0]
            found = sorted(zip(prob.tolist(), cls.tolist(), np.round(q, 9).tolist(), np.round(phase, 9).tolist()))
            assert found == sorted(expected)
            assert np.all(np.diff(prob) >= 0)
            # chunking keeps the points and their order
            parts = list(_ellipsoid(*args, limit=50))
            assert len(parts) > 1
            for whole, pieces in zip(chunks[0], zip(*parts)):
                assert np.array_equal(whole, np.concatenate(pieces))


def _mixed_batch(g):
    """(chars, zs, points) of one genus whose members differ in point,
    characteristic (even and odd), z (some off zero) and box radius; at
    genus 2 the far-centre point of test_theta_function_far_centre_against_oracle."""
    if g == 2:
        far = random_siegel_point(2, np.random.default_rng(12))
        near = random_siegel_point(2, np.random.default_rng(7))
        z_far = [0.35 + 1.9j, -0.15 - 1.2j]
        members = [(far, "01|10", z_far), (near, "00|01", [0.3 - 0.2j, 0.1 + 0.4j]), (far, "11|11", z_far),
                   (near, "10|00", [0, 0]), (validate_siegel(2j * np.eye(2)), "00|00", [0, 0])]
    else:
        generic = generic_siegel_point(4, 70)
        other = random_siegel_point(4, np.random.default_rng(5))
        members = [(generic, "0000|0110", [0, 0, 0, 0]),
                   (generic, "1000|1000", np.array([0.3, -0.2, 0.1, 0.4]) + 0.2j * np.array([1, 0, -1, 0.5])),
                   (other, "1011|0100", [0.1 - 0.3j, 0.2 - 0.3j, -0.3 - 0.3j, 0.05 - 0.3j]),
                   (other, "0000|0000", [0, 0, 0, 0])]
    chars = [Characteristic.from_string(code) for _, code, _ in members]
    return chars, [np.array(z, dtype=complex) for *_, z in members], [point for point, *_ in members]


class TestThetaFunctions:
    @pytest.mark.parametrize("g", [2, 4])
    def test_members_match_batch_of_one_and_oracle(self, g):
        chars, zs, points = _mixed_batch(g)
        batch = theta_functions(chars, zs, points, 1e-8)
        assert len({tv.radius for tv in batch}) > 1
        for m, z, p, tv in zip(chars, zs, points, batch):
            assert tv == theta_function(m, z, p, 1e-8)  # bit for bit
            rows = [[complex(x) for x in row] for row in p.tau]
            ref = direct_theta_sum(m.eps, m.delta, list(z), rows, tv.radius)
            assert abs(tv.value - ref) <= tv.tail_bound + 1e-13 * max(1, abs(ref))

    @pytest.mark.parametrize("g", [2, 4])
    def test_split_enumeration_gives_identical_values(self, g, monkeypatch):
        chars, zs, points = _mixed_batch(g)
        whole = theta_functions(chars, zs, points, 1e-8)
        chunks = []
        enumerate_all = theta_module._ellipsoid

        def split(*args, limit):
            for chunk in enumerate_all(*args, limit=50):
                chunks.append(chunk[0])
                yield chunk

        monkeypatch.setattr(theta_module, "_ellipsoid", split)
        assert theta_functions(chars, zs, points, 1e-8) == whole
        # some problem's terms were spread over two chunks
        assert any(set(a.tolist()) & set(b.tolist()) for a, b in zip(chunks, chunks[1:]))

    def test_mixed_genera_rejected(self):
        p1 = validate_siegel([[1j]])
        p2 = validate_siegel(1j * np.eye(2))
        m1, m2 = Characteristic.from_string("0|0"), Characteristic.from_string("00|00")
        with pytest.raises(ValueError, match="genus"):
            theta_functions([m2, m1], [[0, 0], [0]], [p2, p1], 1e-10)
        assert theta_functions([], [], [], 1e-10) == []

    def test_problem_without_points(self):
        # the box |x|_inf <= 2 misses the ellipsoid of radius ~1 around
        # (9, 9, 9): alone it yields nothing, beside a problem with points
        # it adds none of its own
        form = random_siegel_point(3, np.random.default_rng(90)).tau
        far, near = np.array([9.0, 9.0, 9.0]), np.array([0.2, 0.1, 0.0])
        assert list(_ellipsoid(form[None], np.array([0.5]), np.array([2]), far[None], np.zeros((1, 3)))) == []
        chunks = list(_ellipsoid(np.array([form, form]), np.array([0.5, 3.0]), np.array([2, 2]),
                                 np.array([far, near]), np.zeros((2, 3))))
        assert len(chunks) == 1 and len(chunks[0][0]) > 0 and set(chunks[0][0].tolist()) == {1}

    def test_sweep_size_batch_keeps_chunks_within_limit(self):
        # the genus-4 generator sweep makes 11 generators x 136
        # characteristics x 6 points x 2 theta constants = 17952 sums,
        # more problems than the limit of points per chunk used here;
        # every chunk stays within it and every problem keeps all its points
        p = generic_siegel_point(4, 70)
        n = 11 * 136 * 6 * 2
        zeros = np.zeros((n, 4))
        args = (np.broadcast_to(p.tau, (n, 4, 4)), np.full(n, 1.5), np.full(n, 5), zeros, zeros)
        single = sum(len(q) for _, q, _, _ in _ellipsoid(*(a[:1] for a in args)))
        counts = np.zeros(n, dtype=np.int64)
        sizes = []
        for prob, q, _, _ in _ellipsoid(*args, limit=4096):
            sizes.append(len(q))
            counts += np.bincount(prob, minlength=n)
        assert single > 1
        assert max(sizes) <= 4096
        assert np.all(counts == single)


class TestSquares:
    """_even_squares against the direct route at genus 1-3 (tests/test_classify.py
    covers genus 4)."""

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_squares_match_the_direct_route(self, g):
        rng = np.random.default_rng(40 + g)
        points = [random_siegel_point(g, rng), generic_siegel_point(g, rng)]
        points.append(siegel_action(random_symplectic(g, 6, 50 + g), points[1]))
        for point in points:
            squares, bounds = _even_squares(point, 1e-14)
            constants = even_theta_constants(point, 1e-12).values()
            values, truncation, rounding, radius = _even_constants(point, 1e-12)
            # the dict wraps the kernel's values, truncation bound and radius
            assert np.array_equal(values, [tv.value for tv in constants])
            assert {(tv.tail_bound, tv.radius) for tv in constants} == {(truncation, radius)}
            b = truncation + rounding
            assert (np.abs(squares - values**2) <= bounds + 2 * np.abs(values) * b + b * b).all()
            assert bounds.max() < 1e-12 * np.abs(squares).max()

    def test_genus_one_squares_at_i(self):
        # theta_00(i)^2 = sqrt(2) theta_10(i)^2 = sqrt(2) theta_01(i)^2 = pi^{1/2} / Gamma(3/4)^2
        squares, bounds = _even_squares(validate_siegel([[1j]]), 1e-14)
        exact = THETA00_AT_I**2 * np.array([1, 2**-0.5, 2**-0.5])
        assert (np.abs(squares - exact) <= bounds + 1e-15).all()
        assert bounds.max() < 1e-13


class TestBlockDiag:
    def test_shape_and_lambda(self):
        p1 = validate_siegel([[1j]])
        p2 = validate_siegel(np.diag([2j, 3j]))
        blk = block_diag(p1, p2)
        assert blk.genus == 3
        assert blk.lambda_min == pytest.approx(min(p1.lambda_min, p2.lambda_min), rel=1e-10)
        assert blk.tau[0, 1] == 0

    def test_factorization(self):
        rng = np.random.default_rng(31)
        p1 = random_siegel_point(1, rng)
        p2 = random_siegel_point(2, rng)
        blk = block_diag(p1, p2)
        for m in all_characteristics(3, "even"):
            m1, m2 = split(m, 1)
            joint = theta_constant(m, blk, 1e-12).value
            prod = theta_constant(m1, p1, 1e-12).value * theta_constant(m2, p2, 1e-12).value
            assert abs(joint - prod) < 1e-10

    def test_vanishing_on_splits(self):
        rng = np.random.default_rng(32)
        blk = block_diag(random_siegel_point(2, rng), random_siegel_point(2, rng))
        consts = even_theta_constants(blk, 1e-12)
        split_tuple = set(product_split_tuple(4, 2))
        for m, tv in consts.items():
            if m in split_tuple:
                assert abs(tv.value) < 1e-12
            else:
                assert abs(tv.value) > 1e-3

    def test_concat_matches_split_tuple_membership(self):
        odd1 = all_characteristics(1, "odd")[0]
        odd3 = all_characteristics(3, "odd")[5]
        assert concat(odd1, odd3) in set(product_split_tuple(4, 1))


class TestSiegelAction:
    def test_identity(self):
        p = random_siegel_point(2, np.random.default_rng(40))
        q = siegel_action(SymplecticInteger.identity(2), p)
        assert np.allclose(q.tau, p.tau, atol=1e-14)

    def test_genus_one_fixed_point_and_translation(self):
        inv, tr = standard_generators(1)
        p = validate_siegel([[1j]])
        assert siegel_action(inv, p).tau[0, 0] == pytest.approx(1j, abs=1e-14)
        assert siegel_action(tr, p).tau[0, 0] == pytest.approx(1 + 1j, abs=1e-14)

    def test_near_singular_rejected(self):
        inv, _ = standard_generators(1)
        p = validate_siegel([[1e-9j]])
        with pytest.raises(ValueError, match="near-singular"):
            siegel_action(inv, p)

    def test_random_words_recertify(self):
        rng = np.random.default_rng(41)
        for seed in range(10):
            g = int(rng.integers(1, 4))
            gamma = random_symplectic(g, int(rng.integers(1, 7)), seed)
            p = random_siegel_point(g, rng)
            q = siegel_action(gamma, p)
            assert q.lambda_min > 0
            assert np.array_equal(q.tau, q.tau.T)


class TestPointUtilities:
    def test_json_round_trip(self):
        p = random_siegel_point(3, np.random.default_rng(50))
        q = point_from_json(point_to_json(p))
        assert np.allclose(p.tau, q.tau, atol=0, rtol=0)
        with pytest.raises(ValueError, match="matrix"):
            point_from_json({"genus": 2, "tau": [[[0, 1]]]})
        assert point_from_json({"genus": 1.0, "tau": [[[0, 1]]]}).genus == 1

    def test_repr_shows_genus_and_lambda_min(self):
        assert repr(validate_siegel(2j * np.eye(3))) == "SiegelPoint(genus=3, lambda_min=2)"

    @pytest.mark.parametrize("genus", [1.9, 4.9, "1", True, math.nan, math.inf, None])
    def test_json_genus_must_be_an_integer(self, genus):
        # int() would have read 1.9 as genus 1 and "1" as 1
        with pytest.raises(ValueError, match=f"genus must be an integer, got {genus!r}"):
            point_from_json({"genus": genus, "tau": [[[0, 1]]]})

    def test_sampler_floors(self):
        for g in (1, 2, 4):
            p = random_siegel_point(g, np.random.default_rng(60 + g))
            assert p.lambda_min >= 0.5 - 1e-9
            q = generic_siegel_point(g, np.random.default_rng(70 + g))
            assert q.lambda_min >= 0.55 - 1e-9
            assert np.all(np.abs(q.tau.real[np.triu_indices(g)]) >= 0.22 - 1e-12)

    def test_theta_value_tail_below_target(self):
        p = random_siegel_point(2, np.random.default_rng(80))
        for target in (1e-6, 1e-10, 1e-13):
            tv = theta_constant(Characteristic.from_string("00|00"), p, target)
            assert tv.tail_bound < target

    def test_theta_function_tail_below_target(self):
        m = Characteristic.from_string("0101|1000")
        for p in (random_siegel_point(4, np.random.default_rng(80)), generic_siegel_point(4, 81)):
            z = np.array([0.2 + 0.5j, -0.1 - 0.3j, 0.4 + 0.2j, 0.1 + 0.6j])
            for target in (1e-6, 1e-10, 1e-13):
                assert theta_function(m, z, p, target).tail_bound < target

    def test_batch_tail_below_target(self):
        for p in (random_siegel_point(2, np.random.default_rng(80)), generic_siegel_point(4, 81)):
            for target in (1e-6, 1e-10, 1e-13):
                batch = even_theta_constants(p, target)
                assert all(tv.tail_bound < target for tv in batch.values())
