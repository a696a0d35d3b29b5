"""Theta functions with characteristics on the Siegel upper half space.

theta_m(z, tau) = sum_{n in Z^g} exp(pi i [(n+eps/2)^T tau (n+eps/2)
                                           + 2 (n+eps/2)^T (z+delta/2)])

Evaluation truncates the lattice sum to the box max_i |n_i| <= R and
certifies the discarded mass: a term in the sup-norm shell s has modulus
at most exp(-pi lambda_min (s-1/2)^2 + 2 pi (s-1/2) |Im z|), so

    tail(R) = sum_{s >= R} [(2s+1)^g - (2s-1)^g]
              * exp(-pi lambda_min (s-1/2)^2 + 2 pi (s-1/2) |Im z|)

bounds the truncation error of the box sum (the shell count starts at the
outermost included shell, a deliberate overcount that keeps the bound
elementary).  lambda_min is a checked lower bound on the smallest
eigenvalue of Im tau: numpy's eigenvalue, lowered by a few rounding units
of ||Im tau|| until a Cholesky factorization of Im tau - lambda_min * 1
succeeds.

Neither theta_functions nor even_theta_constants sums the whole box.
With Y = Im tau, p = n + eps/2 and the centre c = -Y^{-1} Im z - eps/2, a
term has modulus exp(-pi (q - L)), where q = (n - c)^T Y (n - c) and
L = Im z^T Y^{-1} Im z.  Both keep only the box points with q <= C + L,
C = ln(2 (2R+1)^g / (target - tail(R))) / pi, found by a Fincke-Pohst
enumeration of that ellipsoid (Deconinck, Heil, Bobenko, van Hoeij and
Schmies, Math. Comp. 73 (2004)).  Every dropped term has modulus below
exp(-pi C), so the bound has two parts: the box tail plus
(2R+1)^g exp(-pi C) = (target - tail(R)) / 2 for the dropped box terms,
which keeps it below target.

The enumeration, _ellipsoid, has a problem axis: it walks P ellipsoids
of one genus at once and carries each point's problem index.
theta_functions sums a batch of (m, z, tau) in one walk (theta_function
and theta_constant are its batch of one); even_theta_constants is a
walk of one problem.  _even_squares gives the squares of the even
constants from one walk at 2 tau, whose ellipsoid is smaller, with a
bound per square.

siegel_reduction maps a point to a Siegel-reduced representative of its
Sp(2g, Z) orbit (LLL on Im tau, shifts of Re tau, quasi-inversions), where
det Im tau is largest and the ellipsoids smallest.  _even_moduli, the
one source of the constants behind classify and vanishing_set, sums
there when the walk at tau is large.

Arithmetic is double precision.  The tail bound of a ThetaValue covers
truncation only, not the ~1e-15-per-term floating point floor;
_even_constants and _even_squares also bound the rounding of their sums
(_class_sums derives the part they share).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import NamedTuple

import numpy as np

from .chars import Characteristic, all_characteristics
from .errors import CapExceededError
from .symplectic import SymplecticInteger, _even_slots

__all__ = [
    "SiegelPoint",
    "ThetaValue",
    "validate_siegel",
    "truncation_tail_bound",
    "truncation_radius",
    "theta_functions",
    "theta_function",
    "theta_constant",
    "even_theta_constants",
    "block_diag",
    "siegel_action",
    "SiegelReduction",
    "siegel_reduction",
    "random_siegel_point",
    "generic_siegel_point",
    "point_to_json",
    "point_from_json",
]

DEFAULT_RADIUS_CAP = 64
IM_Z_CAP = 10.0
_DET_FLOOR = 1e-8
_ACTION_SYM_TOL = 1e-9  # the solve leaves tau' symmetric only to rounding
_ELLIPSOID_CHUNK = 1 << 16  # points per pass of the enumeration, bounding its memory
_BATCH_CHUNK = 1 << 13  # the same for a theta_functions batch: lower peak memory, no measured cost in time
_CUT_SLACK = 1e-9  # widens the ellipsoid past the rounding of its Cholesky sums
# each round of siegel_reduction raises det Im tau; the cap only bounds
# the work on a point whose float rounding stalls that rise
_REDUCTION_ROUNDS = 64
# _even_moduli sums at the Siegel-reduced representative only when the walk
# at tau would visit more than this many lattice points: on the perfbench
# plans (seeds 1-2) reducing cost a median 0.21 ms on the 75 points whose
# walk held at most 5,100 points and saved a median 0.19 ms, up to 0.58 ms,
# on the 11 from 5,550 up (radius 7-8 images)
REDUCE_WALK = 5_300
_UNIT = np.finfo(float).eps / 2  # unit roundoff


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    """A g x g complex symmetric matrix with positive definite imaginary
    part, with lambda_min(Im tau) certified at construction."""

    genus: int
    tau: np.ndarray
    lambda_min: float

    def __repr__(self):
        return f"SiegelPoint(genus={self.genus}, lambda_min={self.lambda_min:.6g})"


@dataclass(frozen=True)
class ThetaValue:
    """A theta value with its certified truncation error bound and the
    box radius used."""

    value: complex
    tail_bound: float
    radius: int


def validate_siegel(matrix, *, sym_tol: float = 1e-12) -> SiegelPoint:
    """Symmetrize and certify a matrix as a point of the Siegel upper half
    space; rejects non-finite entries, asymmetry beyond sym_tol and
    non-positive-definite imaginary part (reporting lambda_min).

    lambda_min is numpy's smallest eigenvalue of Im tau lowered by two
    rounding units of ||Im tau||_F, and lowered again by twice as much
    until a Cholesky factorization of Im tau - lambda_min * 1 succeeds,
    which confirms it lies below the spectrum.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry (inf or nan)")
    asym = float(np.abs(m - m.T).max())
    if asym > sym_tol:
        raise ValueError(f"matrix not symmetric: max |tau - tau^T| = {asym:.3e} > {sym_tol:.1e}")
    tau = (m + m.T) / 2
    imag = tau.imag
    eig = float(np.linalg.eigvalsh(imag)[0])
    step = np.finfo(float).eps * float(np.linalg.norm(imag))
    while True:
        lam = eig - step
        if not lam > 0:
            raise ValueError(f"Im tau not positive definite: lambda_min = {eig:.3e}")
        try:
            np.linalg.cholesky(imag - lam * np.eye(len(imag)))
            break
        except np.linalg.LinAlgError:
            step *= 2
    tau.setflags(write=False)
    return SiegelPoint(tau.shape[0], tau, lam)


def truncation_tail_bound(g: int, lambda_min: float, radius: int, z_im_norm: float = 0.0) -> float:
    """Certified bound on the lattice mass outside the box |n|_inf < radius.

    Valid while (radius - 1/2) lambda_min >= |Im z|, where the shell bound
    is monotone; a small pad makes the float result a true upper bound.
    Shells still adding to it 100000 past radius raise CapExceededError.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if lambda_min <= 0:
        raise ValueError("lambda_min must be positive")
    if (radius - 0.5) * lambda_min < z_im_norm:
        raise ValueError("radius too small for this |Im z|; shell bound not monotone yet")
    total = 0.0
    s = radius
    while True:
        shell = (2 * s + 1) ** g - (2 * s - 1) ** g
        t = s - 0.5
        term = shell * math.exp(-math.pi * lambda_min * t * t + 2 * math.pi * t * z_im_norm)
        total += term
        if term == 0.0 or term < total * 1e-17:
            break
        s += 1
        if s > radius + 100000:
            raise CapExceededError(f"tail bound still growing {s - radius} shells past radius {radius} "
                                   f"at lambda_min {lambda_min:.3e}")
    return total * (1 + 1e-12) + 1e-320


def truncation_radius(point: SiegelPoint, target: float, z_im_norm: float = 0.0) -> int:
    """Smallest box radius whose certified tail bound is below target."""
    return _truncation(point, target, z_im_norm)[0]


def _truncation(point: SiegelPoint, target: float, z_im: float = 0.0, lift: float = 0.0):
    """(radius, tail_bound, bound) of one theta sum: the box radius R of
    truncation_radius, the two-part error bound and the enumeration bound
    C + lift on q (lift is L), widened past the rounding of the
    enumeration's Cholesky sums.

    The search for R starts where the bound's first term can drop below
    target: at z = 0 a radius with exp(-pi lambda_min (R - 1/2)^2) > target
    has a first term, at least twice that, above target, so it is skipped
    without summing its tail (one radius lower, for rounding).
    """
    if not 0 < target < math.inf:
        raise ValueError(f"target must be positive and finite, got {target}")
    g, lam = point.genus, point.lambda_min
    radius = max(1, math.ceil(z_im / lam + 0.5 + 1e-9))
    if not z_im and target < 1:
        radius = max(radius, math.ceil(0.5 + math.sqrt(math.log(1 / target) / (math.pi * lam))) - 1)
    while True:
        if radius > DEFAULT_RADIUS_CAP:
            raise CapExceededError(
                f"truncation radius cap {DEFAULT_RADIUS_CAP} exceeded for target {target:.1e} "
                f"at lambda_min {lam:.3e}"
            )
        tail = truncation_tail_bound(g, lam, radius, z_im)
        if tail < target:
            break
        radius += 1
    n_box = (2 * radius + 1) ** g
    cut = math.log(2 * n_box / (target - tail)) / math.pi
    dropped = n_box * math.exp(-math.pi * cut) * (1 + 1e-12)  # padded past float rounding
    return radius, tail + dropped, (cut + lift) * (1 + _CUT_SLACK)


def theta_functions(chars, zs, points, target: float) -> list[ThetaValue]:
    """theta_m(z, tau) for each (m, z, tau) of the three sequences, all
    points of one genus, each with certified truncation error below
    target, from one enumeration over all the problems.  Problem p sums
    the n in its ellipsoid q <= C + L within its box |n|_inf <= R.  A
    term's phase is pi (n^T (Re tau) n + 2 l^T n) plus a constant, with
    l = Re tau eps/2 + Re z + delta/2; radius is R.

    np.add.at adds each term onto its problem's running sum in the order
    of enumeration, so a value does not depend on the rest of the batch
    or on where the enumeration's limit split falls.
    """
    if not len(chars) == len(zs) == len(points):
        raise ValueError("chars, zs and points must have the same length")
    if not points:
        return []
    g = points[0].genus
    for m, point in zip(chars, points):
        if point.genus != g:
            raise ValueError(f"one batch holds one genus: got {g} and {point.genus}")
        if m.genus != g:
            raise ValueError(f"genus mismatch: characteristic {m.genus}, point {g}")
    zv = [np.asarray(z, dtype=complex).reshape(-1) for z in zs]
    if any(z.shape != (g,) for z in zv):
        raise ValueError(f"z must have length {g}")
    zv = np.array(zv)
    if not np.isfinite(zv).all():
        raise ValueError(f"z must be finite, got {zv[~np.isfinite(zv).all(axis=1)][0].tolist()}")
    z_im = np.linalg.norm(zv.imag, axis=1)
    if z_im.max() > IM_Z_CAP:
        raise ValueError(f"|Im z| = {z_im.max():.3g} exceeds cap {IM_Z_CAP}")
    taus = np.array([point.tau for point in points])
    eps = np.array([m.eps for m in chars], dtype=float) / 2
    shift = zv.real + np.array([m.delta for m in chars], dtype=float) / 2
    offset = np.linalg.solve(taus.imag, zv.imag[:, :, None])[:, :, 0]  # Y^{-1} Im z
    lift = (zv.imag * offset).sum(axis=1)
    radii, tail_bounds, bounds = zip(*(_truncation(point, target, float(y), float(x))
                                       for point, y, x in zip(points, z_im, lift)))
    pulled = (taus.real @ eps[:, :, None])[:, :, 0]  # Re tau eps/2
    sums = np.zeros(len(points), dtype=complex)
    for prob, q, phase, _ in _ellipsoid(taus, np.array(bounds), np.array(radii), -offset - eps,
                                        pulled + shift, limit=_BATCH_CHUNK):
        np.add.at(sums, prob, np.exp(np.pi * (lift[prob] - q + 1j * phase)))
    const = (eps * (pulled + 2 * shift)).sum(axis=1)
    values = sums * np.exp(1j * np.pi * const)
    return [ThetaValue(complex(v), t, r) for v, t, r in zip(values, tail_bounds, radii)]


def theta_function(m: Characteristic, z, point: SiegelPoint, target: float) -> ThetaValue:
    """theta_m(z, tau), the batch of one of theta_functions."""
    return theta_functions([m], [z], [point], target)[0]


def theta_constant(m: Characteristic, point: SiegelPoint, target: float) -> ThetaValue:
    """theta_m(0, tau); identically zero (within the bound) for odd m."""
    return theta_function(m, np.zeros(point.genus), point, target)


def even_theta_constants(point: SiegelPoint, target: float) -> dict[Characteristic, ThetaValue]:
    """All even theta constants at one point, from one pass over the
    lattice points whose terms can matter, keyed by characteristic: the
    values of _even_constants with their truncation bound (not the
    rounding bound) and the box radius."""
    values, tail_bound, _, radius = _even_constants(point, target)
    return {m: ThetaValue(complex(v), tail_bound, radius) for m, v in zip(_even_tables(point.genus)[0], values)}


def _even_constants(point: SiegelPoint, target: float):
    """(values, truncation, rounding, radius) of the even theta constants
    at one point: values in all_characteristics(g, "even") order, bounds
    of their truncation and rounding errors, and the box radius R for
    target.

    In m = 2p = 2n + eps the boxes |n|_inf <= R of all eps classes fill
    the integer box [-2R, 2R+1]^g, and m mod 4 holds both eps (bit 0 of
    each digit) and n mod 2 (bit 1).  The delta dependence is the root of
    unity exp(pi i p^T delta) = i^{m . delta}, so the sum collapses onto
    the 4^g classes of m mod 4 that _class_sums folds, and each constant
    is a sum of 2^g of them with weights +-1, +-i.

    Rounding.  Each constant is within the rounding bounds of its 2^g
    classes (_class_sums); the bound adds those of all the classes.
    """
    sums, rounding, truncation, radius = _class_sums(point, target)
    _, bins, weights = _even_tables(point.genus)
    return (weights * sums[bins]).sum(axis=1), truncation, rounding.sum(), radius


def _even_squares(point: SiegelPoint, target: float):
    """(squares, bounds): theta_m(0, tau)^2 for the even m, in
    all_characteristics(g, "even") order, each within its bound of the
    exact value.

    With Theta[s] = theta[s; 0](0, 2 tau) for s in F2^g, the second-order
    identity (Mumford, Tata Lectures on Theta I, ch. II 6; Igusa, Theta
    Functions, ch. IV) reads

        theta[eps; delta](0, tau)^2 = sum_s (-1)^{delta . s} Theta[s] Theta[s + eps].

    Theta[s] sums exp(pi i m^T (tau/2) m) over m = 2n + s: the classes
    m mod 2 (bit 0 of each base-4 digit) of the walk of _class_sums at
    2 tau, whose ellipsoid holds about 2^{-g/2} of the points of tau's.
    Each Theta[s] is within e_s, the truncation bound at 2 tau plus the
    rounding bounds of its 2^g classes of m mod 4.

    Bound.  |A^ B^ - A B| <= |A^| e_B + |B^| e_A + e_A e_B for each
    product of computed values A^, B^; summed over s, s -> s + eps being
    a bijection, the squares of the exact values lie within
    sum_s (2 |Theta^_s| e_{s+eps} + e_s e_{s+eps}) of the exact sum of the
    computed products.  Forming it rounds a complex product by at most
    sqrt(2) gamma_2 of its modulus (Higham, Accuracy and Stability of
    Numerical Algorithms, lemma 3.5) and the sum of the 2^g signed terms
    by gamma_{2^g - 1} of their moduli, so c = 2^g + 2 > 2 sqrt(2) + 2^g - 1
    covers both in c u sum_s |Theta^_s| |Theta^_{s+eps}|.  The bound
    depends on eps only; the factor 1 + 1e-6 covers its own rounding.
    """
    g = point.genus
    sums, rounding, truncation, _ = _class_sums(_doubled(point), target)
    sigma, pairs, eps, signs = _square_tables(g)

    def fold(x):
        return np.bincount(sigma, x, 2**g)

    theta = fold(sums.real) + 1j * fold(sums.imag)
    error = truncation + fold(rounding)
    size = np.abs(theta)
    squares = (signs * (theta * theta[pairs])[eps]).sum(axis=1)
    bounds = (2 * size * error[pairs] + error * error[pairs] + (2**g + 2) * _UNIT * size * size[pairs]).sum(axis=1)
    return squares, bounds[eps] * (1 + 1e-6)


def _even_moduli(point: SiegelPoint, target: float):
    """(values, error): the even theta constants at tau up to a factor
    common to all of them, in all_characteristics(g, "even") order, as
    square roots of _even_squares for target, and bounds on the errors of
    their moduli.

    The squares are summed at the siegel_reduction gamma o tau when the
    walk at tau is large (_walk above REDUCE_WALK), else at tau.  As
    theta_{gamma.m}(gamma o tau)^8 = det(C tau + D)^4 theta_m(tau)^8, slot
    gamma . m then holds the constant of m, and each error adds the bound
    drift puts on the constants of gamma o tau."""
    gamma, reduced, drift = siegel_reduction(point) if _walk(point, target) > REDUCE_WALK else (None, point, 0.0)
    squares, bounds = _even_squares(reduced, target)
    values, error = np.sqrt(squares), np.sqrt(bounds) + _drift_bound(reduced, drift)
    if reduced is point:
        return values, error
    slots = _even_slots(gamma)
    return values[slots], error[slots]


def _walk(point: SiegelPoint, target: float) -> float:
    """The lattice points the walk of _even_squares for target visits at
    tau, estimated by half the volume of its ellipsoid
    m^T Im(tau/2) m <= C, (2 pi C)^{g/2} / (2 Gamma(g/2 + 1) sqrt(det Im tau)),
    with C the cut of _truncation at 2 tau; inf when the box radius at
    2 tau passes the cap."""
    try:
        cut = _truncation(_doubled(point), target)[2]
    except CapExceededError:
        return math.inf
    g = point.genus
    return (2 * math.pi * cut) ** (g / 2) / (2 * math.gamma(g / 2 + 1) * math.sqrt(np.linalg.det(point.tau.imag)))


def _doubled(point: SiegelPoint) -> SiegelPoint:
    """The point 2 tau with lambda_min doubled, both exact in floating point."""
    return SiegelPoint(point.genus, point.tau * 2, point.lambda_min * 2)


def _class_sums(point: SiegelPoint, target: float):
    """(sums, rounding, truncation, radius): the even constants' walk at
    one point folded onto the 4^g classes b of m mod 4, m_j = digit j of
    b in base 4.  sums holds each class's sum of the terms
    exp(pi i m^T (tau/4) m) and rounding a bound on its rounding error;
    truncation is the truncation bound for target and radius its box
    radius.

    Only the m with q = m^T Im(tau/4) m <= C are summed, the cut of
    theta_function at z = 0.  The terms of m and -m are equal, and so are
    their classes' weights wherever two classes are combined, so the
    enumeration visits half of the ellipsoid and counts each term twice.
    It runs over |m|_inf <= E = 2R+1, the box and its mirror image; the
    few terms this adds beyond the box are series terms, which leave the
    bound intact.

    Rounding.  Let u be the unit roundoff, Im(tau/4) = L L^T, S = Re(tau/4)
    and l = lambda_min / 4, so a point m has |m|_2^2 <= q / l.  The walk
    forms y_i = sum_{j>=i} L_ji m_j as L_ii (m_i - mid), mid the sum over
    j > i, built in 2(g-1) operations, over L_ii; so y_i is within
    ((2g-1) |L_i| |m|_2 + 2 |y_i|) u, |L_i| the 2-norm of column i of L
    below the diagonal, and by Cauchy-Schwarz q = sum y_i^2 is within
    (2(2g-1) ||L_o||_F / sqrt(l) + g + 4) q u, L_o the part of L below its
    diagonal.  The computed Cholesky factor adds at most
    (g+1) ||L||_F^2 q / l u (its backward error).  The phase m^T S m,
    formed from the same partial sums, is within
    (2g+2) |m|^T |S| |m| u <= (2g+2) ||S||_F q / l u.  So the term
    s cos(pi phase), s = 2 exp(-pi q), and the same with sin, is within
    (4 + a q) u s of the exact one, with
    a = pi (2(2g-1) ||L_o||_F / sqrt(l) + (g+1) ||L||_F^2 / l + g + 5
    + (2g+3) ||S||_F / l).  A class sum is added up term by term, one
    bincount per chunk onto the running sums, so it rounds at most as
    often as it has terms: with n its terms, its error is at most
    ((n + 4) sum s + a sum s q) u, to first order in u.  Each caller adds
    2^g classes with weights +-1, +-i and takes 1 off class 0 (below), so
    the bound adds 2^g u sum s for that; the factor 1 + 1e-6 covers the
    terms of second order in u while n u stays below 1e-7.
    """
    g = point.genus
    radius, truncation, bound = _truncation(point, target)
    edge = 2 * radius + 1
    form = point.tau / 4
    chol = np.linalg.cholesky(form.imag)
    low = point.lambda_min / 4
    slope = math.pi * (2 * (2 * g - 1) * np.linalg.norm(np.tril(chol, -1)) / math.sqrt(low)
                       + ((g + 1) * np.linalg.norm(chol) ** 2 + (2 * g + 3) * np.linalg.norm(form.real)) / low + g + 5)
    n_classes = 4**g
    sums = np.zeros(n_classes, dtype=complex)
    count, mass, q_mass = np.zeros(n_classes), np.zeros(n_classes), np.zeros(n_classes)
    origin = np.zeros((1, g))
    for _, q, phase, cls in _ellipsoid(form[None], np.array([bound]), np.array([edge]), origin, origin, half=True):
        size = 2 * np.exp(-np.pi * q)
        angle = np.pi * phase
        sums += np.bincount(cls, size * np.cos(angle), n_classes)
        sums += 1j * np.bincount(cls, size * np.sin(angle), n_classes)
        count += np.bincount(cls, minlength=n_classes)
        mass += np.bincount(cls, size, n_classes)
        q_mass += np.bincount(cls, size * q, n_classes)
    sums[0] -= 1  # m = 0 is its own mirror image: its term 1 went in twice
    return sums, ((count + 4 + 2**g) * mass + slope * q_mass) * _UNIT * (1 + 1e-6), truncation, radius


def _drift_bound(point: SiegelPoint, drift: float) -> float:
    """A bound on |theta_m(0, tau') - theta_m(0, point.tau)|, for every m,
    when ||tau' - point.tau||_2 <= drift (siegel_reduction's bound).

    A term exp(pi i p^T tau p), p in Z^g + eps/2, has modulus at most
    exp(-pi lambda_min |p|^2) and moves by at most that times
    e^x - 1 <= x e^x, x = pi drift |p|^2: with mu = lambda_min - drift
    and y e^-y <= 1/e at y = pi mu |p|^2 / 2, by at most
    2 drift / (e mu) exp(-pi (mu/2) |p|^2).  Over p that sum splits into
    g line sums, each at most 2 + sqrt(2 / mu) by the integral of
    exp(-pi (mu/2) k^2).
    """
    mu = point.lambda_min - drift
    return 2 * drift / (math.e * mu) * (2 + math.sqrt(2 / mu)) ** point.genus * (1 + 1e-9)


def _ellipsoid(forms: np.ndarray, bounds, edges, centers, shifts, half: bool = False,
               limit: int = _ELLIPSOID_CHUNK):
    """Yield (prob, q, phase, cls) arrays, in chunks of about `limit`, over
    P problems of one genus given by stacked forms (P, g, g), bounds and
    edges (P,) and centers and shifts (P, g).  Problem p holds the
    integer x with |x|_inf <= edges[p] and
    q = (x - centers[p])^T (Im forms[p]) (x - centers[p]) <= bounds[p];
    prob is p, phase = x^T (Re forms[p]) x + 2 shifts[p]^T x and
    cls = sum_j (x_j mod 4) 4^j.  The points of each problem come in the
    same order whatever the rest of the batch and wherever the limit
    split falls.

    With half, only x = 0 and the x whose first nonzero entry, read from
    x_{g-1} down, is positive are visited.  That is half of the sum only
    when center = 0 and shift = 0, where x and -x carry the same q and
    phase.

    Fincke-Pohst: with Im form = L L^T,
    q = sum_i (sum_{j>=i} L_ji (x_j - center_j))^2, so once x_{i+1}, ...,
    x_{g-1} are fixed, x_i runs over an interval.  Each parent at level i
    carries part, its partial sums over its fixed x_k for the levels
    j <= i: column 2j holds pull_j - sum_k L_kj x_k, with
    pull_j = sum_{k>=j} L_kj center_k, and column 2j + 1 holds
    shift_j + sum_k Re_kj x_k (Re = Re form).  Level i reads its
    interval's centre part_{2i} / L_ii and its linear phase term
    part_{2i+1}; fixing x_i adds x_i times row i of -L and of Re, taken
    at the levels below i, so each sum is added up from x_{g-1} down.
    Each array is built up one coordinate at a time, a parent passing its
    values to its children with np.repeat.
    """
    n_prob, g = len(forms), forms.shape[-1]
    chol = np.linalg.cholesky(forms.imag)
    start = np.stack([(centers[:, None, :] @ chol)[:, 0], shifts], axis=2).reshape(n_prob, 2 * g)
    # [i, p]: row i of -L and of Re, interleaved as in part
    steps = np.stack([-chol, forms.real], axis=3).reshape(n_prob, g, 2 * g).transpose(1, 0, 2)
    # [:, p, i]: L_ii, Re_ii, bound and edge of problem p at level i
    levels = np.array([chol.diagonal(0, 1, 2), forms.real.diagonal(0, 1, 2),
                       bounds[:, None].repeat(g, 1), edges[:, None].repeat(g, 1)])

    def expand(part, zero, q, phase, cls, prob, i):
        # zero marks an all-zero prefix x_{g-1}, ..., x_{i+1}
        diag, re_ii, bound, edge = levels[:, :, i].take(prob, axis=1)
        mid = part[:, 2 * i] / diag
        lin = part[:, 2 * i + 1]
        low = np.where(zero, 0, -edge)
        half_width = np.sqrt(np.maximum(bound - q, 0.0)) / diag
        first = np.maximum(np.ceil(mid - half_width), low).astype(np.int64)
        count = np.maximum(np.minimum(np.floor(mid + half_width), edge).astype(np.int64) - first + 1, 0)
        total = int(count.sum())
        if not total:
            return
        if total > limit and len(q) > 1:
            at = len(q) // 2
            for cut in (slice(None, at), slice(at, None)):
                yield from expand(part[cut], zero[cut], q[cut], phase[cut], cls[cut], prob[cut], i)
            return
        new = (first - (np.cumsum(count) - count)).repeat(count) + np.arange(total)
        diag, re_ii = diag.repeat(count), re_ii.repeat(count)
        q = q.repeat(count) + (diag * (new - mid.repeat(count))) ** 2
        phase = phase.repeat(count) + new * (re_ii * new + (2 * lin).repeat(count))
        cls = cls.repeat(count) + ((new & 3) << (2 * i))
        prob = prob.repeat(count)
        del mid, lin, diag, re_ii, bound, edge, half_width, first  # free the parents' arrays
        if i == 0:
            yield prob, q, phase, cls
        else:
            part = part[:, :2 * i].repeat(count, axis=0) + steps[i, :, :2 * i].take(prob, axis=0) * new[:, None]
            yield from expand(part, zero.repeat(count) & (new == 0), q, phase, cls, prob, i - 1)

    yield from expand(start, np.full(n_prob, half), np.zeros(n_prob), np.zeros(n_prob),
                      np.zeros(n_prob, dtype=np.int64), np.arange(n_prob), g - 1)


@cache
def _even_tables(g: int):
    """The point-independent part of even_theta_constants, built once per
    genus: the even characteristics and, for each, the 2^g classes of
    m mod 4 in its eps class with their weights i^{m . delta}.  Class
    index b holds the m with m_j = digit j of b in base 4."""
    evens = all_characteristics(g, "even")
    eps = np.array([m.eps for m in evens])
    delta = np.array([m.delta for m in evens])
    residues = (np.arange(1 << g)[:, None] >> np.arange(g)) & 1
    digits = eps[:, None, :] + 2 * residues[None, :, :]
    bins = (digits << (2 * np.arange(g))).sum(axis=2)
    weights = np.array([1, 1j, -1, -1j])[(digits * delta[:, None, :]).sum(axis=2) % 4]
    return evens, bins, weights


@cache
def _square_tables(g: int):
    """The point-independent part of _even_squares, built once per genus:
    sigma, each class b of m mod 4 as its class m mod 2,
    sum_j (m_j mod 2) 2^j; pairs[e, s] = s ^ e over those classes; and
    for each even characteristic its eps as such a class and the signs
    (-1)^{delta . s} over s."""
    evens = all_characteristics(g, "even")
    bit = 1 << np.arange(g)
    eps = np.array([m.eps for m in evens]) @ bit
    delta = np.array([m.delta for m in evens]) @ bit
    codes = np.arange(1 << g)
    sigma = ((np.arange(4**g)[:, None] >> (2 * np.arange(g))) & 1) @ bit
    odd = np.array([c.bit_count() & 1 for c in range(1 << g)])
    return sigma, codes[None, :] ^ codes[:, None], eps, 1.0 - 2 * odd[delta[:, None] & codes]


class SiegelReduction(NamedTuple):
    """A representative of a point's Sp(2g, Z) orbit: gamma, the point
    gamma o tau (its tau computed in floating point) and drift, a bound on
    ||point.tau - exact gamma o tau||_2."""

    gamma: SymplecticInteger
    point: SiegelPoint
    drift: float


def siegel_reduction(point: SiegelPoint) -> SiegelReduction:
    """A Siegel-reduced representative of the point (Deconinck, Heil,
    Bobenko, van Hoeij and Schmies, Math. Comp. 73 (2004), section 6).
    Each round LLL-reduces Im tau (tau -> U^T tau U, the element
    diag(U^T, U^{-1})), shifts Re tau into [-1/2, 1/2] (tau -> tau - S,
    S = round(Re tau), the element [[1, -S], [0, 1]]) and, while
    |tau_11| < 1, applies the quasi-inversion tau_11 -> -1/tau_11,
    tau_1j -> tau_1j / tau_11, tau_ij -> tau_ij - tau_1i tau_1j / tau_11
    (the element that sends row 1 of gamma to minus row g+1 and row g+1
    to row 1), which raises det Im tau by 1 / |tau_11|^2.  A point that is
    already reduced comes back as itself with the identity and drift 0.

    tau is carried in floating point, exactly symmetric (every step
    treats tau_ij and tau_ji alike), and gamma in exact integers, checked
    once at the end.  The rounds stop after _REDUCTION_ROUNDS at the
    latest, at a representative as valid as any other.  The drift bound:
    with M = C tau + D and the residual R = tau_r M - (A tau + B),
    tau_r - gamma o tau = R M^{-1}, and Im(gamma o tau) = M^{-*} (Im tau)
    M^{-1} gives ||M^{-1}||^2 <= (||Im tau_r||_F + drift) / lambda_min.
    With r a bound on ||R||_2, drift <= r w for the root w of
    lambda_min w^2 = ||Im tau_r||_F + r w.  r is the computed ||R||_F plus
    a bound on the rounding of R: entrywise it is at most
    8 (g+2) u (|tau_r| |M| + |A tau + B|), and |[A, B] [tau; 1]| is at
    most |[A, B]| [|tau|; 1], whose Frobenius norms multiply.
    """
    g = point.genus
    tau = point.tau.tolist()
    top = [[int(i == j) for j in range(2 * g)] for i in range(g)]  # the rows of [A B], then of [C D]
    bottom = [[int(i == j) for j in range(2 * g)] for i in range(g, 2 * g)]
    moved = False
    for _ in range(_REDUCTION_ROUNDS):
        moved |= _lll(tau, top, bottom)
        if max(abs(z.real) for z in chain.from_iterable(tau)) > 0.5:
            shift = [[round(z.real) for z in row] for row in tau]
            tau = [[z - s for z, s in zip(row, s_row)] for row, s_row in zip(tau, shift)]
            for row, s_row in zip(top, shift):
                for s, lift in zip(s_row, bottom):
                    if s:
                        row[:] = [x - s * y for x, y in zip(row, lift)]
            moved = True
        head = tau[0]
        t = head[0]
        if abs(t) >= 1:
            break
        inv = 1 / t
        tau = [[z - x * y * inv for y, z in zip(head, row)] for x, row in zip(head, tau)]
        tau[0] = [z * inv for z in head]
        for row, z in zip(tau, tau[0]):
            row[0] = z
        tau[0][0] = -inv
        top[0], bottom[0] = [-x for x in bottom[0]], top[0]
        moved = True
    if not moved:
        return SiegelReduction(SymplecticInteger.identity(g), point, 0.0)
    element = SymplecticInteger._of(np.array(top + bottom, dtype=object))
    reduced = validate_siegel(np.array(tau), sym_tol=0.0)
    m = element.matrix.astype(float)
    image = m[:, :g] @ point.tau + m[:, g:]  # [A tau + B; C tau + D]

    def frobenius(rows):
        return math.hypot(*map(abs, chain.from_iterable(rows)))

    stacked = math.hypot(frobenius(point.tau.tolist()), math.sqrt(g))
    floor = 8 * (g + 2) * _UNIT * stacked * (frobenius(tau) * frobenius(bottom) + frobenius(top))
    r = (float(np.linalg.norm(reduced.tau @ image[g:] - image[:g])) + floor) * (1 + 1e-6)
    ratio = r / point.lambda_min
    w = (ratio + math.sqrt(ratio * ratio + 4 * frobenius(reduced.tau.imag.tolist()) / point.lambda_min)) / 2
    return SiegelReduction(element, reduced, r * w)


def _lll(tau: list[list[complex]], top: list[list[int]], bottom: list[list[int]]) -> bool:
    """LLL-reduce Im tau in place (|mu_kj| <= 1/2 and B_k >= (3/4 - mu_k,k-1^2)
    B_k-1, for the basis whose Gram matrix is Im tau), and say whether it
    changed.  Each change of basis E (b_k -= r b_j, or a swap) is applied
    as tau -> E^T tau E, so tau becomes U^T tau U, and as gamma ->
    diag(E^T, E^{-1}) gamma on gamma's top and bottom rows, so gamma is
    multiplied by diag(U^T, U^{-1}) on the left.  The Gram-Schmidt data is
    updated with each change (Cohen, A Course in Computational Algebraic
    Number Theory, algorithm 2.6.3)."""
    n = len(tau)
    mu, norms = [], []
    for i in range(n):
        dots = [z.imag for z in tau[i][:i + 1]]  # dots[j] becomes <b_i, b*_j>
        row = []
        for j in range(i):
            d, mu_j = dots[j], mu[j]
            for l in range(j):
                d -= mu_j[l] * dots[l]
            dots[j] = d
            row.append(d / norms[j])
        d = dots[i]
        for l in range(i):
            d -= row[l] * dots[l]
        mu.append(row + [0.0] * (n - i))
        norms.append(d)
    changed, k = False, 1
    while k < n:
        row_k = mu[k]
        for j in range(k - 1, -1, -1):
            if -0.5 <= row_k[j] <= 0.5:
                continue
            r = round(row_k[j])  # b_k -= r b_j, r != 0
            changed = True
            row_j = mu[j]
            for l in range(j):
                row_k[l] -= r * row_j[l]
            row_k[j] -= r
            tau[k] = [x - r * y for x, y in zip(tau[k], tau[j])]
            for row in tau:
                row[k] -= r * row[j]
            top[k] = [x - r * y for x, y in zip(top[k], top[j])]
            bottom[j] = [x + r * y for x, y in zip(bottom[j], bottom[k])]
        m = row_k[k - 1]
        if norms[k] >= (0.75 - m * m) * norms[k - 1]:
            k += 1
            continue
        changed = True  # swap b_k and b_k-1
        for rows in (tau, top, bottom):
            rows[k], rows[k - 1] = rows[k - 1], rows[k]
        for row in tau:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
        total = norms[k] + m * m * norms[k - 1]
        mu[k][k - 1] = m * norms[k - 1] / total
        norms[k], norms[k - 1] = norms[k - 1] * norms[k] / total, total
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
        k = max(k - 1, 1)
    return changed


def block_diag(point1: SiegelPoint, point2: SiegelPoint) -> SiegelPoint:
    """Block-diagonal join; the genera add and lambda_min is the minimum
    of the factors'."""
    g1, g2 = point1.genus, point2.genus
    tau = np.zeros((g1 + g2, g1 + g2), dtype=complex)
    tau[:g1, :g1] = point1.tau
    tau[g1:, g1:] = point2.tau
    return validate_siegel(tau)


def siegel_action(gamma: SymplecticInteger, point: SiegelPoint) -> SiegelPoint:
    """gamma o tau = (A tau + B)(C tau + D)^{-1}, re-certified.

    Raises ValueError when |det(C tau + D)| < 1e-8 (near-singular).
    """
    if gamma.genus != point.genus:
        raise ValueError(f"genus mismatch: gamma has {gamma.genus}, point has {point.genus}")
    g, m = gamma.genus, gamma.matrix.astype(complex)
    a, b, c, d = m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]
    denom = c @ point.tau + d
    det = complex(np.linalg.det(denom))
    if abs(det) < _DET_FLOOR:
        raise ValueError(f"C tau + D near-singular: |det| = {abs(det):.3e}")
    numer = a @ point.tau + b
    # tau' = numer @ denom^{-1}, via a solve on the transposed system
    tau_new = np.linalg.solve(denom.T, numer.T).T
    return validate_siegel(tau_new, sym_tol=_ACTION_SYM_TOL)


def random_siegel_point(g: int, rng):
    """A seeded random point with Re uniform in [-0.4, 0.4] and Im = 1_g
    plus a symmetric perturbation scaled to keep lambda_min >= 0.5."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    w = rng.uniform(-1.0, 1.0, size=(g, g))
    re = 0.4 * (w + w.T) / 2
    v = rng.uniform(-1.0, 1.0, size=(g, g))
    im = np.eye(g) + (0.5 / g) * (v + v.T) / 2
    return validate_siegel(re + 1j * im)


def generic_siegel_point(g: int, rng):
    """A seeded random point kept away from the special loci where the
    stratifying forms degenerate.

    Every Re entry is drawn with modulus in [0.22, 0.28]: period matrices
    with Re tau near 0 or near half-integers carry a real structure on
    which the Schottky form is empirically vanishingly small, so generic
    draws stay near quarter-integers.  Im is a Haar-rotated spectrum
    confined to [0.55, 0.9], well conditioned, away from block-diagonal
    (decomposable) shapes and -- since cusp forms decay exponentially in
    tr(Im tau) -- away from the cusp.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    a = rng.normal(size=(g, g))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    im = q @ np.diag(rng.uniform(0.55, 0.9, size=g)) @ q.T
    re = np.zeros((g, g))
    for i in range(g):
        for j in range(i, g):
            re[i, j] = re[j, i] = rng.uniform(0.22, 0.28) * rng.choice([-1.0, 1.0])
    return validate_siegel(re + 1j * im)


def point_to_json(point: SiegelPoint) -> dict:
    """{"genus": g, "tau": [[[re, im], ...], ...]}"""
    return {
        "genus": point.genus,
        "tau": [[[float(x.real), float(x.imag)] for x in row] for row in point.tau],
    }


def point_from_json(obj: dict) -> SiegelPoint:
    if not isinstance(obj, dict):
        raise ValueError(f"a point must be a JSON object {{genus, tau}}, got {type(obj).__name__}")
    g = obj["genus"]
    if not (type(g) is int or isinstance(g, float) and g.is_integer()):
        raise ValueError(f"genus must be an integer, got {g!r}")
    g = int(g)
    rows = obj["tau"]
    if not (type(rows) is list and len(rows) == g and all(type(row) is list and len(row) == g and all(
            type(x) is list and len(x) == 2 and {type(v) for v in x} <= {int, float} for x in row) for row in rows)):
        raise ValueError(f"tau must be a {g}x{g} matrix of [re, im] pairs")
    tau = np.array([[complex(x[0], x[1]) for x in row] for row in rows])
    return validate_siegel(tau)
