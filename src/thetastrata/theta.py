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
walk of one problem.

The walk can also split each ellipsoid at an inner cut C' < C: the near
points q <= C' first, a marker, then the far points, all from the same
last-level parents, so the two parts are exactly the uncut walk.
_even_constants yields the constants of the inner ellipsoid, cut for a
coarse target at the same box radius, before it adds the shell;
classify stops there when those values already decide its label.

siegel_reduction maps a point to a Siegel-reduced representative of its
Sp(2g, Z) orbit (LLL on Im tau, shifts of Re tau, quasi-inversions), where
det Im tau is largest and the ellipsoids smallest; classify sums there
when the walk at tau is large.

Arithmetic is double precision.  The tail bound of a ThetaValue covers
truncation only, not the ~1e-15-per-term floating point floor;
_even_constants also bounds the rounding of its sums, by
(N + c) u sum|terms| over the N points summed (its docstring derives c).
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
from .symplectic import SymplecticInteger

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
    space; rejects asymmetry beyond sym_tol and non-positive-definite
    imaginary part (reporting lambda_min).

    lambda_min is numpy's smallest eigenvalue of Im tau lowered by two
    rounding units of ||Im tau||_F, and lowered again by twice as much
    until a Cholesky factorization of Im tau - lambda_min * 1 succeeds,
    which confirms it lies below the spectrum.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
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
            break
    return total * (1 + 1e-12) + 1e-320


def truncation_radius(point: SiegelPoint, target: float, z_im_norm: float = 0.0) -> int:
    """Smallest box radius whose certified tail bound is below target.

    The search starts where the bound's first term can drop below target:
    at z = 0 a radius with exp(-pi lambda_min (R - 1/2)^2) > target has a
    first term, at least twice that, above target, so it is skipped
    without summing its tail (one radius lower, for rounding).
    """
    if target <= 0:
        raise ValueError(f"target must be positive, got {target}")
    lam = point.lambda_min
    radius = max(1, math.ceil(z_im_norm / lam + 0.5 + 1e-9))
    if not z_im_norm and target < 1:
        radius = max(radius, math.ceil(0.5 + math.sqrt(math.log(1 / target) / (math.pi * lam))) - 1)
    while True:
        if radius > DEFAULT_RADIUS_CAP:
            raise CapExceededError(
                f"truncation radius cap {DEFAULT_RADIUS_CAP} exceeded for target {target:.1e} "
                f"at lambda_min {lam:.3e}"
            )
        if truncation_tail_bound(point.genus, lam, radius, z_im_norm) < target:
            return radius
        radius += 1


def _truncation(point: SiegelPoint, target: float, z_im: float = 0.0, lift: float = 0.0):
    """(radius, tail_bound, bound) of one theta sum: the box radius R, the
    two-part error bound and the enumeration bound C + lift on q (lift is
    L), widened past the rounding of the enumeration's Cholesky sums."""
    radius = truncation_radius(point, target, z_im)
    tail = truncation_tail_bound(point.genus, point.lambda_min, radius, z_im)
    return (radius, *_cut((2 * radius + 1) ** point.genus, tail, target, lift))


def _cut(n_box: int, tail: float, target: float, lift: float = 0.0):
    """(tail_bound, bound) of the points q <= C + lift of a box of n_box
    points whose tail is `tail`, with C chosen for `target`."""
    cut = math.log(2 * n_box / (target - tail)) / math.pi
    dropped = n_box * math.exp(-math.pi * cut) * (1 + 1e-12)  # padded past float rounding
    return tail + dropped, (cut + lift) * (1 + _CUT_SLACK)


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
    values, tail_bound, _, radius = next(_even_constants(point, target))
    return {m: ThetaValue(complex(v), tail_bound, radius) for m, v in zip(_even_tables(point.genus)[0], values)}


def _even_constants(point: SiegelPoint, target: float, coarse: float | None = None, drift: float = 0.0):
    """Yield (values, truncation, rounding, radius) of the even theta
    constants at one point: values in all_characteristics(g, "even")
    order, bounds of their truncation and rounding errors, and the box
    radius R for target.  With a coarse target above target it yields
    twice: first the sums over the inner ellipsoid cut for coarse at the
    same R, whose bounds also cover the second yield's, so that their sum
    bounds the distance between the two yields; then the sums with the
    far points added.  A consumer that closes the generator after the
    first yield never builds the far points.

    In m = 2p = 2n + eps the boxes |n|_inf <= R of all eps classes fill
    the integer box [-2R, 2R+1]^g, and m mod 4 holds both eps (bit 0 of
    each digit) and n mod 2 (bit 1).  The delta dependence is the root of
    unity exp(pi i p^T delta) = i^{m . delta}, so the sum collapses onto
    the 4^g classes of m mod 4, each folded with np.bincount.

    Only the m with q = p^T (Im tau) p <= C are summed, the cut of
    theta_function at z = 0.  The terms of m and -m are equal, and on even
    characteristics their classes carry the same weight (m . delta is
    even), so the enumeration visits half of the ellipsoid and counts each
    term twice.  It runs over |m|_inf <= E = 2R+1, the box and its mirror
    image; the few terms this adds beyond the box are series terms, which
    leave the bound intact.

    Rounding.  Let u be the unit roundoff, Im(tau/4) = L L^T, S = Re(tau/4)
    and l = lambda_min / 4, so a point m has |m|_inf^2 <= q / l.  Its q is
    a sum of g squares of partial sums sum_{j>=i} L_ji m_j, each formed in
    g+2 operations from products of total modulus at most sum_j |L_ji|
    |m|_inf, so q carries an error of at most
    (3(g+2) (sum|L|)^2 / l + g+1) q u; its phase m^T S m is a sum of
    products of total modulus at most sum|S| q / l, with error at most
    (2g+2) sum|S| q / l u.  So the term s cos(pi phase), s = 2 exp(-pi q),
    and the same with sin, is within (4 + a q) u s of the exact one, with
    a = pi (3(g+2) (sum|L|)^2 / l + g+2 + (2g+3) sum|S| / l).  A constant
    is a recursive sum of its terms (one bincount per chunk, added onto the
    running class sums) combined over 2^g classes with weights +-1, +-i, so
    with N the points summed plus the chunks its rounding error is at most
    ((N + 2^g + 5) sum s + a sum s q) u, to first order in u; the factor
    1 + 1e-6 covers the rest while N u stays below 1e-7.  The first yield's
    rounding adds this bound for the second yield, taken a priori: at most
    the half box, ((2E+1)^g + 1) / 2 points and as many chunks, each far
    term of modulus below 2 exp(-pi C_coarse) (1 + 1e-9) and q <= C.

    Drift.  When point.tau is a computed stand-in for an exact tau' with
    ||tau' - point.tau||_2 <= drift (siegel_reduction's bound), a term's
    exponent pi i p^T tau p moves by at most x = pi drift |p|^2
    <= pi drift q / lambda_min, so the term by at most s (e^x - 1)
    <= s x e^x.  With q <= C that adds pi drift e^{pi drift C / lambda_min}
    / lambda_min to a, so the rounding bound covers tau' too.
    """
    g = point.genus
    radius = truncation_radius(point, target)
    tail = truncation_tail_bound(g, point.lambda_min, radius)
    edge = 2 * radius + 1
    tail_bound, bound = _cut(edge**g, tail, target)
    form = point.tau / 4
    inner = None
    if coarse is not None:
        coarse_bound, inner_cut = _cut(edge**g, tail, coarse)
        inner = np.array([inner_cut])
    slope = (3 * (g + 2) * np.abs(np.linalg.cholesky(form.imag)).sum() ** 2
             + (2 * g + 3) * np.abs(form.real).sum()) / (point.lambda_min / 4)
    slope = math.pi * (slope + g + 2)
    if drift:
        slope += math.pi * drift / point.lambda_min * math.exp(math.pi * drift * bound / point.lambda_min) / _UNIT

    def rounding(n_terms, mass, q_mass):
        return ((n_terms + 2**g + 5) * mass + slope * q_mass) * _UNIT * (1 + 1e-6)

    _, bins, weights = _even_tables(g)
    sums = np.zeros(4**g, dtype=complex)
    mass, q_mass, n_terms = 0.0, 0.0, 0
    origin = np.zeros((1, g))

    def folded():
        classes = sums.copy()
        classes[0] -= 1  # m = 0 is its own mirror image: its term 1 went in twice
        return (weights * classes[bins]).sum(axis=1)

    for chunk in _ellipsoid(form[None], np.array([bound]), np.array([edge]), origin, origin,
                            half=True, inner=inner):
        if chunk is None:
            n_half = ((2 * edge + 1) ** g + 1) // 2
            far_mass = n_half * 2 * math.exp(-math.pi * inner_cut) * (1 + 1e-9)
            ahead = rounding(2 * n_half, mass + far_mass, q_mass + far_mass * bound)
            yield folded(), coarse_bound + tail_bound, rounding(n_terms, mass, q_mass) + ahead, radius
            continue
        _, q, phase, cls = chunk
        size = 2 * np.exp(-np.pi * q)
        angle = np.pi * phase
        sums += np.bincount(cls, size * np.cos(angle), 4**g)
        sums += 1j * np.bincount(cls, size * np.sin(angle), 4**g)
        mass += float(size.sum())
        q_mass += float(size @ q)
        n_terms += len(q) + 1  # one more addition per chunk
    yield folded(), tail_bound, rounding(n_terms, mass, q_mass), radius


def _ellipsoid(forms: np.ndarray, bounds, edges, centers, shifts, half: bool = False,
               limit: int = _ELLIPSOID_CHUNK, inner=None):
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

    With inner (P,), inner <= bounds, every near point comes first, then
    a None marker, then the far points: at the last level each parent's
    x_0 interval [first, last] holds the sub-interval of q <= inner[p],
    taken from the same mid, q and L_00, so it lies inside [first, last].  The near
    chunks run over that sub-interval; the parents are kept, and after
    the marker the far chunks run over the rest of their intervals.  So
    the near and far points together are exactly the points of the walk
    without inner, and a consumer that closes the generator at the marker
    never builds the far ones.

    Fincke-Pohst: with Im form = L L^T,
    q = sum_i (sum_{j>=i} L_ji (x_j - center_j))^2, so once x_{i+1}, ...,
    x_{g-1} are fixed, x_i runs over an interval.  Each array is built up
    one coordinate at a time, a parent passing its values to its
    children with np.repeat.
    """
    n_prob, g = len(forms), forms.shape[-1]
    chol = np.linalg.cholesky(forms.imag)
    pull = (centers[:, None, :] @ chol)[:, 0]  # pull_i = sum_{j>=i} L_ji center_j
    table = np.concatenate([pull, shifts, chol.reshape(n_prob, -1), forms.real.reshape(n_prob, -1),
                            bounds[:, None], edges[:, None]], axis=1)
    tables = [table[:, columns] for columns in _level_columns(g)]
    kept = []  # the last level's parents and their near runs, for the far points

    def children(first, count, per_parent, parents, i):
        # the points first[k], ..., first[k] + count[k] - 1 of each run k,
        # as (new, prob, q, phase, cls); parent j has per_parent[j] of them
        mid, lin, diag, re_ii, q, phase, cls, prob = parents
        new = (first - (np.cumsum(count) - count)).repeat(count) + np.arange(int(count.sum()))
        if prob[0] == prob[-1]:  # one problem: its coefficients broadcast
            diag, re_ii = diag[:1], re_ii[:1]
        else:
            diag, re_ii = diag.repeat(per_parent), re_ii.repeat(per_parent)
        q = q.repeat(per_parent) + (diag * (new - mid.repeat(per_parent))) ** 2
        phase = phase.repeat(per_parent) + new * (re_ii * new + (2 * lin).repeat(per_parent))
        return new, prob.repeat(per_parent), q, phase, cls.repeat(per_parent) + ((new & 3) << (2 * i))

    def expand(cols, zero, q, phase, cls, prob, i):
        # cols holds x_{g-1}, ..., x_{i+1}; zero marks an all-zero prefix;
        # mid and lin start as pull_i and shift_i
        mid, lin, diag, re_ii, bound, edge, *coef = tables[i].take(prob, axis=0).T
        for k, col in enumerate(cols):
            mid -= coef[k] * col
            lin += coef[len(cols) + k] * col
        mid /= diag
        low = np.where(zero, 0, -edge)
        half_width = np.sqrt(np.maximum(bound - q, 0.0)) / diag
        first = np.maximum(np.ceil(mid - half_width), low).astype(np.int64)
        count = np.maximum(np.minimum(np.floor(mid + half_width), edge).astype(np.int64) - first + 1, 0)
        total = int(count.sum())
        if not total:
            return
        if total > limit and len(q) > 1:
            at = len(q) // 2
            for part in (slice(None, at), slice(at, None)):
                yield from expand([col[part] for col in cols], zero[part], q[part], phase[part],
                                  cls[part], prob[part], i)
            return
        parents = (mid, lin, diag, re_ii, q, phase, cls, prob)
        if i == 0 and inner is not None:
            # inner <= bound, and every step below is monotone in it, so the
            # near run starts at or after first and ends at or before the
            # last point; it is empty where its end falls before its start
            half_width = np.sqrt(np.maximum(inner.take(prob) - q, 0.0)) / diag
            skip = np.minimum(np.maximum(np.ceil(mid - half_width), low).astype(np.int64) - first, count)
            near = np.maximum(np.minimum(np.floor(mid + half_width), edge).astype(np.int64) - first - skip + 1, 0)
            kept.append((first, skip, near, count, parents))
            if near.any():
                yield children(first + skip, near, near, parents, 0)[1:]
            return
        new, prob, q, phase, cls = children(first, count, count, parents, i)
        del mid, lin, diag, re_ii, bound, edge, coef, half_width, first, parents  # free the parents' table
        if i == 0:
            yield prob, q, phase, cls
        else:
            cols = [col.repeat(count) for col in cols] + [new]
            yield from expand(cols, zero.repeat(count) & (new == 0), q, phase, cls, prob, i - 1)

    try:
        yield from expand([], np.full(n_prob, half), np.zeros(n_prob), np.zeros(n_prob),
                          np.zeros(n_prob, dtype=np.int64), np.arange(n_prob), g - 1)
        if inner is not None:
            yield None
            while kept:
                first, skip, near, count, parents = kept.pop(0)
                far = count - near
                if far.any():  # per parent, the run before its near run and the one after it
                    runs = np.stack([first, first + skip + near], axis=1).ravel()
                    yield children(runs, np.stack([skip, far - skip], axis=1).ravel(), far, parents, 0)[1:]
    finally:
        kept.clear()  # expand's closure is a reference cycle: it would hold the parents until the next collection


@cache
def _level_columns(g: int) -> list[np.ndarray]:
    """For each level i of _ellipsoid, the columns of its problem table
    (pull, shift, L and Re row by row, bound, edge) that a parent reads:
    pull_i, shift_i, L_ii, Re_ii, bound, edge, then L_ji and Re_ji for
    j = g-1, ..., i+1."""
    chol, re, bound = 2 * g, 2 * g + g * g, 2 * g + 2 * g * g
    higher = [range(g - 1, i, -1) for i in range(g)]
    return [np.array([i, g + i, chol + i * (g + 1), re + i * (g + 1), bound, bound + 1]
                     + [chol + j * g + i for j in higher[i]] + [re + j * g + i for j in higher[i]])
            for i in range(g)]


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
    g = int(obj["genus"])
    rows = obj["tau"]
    if len(rows) != g or any(len(row) != g for row in rows):
        raise ValueError(f"tau must be a {g}x{g} matrix of [re, im] pairs")
    tau = np.array([[complex(x[0], x[1]) for x in row] for row in rows])
    return validate_siegel(tau)
