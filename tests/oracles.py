"""Independent reference implementations used as test oracles.

Everything here is deliberately primitive (plain Python loops, cmath) and
shares no code with the package's evaluation paths.
"""

import cmath
import itertools
import math
import random
from fractions import Fraction
from functools import cache
from types import SimpleNamespace


def brute_force_parity_census(g):
    """(even, odd) counts by enumerating all 2^(2g) characteristics."""
    even = odd = 0
    for bits in itertools.product((0, 1), repeat=2 * g):
        eps, delta = bits[:g], bits[g:]
        if sum(e * d for e, d in zip(eps, delta)) % 2 == 0:
            even += 1
        else:
            odd += 1
    return even, odd


def direct_theta_sum(eps, delta, z, tau_rows, radius):
    """Box-truncated theta sum via scalar cmath arithmetic."""
    g = len(eps)
    total = 0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        p = [ni + ei / 2 for ni, ei in zip(n, eps)]
        quad = sum(p[i] * tau_rows[i][j] * p[j] for i in range(g) for j in range(g))
        lin = sum(pi * (zi + di / 2) for pi, zi, di in zip(p, z, delta))
        total += cmath.exp(1j * math.pi * (quad + 2 * lin))
    return total


def direct_theta_constant(m, point, radius):
    """Oracle for theta_m(0, tau) at an explicit truncation radius."""
    rows = [[complex(x) for x in row] for row in point.tau]
    return direct_theta_sum(m.eps, m.delta, [0.0] * m.genus, rows, radius)


def shell_tail_bound(g, lam, radius, z_im_norm=0.0):
    """Reference shell-sum bound, summed until terms are negligible."""
    total, s = 0.0, radius
    while True:
        shell = (2 * s + 1) ** g - (2 * s - 1) ** g
        t = s - 0.5
        term = shell * math.exp(-math.pi * lam * t * t + 2 * math.pi * t * z_im_norm)
        total += term
        if term == 0.0 or term < total * 1e-18:
            return total
        s += 1


def min_eig_2x2(a, b, c):
    """Closed-form smallest eigenvalue of [[a, b], [b, c]]."""
    return (a + c) / 2 - math.sqrt(((a - c) / 2) ** 2 + b * b)


def _positive_definite(rows):
    """Plain Cholesky: True iff the real symmetric `rows` is positive definite."""
    n = len(rows)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = rows[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if i == j:
                if s <= 0:
                    return False
                low[i][i] = math.sqrt(s)
            else:
                low[i][j] = s / low[j][j]
    return True


def min_eig_lower_bound(rows, steps=60):
    """A lower bound on the smallest eigenvalue of the real symmetric
    positive definite `rows`, by bisection on positive definiteness of
    rows - lam * 1 (the smallest eigenvalue is at most the least diagonal
    entry)."""
    lo, hi = 0.0, min(rows[i][i] for i in range(len(rows)))
    for _ in range(steps):
        mid = (lo + hi) / 2
        shifted = [[x - (mid if i == j else 0.0) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        if _positive_definite(shifted):
            lo = mid
        else:
            hi = mid
    return lo


def lll_reduced(rows, slack=1e-9):
    """Whether a basis with Gram matrix `rows` (real, symmetric) is
    LLL-reduced with delta = 3/4, up to a relative slack: Gram-Schmidt in
    exact rationals on the given floats, then |mu_kj| <= 1/2 and
    B_k >= (3/4 - mu_k,k-1^2) B_k-1."""
    n = len(rows)
    gram = [[Fraction(x) for x in row] for row in rows]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * norms[k] for k in range(j))) / norms[j]
        norms[i] = gram[i][i] - sum(mu[i][k] ** 2 * norms[k] for k in range(i))
    size = all(abs(mu[i][j]) <= 0.5 + slack for i in range(n) for j in range(i))
    return size and all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1] * (1 - slack)
                        for k in range(1, n))


def even_characteristics(g):
    """The even (eps, delta) pairs of genus g, by enumeration."""
    out = []
    for bits in itertools.product((0, 1), repeat=2 * g):
        eps, delta = bits[:g], bits[g:]
        if sum(e * d for e, d in zip(eps, delta)) % 2 == 0:
            out.append((eps, delta))
    return out


def odd_on_some_block_count(parts):
    """Even characteristics of genus sum(parts) whose restriction to some
    diagonal block of the given sizes is odd: the theta constants that
    vanish on a generic product with these blocks."""
    count = 0
    for eps, delta in even_characteristics(sum(parts)):
        start = 0
        for size in parts:
            block = range(start, start + size)
            if sum(eps[i] * delta[i] for i in block) % 2:
                count += 1
                break
            start += size
    return count


def integer_generators(g):
    """(A, B, C, D) of the standard generators of Sp(2g, Z), as lists of
    lists, in standard_generators' order: the inversion [[0, 1], [-1, 0]],
    then the translations [[1, S], [0, 1]] over S = e_ii, then
    S = e_ij + e_ji for i < j."""
    one = [[int(i == j) for j in range(g)] for i in range(g)]
    zero = [[0] * g for _ in range(g)]
    gens = [(zero, one, _neg(one), zero)]
    pairs = [(i, i) for i in range(g)] + [(i, j) for i in range(g) for j in range(i + 1, g)]
    for i, j in pairs:
        s = [[int((r, c) in ((i, j), (j, i))) for c in range(g)] for r in range(g)]
        gens.append((one, s, zero, one))
    return gens


def _mod2_generators(g):
    """integer_generators(g) with every entry reduced mod 2."""
    return [tuple([[x % 2 for x in row] for row in m] for m in gen) for gen in integer_generators(g)]


def _mul(x, y):
    return [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]


def _plus(x, y):
    return [[p + q for p, q in zip(rx, ry)] for rx, ry in zip(x, y)]


def _neg(x):
    return [[-v for v in row] for row in x]


def _t(x):
    return [list(col) for col in zip(*x)]


def block_product(x, y):
    """[[A, B], [C, D]] [[A', B'], [C', D']] on (A, B, C, D) block lists."""
    a, b, c, d = x
    p, q, r, s = y
    return (_plus(_mul(a, p), _mul(b, r)), _plus(_mul(a, q), _mul(b, s)),
            _plus(_mul(c, p), _mul(d, r)), _plus(_mul(c, q), _mul(d, s)))


def block_inverse(x):
    """The symplectic inverse [[D^T, -B^T], [-C^T, A^T]]."""
    a, b, c, d = x
    return _t(d), _neg(_t(b)), _neg(_t(c)), _t(a)


def is_symplectic(x):
    """A^T D - C^T B = 1 with A^T C and B^T D symmetric."""
    a, b, c, d = x
    one = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    at_c, bt_d = _mul(_t(a), c), _mul(_t(b), d)
    return _plus(_mul(_t(a), d), _neg(_mul(_t(c), b))) == one and at_c == _t(at_c) and bt_d == _t(bt_d)


def word_fold(g, word_length, seed):
    """The blocks of random_symplectic(g, word_length, seed) from the same
    random.Random(seed) draws: per letter a generator by rng.choice, then
    its inverse when rng.random() < 0.5, folded left to right."""
    rng = random.Random(seed)
    gens = integer_generators(g)
    out = None
    for _ in range(word_length):
        letter = rng.choice(gens)
        if rng.random() < 0.5:
            letter = block_inverse(letter)
        out = letter if out is None else block_product(out, letter)
    return out


def affine_image(gen, eps, delta):
    """gamma . [eps|delta] by the documented affine formula
    eps' = D eps + C delta + diag(C D^T), delta' = B eps + A delta + diag(A B^T)."""
    a, b, c, d = gen
    g = len(eps)

    def row(x, i, v):
        return sum(x[i][t] * v[t] for t in range(g))

    def diag(x, y, i):
        return sum(x[i][t] * y[i][t] for t in range(g))

    new_eps = tuple((row(d, i, eps) + row(c, i, delta) + diag(c, d, i)) % 2 for i in range(g))
    new_delta = tuple((row(b, i, eps) + row(a, i, delta) + diag(a, b, i)) % 2 for i in range(g))
    return new_eps, new_delta


@cache
def split_set_orbit(g, k):
    """The orbit of the *set* I_k (evens odd on the first k columns and odd
    on the last g - k) under Sp(2g, F2), breadth-first over the standard
    generators, as a frozenset of frozensets of (eps, delta) pairs."""
    evens = even_characteristics(g)
    index = {m: i for i, m in enumerate(evens)}
    perms = [[index[affine_image(gen, eps, delta)] for eps, delta in evens] for gen in _mod2_generators(g)]

    def odd(eps, delta):
        return sum(e * d for e, d in zip(eps, delta)) % 2 == 1

    start = frozenset(i for i, (eps, delta) in enumerate(evens)
                      if odd(eps[:k], delta[:k]) and odd(eps[k:], delta[k:]))
    seen, frontier = {start}, [start]
    while frontier:
        grown = []
        for member in frontier:
            for perm in perms:
                image = frozenset(perm[i] for i in member)
                if image not in seen:
                    seen.add(image)
                    grown.append(image)
        frontier = grown
    return frozenset(frozenset(evens[i] for i in member) for member in seen)


def _add(u, v):
    return tuple((a + b) % 2 for a, b in zip(u, v))


def _form(u, v, g):
    """The symplectic form <u, v> of two 2g-tuples (eps then delta)."""
    return sum(u[i] * v[g + i] + u[g + i] * v[i] for i in range(g)) % 2


@cache
def arf_planes(g):
    """The planes P = span(e, f), <e, f> = 1, of F2^2g as (e, f, I(P)): e
    the least of the three nonzero vectors and f the middle one, in (e, f)
    order, vectors being 2g-tuples eps then delta compared as tuples.
    I(P) = {m even : Arf(q_m|P) = q_m(e) q_m(f) = 1} as an int whose bit
    i stands for even_characteristics(g)[i], from q_m(v) = e(m + v) + e(m)."""
    vectors = list(itertools.product((0, 1), repeat=2 * g))
    evens = [eps + delta for eps, delta in even_characteristics(g)]

    def parity(x):
        return sum(x[i] * x[g + i] for i in range(g)) % 2

    q_one = {v: sum(1 << i for i, m in enumerate(evens) if parity(_add(m, v)) != parity(m)) for v in vectors}
    return [(e, f, q_one[e] & q_one[f]) for e in vectors for f in vectors
            if e < f < _add(e, f) and _form(e, f, g)]


def _plane_keys(g, chars):
    """The key I(P) - chars of every plane of arf_planes(g), as an int."""
    chars = set(chars)
    absent = sum(1 << i for i, m in enumerate(even_characteristics(g)) if m not in chars)
    return [arf & absent for _, _, arf in arf_planes(g)]


def orthogonal_equal_key_pairs(g, chars):
    """(smallest plane index of the group, i, j) for every pair i < j of
    orthogonal planes whose keys I(P) - chars are equal."""
    planes, groups = arf_planes(g), {}
    for i, key in enumerate(_plane_keys(g, chars)):
        groups.setdefault(key, []).append(i)
    for ids in groups.values():
        for a, i in enumerate(ids):
            for j in ids[a + 1:]:
                (e1, f1, _), (e2, f2, _) = planes[i], planes[j]
                if not any(_form(u, v, g) for u in (e1, f1) for v in (e2, f2)):
                    yield ids[0], i, j


def plane_split_reference(g, chars, k):
    """The plane test for a k + (g - k) split of the even (eps, delta)
    pairs `chars`, as (planes, nodes, I(W)).  With k' = min(k, g - k):
    for k' = 1 the first plane whose key I(P) - chars is empty; for
    k' = 2 the least (group, i, j) of orthogonal_equal_key_pairs, that is
    the groups of equal keys in order of their smallest plane index and
    in the first holding an orthogonal pair its least pair, with
    I(W) = I(P_i) ^ I(P_j).  planes is the list of (e, f) found, or None;
    nodes is the found plane's index + 1 for k' = 1 and the plane count
    otherwise."""
    planes, evens = arf_planes(g), even_characteristics(g)

    def members(arf):
        return {m for i, m in enumerate(evens) if arf >> i & 1}

    if min(k, g - k) == 1:
        i = next((i for i, key in enumerate(_plane_keys(g, chars)) if not key), None)
        return (None, len(planes), None) if i is None else ([planes[i][:2]], i + 1, members(planes[i][2]))
    best = min(orthogonal_equal_key_pairs(g, chars), default=None)
    if best is None:
        return None, len(planes), None
    (e1, f1, arf1), (e2, f2, arf2) = planes[best[1]], planes[best[2]]
    return [(e1, f1), (e2, f2)], len(planes), members(arf1 ^ arf2)


# atoms: "1" elliptic, "2i" indecomposable surface, "3n"/"3h"
# (non)hyperelliptic indecomposable threefold
_BLOCK_STRATA = {
    ("1", "3n"): "X3",
    ("1", "3h"): "X4",
    ("2i", "2i"): "X4",
    ("1", "1", "2i"): "X5",
    ("1", "1", "1", "1"): "X6",
}


def _block_atoms(genus, van_count):
    if genus == 1:
        table = {0: ["1"]}
    elif genus == 2:
        table = {0: ["2i"], odd_on_some_block_count((1, 1)): ["1", "1"]}
    elif genus == 3:
        table = {
            0: ["3n"],
            1: ["3h"],
            odd_on_some_block_count((1, 2)): ["1", "2i"],
            odd_on_some_block_count((1, 1, 1)): ["1", "1", "1"],
        }
    else:
        return None
    return table.get(van_count)


def diagonal_blocks(tau_rows, tol=1e-9):
    """Index sets of the connected components of the graph |tau_ij| > tol."""
    g = len(tau_rows)
    seen, parts = set(), []
    for start in range(g):
        if start in seen:
            continue
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            if i in seen:
                continue
            seen.add(i)
            comp.append(i)
            stack.extend(j for j in range(g) if j != i and abs(tau_rows[i][j]) > tol)
        parts.append(sorted(comp))
    return parts


def block_stratum_label(tau_rows, rel_threshold=1e-6, target=1e-12):
    """Stratum of a block-diagonal tau from its blocks alone: each block's
    vanishing even theta constants, counted by box sums, give its atoms,
    and the sorted atoms of all blocks name the stratum (None if they name
    none). The box radius of each block is the least with
    shell_tail_bound < target at that block's smallest eigenvalue."""
    atoms = []
    for idx in diagonal_blocks(tau_rows):
        sub = [[complex(tau_rows[i][j]) for j in idx] for i in idx]
        g = len(idx)
        lam = min_eig_lower_bound([[z.imag for z in row] for row in sub])
        radius = 1
        while shell_tail_bound(g, lam, radius) >= target:
            radius += 1
        block = SimpleNamespace(tau=sub)
        mags = [abs(direct_theta_constant(SimpleNamespace(genus=g, eps=eps, delta=delta), block, radius))
                for eps, delta in even_characteristics(g)]
        scale = max(mags)
        kinds = _block_atoms(g, sum(1 for x in mags if x < rel_threshold * scale))
        if kinds is None:
            return None
        atoms.extend(kinds)
    return _BLOCK_STRATA.get(tuple(sorted(atoms)))
