"""The integer symplectic group in block form and its action on characteristics.

Elements of Sp(2g, Z) are kept as exact integer blocks A, B, C, D with
A^T D - C^T B = 1, A^T C and B^T D symmetric.  Reduction mod 2 lands in
Sp(2g, F2), which acts on theta characteristics by the affine map

    gamma . [eps|delta] = [[D, C], [B, A]] [eps; delta]
                          + [diag(C D^T); diag(A B^T)]   (mod 2).

The shift convention is the one calibrated against the theta transformation
law theta_{gamma.m}(0, gamma o tau)^8 = det(C tau + D)^4 theta_m(0, tau)^8;
see tests for the numerical calibration that rejects the alternatives.

Ordered tuples of even characteristics are classified up to this action by
two finite invariants: the space of even-cardinality index sets summing to
zero, and the parities e(m_i + m_j + m_k) over distinct index triples.
orbit_profile computes them; orbit_bfs provides the brute-force oracle at
small genus.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property

from . import _gf2
from .chars import Characteristic, CharTuple, all_characteristics, code_parity
from .errors import CapExceededError

__all__ = [
    "SymplecticInteger",
    "SymplecticModTwo",
    "OrbitProfile",
    "standard_generators",
    "affine_action",
    "act_on_tuple",
    "orbit_profile",
    "tuples_equivalent",
    "orbit_bfs",
    "random_symplectic",
]

Matrix = tuple[tuple[int, ...], ...]

ORBIT_GENUS_CAP = 3
ORBIT_MEMORY_CAP = 2**24


def _as_matrix(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def _identity(g: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(g)) for i in range(g))


def _zero(g: int) -> Matrix:
    return tuple((0,) * g for _ in range(g))


def _matmul(x: Matrix, y: Matrix) -> Matrix:
    yt = tuple(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in yt) for row in x)


def _transpose(x: Matrix) -> Matrix:
    return tuple(zip(*x))


def _add(x: Matrix, y: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _neg(x: Matrix) -> Matrix:
    return tuple(tuple(-a for a in row) for row in x)


def _mod2(x: Matrix) -> Matrix:
    return tuple(tuple(a % 2 for a in row) for row in x)


def _is_symmetric(x: Matrix) -> bool:
    return x == _transpose(x)


def _block_product(x, y):
    """[[A, B], [C, D]] [[A', B'], [C', D']] on block 4-tuples, unchecked."""
    a, b, c, d = x
    u, v, w, z = y
    return (
        _add(_matmul(a, u), _matmul(b, w)),
        _add(_matmul(a, v), _matmul(b, z)),
        _add(_matmul(c, u), _matmul(d, w)),
        _add(_matmul(c, v), _matmul(d, z)),
    )


def _block_inverse(x):
    """The symplectic inverse [[D^T, -B^T], [-C^T, A^T]] of a block
    4-tuple, unchecked."""
    a, b, c, d = x
    return _transpose(d), _neg(_transpose(b)), _neg(_transpose(c)), _transpose(a)


@dataclass(frozen=True)
class _Blocks:
    """A symplectic matrix [[A, B], [C, D]] in g x g blocks whose entries
    are kept reduced by _reduce: A^T D - C^T B = 1, A^T C and B^T D
    symmetric."""

    genus: int
    a: Matrix
    b: Matrix
    c: Matrix
    d: Matrix

    _modulo_two = False

    def _reduce(self, x: Matrix) -> Matrix:
        return _mod2(x) if self._modulo_two else x

    def __post_init__(self):
        g = self.genus
        for name in ("a", "b", "c", "d"):
            m = _as_matrix(getattr(self, name))
            if len(m) != g or any(len(row) != g for row in m):
                raise ValueError(f"block {name.upper()} must be {g}x{g}")
            if self._reduce(m) != m:
                raise ValueError(f"block {name.upper()} must have entries 0/1")
            object.__setattr__(self, name, m)
        at, bt, ct = _transpose(self.a), _transpose(self.b), _transpose(self.c)
        where = " mod 2" if self._modulo_two else ""
        if self._reduce(_add(_matmul(at, self.d), _neg(_matmul(ct, self.b)))) != _identity(g):
            raise ValueError(f"not symplectic{where}: A^T D - C^T B != 1")
        if not (_is_symmetric(self._reduce(_matmul(at, self.c)))
                and _is_symmetric(self._reduce(_matmul(bt, self.d)))):
            raise ValueError(f"not symplectic{where}: A^T C or B^T D not symmetric")

    @classmethod
    def identity(cls, g: int):
        return cls(g, _identity(g), _zero(g), _zero(g), _identity(g))

    def __matmul__(self, other):
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        product = _block_product(self._blocks, other._blocks)
        return type(self)(self.genus, *map(self._reduce, product))

    def inverse(self):
        return type(self)(self.genus, *map(self._reduce, _block_inverse(self._blocks)))

    @property
    def _blocks(self) -> tuple[Matrix, Matrix, Matrix, Matrix]:
        return self.a, self.b, self.c, self.d

    def to_json(self) -> dict:
        return {
            "A": [list(r) for r in self.a],
            "B": [list(r) for r in self.b],
            "C": [list(r) for r in self.c],
            "D": [list(r) for r in self.d],
        }

    @classmethod
    def from_json(cls, obj: dict):
        a = _as_matrix(obj["A"])
        return cls(len(a), a, _as_matrix(obj["B"]), _as_matrix(obj["C"]), _as_matrix(obj["D"]))


class SymplecticInteger(_Blocks):
    """An element of Sp(2g, Z) as exact integer blocks [[A, B], [C, D]]."""

    def mod_two(self) -> "SymplecticModTwo":
        return SymplecticModTwo(self.genus, *map(_mod2, (self.a, self.b, self.c, self.d)))


class SymplecticModTwo(_Blocks):
    """An element of Sp(2g, F2) as bit-matrix blocks."""

    _modulo_two = True

    @cached_property
    def _affine(self) -> tuple[tuple[int, ...], int]:
        """The affine action on codes: the rows of [[D, C], [B, A]] and the
        shift [diag(C D^T); diag(A B^T)], each packed as a code."""
        g = self.genus
        a, b, c, d = self.a, self.b, self.c, self.d
        rows = [Characteristic(g, d[i], c[i]).code for i in range(g)]
        rows += [Characteristic(g, b[i], a[i]).code for i in range(g)]

        def diag(x, y):  # diag(x y^T)
            return [sum(p * q for p, q in zip(x[i], y[i])) % 2 for i in range(g)]

        return tuple(rows), Characteristic(g, diag(c, d), diag(a, b)).code


def standard_generators(g: int) -> list[SymplecticInteger]:
    """A generating set of Sp(2g, Z): the inversion [[0, 1], [-1, 0]] and the
    translations [[1, S], [0, 1]] over the elementary symmetric matrices
    (e_ii, then e_ij + e_ji for i < j).  The list is fresh on every call;
    the generators in it are built once per genus."""
    return list(_generators(g))


@cache
def _generators(g: int) -> tuple[SymplecticInteger, ...]:
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    one, zero = _identity(g), _zero(g)
    gens = [SymplecticInteger(g, zero, one, _neg(one), zero)]
    sym_elems = [(i, i) for i in range(g)] + [(i, j) for i in range(g) for j in range(i + 1, g)]
    for i, j in sym_elems:
        s = [[0] * g for _ in range(g)]
        s[i][j] = s[j][i] = 1
        gens.append(SymplecticInteger(g, one, _as_matrix(s), zero, one))
    return tuple(gens)


def _coerce_mod_two(gamma) -> SymplecticModTwo:
    if isinstance(gamma, SymplecticInteger):
        return gamma.mod_two()
    if isinstance(gamma, SymplecticModTwo):
        return gamma
    raise TypeError(f"expected a symplectic element, got {type(gamma).__name__}")


def _affine_code(gamma: SymplecticModTwo, code: int) -> int:
    rows, shift = gamma._affine
    out = 0
    for row in rows:  # in code order, eps_1 first
        out = (out << 1) | ((row & code).bit_count() & 1)
    return out ^ shift


def affine_action(gamma, m: Characteristic) -> Characteristic:
    """gamma . m per the calibrated affine formula; preserves parity.

    eps' = D eps + C delta + diag(C D^T),  delta' = B eps + A delta + diag(A B^T).
    """
    gamma = _coerce_mod_two(gamma)
    if gamma.genus != m.genus:
        raise ValueError(f"genus mismatch: gamma has {gamma.genus}, m has {m.genus}")
    return Characteristic.from_code(m.genus, _affine_code(gamma, m.code))


def act_on_tuple(gamma, tup: CharTuple) -> CharTuple:
    """Entrywise affine action, order preserved."""
    gamma = _coerce_mod_two(gamma)
    if gamma.genus != tup.genus:
        raise ValueError(f"genus mismatch: gamma has {gamma.genus}, tuple has {tup.genus}")
    return CharTuple(tup.genus, tuple(affine_action(gamma, m) for m in tup))


@dataclass(frozen=True)
class OrbitProfile:
    """The two orbit invariants of an ordered even tuple.

    relation_basis: canonical (rref) basis of the space of even-cardinality
    index subsets whose characteristic sum is zero, each subset as a sorted
    tuple of 0-based indices.
    triple_parities: e(m_i + m_j + m_k) over distinct triples i < j < k in
    lexicographic order.
    """

    length: int
    relation_basis: tuple[tuple[int, ...], ...]
    triple_parities: tuple[int, ...]

    def triple_parity(self, i: int, j: int, k: int) -> int:
        i, j, k = sorted((i, j, k))
        if not 0 <= i < j < k < self.length:
            raise ValueError("indices must be distinct and within range")
        # position of (i, j, k) among lexicographic combinations
        n = self.length

        def c3(x):
            return x * (x - 1) * (x - 2) // 6

        def c2(x):
            return x * (x - 1) // 2

        pos = c3(n) - c3(n - i) + c2(n - i - 1) - c2(n - j) + (k - j - 1)
        return self.triple_parities[pos]


def orbit_profile(tup: CharTuple) -> OrbitProfile:
    """Compute the orbit invariants of a nonempty even tuple."""
    p = len(tup)
    if p == 0:
        raise ValueError("empty tuple has no orbit profile")
    codes = [m.code for m in tup]
    basis_masks = _gf2.kernel_basis([_gf2.augment(c) for c in codes])
    relation_basis = tuple(_gf2.mask_to_indices(mask, p) for mask in basis_masks)
    triples = tuple(code_parity(a ^ b ^ c, tup.genus) for a, b, c in itertools.combinations(codes, 3))
    return OrbitProfile(p, relation_basis, triples)


def tuples_equivalent(t1: CharTuple, t2: CharTuple) -> bool:
    """True iff the tuples lie in one orbit of the affine Sp(2g, F2) action,
    decided via the two profile invariants."""
    if t1.genus != t2.genus:
        raise ValueError(f"genus mismatch: {t1.genus} != {t2.genus}")
    if len(t1) != len(t2):
        raise ValueError(f"length mismatch: {len(t1)} != {len(t2)}")
    return orbit_profile(t1) == orbit_profile(t2)


def orbit_bfs(tup: CharTuple) -> set[CharTuple]:
    """Full orbit of the tuple under the generators' affine action,
    breadth-first with deduplication.  Enforced caps: genus <= 3 and at
    most 2^24 distinct tuples."""
    g = tup.genus
    if g > ORBIT_GENUS_CAP:
        raise CapExceededError(f"orbit_bfs supports genus <= {ORBIT_GENUS_CAP}, got {g}")
    reduced = [gen.mod_two() for gen in _generators(g)]
    tables = [{m.code: _affine_code(r, m.code) for m in all_characteristics(g)} for r in reduced]
    start = tuple(m.code for m in tup)
    seen = {start}
    frontier = deque([start])
    while frontier:
        current = frontier.popleft()
        for table in tables:
            image = tuple(table[code] for code in current)
            if image not in seen:
                if len(seen) >= ORBIT_MEMORY_CAP:
                    raise CapExceededError(f"orbit exceeds memory cap {ORBIT_MEMORY_CAP}")
                seen.add(image)
                frontier.append(image)
    return {CharTuple(g, tuple(Characteristic.from_code(g, code) for code in member)) for member in seen}


def random_symplectic(g: int, word_length: int, seed: int) -> SymplecticInteger:
    """Product of word_length generators or generator inverses drawn by a
    seeded PRNG; deterministic per (g, word_length, seed).  The letters
    are folded unchecked; the product is checked once, when it is built."""
    if word_length < 1:
        raise ValueError(f"word_length must be >= 1, got {word_length}")
    rng = random.Random(seed)
    gens = _generators(g)
    out = None
    for _ in range(word_length):
        letter = rng.choice(gens)._blocks
        if rng.random() < 0.5:
            letter = _block_inverse(letter)
        out = letter if out is None else _block_product(out, letter)
    return SymplecticInteger(g, *out)
