"""The integer symplectic group as one matrix and its action on characteristics.

An element of Sp(2g, Z) is one 2g x 2g matrix M = [[A, B], [C, D]] of
exact Python ints (dtype=object, so long words never overflow) with
M^T J M = J, J = [[0, 1], [-1, 0]]; the blocks A, B, C, D are views of it.
Reduction mod 2 lands in Sp(2g, F2), held as int64 0/1 however it is
built, where the same condition holds mod 2.  Every matrix that enters
from outside is checked when built, by one product M^T (J M):
J M = [[C, D], [-A, -B]] is M's block rows swapped, one half negated.
Products and inverses of checked elements are symplectic by algebra and
are not checked again.
Sp(2g, F2) acts on theta characteristics by the affine map

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
from functools import cache

import numpy as np

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


@cache
def _form(g: int) -> np.ndarray:
    """J = [[0, 1], [-1, 0]] in g x g blocks."""
    return np.array([[(j == i + g) - (i == j + g) for j in range(2 * g)] for i in range(2 * g)])


class _Element:
    """A symplectic matrix M = [[A, B], [C, D]], held as one 2g x 2g array
    `matrix` of the class's dtype.  Every matrix from outside is checked
    when built: M^T J M = J, mod 2 for SymplecticModTwo."""

    _modulo_two = False
    _dtype = object  # Python ints, which no product overflows

    def __init__(self, genus: int, a, b, c, d):
        blocks = [_as_matrix(x) for x in (a, b, c, d)]
        for name, x in zip("ABCD", blocks):
            if genus < 1 or len(x) != genus or any(len(row) != genus for row in x):
                raise ValueError(f"block {name} must be {genus}x{genus}")
            if self._modulo_two and any(v not in (0, 1) for row in x for v in row):
                raise ValueError(f"block {name} must have entries 0/1")
        a, b, c, d = blocks
        self._set_matrix(np.array([p + q for p, q in zip(a + c, b + d)], dtype=self._dtype))

    @classmethod
    def _of(cls, matrix: np.ndarray, check: bool = True):
        """The element with this matrix, reduced mod 2 for SymplecticModTwo.
        check=False is only for a matrix symplectic by algebra: a product
        or an inverse of elements that were checked."""
        out = object.__new__(cls)
        out._set_matrix(np.asarray(matrix % 2 if cls._modulo_two else matrix, dtype=cls._dtype), check)
        return out

    def _set_matrix(self, m: np.ndarray, check: bool = True) -> None:
        g = len(m) // 2
        if check:
            # J M = [[C, D], [-A, -B]], so the check is one product
            residual = m.T @ np.concatenate((m[g:], -m[:g])) - _form(g)
            if (residual % 2 if self._modulo_two else residual).any():
                raise ValueError(f"not symplectic{' mod 2' if self._modulo_two else ''}: M^T J M != J")
        m.flags.writeable = False
        self.__dict__.update(genus=g, matrix=m)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls, g: int):
        return cls._of(np.identity(2 * g, dtype=np.int64))

    def __matmul__(self, other):
        if self.genus != other.genus:
            raise ValueError("genus mismatch")
        return self._of(self.matrix @ other.matrix, check=False)

    def inverse(self):
        """-J M^T J = [[D^T, -B^T], [-C^T, A^T]]."""
        j = _form(self.genus)
        return self._of(-(j @ self.matrix.T @ j), check=False)

    def _block(self, i: int, j: int) -> Matrix:
        g = self.genus
        return _as_matrix(self.matrix[i * g:(i + 1) * g, j * g:(j + 1) * g])

    a = property(lambda self: self._block(0, 0))
    b = property(lambda self: self._block(0, 1))
    c = property(lambda self: self._block(1, 0))
    d = property(lambda self: self._block(1, 1))

    def __eq__(self, other):
        return type(other) is type(self) and bool(np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash(tuple(self.matrix.flat))

    def __repr__(self):
        return f"{type(self).__name__}({self.genus}, {self.a}, {self.b}, {self.c}, {self.d})"

    def to_json(self) -> dict:
        return {name: [list(r) for r in getattr(self, name.lower())] for name in "ABCD"}

    @classmethod
    def from_json(cls, obj: dict):
        return cls(len(obj["A"]), obj["A"], obj["B"], obj["C"], obj["D"])


class SymplecticInteger(_Element):
    """An element of Sp(2g, Z) as one exact integer matrix [[A, B], [C, D]]."""

    def mod_two(self) -> "SymplecticModTwo":
        return SymplecticModTwo._of(self.matrix, check=False)


class SymplecticModTwo(_Element):
    """An element of Sp(2g, F2) as one 0/1 matrix [[A, B], [C, D]]."""

    _modulo_two = True
    _dtype = np.int64


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
    gens = [SymplecticInteger._of(_form(g))]
    sym_elems = [(i, i) for i in range(g)] + [(i, j) for i in range(g) for j in range(i + 1, g)]
    for i, j in sym_elems:
        m = np.identity(2 * g, dtype=np.int64)
        m[i, g + j] = m[j, g + i] = 1
        gens.append(SymplecticInteger._of(m))
    return tuple(gens)


@cache
def _letters(g: int) -> tuple[tuple[SymplecticInteger, SymplecticInteger], ...]:
    """Each generator with its inverse: the letters of random_symplectic."""
    return tuple((gen, gen.inverse()) for gen in _generators(g))


def _coerce_mod_two(gamma) -> SymplecticModTwo:
    if isinstance(gamma, SymplecticInteger):
        return gamma.mod_two()
    if isinstance(gamma, SymplecticModTwo):
        return gamma
    raise TypeError(f"expected a symplectic element, got {type(gamma).__name__}")


@cache
def _places(g: int) -> np.ndarray:
    """Where each entry of v = [delta; eps], the vector M acts on, sits in
    a genus-g code: delta_1 .. delta_g at bits g-1 .. 0, eps_1 .. eps_g at
    bits 2g-1 .. g."""
    return (g - 1 - np.arange(2 * g)) % (2 * g)


def _act_codes(gamma: SymplecticModTwo, codes: np.ndarray) -> np.ndarray:
    """gamma . c for every code c of an int64 array, by one product over
    F2: with v the bits of c, gamma . c has the bits
    M v + [diag(A B^T); diag(C D^T)] mod 2."""
    g, m = gamma.genus, gamma.matrix
    places = _places(g)
    bits = codes[:, None] >> places & 1
    return ((bits @ m.T + (m[:, :g] * m[:, g:]).sum(axis=1)) & 1) @ (1 << places)


@cache
def _even_index(g: int) -> tuple[np.ndarray, np.ndarray]:
    """The even codes in order, and each even code's position among them."""
    codes = np.array([m.code for m in all_characteristics(g, "even")])
    index = np.full(1 << (2 * g), -1)
    index[codes] = np.arange(len(codes))
    return codes, index


def _even_slots(gamma: SymplecticInteger) -> np.ndarray:
    """For each even m, in all_characteristics(g, "even") order, the index
    of gamma . m in that order."""
    codes, index = _even_index(gamma.genus)
    return index[_act_codes(gamma.mod_two(), codes)]


def affine_action(gamma, m: Characteristic) -> Characteristic:
    """gamma . m per the calibrated affine formula; preserves parity.

    eps' = D eps + C delta + diag(C D^T),  delta' = B eps + A delta + diag(A B^T).
    """
    gamma = _coerce_mod_two(gamma)
    if gamma.genus != m.genus:
        raise ValueError(f"genus mismatch: gamma has {gamma.genus}, m has {m.genus}")
    return Characteristic.from_code(m.genus, int(_act_codes(gamma, np.array([m.code]))[0]))


def act_on_tuple(gamma, tup: CharTuple) -> CharTuple:
    """Entrywise affine action, order preserved."""
    gamma = _coerce_mod_two(gamma)
    if gamma.genus != tup.genus:
        raise ValueError(f"genus mismatch: gamma has {gamma.genus}, tuple has {tup.genus}")
    every = all_characteristics(tup.genus)  # in code order
    images = _act_codes(gamma, np.array([m.code for m in tup], dtype=np.int64)).tolist()
    return CharTuple(tup.genus, tuple(every[c] for c in images))


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
    tables = [_act_codes(r, np.arange(1 << (2 * g))).tolist() for r in reduced]
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
    seeded PRNG; deterministic per (g, word_length, seed)."""
    if word_length < 1:
        raise ValueError(f"word_length must be >= 1, got {word_length}")
    rng = random.Random(seed)
    out = None
    for _ in range(word_length):
        letter, inverse = rng.choice(_letters(g))
        if rng.random() < 0.5:
            letter = inverse
        out = letter if out is None else out @ letter
    return out
