"""Theta characteristics over F2.

A characteristic for genus g is a pair of bit vectors [eps|delta] of
length g each, i.e. an element of (Z/2Z)^{2g}.  Its parity is
e(m) = eps . delta mod 2; characteristics with e(m) = 0 are *even* and
are the only ones with nonvanishing theta constants.  This module holds
the exact combinatorics: enumeration, parity, componentwise sums, block
concatenation/restriction, and the distinguished tuples I_k of even
characteristics that split as odd x odd across the first k columns.

Bit layout.  This module is the one place that defines it; every other
module goes through the functions here.  A genus-g characteristic is the
2g-bit integer

    code = (eps << g) | delta,

where eps and delta are read as binary numbers with eps_1 and delta_1 as
their most significant bits: eps_i is bit 2g - i of the code and delta_i
is bit g - i.  Increasing code is therefore the lexicographic order of
the strings "eps_1...eps_g|delta_1...delta_g".  A sum over F2 is the XOR
of codes, and the symplectic pairing eps_a . delta_b + eps_b . delta_a of
codes a and b is (a & swap(b)).bit_count() & 1, where swap exchanges the
eps and delta halves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

__all__ = [
    "Characteristic",
    "CharTuple",
    "all_characteristics",
    "parity",
    "add",
    "concat",
    "split",
    "swap",
    "code_parity",
    "code_bits",
    "bits_code",
    "pairing",
    "product_split_tuple",
    "n_k",
    "even_count",
    "odd_count",
]


def _halves(code: int, g: int) -> tuple[int, int]:
    """(eps, delta) of a genus-g code, each as a g-bit integer."""
    return code >> g, code & ((1 << g) - 1)


def _bits(value: int, width: int) -> tuple[int, ...]:
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


@dataclass(frozen=True, init=False)
class Characteristic:
    """One theta characteristic [eps|delta] of a fixed genus, stored as its
    2g-bit code (see the module docstring for the layout)."""

    genus: int
    code: int

    def __init__(self, genus: int, eps, delta):
        if genus < 1:
            raise ValueError(f"genus must be >= 1, got {genus}")
        eps, delta = tuple(int(b) for b in eps), tuple(int(b) for b in delta)
        if len(eps) != genus or len(delta) != genus:
            raise ValueError("eps and delta must each have length genus")
        if any(b not in (0, 1) for b in eps + delta):
            raise ValueError("characteristic entries must be 0 or 1")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "code", bits_code(eps + delta))

    @classmethod
    def from_code(cls, genus: int, code: int) -> "Characteristic":
        """The characteristic whose 2g-bit code is `code`."""
        if genus < 1 or not 0 <= code < 1 << (2 * genus):
            raise ValueError(f"no genus-{genus} characteristic has code {code}")
        m = object.__new__(cls)
        object.__setattr__(m, "genus", genus)
        object.__setattr__(m, "code", code)
        return m

    @classmethod
    def from_string(cls, text: str) -> "Characteristic":
        """Parse the "eps_1...eps_g|delta_1...delta_g" form, e.g. "0110|1001"."""
        eps_part, sep, delta_part = text.partition("|")
        if not sep or len(eps_part) != len(delta_part) or not eps_part:
            raise ValueError(f"malformed characteristic string: {text!r}")
        if set(eps_part + delta_part) - {"0", "1"}:
            raise ValueError(f"malformed characteristic string: {text!r}")
        return cls.from_code(len(eps_part), int(eps_part + delta_part, 2))

    @property
    def eps(self) -> tuple[int, ...]:
        return _bits(_halves(self.code, self.genus)[0], self.genus)

    @property
    def delta(self) -> tuple[int, ...]:
        return _bits(_halves(self.code, self.genus)[1], self.genus)

    def __str__(self) -> str:
        bits = format(self.code, f"0{2 * self.genus}b")
        return bits[: self.genus] + "|" + bits[self.genus :]


def swap(code: int, g: int) -> int:
    """The genus-g code with its eps and delta halves exchanged."""
    eps, delta = _halves(code, g)
    return (delta << g) | eps


def code_bits(code: int, g: int) -> tuple[int, ...]:
    """The 2g bits eps_1, ..., eps_g, delta_1, ..., delta_g of a genus-g code."""
    return _bits(code, 2 * g)


def bits_code(bits) -> int:
    """The code whose bits, eps_1 first, are `bits`; inverse to code_bits."""
    return int("".join(map(str, bits)), 2)


def code_parity(code: int, g: int) -> int:
    """e(m) = eps . delta mod 2 of the genus-g characteristic with this code."""
    eps, delta = _halves(code, g)
    return (eps & delta).bit_count() & 1


def pairing(a: int, b: int, g: int) -> int:
    """Symplectic pairing <a, b> = eps_a . delta_b + eps_b . delta_a mod 2
    of two genus-g codes."""
    return (a & swap(b, g)).bit_count() & 1


def parity(m: Characteristic) -> int:
    """e(m) = eps . delta mod 2; 0 means even, 1 means odd."""
    return code_parity(m.code, m.genus)


def add(m1: Characteristic, m2: Characteristic) -> Characteristic:
    """Componentwise sum over F2 (XOR of eps parts and of delta parts)."""
    if m1.genus != m2.genus:
        raise ValueError(f"genus mismatch: {m1.genus} != {m2.genus}")
    return Characteristic.from_code(m1.genus, m1.code ^ m2.code)


def concat(m1: Characteristic, m2: Characteristic) -> Characteristic:
    """Block concatenation: genus g1+g2 characteristic [eps1 eps2 | delta1 delta2]."""
    (e1, d1), (e2, d2) = _halves(m1.code, m1.genus), _halves(m2.code, m2.genus)
    g2, g = m2.genus, m1.genus + m2.genus
    return Characteristic.from_code(g, (((e1 << g2) | e2) << g) | (d1 << g2) | d2)


def split(m: Characteristic, k: int) -> tuple[Characteristic, Characteristic]:
    """Cut after column k into a genus-k and a genus-(g-k) characteristic."""
    if not 1 <= k < m.genus:
        raise ValueError(f"split position must satisfy 1 <= k < genus, got k={k}")
    t = m.genus - k
    (e_head, e_tail), (d_head, d_tail) = (_halves(x, t) for x in _halves(m.code, m.genus))
    head = Characteristic.from_code(k, (e_head << k) | d_head)
    tail = Characteristic.from_code(t, (e_tail << t) | d_tail)
    return head, tail


def all_characteristics(g: int, parity_filter: str = "all") -> list[Characteristic]:
    """Every genus-g characteristic in lexicographic order (eps then delta,
    most-significant bit first), optionally restricted to one parity.

    parity_filter is one of "all", "even", "odd".  The list is fresh on
    every call; the characteristics in it are built once per genus.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if parity_filter not in ("all", "even", "odd"):
        raise ValueError(f"parity_filter must be all/even/odd, got {parity_filter!r}")
    return list(_characteristics(g, parity_filter))


@cache
def _characteristics(g: int, parity_filter: str) -> tuple[Characteristic, ...]:
    want = {"all": (0, 1), "even": (0,), "odd": (1,)}[parity_filter]
    return tuple(
        Characteristic.from_code(g, code) for code in range(1 << (2 * g)) if code_parity(code, g) in want
    )


def even_count(g: int) -> int:
    """2^{g-1} (2^g + 1), the number of even characteristics."""
    return 2 ** (g - 1) * (2**g + 1)


def odd_count(g: int) -> int:
    """2^{g-1} (2^g - 1), the number of odd characteristics."""
    return 2 ** (g - 1) * (2**g - 1)


@dataclass(frozen=True)
class CharTuple:
    """An ordered tuple of even characteristics of one genus.

    The orbit machinery (relations, triple parities, BFS) is stated for
    even tuples only, so evenness is enforced here.
    """

    genus: int
    entries: tuple[Characteristic, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for m in self.entries:
            if m.genus != self.genus:
                raise ValueError(f"entry {m} has genus {m.genus}, tuple has genus {self.genus}")
            if parity(m) != 0:
                raise ValueError(f"entry {m} is odd; tuples must consist of even characteristics")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def to_strings(self) -> list[str]:
        return [str(m) for m in self.entries]

    @classmethod
    def from_strings(cls, texts) -> "CharTuple":
        entries = tuple(Characteristic.from_string(t) for t in texts)
        if not entries:
            raise ValueError("empty tuple")
        return cls(entries[0].genus, entries)


@cache
def product_split_tuple(g: int, k: int) -> CharTuple:
    """The tuple I_k: all even genus-g characteristics whose first k columns
    form an odd genus-k characteristic and whose last g-k columns form an
    odd genus-(g-k) characteristic, in lexicographic order.  Built once
    per (g, k); the tuple is immutable.

    Simultaneous vanishing of the theta constants on an Sp-orbit image of
    I_k detects period matrices splitting as a k + (g-k) product.
    """
    if not 1 <= k < g:
        raise ValueError(f"k must satisfy 1 <= k < g, got k={k}, g={g}")
    picked = []
    for m in all_characteristics(g, "even"):
        head, tail = split(m, k)
        if parity(head) == 1 and parity(tail) == 1:
            picked.append(m)
    return CharTuple(g, tuple(picked))


def n_k(g: int, k: int) -> int:
    """len(product_split_tuple(g, k)) = (# odd at genus k) * (# odd at genus g-k)."""
    return len(product_split_tuple(g, k))
