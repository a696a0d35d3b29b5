"""Stratum assignment for genus-4 period matrices.

The decision chain follows the affine stratification: X0 where the
Schottky form survives, X1 where it dies but no theta constant does, X2
where exactly one dies (there F_1 is a single nonzero exclusion product),
and the deeper strata X3-X6 via product detection on the vanishing set.

A product splitting as k + (g-k) shows as a subset of the vanishing set
V lying in the Sp(2g, F2) orbit of the reference tuple I_k.  Those
images are exactly the sets
    I(W) = {m even : Arf(q_m|W) = 1},  q_m(v) = e(m + v) + e(m),
over the non-degenerate 2k-dimensional subspaces W of F2^2g (Igusa,
*Theta Functions*; Dolgachev and Ortland, Asterisque 165), and
I(W) = I(W-perp).  detect_split decides the question with these sets:
for a plane P = span(e, f) with <e, f> = 1, Arf(q|P) = q(e) q(f), and
for orthogonal planes I(P1 + P2) = I(P1) ^ I(P2).  The ordered witness
is built, not searched for: symplectic Gram-Schmidt extends the found
planes to a symplectic basis of F2^2g, that basis is the gamma in
Sp(2g, F2) with gamma . W0 = W for the standard W0 with I(W0) = I_k,
and the witness is gamma . I_k.  The label is then looked up from the
two split outcomes and the size of the vanishing set, all invariant
under Sp(8, Z), so a block-diagonal tau and its images are decided by
the same rule.

Sizes used as evidence (all derived by enumeration, not hardcoded):
28 = |I_1| for a 1+3 product, 31 when the genus-3 factor is in addition
hyperelliptic (one extra even constant times the 3 even genus-1 choices),
36 = |I_2| for 2+2, 46 for 1+1+2, 55 for 1+1+1+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .chars import (
    Characteristic,
    CharTuple,
    all_characteristics,
    code_parity,
    pairing,
    parity,
    product_split_tuple,
    split,
    swap,
)
from .forms import evaluate_forms
from .symplectic import SymplecticModTwo, act_on_tuple
from .theta import SiegelPoint, even_theta_constants

__all__ = [
    "VanishingSet",
    "SplitWitness",
    "StratumReport",
    "vanishing_set",
    "detect_split",
    "classify",
    "classify_from_pattern",
    "STRATUM_LABELS",
]

STRATUM_LABELS = ("X0", "X1", "X2", "X3", "X4", "X5", "X6", "UNRESOLVED")
MARGIN_FLOOR = 10.0
THETA_TARGET = 1e-12  # truncation bound of every theta constant classify sums


@dataclass(frozen=True)
class VanishingSet:
    """Even characteristics with |theta_m| below rel_threshold * scale.

    margin = (smallest surviving relative magnitude) / (largest vanishing
    one); a margin under 10 flags an ill-separated spectrum.
    """

    members: tuple[Characteristic, ...]
    scale: float
    margin: float
    warning: bool

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def vanishing_set(
    point: SiegelPoint,
    rel_threshold: float = 1e-6,
    constants=None,
) -> VanishingSet:
    """Classify each even theta constant as vanishing or surviving at the
    relative threshold; `constants` may carry a precomputed
    even_theta_constants(point, THETA_TARGET) result."""
    if constants is None:
        constants = even_theta_constants(point, THETA_TARGET)
    mags = {m: abs(tv.value) for m, tv in constants.items()}
    scale = max(mags.values())
    if scale == 0:
        raise ValueError("all even theta constants evaluated to zero; invalid point")
    vanishing, surviving = [], []
    for m, val in mags.items():
        (vanishing if val / scale < rel_threshold else surviving).append((m, val / scale))
    if vanishing:
        margin = min(v for _, v in surviving) / max(max(v for _, v in vanishing), 5e-324)
    else:
        margin = float("inf")
    return VanishingSet(
        tuple(m for m, _ in vanishing),
        scale,
        margin,
        bool(vanishing) and margin < MARGIN_FLOOR,
    )


@dataclass(frozen=True)
class SplitWitness:
    """Outcome of a k + (g-k) product split test: the witness, when found,
    is an ordered sub-tuple of the input orbit-equivalent to I_k; nodes
    counts the planes the test examined."""

    found: bool
    k: int
    witness: CharTuple | None
    nodes: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "found": self.found,
            "witness": self.witness.to_strings() if self.witness else None,
            "nodes": self.nodes,
        }


def _split_members(chars, k: int) -> list[Characteristic]:
    """The distinct entries of `chars`, in order, after checking that they
    are even characteristics of one genus g with 1 <= k < g."""
    members = list(dict.fromkeys(chars))
    if not members:
        return members
    g = members[0].genus
    if not 1 <= k < g:
        raise ValueError(f"k must satisfy 1 <= k < genus, got k={k}")
    for m in members:
        if m.genus != g:
            raise ValueError("mixed genera in vanishing set")
        if parity(m) != 0:
            raise ValueError(f"odd characteristic {m} in vanishing set")
    return members


class _PlaneTable(NamedTuple):
    """The non-degenerate planes P = span(e, f), <e, f> = 1, of F2^2g, one
    entry each, with I(P) as a mask over the even characteristics: bit i
    stands for all_characteristics(g, "even")[i]."""

    bit: dict[int, int]  # even code -> its mask bit
    e: np.ndarray
    f: np.ndarray
    masks: tuple[int, ...]  # I(P) = Q[e] & Q[f]
    pairs: np.ndarray  # pairs[a, b] = <a, b>, over all codes


@cache
def _plane_table(g: int) -> _PlaneTable:
    n = 1 << (2 * g)
    codes = np.arange(n)
    swapped = np.array([swap(c, g) for c in range(n)])
    odd_weight = np.array([c.bit_count() & 1 for c in range(n)], dtype=bool)
    pairs = odd_weight[codes[:, None] & swapped[None, :]]
    evens = [m.code for m in all_characteristics(g, "even")]
    # q_m(v) = e(m + v) + e(m) = e(v) + <m, v> for even m; row v of
    # q_table is the mask Q[v] of the m with q_m(v) = 1
    e_v = np.array([code_parity(c, g) for c in range(n)], dtype=bool)
    q_table = np.packbits(e_v[:, None] ^ pairs[:, evens], axis=1, bitorder="little")
    q = [int.from_bytes(row.tobytes(), "little") for row in q_table]
    # each plane once: e is the smallest of its three nonzero vectors and
    # f the middle one
    a, b = codes[:, None], codes[None, :]
    e, f = np.nonzero(pairs & (a < b) & ((a ^ b) > b))
    masks = tuple(q[x] & q[y] for x, y in zip(e.tolist(), f.tolist()))
    return _PlaneTable({c: i for i, c in enumerate(evens)}, e, f, masks, pairs)


def _orthogonal_pair(table: _PlaneTable, ids: list[int]) -> tuple[int, int] | None:
    """Two mutually orthogonal planes among `ids`, or None."""
    ids = np.array(ids)
    e, f = table.e[ids], table.f[ids]
    pairs, rows = table.pairs, 256  # rows at a time, to bound memory
    for start in range(0, len(ids), rows):
        e1, f1 = e[start:start + rows, None], f[start:start + rows, None]
        meets = pairs[e1, e] | pairs[e1, f] | pairs[f1, e] | pairs[f1, f]
        i, j = np.nonzero(~meets)
        if len(i):
            return int(ids[start + i[0]]), int(ids[j[0]])
    return None


def _symplectic_basis(g: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Extend mutually orthogonal pairs (e, f), <e, f> = 1, to a symplectic
    basis of F2^2g by symplectic Gram-Schmidt on the unit codes: each
    round projects the units onto the orthogonal complement of the pairs
    so far, takes the first nonzero projection as e and the first
    projection with <e, f> = 1 as f."""
    pairs = list(pairs)
    while len(pairs) < g:
        rest = []
        for u in (1 << i for i in range(2 * g)):
            for e, f in pairs:
                u ^= (e if pairing(u, f, g) else 0) ^ (f if pairing(u, e, g) else 0)
            rest.append(u)
        e = next(v for v in rest if v)
        pairs.append((e, next(v for v in rest if pairing(e, v, g))))
    return pairs


def _basis_element(g: int, pairs: list[tuple[int, int]]) -> SymplecticModTwo:
    """The gamma whose linear part [[D, C], [B, A]] sends e_j = [unit_j|0]
    to pairs[j][0] and f_j = [0|unit_j] to pairs[j][1]: column j of D
    (of B) is the eps (delta) half of pairs[j][0], and likewise for C and
    A with pairs[j][1]."""
    xs = [Characteristic.from_code(g, e) for e, _ in pairs]
    ys = [Characteristic.from_code(g, f) for _, f in pairs]

    def columns(vectors):
        return tuple(zip(*vectors))

    return SymplecticModTwo(
        g,
        columns(y.delta for y in ys),
        columns(x.delta for x in xs),
        columns(y.eps for y in ys),
        columns(x.eps for x in xs),
    )


def detect_split(chars, k: int) -> SplitWitness:
    """Decide whether the even characteristics `chars` contain an Sp image
    of product_split_tuple(g, k), by the Arf invariants of planes.

    With out the mask of the even characteristics not in `chars` and
    k' = min(k, g - k): for k' = 1 a split exists iff some plane has
    I(P) & out == 0; for k' = 2 iff two orthogonal planes share the value
    I(P) & out, and then I(W) = I(P1) ^ I(P2).  The witness is gamma . I_k
    for the gamma that sends the standard basis to a symplectic basis
    extending the found planes; they go first, or last when k' != k,
    since I(W) = I(W-perp).  `nodes` counts the planes examined: the
    first fitting plane's index + 1 for k' = 1, every plane otherwise.
    k' > 2 raises ValueError.
    """
    members = _split_members(chars, k)
    if not members:
        return SplitWitness(False, k, None, 0)
    g = members[0].genus
    half = min(k, g - k)
    if half > 2:
        raise ValueError(f"detect_split decides k + (g-k) splits with min(k, g-k) <= 2, got k={k}, g={g}")
    table = _plane_table(g)
    out = (1 << len(table.bit)) - 1
    for m in members:
        out ^= 1 << table.bit[m.code]
    nodes, planes = len(table.masks), None
    if half == 1:
        i = next((i for i, mask in enumerate(table.masks) if not mask & out), None)
        if i is not None:
            nodes, planes = i + 1, [i]
    else:
        groups: dict[int, list[int]] = {}
        for i, mask in enumerate(table.masks):
            groups.setdefault(mask & out, []).append(i)
        for ids in groups.values():
            planes = _orthogonal_pair(table, ids) if len(ids) > 1 else None
            if planes is not None:
                break
    if planes is None:
        return SplitWitness(False, k, None, nodes)
    pairs = _symplectic_basis(g, [(int(table.e[i]), int(table.f[i])) for i in planes])
    if half != k:
        pairs = pairs[half:] + pairs[:half]
    gamma = _basis_element(g, pairs)
    return SplitWitness(True, k, act_on_tuple(gamma, product_split_tuple(g, k)), nodes)


@cache
def _contiguous_split_vanishing_count(parts: tuple[int, ...]) -> int:
    """Evens of genus sum(parts) whose restriction to at least one block of
    the contiguous partition is odd (such theta constants vanish on the
    corresponding product)."""
    count = 0
    for m in all_characteristics(sum(parts), "even"):
        blocks = []
        for size in parts[:-1]:
            head, m = split(m, size)
            blocks.append(head)
        count += any(parity(block) for block in blocks + [m])
    return count


@cache
def _one_three_hyperelliptic_count() -> int:
    """Vanishing-set size for elliptic x (hyperelliptic genus-3): the 1+3
    odd-odd tuple plus one extra even genus-3 constant."""
    base = all_characteristics(4, "even")
    extra = all_characteristics(3, "even")[0]  # count independent of the choice
    count = 0
    for m in base:
        head, tail = split(m, 1)
        if (parity(head) == 1 and parity(tail) == 1) or (parity(head) == 0 and tail == extra):
            count += 1
    return count


@dataclass(frozen=True)
class StratumReport:
    """A stratum label with the numerical evidence that produced it."""

    label: str
    form_magnitudes: dict[str, float]
    vanishing: tuple[Characteristic, ...]
    splits: tuple[SplitWitness, ...]
    threshold: float
    margin: float
    warnings: tuple[str, ...]
    notes: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "form_magnitudes": self.form_magnitudes,
            "vanishing": [str(m) for m in self.vanishing],
            "splits": [w.to_json() for w in self.splits],
            "threshold": self.threshold,
            "margin": self.margin,
            "warnings": list(self.warnings),
            "notes": list(self.notes),
        }


def _label_rules() -> dict[tuple[bool, bool, int], str]:
    """(k=1 split found, k=2 split found, vanishing count) -> stratum, for
    the points where some split is found."""
    count = _contiguous_split_vanishing_count
    return {
        (True, False, count((1, 3))): "X3",
        (True, False, _one_three_hyperelliptic_count()): "X4",
        (False, True, count((2, 2))): "X4",
        (True, True, count((1, 1, 2))): "X5",
        (True, True, count((1, 1, 1, 1))): "X6",
    }


def _label_from_witnesses(n_vanishing: int, w1: SplitWitness, w2: SplitWitness, notes: list[str]):
    """Stratum from the split witnesses plus the Sp-invariant size of the
    vanishing set; appends one note naming the rule that fired."""
    rule = (f"{'' if w1.found else 'no '}k=1 split, {'' if w2.found else 'no '}k=2 split, "
            f"{n_vanishing} vanishing")
    if not w1.found and not w2.found:
        # all three forms vanish with no product structure: the
        # hyperelliptic component of X3
        notes.append(f"{rule}: hyperelliptic branch, X3")
        return "X3"
    label = _label_rules().get((w1.found, w2.found, n_vanishing), "UNRESOLVED")
    notes.append(f"{rule}: {label}")
    return label


def classify(
    point: SiegelPoint,
    rel_threshold: float = 1e-6,
) -> StratumReport:
    """Assign a genus-4 point to one of the strata X0-X6.

    Decision chain: the Schottky form surviving puts the point in X0.
    Below threshold, the theta-null product vanishes exactly when some
    even constant does, and F_1 (a sum of exclusion products) vanishes
    exactly when at least two do, so those two steps are decided on the
    vanishing set, which is numerically exact where forms would demand
    resolving products of 136 near-zero factors.  Deeper strata are
    resolved by the detect_split witnesses for k = 1 and 2 plus the size of
    the vanishing set, all Sp(8,Z)-invariant, so every representative of
    a point gets the same label by the same rule.
    """
    if point.genus != 4:
        raise ValueError(f"classify requires genus 4, got {point.genus}")
    constants = even_theta_constants(point, THETA_TARGET)
    forms = evaluate_forms(point, THETA_TARGET, constants=constants)
    mags = {fid: fv.relative_magnitude for fid, fv in forms.items()}
    vrep = vanishing_set(point, rel_threshold, constants=constants)
    warnings = []
    if vrep.warning:
        warnings.append(f"ill-separated vanishing spectrum: margin {vrep.margin:.3g} < {MARGIN_FLOOR}")
    notes: list[str] = []

    def report(label, splits=()):
        return StratumReport(
            label, mags, vrep.members, tuple(splits), rel_threshold, vrep.margin,
            tuple(warnings), tuple(notes),
        )

    if mags["FT"] >= rel_threshold:
        notes.append("Schottky form survives" + (" with vanishing constants present" if vrep.members else ""))
        return report("X0")
    if not vrep.members:
        notes.append("Schottky form vanishes, no vanishing theta constants: theta-null survives")
        return report("X1")
    if len(vrep.members) == 1:
        notes.append("exactly one vanishing constant: F_1 reduces to one nonzero exclusion product")
        return report("X2")

    w1 = detect_split(vrep.members, 1)
    w2 = detect_split(vrep.members, 2)
    label = _label_from_witnesses(len(vrep.members), w1, w2, notes)
    return report(label, [w1, w2])


def classify_from_pattern(
    ft_vanishes: bool,
    theta_null_vanishes: bool,
    f1_vanishes: bool,
    vanishing=(),
    factor_flags: dict | None = None,
) -> StratumReport:
    """The classify decision chain driven by synthetic flags instead of
    numerics, covering the branches (X1, X2, hyperelliptic X3) that no
    constructible period matrix reaches here.

    factor_flags may carry "genus3_hyperelliptic": bool to settle the
    elliptic x threefold branch directly.  Inconsistent combinations
    (theta-null vanishing with an empty vanishing set, F_1 claims
    contradicting the vanishing count) raise ValueError, as do odd,
    repeated or non-genus-4 members of `vanishing`.
    """
    members = tuple(vanishing)
    for m in members:
        if parity(m) != 0:
            raise ValueError(f"odd characteristic {m} in vanishing set")
    if len(set(members)) != len(members):
        raise ValueError("repeated characteristic in vanishing set")
    if any(m.genus != 4 for m in members):
        raise ValueError("vanishing set members must have genus 4")
    if theta_null_vanishes != bool(members):
        raise ValueError("inconsistent flags: theta-null vanishes iff some even constant does")
    if f1_vanishes and len(members) == 1:
        raise ValueError("inconsistent flags: with one vanishing constant F_1 is a nonzero product")
    if not f1_vanishes and len(members) >= 2:
        raise ValueError("inconsistent flags: two vanishing constants force F_1 to vanish")
    flags = factor_flags or {}
    notes = [f"synthetic pattern: FT={'0' if ft_vanishes else 'nonzero'}, "
             f"THETANULL={'0' if theta_null_vanishes else 'nonzero'}, "
             f"F1={'0' if f1_vanishes else 'nonzero'}"]

    def report(label, splits=(), margin=float("inf")):
        return StratumReport(label, {}, members, tuple(splits), 0.0, margin, (), tuple(notes))

    if not ft_vanishes:
        return report("X0")
    if not theta_null_vanishes:
        return report("X1")
    if not f1_vanishes:
        return report("X2")

    w1 = detect_split(members, 1)
    w2 = detect_split(members, 2)
    if w1.found and not w2.found and "genus3_hyperelliptic" in flags:
        label = "X4" if flags["genus3_hyperelliptic"] else "X3"
        notes.append(f"1+3 split with genus-3 factor flagged {'' if flags['genus3_hyperelliptic'] else 'non-'}hyperelliptic")
        return report(label, [w1, w2])
    label = _label_from_witnesses(len(members), w1, w2, notes)
    return report(label, [w1, w2])
