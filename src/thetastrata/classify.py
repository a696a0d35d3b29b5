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
I(W) = I(W-perp).  find_split decides the question with these sets:
for a plane P = span(e, f) with <e, f> = 1, Arf(q|P) = q(e) q(f), and
for orthogonal planes I(P1 + P2) = I(P1) ^ I(P2).  The ordered witness
comes from detect_split, a backtracking search guided by the two orbit
invariants, run on I(W) alone; on a whole vanishing set the same search
serves the tests as an oracle.  The label is then looked up from the
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

from ._gf2 import augment, reduce_row
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
from .errors import CapExceededError
from .forms import evaluate_forms
from .theta import SiegelPoint, even_theta_constants

__all__ = [
    "VanishingSet",
    "SplitWitness",
    "StratumReport",
    "vanishing_set",
    "detect_split",
    "find_split",
    "classify",
    "classify_from_pattern",
    "STRATUM_LABELS",
]

STRATUM_LABELS = ("X0", "X1", "X2", "X3", "X4", "X5", "X6", "UNRESOLVED")
MARGIN_FLOOR = 10.0
DEFAULT_NODE_BUDGET = 10_000_000


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
    target: float = 1e-12,
    constants=None,
) -> VanishingSet:
    """Classify each even theta constant as vanishing or surviving at the
    relative threshold; `constants` may carry a precomputed
    even_theta_constants(point, target) result."""
    if constants is None:
        constants = even_theta_constants(point, target)
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
    """Outcome of a k + (g-k) product search: the witness, when found, is
    an ordered sub-tuple of the input orbit-equivalent to I_k."""

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


class _RefTuple:
    """Precomputed incremental structure of the reference tuple I_k, with
    positions reordered so linear dependencies appear as early as
    possible: a dependent position admits at most one candidate, so the
    reorder collapses the search's branching."""

    def __init__(self, ref: CharTuple):
        g = ref.genus
        orig_codes = [m.code for m in ref]
        aug = [augment(c) for c in orig_codes]
        n = self.n = len(orig_codes)

        def count_forced(pivots, remaining):
            return sum(1 for r in remaining if reduce_row(aug[r], pivots) == 0)

        order: list[int] = []
        pivots: dict[int, int] = {}
        remaining = list(range(n))
        while remaining:
            forced = [r for r in remaining if reduce_row(aug[r], pivots) == 0]
            if forced:
                pick = forced[0]
            else:
                # choose the independent element that unlocks the most
                # dependencies among the rest
                best = None
                for r in remaining:
                    trial = dict(pivots)
                    row = reduce_row(aug[r], trial)
                    trial[row.bit_length() - 1] = row
                    score = count_forced(trial, [x for x in remaining if x != r])
                    if best is None or score > best[0]:
                        best = (score, r, trial)
                _, pick, pivots = best
            order.append(pick)
            remaining.remove(pick)

        self.order = order  # search position -> original reference index
        # dependency, in search order: None if independent of the search
        # prefix, else indices (search positions) summing to it.  Rows
        # carry an indicator tail of n bits (bit i for search position i)
        # that records the combination a reduction used.
        pivots = {}
        self.dependency: list[tuple[int, ...] | None] = []
        for i, ref_idx in enumerate(order):
            row = reduce_row((aug[ref_idx] << n) | (1 << i), pivots)
            if row >> n:
                pivots[row.bit_length() - 1] = row
                self.dependency.append(None)
            else:
                self.dependency.append(tuple(j for j in range(i) if (row >> j) & 1))
        codes = [orig_codes[i] for i in order]
        self.pairings = [[pairing(a, b, g) for b in codes] for a in codes]


@cache
def _ref_structure(g: int, k: int) -> _RefTuple:
    return _RefTuple(product_split_tuple(g, k))


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


def detect_split(
    chars,
    k: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SplitWitness:
    """Search the even characteristics `chars` for an ordered sub-tuple in
    the Sp orbit of product_split_tuple(g, k).

    Backtracking assigns reference positions one at a time; a candidate
    must reproduce the reference prefix's linear-relation pattern exactly
    and satisfy every triple parity against the already placed entries
    (reduced, via e(a+b+c) = <a,b>+<a,c>+<b,c> on even characteristics, to
    a two-coloring consistency check).  Raises CapExceededError when the
    node budget is exhausted; that outcome is distinct from "no witness".

    find_split runs this search only on a set I(W) that the Arf test has
    already found, where it orders the witness within a few dozen nodes.
    On a whole vanishing set it is the independent oracle the tests check
    find_split against: a failing search there can take millions of
    nodes (1,417,536 for k=1 on a 2+2 product).
    """
    members = _split_members(chars, k)
    if not members:
        return SplitWitness(False, k, None, 0)
    g = members[0].genus
    ref = _ref_structure(g, k)
    n = ref.n
    if len(members) < n:
        return SplitWitness(False, k, None, 0)

    codes = [m.code for m in members]
    swapped = [swap(c, g) for c in codes]
    aug = [augment(c) for c in codes]
    by_aug = {a: i for i, a in enumerate(aug)}
    n_cand = len(codes)

    chosen: list[int] = []  # candidate indices by search position
    colors: list[int] = []  # two-coloring labels v_i of placed positions
    used = [False] * n_cand
    pivots: dict[int, int] = {}
    pivot_stack: list[int | None] = []
    nodes = 0

    def triples_ok(ci: int, pos: int) -> bool:
        # e(s_i + s_j + c) = e(m_i + m_j + m_pos) for all placed i < j,
        # folded into a single two-coloring consistency scan; the pairing
        # <a, c> is (a & swap(c)).bit_count() & 1
        want = None
        c = swapped[ci]
        for i in range(len(chosen)):
            x = ((codes[chosen[i]] & c).bit_count() & 1) ^ ref.pairings[i][pos] ^ colors[i]
            if want is None:
                want = x
            elif x != want:
                return False
        return True

    def push(ci: int, pos: int, independent: bool):
        chosen.append(ci)
        used[ci] = True
        colors.append(
            0 if pos == 0 else ((codes[chosen[0]] & swapped[ci]).bit_count() & 1) ^ ref.pairings[0][pos]
        )
        if independent:
            row = reduce_row(aug[ci], pivots)
            pivots[row.bit_length() - 1] = row
            pivot_stack.append(row.bit_length() - 1)
        else:
            pivot_stack.append(None)

    def pop():
        top = pivot_stack.pop()
        if top is not None:
            del pivots[top]
        colors.pop()
        used[chosen.pop()] = False

    def place(pos: int) -> bool:
        nonlocal nodes
        dep = ref.dependency[pos]
        if dep is not None:
            # forced: the candidate must equal the prefix sum exactly
            target = 0
            for j in dep:
                target ^= aug[chosen[j]]
            ci = by_aug.get(target)
            nodes += 1
            if nodes > node_budget:
                raise CapExceededError(f"detect_split node budget {node_budget} exceeded")
            if ci is None or used[ci] or not triples_ok(ci, pos):
                return False
            push(ci, pos, independent=False)
            if pos + 1 == n or place(pos + 1):
                return True
            pop()
            return False
        for ci in range(n_cand):
            if used[ci]:
                continue
            nodes += 1
            if nodes > node_budget:
                raise CapExceededError(f"detect_split node budget {node_budget} exceeded")
            if reduce_row(aug[ci], pivots) == 0 or not triples_ok(ci, pos):
                continue
            push(ci, pos, independent=True)
            if pos + 1 == n or place(pos + 1):
                return True
            pop()
        return False

    if place(0):
        by_ref_index = [0] * n
        for search_pos, ref_idx in enumerate(ref.order):
            by_ref_index[ref_idx] = chosen[search_pos]
        witness = CharTuple(g, tuple(members[ci] for ci in by_ref_index))
        return SplitWitness(True, k, witness, nodes)
    return SplitWitness(False, k, None, nodes)


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


def find_split(chars, k: int) -> SplitWitness:
    """Decide whether the even characteristics `chars` contain an Sp image
    of product_split_tuple(g, k), by the Arf invariants of planes.

    With out the mask of the even characteristics not in `chars` and
    k' = min(k, g - k) (I(W) = I(W-perp)): for k' = 1 a split exists iff
    some plane has I(P) & out == 0; for k' = 2 iff two orthogonal planes
    share the value I(P) & out, and then I(W) = I(P1) ^ I(P2).  The
    witness is detect_split run on the members of I(W); `nodes` counts
    that search, and is 0 when there is no split.  k' > 2 raises
    ValueError.
    """
    members = _split_members(chars, k)
    if not members:
        return SplitWitness(False, k, None, 0)
    g = members[0].genus
    half = min(k, g - k)
    if half > 2:
        raise ValueError(f"find_split decides k + (g-k) splits with min(k, g-k) <= 2, got k={k}, g={g}")
    table = _plane_table(g)
    out = (1 << len(table.bit)) - 1
    for m in members:
        out ^= 1 << table.bit[m.code]
    found = None
    if half == 1:
        found = next((mask for mask in table.masks if not mask & out), None)
    else:
        groups: dict[int, list[int]] = {}
        for i, mask in enumerate(table.masks):
            groups.setdefault(mask & out, []).append(i)
        for ids in groups.values():
            pair = _orthogonal_pair(table, ids) if len(ids) > 1 else None
            if pair is not None:
                found = table.masks[pair[0]] ^ table.masks[pair[1]]
                break
    if found is None:
        return SplitWitness(False, k, None, 0)
    result = detect_split([m for m in members if found >> table.bit[m.code] & 1], k)
    if not result.found:
        raise RuntimeError(f"no witness in the k={k} split set I(W) that the Arf test found")
    return result


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
    target: float = 1e-12,
) -> StratumReport:
    """Assign a genus-4 point to one of the strata X0-X6.

    Decision chain: the Schottky form surviving puts the point in X0.
    Below threshold, the theta-null product vanishes exactly when some
    even constant does, and F_1 (a sum of exclusion products) vanishes
    exactly when at least two do, so those two steps are decided on the
    vanishing set, which is numerically exact where forms would demand
    resolving products of 136 near-zero factors.  Deeper strata are
    resolved by the find_split witnesses for k = 1 and 2 plus the size of
    the vanishing set, all Sp(8,Z)-invariant, so every representative of
    a point gets the same label by the same rule.
    """
    if point.genus != 4:
        raise ValueError(f"classify requires genus 4, got {point.genus}")
    constants = even_theta_constants(point, target)
    forms = evaluate_forms(point, target, constants=constants)
    mags = {fid: fv.relative_magnitude for fid, fv in forms.items()}
    vrep = vanishing_set(point, rel_threshold, target, constants=constants)
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
        if vrep.members:
            notes.append("Schottky form survives with vanishing constants present")
        return report("X0")
    if not vrep.members:
        notes.append("Schottky form vanishes, no vanishing theta constants: theta-null survives")
        return report("X1")
    if len(vrep.members) == 1:
        notes.append("exactly one vanishing constant: F_1 reduces to one nonzero exclusion product")
        return report("X2")

    w1 = find_split(vrep.members, 1)
    w2 = find_split(vrep.members, 2)
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

    w1 = find_split(members, 1)
    w2 = find_split(members, 2)
    if w1.found and not w2.found and "genus3_hyperelliptic" in flags:
        label = "X4" if flags["genus3_hyperelliptic"] else "X3"
        notes.append(f"1+3 split with genus-3 factor flagged {'' if flags['genus3_hyperelliptic'] else 'non-'}hyperelliptic")
        return report(label, [w1, w2])
    label = _label_from_witnesses(len(members), w1, w2, notes)
    return report(label, [w1, w2])
