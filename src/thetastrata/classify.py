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

The same invariance lets theta._even_moduli sum the constants at
whichever representative is cheapest.  Where the walk at tau is large it
sums at the Siegel-reduced gamma o tau, whose ellipsoid holds fewer
points, and reads the constant of m from slot gamma . m:
theta_{gamma.m}(gamma o tau)^8 = det(C tau + D)^4 theta_m(tau)^8, and the
common factor cancels from every relative quantity the decision reads.

Sizes used as evidence, in closed form: on a product with diagonal
blocks of sizes d_1 + ... + d_r = 4 the constants that vanish are the
evens odd on some block.  A characteristic's parity is the sum of its
blocks' parities, so the evens even on every block number
prod(even_count(d_i)) and the count is even_count(4) minus that:
28 = |I_1| for a 1+3 product, 36 = |I_2| for 2+2, 46 for 1+1+2 and 55
for 1+1+1+1.  When the genus-3 factor of 1+3 is in addition
hyperelliptic, its one vanishing even constant adds the even_count(1) = 3
evens of genus 4 that are even on the genus-1 block: 31.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod
from typing import NamedTuple

import numpy as np

from .chars import (
    Characteristic,
    CharTuple,
    all_characteristics,
    code_parity,
    even_count,
    n_k,
    parity,
    product_split_tuple,
    swap,
)
from .forms import _forms
from .symplectic import SymplecticModTwo, _even_index, _places, act_on_tuple
from .theta import SiegelPoint, _even_moduli

__all__ = [
    "VanishingSet",
    "SplitWitness",
    "StratumReport",
    "vanishing_set",
    "detect_split",
    "classify",
    "classify_from_pattern",
]

MARGIN_FLOOR = 10.0
# truncation bound of every constant theta[s; 0](0, 2 tau) classify sums:
# the squares of the even constants then resolve |theta| to 2.3e-7-2.7e-7
# of the largest on generic_siegel_point(4, 1-10), below the default
# threshold of 1e-6 (1e-12 would give 1.5e-6-1.6e-6)
THETA_TARGET = 1e-14


@dataclass(frozen=True)
class VanishingSet:
    """Even characteristics with |theta_m| below rel_threshold * scale.

    margin = (smallest surviving relative magnitude) / (largest vanishing
    one, each floored at its magnitude's error bound over scale): a
    vanishing magnitude below its bound is summation noise, which moves
    with the order of summation; a margin under 10 flags an ill-separated
    spectrum.  scale and margin are those of the representative that
    theta._even_moduli summed, as for classify.
    """

    members: tuple[Characteristic, ...]
    scale: float
    margin: float
    warning: bool

    def __len__(self):
        return len(self.members)


def _check_threshold(rel_threshold: float) -> None:
    if not 0 < rel_threshold <= 1:
        raise ValueError(f"rel_threshold must be a finite number in (0, 1], got {rel_threshold!r}")


def vanishing_set(point: SiegelPoint, rel_threshold: float = 1e-6) -> VanishingSet:
    """Classify each even theta constant, its modulus taken from
    theta._even_moduli for THETA_TARGET as classify takes it, as vanishing
    or surviving at the relative threshold.  A threshold that is not a
    finite number in (0, 1], or that lies at or below the resolution of
    the constants at the point, raises ValueError."""
    _check_threshold(rel_threshold)
    return _vanishing(all_characteristics(point.genus, "even"), *_even_moduli(point, THETA_TARGET), rel_threshold)


def _vanishing(chars, values: np.ndarray, error: np.ndarray, rel_threshold: float) -> VanishingSet:
    """vanishing_set on the values of chars, whose moduli lie within error
    of the exact ones, value by value.  The largest error over the scale
    is the resolution: a threshold at or below it raises ValueError, as
    no comparison with it is certain."""
    rel = np.abs(values)
    scale = float(rel.max())
    if scale == 0:
        raise ValueError("all even theta constants evaluated to zero; invalid point")
    rel /= scale
    floor = error / scale
    if rel_threshold <= floor.max():
        raise ValueError(f"rel_threshold {rel_threshold!r} is at or below the resolution {floor.max():.3g} "
                         "of the theta constants at this point")
    low = rel < rel_threshold
    members = tuple(m for m, flag in zip(chars, low) if flag)
    margin = float(rel[~low].min() / max(rel[low].max(), floor[low].max())) if members else float("inf")
    return VanishingSet(members, scale, margin, bool(members) and margin < MARGIN_FLOOR)


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


class _PlaneTable(NamedTuple):
    """The non-degenerate planes P = span(e, f), <e, f> = 1, of F2^2g, one
    column each, with I(P) over the even characteristics two ways: as bits,
    bit i of I(P), for all_characteristics(g, "even")[i], being bit i % 64
    of masks[i // 64, P], and as 0/1 entries incidence[i, P].  Both arrays
    are word-major and C-contiguous, so a pass over one word of every
    plane, or over one characteristic, reads one row."""

    e: np.ndarray
    f: np.ndarray
    masks: np.ndarray  # (words, planes) uint64: I(P) = Q[e] & Q[f]
    incidence: np.ndarray  # (evens, planes) uint8: 1 where the even lies in I(P)
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
    q_bits = np.pad(e_v[:, None] ^ pairs[:, evens], ((0, 0), (0, -len(evens) % 64)))
    q_table = np.ascontiguousarray(np.packbits(q_bits, axis=1, bitorder="little")).view("<u8")
    # each plane once: e is the smallest of its three nonzero vectors and
    # f the middle one
    a, b = codes[:, None], codes[None, :]
    e, f = np.nonzero(pairs & (a < b) & ((a ^ b) > b))
    masks = np.ascontiguousarray((q_table[e] & q_table[f]).T)
    # row 8 w + j of octets is byte j of word w of every mask, so its bit
    # k is even 64 w + 8 j + k
    octets = masks.view(np.uint8).reshape(len(masks), -1, 8).transpose(0, 2, 1).reshape(-1, len(e))
    incidence = np.unpackbits(octets, axis=0, count=len(evens), bitorder="little")
    return _PlaneTable(e, f, masks, incidence, pairs)


def _symplectic_basis(g: int, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Extend mutually orthogonal pairs (e, f), <e, f> = 1, to a symplectic
    basis of F2^2g by symplectic Gram-Schmidt on the unit codes: the units
    are projected onto the orthogonal complement of each pair in turn, and
    past the given pairs the next takes the first nonzero projection as e
    and the first projection with <e, f> = 1 as f.  A pairing <u, v> is
    the parity of u & swap(v), with swap(v) taken once per pair."""
    pairs, rest = list(pairs), [1 << i for i in range(2 * g)]
    for done in range(g):
        if done == len(pairs):
            e = next(v for v in rest if v)
            se = swap(e, g)
            pairs.append((e, next(v for v in rest if (v & se).bit_count() & 1)))
        e, f = pairs[done]
        se, sf = swap(e, g), swap(f, g)
        rest = [u ^ (e if (u & sf).bit_count() & 1 else 0) ^ (f if (u & se).bit_count() & 1 else 0) for u in rest]
    return pairs


def _basis_element(g: int, pairs: list[tuple[int, int]]) -> SymplecticModTwo:
    """The gamma whose linear part [[D, C], [B, A]] sends e_j = [unit_j|0]
    to pairs[j][0] and f_j = [0|unit_j] to pairs[j][1].  Its matrix acts
    on the code bits at symplectic._places(g), which put f_j in column j
    and e_j in column g + j, so column c holds the bits of the c-th of
    f_0..f_{g-1}, e_0..e_{g-1} at those places."""
    images = np.array([f for _, f in pairs] + [e for e, _ in pairs])
    return SymplecticModTwo._of(images >> _places(g)[:, None] & 1)


def _plane_hits(members) -> tuple[int, np.ndarray, np.ndarray]:
    """(g, hits, out) for a nonempty sequence of even characteristics of
    the genus g of its first, after checking that they are: with V the set
    of them, hits[P] = |I(P) & V| for every plane of _plane_table(g), the
    sum of V's rows of the incidence table, and out the evens not in V as
    a (words, 1) column in the mask layout (its padding bits set, which no
    mask has).  Parity is checked through _even_index, whose index of an
    odd code is -1."""
    g = members[0].genus
    if any(m.genus != g for m in members):
        raise ValueError("mixed genera in vanishing set")
    rows = _even_index(g)[1][np.array([m.code for m in members])]
    if (rows < 0).any():
        raise ValueError(f"odd characteristic {members[int(np.argmax(rows < 0))]} in vanishing set")
    table = _plane_table(g)
    inside = np.zeros(64 * len(table.masks), dtype=bool)
    inside[rows] = True
    # no hit passes |I(P)| = |I_1|
    hits = table.incidence[inside[:len(table.incidence)]].sum(axis=0, dtype=np.min_scalar_type(n_k(g, 1)))
    return g, hits, np.packbits(~inside, bitorder="little").view("<u8")[:, None]


def detect_split(chars, k: int) -> SplitWitness:
    """Decide whether the even characteristics `chars` contain an Sp image
    of product_split_tuple(g, k), by the Arf invariants of planes.

    With V the set of `chars` and k' = min(k, g - k), every plane P has
    the key I(P) - V.  For k' = 1 a split exists iff some key is empty,
    that is |I(P) & V| = |I(P)| = |I_1|, and the first such plane is
    taken.  For k' = 2 it exists iff two orthogonal planes have equal
    keys, and then I(W) = I(P1) ^ I(P2); of the groups of equal keys, taken
    by smallest plane index, the first with an orthogonal pair gives its
    least pair (i, j).

    Only planes with |I(P) & V| >= |I_2| / 2 can be in such a pair.  For
    orthogonal P1, P2, I(P1 + P2) = I(P1) ^ I(P2) has |I_2| elements and
    each I(P) has |I_1|, so |I(P1) & I(P2)| = (2 |I_1| - |I_2|) / 2 =
    |I_1| - |I_2| / 2, which is 10 at genus 4.  If their keys are equal,
    an element of I(P1) - I(P2) outside V would lie in the key of P1 but
    not in that of P2, so I(P1) - I(P2) lies in V and the key of P1 lies
    in I(P1) & I(P2): |I(P1) - V| <= |I_1| - |I_2| / 2, that is
    |I(P1) & V| >= |I_2| / 2.  Equal keys have equal sizes, so the bound
    keeps or drops whole groups and leaves the order of the groups, hence
    the chosen pair, as it is.  |I(P) & V| is the sum of V's rows of
    _PlaneTable.incidence, and the keys, masks & out over the evens out of
    V, are taken only for the candidates that pass: 1, 40, 40 and 112 of
    the 5440 planes on 1+3, 2+2, 1+1+2 and 1+1+1+1 products.  One stable
    lexsort of the keys makes each group a run in index order; offset d
    pairs each run position with the one d further on, and the least rank
    (group, i, j) so far prunes the rest.
    Candidate indices increase with plane indices, so the ranks keep
    their order.

    The witness is gamma . I_k for the gamma that sends the standard basis
    to a symplectic basis extending the found planes; they go first, or
    last when k' != k, since I(W) = I(W-perp).  `nodes` counts the planes
    examined: the first empty key's index + 1 for k' = 1, every plane
    otherwise.  k' > 2 raises ValueError.
    """
    members = list(chars)
    if not members:
        return SplitWitness(False, k, None, 0)
    g = members[0].genus
    if not 1 <= k < g:
        raise ValueError(f"k must satisfy 1 <= k < genus, got k={k}")
    if min(k, g - k) > 2:
        raise ValueError(f"detect_split decides k + (g-k) splits with min(k, g-k) <= 2, got k={k}, g={g}")
    return _split(*_plane_hits(members), k)


def _split(g: int, hits: np.ndarray, out: np.ndarray, k: int) -> SplitWitness:
    """detect_split on the _plane_hits of its characteristics."""
    table = _plane_table(g)
    half = min(k, g - k)
    n = nodes = len(hits)
    if half == 1:
        inside = np.flatnonzero(hits == n_k(g, 1))
        planes = [int(inside[0])] if inside.size else None
        nodes = planes[0] + 1 if planes else n
    else:
        cand = np.flatnonzero(hits >= n_k(g, 2) // 2)
        keys = table.masks[:, cand] & out
        c = len(cand)
        ids = np.lexsort(keys)
        run = np.cumsum(np.r_[True, (keys[:, ids[1:]] != keys[:, ids[:-1]]).any(axis=0)])
        pos = np.flatnonzero(run[1:] == run[:-1])
        lead = ids[np.searchsorted(run, run[pos])] * c + ids[pos]
        stop = np.searchsorted(run, run[pos], side="right")
        e, f, meets = table.e[cand], table.f[cand], table.pairs
        best, d = c**3, 1
        while pos.size:
            i, j = ids[pos], ids[pos + d]
            apart = ~(meets[e[i], e[j]] | meets[e[i], f[j]] | meets[f[i], e[j]] | meets[f[i], f[j]])
            best, d = min([best, *(lead[apart] * c + j[apart]).tolist()]), d + 1
            keep = (pos + d < stop) & (lead * c + ids[np.minimum(pos + d, c - 1)] < best)
            pos, lead, stop = pos[keep], lead[keep], stop[keep]
        planes = None if best == c**3 else [int(cand[best // c % c]), int(cand[best % c])]
    if planes is None:
        return SplitWitness(False, k, None, nodes)
    pairs = _symplectic_basis(g, [(int(table.e[i]), int(table.f[i])) for i in planes])
    if half != k:
        pairs = pairs[half:] + pairs[:half]
    return SplitWitness(True, k, act_on_tuple(_basis_element(g, pairs), product_split_tuple(g, k)), nodes)


@dataclass(frozen=True)
class StratumReport:
    """A stratum label with the numerical evidence that produced it."""

    label: str
    form_magnitudes: dict[str, float]
    vanishing: tuple[Characteristic, ...]
    splits: tuple[SplitWitness, ...]
    threshold: float
    theta_target: float | None  # truncation target of the theta sums behind the report
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
            "theta_target": self.theta_target,
            "margin": self.margin,
            "warnings": list(self.warnings),
            "notes": list(self.notes),
        }


def _some_block_odd(parts: tuple[int, ...]) -> int:
    """Evens of genus sum(parts) odd on at least one diagonal block of the
    given sizes: every even less those even on every block (the blocks'
    parities add up to the whole one)."""
    return even_count(sum(parts)) - prod(even_count(d) for d in parts)


# (k=1 split found, k=2 split found, vanishing count) -> stratum, for the
# points where some split is found.  A hyperelliptic genus-3 factor of a
# 1+3 product adds the even_count(1) evens that are even on the genus-1
# block and equal the factor's one vanishing even on the genus-3 block.
_LABELS = {
    (True, False, _some_block_odd((1, 3))): "X3",
    (True, False, _some_block_odd((1, 3)) + even_count(1)): "X4",
    (False, True, _some_block_odd((2, 2))): "X4",
    (True, True, _some_block_odd((1, 1, 2))): "X5",
    (True, True, _some_block_odd((1, 1, 1, 1))): "X6",
}


def _decide(ft_survives: bool, members, notes: list[str]) -> tuple[str, tuple[SplitWitness, ...]]:
    """The decision chain on the Schottky outcome and the genus-4 vanishing
    set: (label, split witnesses), with one note naming the rule that
    fired appended to `notes`."""
    if ft_survives:
        notes.append("Schottky form survives" + (" with vanishing constants present" if members else ""))
        return "X0", ()
    if not members:
        notes.append("Schottky form vanishes, no vanishing theta constants: theta-null survives")
        return "X1", ()
    if len(members) == 1:
        notes.append("exactly one vanishing constant: F_1 reduces to one nonzero exclusion product")
        return "X2", ()
    g, hits, out = _plane_hits(members)
    w1, w2 = _split(g, hits, out, 1), _split(g, hits, out, 2)
    rule = (f"{'' if w1.found else 'no '}k=1 split, {'' if w2.found else 'no '}k=2 split, "
            f"{len(members)} vanishing")
    if not w1.found and not w2.found:
        # all three forms vanish with no product structure: the
        # hyperelliptic component of X3
        notes.append(f"{rule}: hyperelliptic branch, X3")
        return "X3", (w1, w2)
    label = _LABELS.get((w1.found, w2.found, len(members)), "UNRESOLVED")
    notes.append(f"{rule}: {label}")
    return label, (w1, w2)


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

    The constants come from one walk (theta._even_moduli), which gives
    their squares with a bound each.  The squares are all the chain reads:
    |theta| and theta^8, hence the three forms' relative magnitudes, are
    the same for either square root.  The walk runs at the Siegel-reduced
    gamma o tau when the walk at tau would be large, else at tau.  Margin
    and forms are then the representative's, the vanishing set tau's.
    """
    if point.genus != 4:
        raise ValueError(f"classify requires genus 4, got {point.genus}")
    _check_threshold(rel_threshold)
    values, error = _even_moduli(point, THETA_TARGET)
    vrep = _vanishing(all_characteristics(4, "even"), values, error, rel_threshold)
    mags = {fid: fv.relative_magnitude for fid, fv in _forms(values, point.genus).items()}
    warnings = ()
    if vrep.warning:
        warnings = (f"ill-separated vanishing spectrum: margin {vrep.margin:.3g} < {MARGIN_FLOOR}",)
    notes: list[str] = []
    label, splits = _decide(mags["FT"] >= rel_threshold, vrep.members, notes)
    return StratumReport(label, mags, vrep.members, splits, rel_threshold, THETA_TARGET, vrep.margin,
                         warnings, tuple(notes))


def classify_from_pattern(ft_vanishes: bool, vanishing=()) -> StratumReport:
    """classify's decision chain, the same function, driven by a synthetic
    Schottky outcome and vanishing set instead of numerics, covering the
    branches (X1, X2, hyperelliptic X3) that no constructible period matrix
    reaches here.  Theta-null and F_1 are read off the vanishing set, as
    classify reads them.  Odd, repeated or non-genus-4 members of
    `vanishing` raise ValueError.
    """
    members = tuple(vanishing)
    for m in members:
        if parity(m) != 0:
            raise ValueError(f"odd characteristic {m} in vanishing set")
    if len(set(members)) != len(members):
        raise ValueError("repeated characteristic in vanishing set")
    if any(m.genus != 4 for m in members):
        raise ValueError("vanishing set members must have genus 4")
    notes = [f"synthetic pattern: FT={'0' if ft_vanishes else 'nonzero'}"]
    label, splits = _decide(not ft_vanishes, members, notes)
    return StratumReport(label, {}, members, splits, 0.0, None, float("inf"), (), tuple(notes))
