"""Row reduction over F2 on int bitmask rows (bit i = column i)."""

from __future__ import annotations

__all__ = ["reduce_row", "augment", "rref", "kernel_basis"]


def reduce_row(row: int, pivots: dict[int, int]) -> int:
    """Clear the top bit of row with the pivot row holding that top bit
    (pivots maps top-bit position -> row) until no pivot matches; the
    result is 0 exactly when row lies in the pivots' span."""
    while row:
        pivot = pivots.get(row.bit_length() - 1)
        if pivot is None:
            return row
        row ^= pivot
    return 0


def augment(row: int) -> int:
    """row with a constant 1 appended as its lowest bit; a relation among
    augmented rows has even cardinality."""
    return (row << 1) | 1


def rref(rows) -> tuple[int, ...]:
    """Reduced row echelon basis of the F2 row space, sorted descending.

    Canonical: two collections of rows span the same space iff their
    rrefs are equal.
    """
    pivots: dict[int, int] = {}  # top-bit position -> row with that pivot
    for row in rows:
        row = reduce_row(row, pivots)
        if row:
            pivots[row.bit_length() - 1] = row
    # Clear every pivot bit from the other rows, lowest pivot first so a
    # pass never reintroduces an already-cleaned bit.
    for t in sorted(pivots):
        for t2 in pivots:
            if t2 != t and (pivots[t2] >> t) & 1:
                pivots[t2] ^= pivots[t]
    return tuple(sorted(pivots.values(), reverse=True))


def kernel_basis(vectors) -> tuple[int, ...]:
    """Canonical (rref) basis of {x in F2^p : sum_i x_i vectors[i] = 0}.

    Each kernel element is a bitmask with bit (p-1-i) standing for index
    i, so masks compare MSB-first in index order.
    """
    p = len(vectors)
    # Track combinations through an indicator tail; a row whose vector
    # part cancels leaves the combination that produced it.  Every pivot
    # has its top bit in the vector part, so reduction stops there.
    pivots: dict[int, int] = {}
    kernel: list[int] = []
    for i, v in enumerate(vectors):
        row = reduce_row((v << p) | (1 << (p - 1 - i)), pivots)
        if row >> p:
            pivots[row.bit_length() - 1] = row
        else:
            kernel.append(row)
    return rref(kernel)


def mask_to_indices(mask: int, p: int) -> tuple[int, ...]:
    """Indices encoded by a kernel/rref bitmask over p positions."""
    return tuple(i for i in range(p) if (mask >> (p - 1 - i)) & 1)
