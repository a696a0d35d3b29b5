"""Row reduction over F2 on int bitmask rows (bit i = column i)."""

from __future__ import annotations

__all__ = ["rref", "kernel_basis", "mask_to_indices"]


def rref(rows) -> tuple[int, ...]:
    """Reduced row echelon basis of the F2 row space, sorted descending.

    Canonical: two collections of rows span the same space iff their
    rrefs are equal.
    """
    pivots: dict[int, int] = {}  # top-bit position -> row with that pivot
    for row in rows:
        while row and (top := row.bit_length() - 1) in pivots:
            row ^= pivots[top]
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
    i, so masks compare MSB-first in index order.  Row i of the reduction
    is vectors[i] above an indicator bit for i.  A reduced row that keeps
    a vector part has its pivot there, so the rows with none are the
    reduced basis of the kernel in indicator bits.
    """
    p = len(vectors)
    rows = rref((v << p) | (1 << (p - 1 - i)) for i, v in enumerate(vectors))
    return tuple(row for row in rows if not row >> p)


def mask_to_indices(mask: int, p: int) -> tuple[int, ...]:
    """Indices encoded by a kernel/rref bitmask over p positions."""
    return tuple(i for i in range(p) if (mask >> (p - 1 - i)) & 1)
