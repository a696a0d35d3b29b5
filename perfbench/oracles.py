"""Reference computations the benchmark checks the program against.

Nothing here imports thetastrata: characteristics are plain (eps, delta)
bit tuples, printed in the program's "eps|delta" string form so the two
can be compared. The theta box sum and the shell tail bound come from
tests/oracles.py, which is written apart from the program as well.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
from functools import cache

TESTS_ORACLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "tests", "oracles.py")


def even_characteristics(g: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (eps, delta) with eps . delta even, by enumeration of (Z/2)^2g."""
    out = []
    for bits in itertools.product((0, 1), repeat=2 * g):
        eps, delta = bits[:g], bits[g:]
        if sum(e * d for e, d in zip(eps, delta)) % 2 == 0:
            out.append((eps, delta))
    return out


def char_string(eps, delta) -> str:
    return "".join(map(str, eps)) + "|" + "".join(map(str, delta))


def odd_on_some_block(parts: tuple[int, ...]) -> set[str]:
    """Even characteristics of genus sum(parts) whose restriction to at
    least one diagonal block is odd: exactly the theta constants that
    vanish on a generic product with these block sizes."""
    g = sum(parts)
    bounds = list(itertools.accumulate((0,) + parts))
    out = set()
    for eps, delta in even_characteristics(g):
        for lo, hi in zip(bounds, bounds[1:]):
            if sum(e * d for e, d in zip(eps[lo:hi], delta[lo:hi])) % 2 == 1:
                out.add(char_string(eps, delta))
                break
    return out


@cache
def split_tuple_size(g: int, k: int) -> int:
    """|I_k|: evens that are odd on the first k columns and odd on the
    remaining g - k, i.e. (# odd at genus k) * (# odd at genus g - k)."""
    def odd(h):
        return 4**h - len(even_characteristics(h))
    return odd(k) * odd(g - k)



@cache
def reference():
    """tests/oracles.py: direct_theta_constant (a plain cmath box sum) and
    shell_tail_bound (the lattice mass outside a box)."""
    spec = importlib.util.spec_from_file_location("tests_oracles", TESTS_ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
