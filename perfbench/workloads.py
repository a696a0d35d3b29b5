"""The four workloads: seeded operation lists, the call each operation
makes into thetastrata, and the checks each result must pass.

A plan is built from the workload seed before any timing, in the worker
process, and holds only generated inputs. Every run repeats the same
list ("round") whole, so each operation is attempted equally often.

Inputs are stratified by what sets their cost, so that two seeds give
the same amount of work: the theta box radius R (a genus-4 lattice pass
costs (2R+1)^4 points per eps class) and, for Sp(8,Z) images, the word,
which fixes the split search's node count. A word's image of a block
product has a vanishing set fixed by the word mod 2, so its search cost
does not depend on the continuous point; the source point is redrawn
until every image lands on its slot's radius.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

import oracles

WORKLOADS = ("generic", "strata", "split22", "verify")

TARGET = 1e-12  # classify's default theta target, which fixes its radius
WORD_LENGTH = 6
VERIFY_COUNT = 10
VERIFY_TARGET = 1e-10  # transformation_check's default target
VERIFY_TOL = 1e-8  # the documented bound on every transformation residual
# generic plans hold only radius-5 points; past radius 5 the lattice
# mass at lambda_min >= 0.55 is below 1e-22
ORACLE_RADIUS = 6

GENERIC_OPS = 20

# kind -> (block sizes or None for a generic point, label, image slots).
# An image slot is (seed of random_symplectic(4, 6, seed), radius of the
# image). All words have C != 0. Split-search nodes per image are noted;
# they are the same for every source of the kind.
STRATA = {
    # k=2 nodes: 48, 2975, 5964, 22978
    "1+1+2": ((1, 1, 2), "X5", [(6018, 5), (6003, 6), (6038, 7), (6075, 8)]),
    # k=2 nodes: 4614, 4612, 75, 29256
    "1+1+1+1": ((1, 1, 1, 1), "X6", [(6024, 5), (6038, 6), (6023, 7), (6075, 8)]),
    "1+3": ((1, 3), "X3", [(6024, 5), (6011, 6), (6023, 7), (6065, 8)]),
    "generic": (None, "X0", [(6018, 5), (6054, 6), (6057, 7), (6065, 8)]),
}
# detect_split(k=1) fails on every 2+2 point; k=2 succeeds in 42-45 nodes.
SPLIT22 = ((2, 2), "X4", [(6018, 5), (6039, 5)])

SOURCE_RADIUS = 5
MAX_DRAWS = 5000

# verify: seeds are sorted into classes by the box points their checks
# sum, and each class gets a fixed quota, so every plan has the same mix
# of cheap and costly operations.
VERIFY_EDGES = (183_000, 217_000, 271_000)
VERIFY_QUOTA = 12
VERIFY_MAX_RADIUS = 9


@dataclass
class Op:
    """One operation of a round and what its result must satisfy."""

    kind: str  # "classify" or "cli"
    arg: object  # SiegelPoint or argv list
    name: str
    label: str | None = None
    vanishing: int | None = None
    vanishing_set: set | None = None  # exact set, for unconjugated products
    source: int | None = None  # index of the op whose label this one must match
    no_k1_split: bool = False
    oracle: list = field(default_factory=list)  # [(eps, delta), ...] to box-sum

    def to_json(self) -> dict:
        if self.kind == "cli":
            return {"kind": "cli", "argv": self.arg}
        return {"kind": "classify", "tau": [[[z.real, z.imag] for z in row] for row in self.arg.tau]}


def _ts():
    return importlib.import_module("thetastrata")


def _radius(point, target=TARGET) -> int:
    return _ts().truncation_radius(point, target)


def _product(parts, rng):
    ts = _ts()
    point = None
    for d in parts:
        factor = ts.random_siegel_point(d, rng)
        point = factor if point is None else ts.block_diag(point, factor)
    return point


def _source(parts, rng):
    if parts is None:
        return _ts().generic_siegel_point(4, rng)
    return _product(parts, rng)


def _family(kind, parts, label, slots, rng) -> list[Op]:
    """A source point and its images, redrawn until every radius matches."""
    ts = _ts()
    words = [ts.random_symplectic(4, WORD_LENGTH, s) for s, _ in slots]
    vanishing = oracles.odd_on_some_block(parts) if parts else set()
    for _ in range(MAX_DRAWS):
        src = _source(parts, rng)
        if _radius(src) != SOURCE_RADIUS:
            continue
        images = []
        for gamma, (_, radius) in zip(words, slots):
            try:
                image = ts.siegel_action(gamma, src)
            except ValueError:
                break
            if _radius(image) != radius:
                break
            images.append(image)
        else:
            break
    else:
        raise RuntimeError(f"no {kind} source in {MAX_DRAWS} draws fits the radius slots")
    ops = [Op("classify", src, kind, label, len(vanishing), vanishing)]
    for image, (word, radius) in zip(images, slots):
        ops.append(Op("classify", image, f"{kind}@{word}", label, len(vanishing), source=0))
    return ops


def _offset(ops, base):
    for op in ops:
        if op.source is not None:
            op.source += base
    return ops


def plan_generic(rng) -> list[Op]:
    ts = _ts()
    ops = []
    while len(ops) < GENERIC_OPS:
        point = ts.generic_siegel_point(4, rng)
        if _radius(point) == SOURCE_RADIUS:
            ops.append(Op("classify", point, "generic", "X0", 0))
    evens = oracles.even_characteristics(4)
    for i in rng.choice(len(ops), size=2, replace=False):
        ops[i].oracle = [evens[j] for j in rng.choice(len(evens), size=3, replace=False)]
    return ops


def plan_strata(rng) -> list[Op]:
    ops: list[Op] = []
    for kind, (parts, label, slots) in STRATA.items():
        ops += _offset(_family(kind, parts, label, slots, rng), len(ops))
    return ops


def plan_split22(rng) -> list[Op]:
    parts, label, slots = SPLIT22
    ops = _family("2+2", parts, label, slots, rng)
    for op in ops:
        op.no_k1_split = True
    return ops


def _verify_cost(seed: int) -> tuple[int, int]:
    """(box points, largest radius) of the theta sums one
    `verify transformation --seed seed` makes, replaying its seeded draws:
    per check a word length, a word seed, a characteristic index and a
    point, then theta at the point and at its image."""
    ts = _ts()
    rng = np.random.default_rng(seed)
    total = top = 0
    for _ in range(VERIFY_COUNT):
        word_length = int(rng.integers(1, 7))
        gamma = ts.random_symplectic(4, word_length, int(rng.integers(0, 2**31)))
        rng.integers(0, 136)
        point = ts.random_siegel_point(4, rng)
        for p in (point, ts.siegel_action(gamma, point)):
            r = _radius(p, VERIFY_TARGET)
            total += (2 * r + 1) ** 4
            top = max(top, r)
    return total, top


def plan_verify(rng) -> list[Op]:
    quota = [VERIFY_QUOTA] * (len(VERIFY_EDGES) + 1)
    ops = []
    while any(quota):
        seed = int(rng.integers(0, 2**31))
        cost, top = _verify_cost(seed)
        # the first operation, which set-up also times, reaches the
        # largest radius, so peak memory is the same for every plan
        if top > VERIFY_MAX_RADIUS or (not ops and top < VERIFY_MAX_RADIUS):
            continue
        cls = sum(cost >= e for e in VERIFY_EDGES)
        if quota[cls]:
            quota[cls] -= 1
            argv = ["verify", "transformation", "--genus", "4", "--seed", str(seed),
                    "--count", str(VERIFY_COUNT)]
            ops.append(Op("cli", argv, f"verify@{seed}"))
    return ops


PLANNERS = {"generic": plan_generic, "strata": plan_strata, "split22": plan_split22,
            "verify": plan_verify}


def plan(workload: str, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return PLANNERS[workload](rng)


def op_from_json(obj: dict) -> Op:
    if obj["kind"] == "cli":
        return Op("cli", obj["argv"], "first")
    tau = np.array([[complex(re, im) for re, im in row] for row in obj["tau"]])
    return Op("classify", _ts().validate_siegel(tau), "first")


def execute(op: Op):
    """Make the operation's call; look the function up at call time so a
    traced pass sees the wrapped one."""
    if op.kind == "classify":
        return importlib.import_module("thetastrata.classify").classify(op.arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = importlib.import_module("thetastrata.cli").run(op.arg)
    return code, out.getvalue()


def oracle_faults(ops: list[Op]) -> set[int]:
    """Indices of ops whose sampled theta constants fail a check made
    apart from the program: each value must agree within TARGET with
    tests/oracles.py's box sum at ORACLE_RADIUS, and the radius the
    program reports must make that file's shell tail bound, at the
    lambda_min numpy computes, fall below TARGET. The tail past radius 4
    is below double precision here, so only the second check sees a
    kernel that truncates too early."""
    ts = _ts()
    ref = oracles.reference()
    bad = set()
    for i, op in enumerate(ops):
        if not op.oracle:
            continue
        values = {str(m): (m, tv) for m, tv in ts.even_theta_constants(op.arg, TARGET).items()}
        lam = float(np.linalg.eigvalsh(op.arg.tau.imag).min())
        for eps, delta in op.oracle:
            m, tv = values[oracles.char_string(eps, delta)]
            box = ref.direct_theta_constant(m, op.arg, ORACLE_RADIUS)
            if not (abs(tv.value - box) <= TARGET and tv.tail_bound < TARGET
                    and ref.shell_tail_bound(4, lam, tv.radius) < TARGET):
                bad.add(i)
    return bad


def check(op: Op, result, round_results: list) -> str | None:
    """None when the result is right, else the reason it is not."""
    if op.kind == "cli":
        code, text = result
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        residuals = [c["residual"] for c in report["checks"]]
        if report["ok"] is not True or len(residuals) != VERIFY_COUNT:
            return "suite not ok"
        if not all(r < VERIFY_TOL for r in residuals):
            return f"residual {max(residuals):.3g} >= {VERIFY_TOL}"
        return None
    report = result
    members = {str(m) for m in report.vanishing}
    if report.label != op.label:
        return f"label {report.label}, expected {op.label}"
    if len(report.vanishing) != op.vanishing or len(members) != op.vanishing:
        return f"{len(report.vanishing)} vanishing, expected {op.vanishing}"
    if op.vanishing_set is not None and members != op.vanishing_set:
        return "vanishing set differs from the block enumeration"
    if op.label == "X0" and not report.form_magnitudes["FT"] >= report.threshold:
        return "X0 with F_T below threshold"
    for w in report.splits:
        if w.found:
            entries = [str(m) for m in w.witness]
            if len(set(entries)) != oracles.split_tuple_size(4, w.k) or not set(entries) <= members:
                return f"k={w.k} witness is not |I_k| distinct vanishing characteristics"
    if op.no_k1_split and not any(w.k == 1 and not w.found for w in report.splits):
        return "detect_split(k=1) did not report a failed search"
    if op.source is not None:
        source = round_results[op.source]
        if isinstance(source, Exception) or source.label != report.label:
            return "label differs from its source's"
    return None
