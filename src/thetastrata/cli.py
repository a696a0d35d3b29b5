"""Command-line front end: enumeration, orbit tests, form evaluation,
verification suites, and stratum classification, all emitting JSON.

Exit codes: 0 success, 1 domain error, 2 verification failure, 3 numeric
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .chars import Characteristic, CharTuple, all_characteristics, product_split_tuple
from .classify import classify
from .errors import CapExceededError
from .forms import FORM_IDS, evaluate_forms
from .symplectic import orbit_bfs, tuples_equivalent
from .theta import point_from_json, theta_constant
from .verify import (
    orbit_oracle_check,
    schottky_degeneration_check,
    transformation_check,
)

EXIT_OK = 0
EXIT_DOMAIN_ERROR = 1
EXIT_VERIFY_FAILED = 2
EXIT_CAP_EXCEEDED = 3


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _load_point(path: str):
    with open(path, encoding="utf-8") as fh:
        return point_from_json(json.load(fh))


def _parse_tuple(text: str) -> CharTuple:
    return CharTuple.from_strings([part.strip() for part in text.split(",")])


def _cmd_chars(args) -> int:
    if args.split is not None:
        tup = product_split_tuple(args.genus, args.split)
        _emit(tup.to_strings())
    else:
        _emit([str(m) for m in all_characteristics(args.genus, args.parity)])
    return EXIT_OK


def _cmd_orbit(args) -> int:
    tuples = [_parse_tuple(t) for t in args.tuple]
    if args.mode == "equiv":
        if len(tuples) != 2:
            raise ValueError("orbit equiv needs exactly two --tuple arguments")
        a, b = tuples
        _emit({
            "equivalent": tuples_equivalent(a, b),
            "tuple_a": a.to_strings(),
            "tuple_b": b.to_strings(),
        })
    else:
        if len(tuples) != 1:
            raise ValueError("orbit bfs needs exactly one --tuple argument")
        orbit = sorted(t.to_strings() for t in orbit_bfs(tuples[0]))
        _emit({"orbit_size": len(orbit), "orbit": orbit})
    return EXIT_OK


def _cmd_eval(args) -> int:
    point = _load_point(args.tau)
    if args.mode == "theta":
        if args.char is None:
            raise ValueError("eval theta needs --char")
        m = Characteristic.from_string(args.char)
        tv = theta_constant(m, point, args.target)
        _emit({
            "char": str(m),
            "value": [tv.value.real, tv.value.imag],
            "tail_bound": tv.tail_bound,
            "radius": tv.radius,
        })
        return EXIT_OK
    if args.form is None:
        raise ValueError("eval needs --form (or the theta mode with --char)")
    fv = evaluate_forms(point, args.target)[args.form]
    _emit({
        "form": fv.form_id,
        "value": [fv.value.real, fv.value.imag],
        "normalizer": fv.normalizer,
        "relative_magnitude": fv.relative_magnitude,
        "log_abs": fv.log_abs,
        "log_normalizer": fv.log_normalizer,
    })
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.suite == "transformation":
        report = transformation_check(args.genus, args.seed, args.count)
    elif args.suite == "schottky-degeneration":
        report = schottky_degeneration_check(args.genus, args.seed)
    else:
        report = orbit_oracle_check(args.genus)
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def _cmd_classify(args) -> int:
    point = _load_point(args.tau)
    report = classify(point, rel_threshold=args.threshold)
    _emit(report.to_json())
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, reused by run."""
    parser = argparse.ArgumentParser(
        prog="thetastrata",
        description="Theta constants, symplectic orbits, and the affine strata of genus-4 period matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_chars = sub.add_parser("chars", help="list characteristics or the split tuple I_k")
    p_chars.add_argument("--genus", type=int, required=True)
    p_chars.add_argument("--parity", choices=["all", "even", "odd"], default="all")
    p_chars.add_argument("--split", type=int, default=None, metavar="K")
    p_chars.set_defaults(func=_cmd_chars)

    p_orbit = sub.add_parser("orbit", help="tuple equivalence and orbit enumeration")
    p_orbit.add_argument("mode", choices=["equiv", "bfs"])
    p_orbit.add_argument(
        "--tuple", action="append", required=True,
        help="comma-separated characteristics, e.g. '00|11,01|10'",
    )
    p_orbit.set_defaults(func=_cmd_orbit)

    p_eval = sub.add_parser("eval", help="evaluate a stratifying form or a theta constant")
    p_eval.add_argument("mode", nargs="?", choices=["theta"], default=None)
    p_eval.add_argument("--form", choices=FORM_IDS, default=None)
    p_eval.add_argument("--char", default=None)
    p_eval.add_argument("--tau", required=True, help="JSON file {genus, tau: [[[re,im],..],..]}")
    p_eval.add_argument("--target", type=float, default=1e-10)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    verify_sub = p_verify.add_subparsers(dest="suite", required=True)
    p_tr = verify_sub.add_parser("transformation", help="seeded transformation-law residuals")
    p_tr.add_argument("--genus", type=int, required=True)
    p_tr.add_argument("--seed", type=int, required=True)
    p_tr.add_argument("--count", type=int, default=20)
    p_tr.set_defaults(func=_cmd_verify)
    p_sd = verify_sub.add_parser("schottky-degeneration", help="vanishing through genus 3, survival at genus 4")
    p_sd.add_argument("--genus", type=int, required=True)
    p_sd.add_argument("--seed", type=int, required=True)
    p_sd.set_defaults(func=_cmd_verify)
    p_oo = verify_sub.add_parser("orbit-oracle", help="exhaustive invariants-vs-BFS agreement")
    p_oo.add_argument("--genus", type=int, required=True)
    p_oo.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="assign a genus-4 period matrix to a stratum")
    p_classify.add_argument("--tau", required=True)
    p_classify.add_argument("--threshold", type=float, default=1e-6)
    p_classify.set_defaults(func=_cmd_classify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage (stderr) or help (stdout)
        return EXIT_OK if exc.code == 0 else EXIT_DOMAIN_ERROR
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
