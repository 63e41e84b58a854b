"""Command-line front end.

Every command reads flags only, writes to stdout, and is deterministic:
identical inputs give byte-identical output.  Exit codes: 0 success, 2 bad
arguments (argparse reports which one), 3 a verification that ran and
failed.  ``--format json`` wraps each payload with ``schema_version``;
``--format dot`` is only meaningful for ``lattice``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .core import (
    IrreducibleClass,
    PrincipalIrr,
    VirtualModule,
    as_scalar,
    display_sort_key,
    format_class,
    format_scalar,
    format_virtual_module,
    ktype_function,
    parse_class,
)
from .lattice import (
    classify_irreducible,
    cover_edges,
    enumerate_submodule_sets,
    format_point,
    format_point_set,
    generated_submodule,
    irreducible_closed_sets,
    orbit_label,
    point_sort_key,
    specialization_edges,
    ANTIHOL_POINT,
    FD_POINT,
    HOL_POINT,
)
from .oracle import verify_tensor, verdict_to_dict
from .tensor import (
    PsIrreducible,
    PsNegativeInt,
    PsPositiveInt,
    PsSplitLimit,
    clebsch_gordan,
    decomposition_to_dict,
    format_summand,
    ps_structure,
    ps_tensor,
    tensor_with_finite,
)

SCHEMA_VERSION = 1


# --- argument converters --------------------------------------------------------


def _scalar_arg(text: str) -> Fraction:
    try:
        return as_scalar(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"cannot parse rational {text!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parity_arg(text: str) -> int:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError(f"parity must be 0 or 1, got {text!r}")
    return int(text)


def _nonneg_int_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _class_arg(text: str) -> IrreducibleClass:
    try:
        return parse_class(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _scalar_list_arg(text: str) -> tuple:
    try:
        return tuple(as_scalar(tok.strip()) for tok in text.split(",") if tok.strip())
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"cannot parse rational list {text!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_list_arg(text: str) -> tuple:
    try:
        return tuple(_nonneg_int_arg(tok.strip()) for tok in text.split(",") if tok.strip())
    except argparse.ArgumentTypeError:
        raise
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# --- shared renderers -----------------------------------------------------------


def _module_to_dict(x: VirtualModule) -> dict:
    pairs = sorted(x.items(), key=lambda cm: display_sort_key(cm[0]))
    return {format_class(cls): mult for cls, mult in pairs}


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2))


def _window_text(window: tuple) -> str:
    return f"[{window[0]},{window[1]}]"


def _spectrum_text(pairs) -> str:
    return ", ".join(f"{format_scalar(v)}:{m}" for v, m in pairs)


# --- commands -------------------------------------------------------------------


def _cmd_cg(args) -> int:
    product = clebsch_gordan(args.m1, args.m2)
    if args.format == "text":
        print(format_virtual_module(product))
    else:
        _emit({"command": "cg", "m1": args.m1, "m2": args.m2, "module": _module_to_dict(product)}, args.format)
    return 0


def _series_layers(structure) -> tuple:
    """(kind, layers socle-to-top, split) for a composition series structure."""
    if isinstance(structure, PsIrreducible):
        return ("irreducible", [[structure.factor]], True)
    if isinstance(structure, PsSplitLimit):
        return ("split_limit", [[structure.plus, structure.minus]], True)
    if isinstance(structure, PsPositiveInt):
        return ("positive_int", [[structure.sub_plus, structure.sub_minus], [structure.quotient]], False)
    if isinstance(structure, PsNegativeInt):
        return ("negative_int", [[structure.sub], [structure.quot_plus, structure.quot_minus]], False)
    raise TypeError(f"unknown series structure {structure!r}")


def _cmd_series(args) -> int:
    structure = ps_structure(args.lam, args.eps)
    kind, layers, split = _series_layers(structure)
    if args.format == "text":
        if kind == "irreducible":
            print(f"{format_class(layers[0][0])}  [irreducible]")
        elif kind == "split_limit":
            plus, minus = layers[0]
            print(f"{format_class(plus)} (+) {format_class(minus)}  [split]")
        else:
            total = f"I({format_scalar(args.lam)},{args.eps})"
            rendered = [" (+) ".join(format_class(c) for c in layer) for layer in layers]
            print(f"0 -> {rendered[0]} -> {total} -> {rendered[1]} -> 0  [non-split]")
    else:
        _emit(
            {
                "command": "series",
                "lambda": format_scalar(args.lam),
                "eps": args.eps,
                "kind": kind,
                "split": split,
                "layers": [[format_class(c) for c in layer] for layer in layers],
            },
            args.format,
        )
    return 0


def _cmd_tensor(args) -> int:
    cls = args.cls
    if isinstance(cls, PrincipalIrr):
        summands = ps_tensor(cls.lam, cls.eps, args.m)
        if args.format == "text":
            print(" (+) ".join(format_summand(s) for s in summands))
        else:
            _emit(
                {"command": "tensor", "class": format_class(cls), "m": args.m, **decomposition_to_dict(summands)},
                args.format,
            )
        return 0
    product = tensor_with_finite(cls, args.m)
    if args.format == "text":
        print(format_virtual_module(product))
    else:
        _emit(
            {"command": "tensor", "class": format_class(cls), "m": args.m, "module": _module_to_dict(product)},
            args.format,
        )
    return 0


def _cmd_ktypes(args) -> int:
    lo, hi = args.window
    if lo > hi:
        print("argument --window: lower bound exceeds upper bound", file=sys.stderr)
        return 2
    f = ktype_function(args.cls)
    if args.format == "text":
        print(f"parity {f.parity}, tail_left {f.tail_left}, tail_right {f.tail_right}")
        for k, mult in f.table(lo, hi).items():
            print(f"k={k}: {mult}")
    else:
        _emit(
            {
                "command": "ktypes",
                "class": format_class(args.cls),
                "parity": f.parity,
                "tail_left": f.tail_left,
                "tail_right": f.tail_right,
                "window": [lo, hi],
                "table": [[k, mult] for k, mult in f.table(lo, hi).items()],
            },
            args.format,
        )
    return 0


def _cmd_generate(args) -> int:
    generators = [VirtualModule.of(cls) for cls in args.classes]
    points = generated_submodule(generators)
    if args.format == "text":
        print(format_point_set(points))
    else:
        _emit(
            {
                "command": "generate",
                "generators": [format_class(c) for c in args.classes],
                "points": [format_point(p) for p in sorted(points, key=point_sort_key)],
            },
            args.format,
        )
    return 0


def _cmd_classify(args) -> int:
    closure_set, index = classify_irreducible(args.cls)
    if args.format == "text":
        print(f"closure {format_point_set(closure_set)}, index {format_scalar(index)}")
    else:
        _emit(
            {
                "command": "classify",
                "class": format_class(args.cls),
                "closure": [format_point(p) for p in sorted(closure_set, key=point_sort_key)],
                "index": format_scalar(index),
            },
            args.format,
        )
    return 0


def _lattice_points(lambda_keys: tuple) -> list:
    points = {FD_POINT, HOL_POINT, ANTIHOL_POINT}
    for closed in irreducible_closed_sets(lambda_keys)[3:]:
        points |= closed
    return sorted(points, key=point_sort_key)


def _cmd_lattice(args) -> int:
    points = _lattice_points(args.lambda_keys)
    sets = enumerate_submodule_sets(points)
    covers = cover_edges(sets)
    specs = specialization_edges(points)
    if args.format == "text":
        print("points:")
        for p in points:
            print(f"  {format_point(p)}: {orbit_label(p)}")
        print("sets:")
        for i, s in enumerate(sets):
            print(f"  {i}: {format_point_set(s)}")
        print("covers:")
        for i, j in covers:
            print(f"  {i} -> {j}")
        print("specializations:")
        for p, q in specs:
            print(f"  {format_point(p)} -> {format_point(q)}")
    elif args.format == "json":
        _emit(
            {
                "command": "lattice",
                "points": [{"point": format_point(p), "orbit": orbit_label(p)} for p in points],
                "sets": [[format_point(p) for p in sorted(s, key=point_sort_key)] for s in sets],
                "covers": [[i, j] for i, j in covers],
                "specializations": [[format_point(p), format_point(q)] for p, q in specs],
            },
            args.format,
        )
    else:
        lines = ["digraph class_lattice {", "  rankdir=BT;"]
        lines.append("  subgraph cluster_points {")
        lines.append('    label="class points (specialization order)";')
        index = {p: i for i, p in enumerate(points)}
        for p in points:
            lines.append(f'    p{index[p]} [label="{format_point(p)}\\n{orbit_label(p)}"];')
        for p, q in specs:
            lines.append(f"    p{index[p]} -> p{index[q]};")
        lines.append("  }")
        lines.append("  subgraph cluster_sets {")
        lines.append('    label="submodule lattice (covers)";')
        for i, s in enumerate(sets):
            lines.append(f'    s{i} [label="{format_point_set(s)}"];')
        for i, j in covers:
            lines.append(f"    s{i} -> s{j};")
        lines.append("  }")
        lines.append("}")
        print("\n".join(lines))
    return 0


def _verify_line(verdict) -> str:
    window = _window_text(verdict.window)
    if verdict.passed:
        return f"PASS (k in {window}: spectra match)"
    e = verdict.first_mismatch()
    observed = _spectrum_text((v, mult) for v, mult, _ in e.observed)
    predicted = _spectrum_text(e.predicted)
    return f"FAIL (k={e.k}: predicted {predicted}; observed {observed})"


def _cmd_verify(args) -> int:
    window = tuple(args.window) if args.window else None
    if window and window[0] > window[1]:
        print("argument --window: lower bound exceeds upper bound", file=sys.stderr)
        return 2
    try:
        verdict = verify_tensor(args.lam, args.eps, args.m, window)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.format == "text":
        print(_verify_line(verdict))
    else:
        _emit({"command": "verify", **verdict_to_dict(verdict)}, args.format)
    return 0 if verdict.passed else 3


def _cmd_sweep(args) -> int:
    combos = sorted((lam, eps, m) for lam in set(args.lambdas) for eps in (0, 1) for m in args.ms)
    verdicts = [(combo, verify_tensor(*combo)) for combo in combos]
    failures = sum(1 for _, v in verdicts if not v.passed)
    if args.format == "text":
        for (lam, eps, m), v in verdicts:
            print(f"lam={format_scalar(lam)} eps={eps} m={m}: {_verify_line(v)}")
        if failures:
            print(f"SWEEP FAIL ({failures} of {len(verdicts)} verifications failed)")
        else:
            print(f"SWEEP PASS ({len(verdicts)} verifications)")
    else:
        _emit(
            {
                "command": "sweep",
                "results": [
                    {
                        "lambda": format_scalar(lam),
                        "eps": eps,
                        "m": m,
                        "window": list(v.window),
                        "verdict": "PASS" if v.passed else "FAIL",
                    }
                    for (lam, eps, m), v in verdicts
                ],
                "count": len(verdicts),
                "failures": failures,
                "passed": failures == 0,
            },
            args.format,
        )
    return 0 if failures == 0 else 3


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2hc",
        description="Exact tensor decompositions and classification for sl(2) Harish-Chandra modules.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "dot"),
        default="text",
        help="output format (dot applies to the lattice command only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cg", help="tensor product of two finite-dimensional modules")
    p.add_argument("m1", type=_nonneg_int_arg)
    p.add_argument("m2", type=_nonneg_int_arg)
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("series", help="composition series of a principal series")
    p.add_argument("lam", type=_scalar_arg, help="parameter, an integer or p/q")
    p.add_argument("eps", type=_parity_arg)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("tensor", help="tensor an irreducible class with V(m)")
    p.add_argument("cls", type=_class_arg, metavar="class", help="V(m), D+(l), D-(l), or I(lam,eps)")
    p.add_argument("m", type=_nonneg_int_arg)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("ktypes", help="K-type multiplicities over a window")
    p.add_argument("cls", type=_class_arg, metavar="class")
    p.add_argument("--window", type=int, nargs=2, metavar=("A", "B"), required=True)
    p.set_defaults(func=_cmd_ktypes)

    p = sub.add_parser("generate", help="thick tensor-submodule generated by classes")
    p.add_argument("classes", type=_class_arg, nargs="+", metavar="class")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("classify", help="classification invariant of an irreducible class")
    p.add_argument("cls", type=_class_arg, metavar="class")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("lattice", help="submodule lattice over a window of class points")
    p.add_argument(
        "--lambda-keys",
        type=_scalar_list_arg,
        default=(),
        help="comma-separated principal series parameters seeding the window",
    )
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify", help="check a tensor decomposition against the matrix oracle")
    p.add_argument("lam", type=_scalar_arg)
    p.add_argument("eps", type=_parity_arg)
    p.add_argument("m", type=_nonneg_int_arg)
    p.add_argument("--window", type=int, nargs=2, metavar=("A", "B"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify a whole parameter grid")
    p.add_argument("--lambdas", type=_scalar_list_arg, required=True)
    p.add_argument("--ms", type=_int_list_arg, required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.format == "dot" and args.command != "lattice":
        print("argument --format: dot output is only supported for the lattice command", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
