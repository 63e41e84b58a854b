"""Command-line front end.

Every command reads flags only, writes to stdout, and is deterministic:
identical inputs give byte-identical output.  Exit codes: 0 success, 2 bad
arguments (one stderr line says which), 3 a verification that ran and
failed or met an eigenvalue outside its candidate set.  ``--format json``
wraps each payload with ``schema_version``; ``--format dot`` is only
meaningful for ``lattice``.  ``main`` alone turns payloads into output and
errors into exit codes.  A command imports the lattice or the oracle
only when it needs them, so the cheap commands start fast.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .core import (
    IrreducibleClass,
    PrincipalIrr,
    UnexpectedEigenvalueError,
    VirtualModule,
    as_scalar,
    display_sort_key,
    format_class,
    format_scalar,
    format_virtual_module,
    ktype_function,
    parse_class,
)
from .tensor import (
    clebsch_gordan,
    decomposition_to_dict,
    format_summand,
    ps_structure,
    ps_tensor,
    tensor_with_finite,
)

SCHEMA_VERSION = 1
MAX_LATTICE_PS_POINTS = 12  # 20,480 sets; each further point doubles the output


# --- argument converters --------------------------------------------------------


def _scalar_arg(text: str) -> Fraction:
    try:
        return as_scalar(text)
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
    return tuple(_scalar_arg(tok.strip()) for tok in text.split(",") if tok.strip())


def _int_list_arg(text: str) -> tuple:
    return tuple(_nonneg_int_arg(tok.strip()) for tok in text.split(",") if tok.strip())


# --- shared renderers -----------------------------------------------------------


def _module_to_dict(x: VirtualModule) -> dict:
    pairs = sorted(x.items(), key=lambda cm: display_sort_key(cm[0]))
    return {format_class(cls): mult for cls, mult in pairs}


def _line(render, *args):
    """One line of text, rendered only when the lines are iterated."""
    yield render(*args)


def _braces(names: list) -> str:
    return "{" + ", ".join(names) + "}"


def _spectrum_text(pairs) -> str:
    return ", ".join(f"{format_scalar(v)}:{m}" for v, m in pairs)


def _verify_line(verdict) -> str:
    if verdict.passed:
        return f"PASS (k in [{verdict.window[0]},{verdict.window[1]}]: spectra match)"
    e = verdict.first_mismatch()
    observed = _spectrum_text((v, mult) for v, mult, _ in e.observed)
    predicted = _spectrum_text(e.predicted)
    return f"FAIL (k={e.k}: predicted {predicted}; observed {observed})"


# --- commands -------------------------------------------------------------------
#
# Each command computes its result once and returns (payload, text lines).
# The lines are a generator, so a JSON run never renders them.


def _cmd_cg(args):
    product = clebsch_gordan(args.m1, args.m2)
    payload = {"command": "cg", "m1": args.m1, "m2": args.m2, "module": _module_to_dict(product)}
    return payload, _line(format_virtual_module, product)


def _cmd_series(args):
    structure = ps_structure(args.lam, args.eps)
    payload = {
        "command": "series",
        "lambda": format_scalar(args.lam),
        "eps": args.eps,
        "kind": structure.kind,
        "split": structure.split,
        "layers": [[format_class(c) for c in layer] for layer in structure.layers],
    }
    return payload, _series_lines(payload)


def _series_lines(p: dict):
    socle, *top = (" (+) ".join(layer) for layer in p["layers"])
    if top:
        yield f"0 -> {socle} -> I({p['lambda']},{p['eps']}) -> {top[0]} -> 0  [non-split]"
    else:
        yield f"{socle}  [{'irreducible' if p['kind'] == 'irreducible' else 'split'}]"


def _cmd_tensor(args):
    cls = args.cls
    payload = {"command": "tensor", "class": format_class(cls), "m": args.m}
    if isinstance(cls, PrincipalIrr):
        summands = ps_tensor(cls.lam, cls.eps, args.m)
        payload.update(decomposition_to_dict(summands))
        return payload, _line(" (+) ".join, map(format_summand, summands))
    product = tensor_with_finite(cls, args.m)
    payload["module"] = _module_to_dict(product)
    return payload, _line(format_virtual_module, product)


def _cmd_ktypes(args):
    f = ktype_function(args.cls)
    payload = {
        "command": "ktypes",
        "class": format_class(args.cls),
        "parity": f.parity,
        "tail_left": f.tail_left,
        "tail_right": f.tail_right,
        "window": list(args.window),
        "table": [[k, mult] for k, mult in f.table(*args.window).items()],
    }
    return payload, _ktypes_lines(payload)


def _ktypes_lines(p: dict):
    yield f"parity {p['parity']}, tail_left {p['tail_left']}, tail_right {p['tail_right']}"
    for k, mult in p["table"]:
        yield f"k={k}: {mult}"


def _cmd_generate(args):
    from .lattice import format_point, generated_submodule, point_sort_key

    points = generated_submodule([VirtualModule.of(cls) for cls in args.classes])
    payload = {
        "command": "generate",
        "generators": [format_class(c) for c in args.classes],
        "points": [format_point(p) for p in sorted(points, key=point_sort_key)],
    }
    return payload, _line(_braces, payload["points"])


def _cmd_classify(args):
    from .lattice import classify_irreducible, format_point, point_sort_key

    closure_set, index = classify_irreducible(args.cls)
    payload = {
        "command": "classify",
        "class": format_class(args.cls),
        "closure": [format_point(p) for p in sorted(closure_set, key=point_sort_key)],
        "index": format_scalar(index),
    }
    return payload, _line("closure {}, index {}".format, _braces(payload["closure"]), payload["index"])


def _cmd_lattice(args):
    from .lattice import (
        cover_edges,
        enumerate_submodule_sets,
        format_point,
        irreducible_closed_sets,
        orbit_label,
        point_sort_key,
        specialization_edges,
        structural_counts,
    )

    points = sorted(frozenset().union(*irreducible_closed_sets(args.lambda_keys)), key=point_sort_key)
    p = len(points) - 3
    if p > MAX_LATTICE_PS_POINTS:
        n_sets, n_covers = structural_counts(p)
        raise ValueError(
            f"argument --lambda-keys: {p} principal series points give {n_sets} sets and "
            f"{n_covers} covers; at most {MAX_LATTICE_PS_POINTS} points are enumerated"
        )
    sets = enumerate_submodule_sets(points)
    covers = cover_edges(sets)
    specs = specialization_edges(points)
    names = {point: format_point(point) for point in points}
    rank = {point: i for i, point in enumerate(points)}
    payload = {
        "command": "lattice",
        "points": [{"point": names[point], "orbit": orbit_label(point)} for point in points],
        "sets": [[names[point] for point in sorted(s, key=rank.__getitem__)] for s in sets],
        "covers": [[i, j] for i, j in covers],
        "specializations": [[names[a], names[b]] for a, b in specs],
    }
    render = _lattice_dot if args.format == "dot" else _lattice_text
    return payload, render(payload)


def _lattice_text(p: dict):
    yield "points:"
    for point in p["points"]:
        yield f"  {point['point']}: {point['orbit']}"
    yield "sets:"
    for i, names in enumerate(p["sets"]):
        yield f"  {i}: {_braces(names)}"
    yield "covers:"
    for i, j in p["covers"]:
        yield f"  {i} -> {j}"
    yield "specializations:"
    for a, b in p["specializations"]:
        yield f"  {a} -> {b}"


def _lattice_dot(p: dict):
    yield "digraph class_lattice {"
    yield "  rankdir=BT;"
    yield "  subgraph cluster_points {"
    yield '    label="class points (specialization order)";'
    index = {}
    for i, point in enumerate(p["points"]):
        index[point["point"]] = i
        yield f'    p{i} [label="{point["point"]}\\n{point["orbit"]}"];'
    for a, b in p["specializations"]:
        yield f"    p{index[a]} -> p{index[b]};"
    yield "  }"
    yield "  subgraph cluster_sets {"
    yield '    label="submodule lattice (covers)";'
    for i, names in enumerate(p["sets"]):
        yield f'    s{i} [label="{_braces(names)}"];'
    for i, j in p["covers"]:
        yield f"    s{i} -> s{j};"
    yield "  }"
    yield "}"


def verify_tensor(*args):
    """``oracle.verify_tensor``, imported on the first call; a module
    attribute, so that it can be replaced."""
    from .oracle import verify_tensor

    return verify_tensor(*args)


def _cmd_verify(args):
    from .oracle import verdict_to_dict

    verdict = verify_tensor(args.lam, args.eps, args.m, tuple(args.window) if args.window else None)
    return {"command": "verify", **verdict_to_dict(verdict)}, _line(_verify_line, verdict)


def _cmd_sweep(args):
    for flag, values in (("--lambdas", args.lambdas), ("--ms", args.ms)):
        if not values:
            raise ValueError(f"argument {flag}: expected at least one value")
    combos = sorted((lam, eps, m) for lam in set(args.lambdas) for eps in (0, 1) for m in set(args.ms))
    verdicts = [(combo, verify_tensor(*combo)) for combo in combos]
    failures = sum(1 for _, v in verdicts if not v.passed)
    payload = {
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
    }
    return payload, _sweep_lines(verdicts, failures)


def _sweep_lines(verdicts: list, failures: int):
    for (lam, eps, m), v in verdicts:
        yield f"lam={format_scalar(lam)} eps={eps} m={m}: {_verify_line(v)}"
    if failures:
        yield f"SWEEP FAIL ({failures} of {len(verdicts)} verifications failed)"
    else:
        yield f"SWEEP PASS ({len(verdicts)} verifications)"


# --- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with '-' and a digit as a value, so that
    negative rationals such as -7/3 need no '--' (argparse alone accepts only
    negative integers and decimals).  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        help="comma-separated principal series parameters seeding the window; at most "
        f"{MAX_LATTICE_PS_POINTS} principal series points are enumerated (a key lam gives 1 "
        "when 2*lam is an integer, else 2; keys that differ by an integer or a sign share them)",
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.format == "dot" and args.command != "lattice":
            raise ValueError("argument --format: dot output is only supported for the lattice command")
        window = getattr(args, "window", None)
        if window and window[0] > window[1]:
            raise ValueError("argument --window: lower bound exceeds upper bound")
        payload, lines = args.func(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except UnexpectedEigenvalueError as exc:
        print(f"FAIL ({exc})", file=sys.stderr)
        return 3
    if args.format == "json":
        import json

        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}, indent=2))
    else:
        for line in lines:
            print(line)
    return 3 if payload.get("verdict") == "FAIL" or payload.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
