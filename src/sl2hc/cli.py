"""Command-line front end.

Every command reads flags only, writes to stdout, and is deterministic:
identical inputs give byte-identical output.  Exit codes: 0 success, 1 the
reader closed stdout early (nothing on stderr), 2 bad arguments or arguments
past a cap, which ``_admit`` checks before the work (one stderr line says
which), 3 a verification that ran and failed or met an eigenvalue
outside its candidate set.  ``--format dot`` is only for ``lattice``.
``main`` alone turns results into output, streamed in blocks, and errors
into exit codes; ``--format json`` prints exactly ``json.dumps(envelope,
indent=2)``, an envelope ``main`` builds whole: ``schema_version``, the
subcommand as ``command``, then the command's payload.  A command imports
each layer beyond ``core`` (the tensor rules, the lattice, the oracle, and
``json``) only when it uses it, so the cheap commands start fast.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys

from .core import (
    ASCone,
    UnexpectedEigenvalueError,
    VirtualModule,
    _weight_range,
    as_cone,
    as_scalar,
    check_highest_weight,
    check_parity,
    display_sort_key,
    format_class,
    format_scalar,
    format_virtual_module,
    ladder,
    parse_class,
    parse_int,
)

SCHEMA_VERSION = 1
MAX_LATTICE_PS_POINTS = 12  # 20,480 sets; each further point doubles the output
MAX_PRODUCT_SHIFTS = 5000  # per cg or tensor; the slowest at the cap, tensor 'I(1/3,0)' 4999, takes 0.3 s
MAX_LISTED_WEIGHTS = 8000  # per ktypes or JSON verify; the slowest at the cap, JSON verify 7992 0 1, takes 0.3 s
MAX_ORACLE_M = 1024  # per verify or sweep row; the oracle's cost grows about as m^3 (verify 7/5 0 1024: 1.7 s)
MAX_LAMBDA_BITS = 64  # per numerator or denominator of a verified lam; at both caps verify takes about 23 s
MAX_SWEEP_ROWS = 1000  # verifications per sweep, |lambdas| x 2 x |ms| after deduplication
_BLOCK = 1 << 17  # characters per stdout write: one write for most outputs, little memory for a large one


# --- argument converters --------------------------------------------------------


def _checked(check, read=str, listed=False):
    """An argparse type: ``check(read(text))``, or with ``listed`` the tuple
    over the nonblank comma-separated tokens.  A ValueError of ``read`` or
    ``check``, the library's own rules, becomes the argument's error with the
    library's message."""

    def convert(text: str):
        try:
            values = [read(tok.strip()) for tok in text.split(",") if tok.strip()] if listed else [read(text)]
            values = tuple(map(check, values))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return values if listed else values[0]

    return convert


_scalar_arg = _checked(as_scalar)
_int_arg = _checked(parse_int)
_parity_arg = _checked(check_parity, parse_int)
_weight_arg = _checked(check_highest_weight, parse_int)
_class_arg = _checked(parse_class)


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
    segment = verdict.first_mismatch()
    pairs = tuple((v, mult) for v, mult, _ in segment.eigenvalues)
    reason = f"predicted {_spectrum_text(verdict.predicted)}; observed {_spectrum_text(pairs)}"
    if pairs == verdict.predicted:  # only verify_tensor's block-parity count failed
        parity = (verdict.eps + verdict.m) % 2
        reason += f"; a summand block has parity {1 - parity}, not {parity}"
    return f"FAIL (k={segment.first}: {reason})"


def _admit(n, cap: int, refusal: str, *fields) -> None:
    """Refuse, before any work, arguments that ask for n > cap, with the line
    ``refusal.format(*fields, n=n, cap=cap)``.  A range of weights is counted
    from its ends, as len() overflows past sys.maxsize."""
    if isinstance(n, range):
        n = (n.stop - n.start + n.step - 1) // n.step
    if n > cap:
        raise ValueError(refusal.format(*fields, n=n, cap=cap))


def _admit_oracle(lams, ms, lam_flag: str, m_flag: str) -> None:
    """Refuse, before the oracle loads, an m or a lam past its caps."""
    _admit(max(ms), MAX_ORACLE_M, "argument {0}: m={n} is above the cap; at most m={cap} is verified", m_flag)
    bits = max(max(lam.numerator.bit_length(), lam.denominator.bit_length()) for lam in lams)
    refusal = "argument {0}: a numerator or denominator of {n} bits; at most {cap} bits are verified"
    _admit(bits, MAX_LAMBDA_BITS, refusal, lam_flag)


_SHIFTS = "the product walks {n} shifts; at most {cap} are walked"
_LISTED = "window [{0},{1}] lists {n} weights; at most {cap} are listed"


# --- commands -------------------------------------------------------------------
#
# Each command computes its result once and returns (payload, text lines,
# passed); a check that ran and failed returns passed False.  The lines are a
# generator, so a JSON run never renders them.


def _cmd_cg(args):
    _admit(min(args.m1, args.m2) + 1, MAX_PRODUCT_SHIFTS, _SHIFTS)
    from .tensor import clebsch_gordan

    product = clebsch_gordan(args.m1, args.m2)
    payload = {"m1": args.m1, "m2": args.m2, "module": _module_to_dict(product)}
    return payload, _line(format_virtual_module, product), True


def _cmd_series(args):
    from .tensor import ps_structure

    structure = ps_structure(args.lam, args.eps)
    payload = {
        "lambda": format_scalar(args.lam),
        "eps": args.eps,
        "kind": structure.kind,
        "split": structure.split,
        "layers": [[format_class(c) for c in layer] for layer in structure.layers],
    }
    return payload, _series_lines(payload), True


def _series_lines(p: dict):
    socle, *top = (" (+) ".join(layer) for layer in p["layers"])
    if top:
        yield f"0 -> {socle} -> I({p['lambda']},{p['eps']}) -> {top[0]} -> 0  [non-split]"
    else:
        yield f"{socle}  [{'irreducible' if p['kind'] == 'irreducible' else 'split'}]"


def _cmd_tensor(args):
    cls, cone = args.cls, as_cone(args.cls)
    # V(n) (x) V(m) walks min(n, m) + 1 shifts, any other class m + 1
    _admit(min(cls.m, args.m) + 1 if cone is ASCone.ZERO else args.m + 1, MAX_PRODUCT_SHIFTS, _SHIFTS)
    from .tensor import decomposition_to_dict, format_summand, ps_tensor, tensor_with_finite

    payload = {"class": format_class(cls), "m": args.m}
    if cone is ASCone.FULL_LINE:  # a principal series: its summands are known
        summands = ps_tensor(cls.lam, cls.eps, args.m)
        payload.update(decomposition_to_dict(summands))
        return payload, _line(" (+) ".join, map(format_summand, summands)), True
    product = tensor_with_finite(cls, args.m)
    payload["module"] = _module_to_dict(product)
    return payload, _line(format_virtual_module, product), True


def _cmd_ktypes(args):
    w = ladder(args.cls)  # read off the window: no K-type of V(m) is listed
    lo, hi = args.window
    weights = _weight_range(lo, hi, w.eps)
    _admit(weights, MAX_LISTED_WEIGHTS, _LISTED, lo, hi)
    payload = {
        "class": format_class(args.cls),
        "parity": w.eps,
        "tail_left": int(w.lo is None),
        "tail_right": int(w.hi is None),
        "window": [lo, hi],
        "table": [[k, int(w.has_weight(k))] for k in weights],
    }
    return payload, _ktypes_lines(payload), True


def _ktypes_lines(p: dict):
    yield f"parity {p['parity']}, tail_left {p['tail_left']}, tail_right {p['tail_right']}"
    for k, mult in p["table"]:
        yield f"k={k}: {mult}"


def _cmd_generate(args):
    from .lattice import format_point, generated_submodule, point_sort_key

    points = generated_submodule([VirtualModule.of(cls) for cls in args.classes])
    payload = {
        "generators": [format_class(c) for c in args.classes],
        "points": [format_point(p) for p in sorted(points, key=point_sort_key)],
    }
    return payload, _line(_braces, payload["points"]), True


def _cmd_classify(args):
    from .lattice import classify_irreducible, format_point, point_sort_key

    closure_set, index = classify_irreducible(args.cls)
    payload = {
        "class": format_class(args.cls),
        "closure": [format_point(p) for p in sorted(closure_set, key=point_sort_key)],
        "index": format_scalar(index),
    }
    return payload, _line("closure {}, index {}".format, _braces(payload["closure"]), payload["index"]), True


def _cmd_lattice(args):
    from .lattice import (
        _ps_point_count,
        closed_index_sets,
        format_point,
        index_cover_edges,
        irreducible_closed_sets,
        orbit_label,
        point_sort_key,
        specialization_edges,
        structural_counts,
    )

    p = _ps_point_count(args.lambda_keys)
    n_sets, n_covers = structural_counts(p)
    counts = f"{n_sets} sets and {n_covers} covers" if n_covers < 2**64 else f"5*2^{p} sets"
    refusal = "argument --lambda-keys: {n} principal series points give {0}; at most {cap} points are enumerated"
    _admit(p, MAX_LATTICE_PS_POINTS, refusal, counts)
    points = sorted(frozenset().union(*irreducible_closed_sets(args.lambda_keys)), key=point_sort_key)
    edges = specialization_edges(points)
    combos = closed_index_sets(points, edges)
    names = [format_point(point) for point in points]
    payload = {
        "points": [{"point": name, "orbit": orbit_label(point)} for name, point in zip(names, points)],
        "sets": [list(map(names.__getitem__, combo)) for combo in combos],
        "covers": index_cover_edges(combos),
        "specializations": [[format_point(a), format_point(b)] for a, b in edges],
    }
    render = _lattice_dot if args.format == "dot" else _lattice_text
    return payload, render(payload), True


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


def _cmd_verify(args):
    _admit_oracle((args.lam,), (args.m,), "lam", "m")
    from .oracle import default_window, verdict_to_dict, verify_tensor

    window = args.window or default_window(args.lam, args.eps, args.m)
    if args.format == "json":  # the text line formats no per-weight spectrum
        _admit(_weight_range(*window, args.eps + args.m), MAX_LISTED_WEIGHTS, _LISTED, *window)
    verdict = verify_tensor(args.lam, args.eps, args.m, window)
    payload = verdict_to_dict(verdict) if args.format == "json" else {}
    return payload, _line(_verify_line, verdict), verdict.passed


def _cmd_sweep(args):
    for flag, values in (("--lambdas", args.lambdas), ("--ms", args.ms)):
        if not values:
            raise ValueError(f"argument {flag}: expected at least one value")
    lams, ms = set(args.lambdas), set(args.ms)
    _admit_oracle(lams, ms, "--lambdas", "--ms")
    _admit(len(lams) * 2 * len(ms), MAX_SWEEP_ROWS, "the sweep runs {n} verifications; at most {cap} are run")
    from .oracle import _run_to_dict, verify_tensor

    combos = sorted((lam, eps, m) for lam in lams for eps in (0, 1) for m in ms)
    verdicts = [verify_tensor(*combo) for combo in combos]
    failures = sum(1 for v in verdicts if not v.passed)
    payload = {
        "results": [{**_run_to_dict(v), "verdict": "PASS" if v.passed else "FAIL"} for v in verdicts],
        "count": len(verdicts),
        "failures": failures,
        "passed": failures == 0,
    }
    return payload, _sweep_lines(verdicts, failures), failures == 0


def _sweep_lines(verdicts: list, failures: int):
    for v in verdicts:
        yield f"lam={format_scalar(v.lam)} eps={v.eps} m={v.m}: {_verify_line(v)}"
    if failures:
        yield f"SWEEP FAIL ({failures} of {len(verdicts)} verifications failed)"
    else:
        yield f"SWEEP PASS ({len(verdicts)} verifications)"


# --- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with '-' and a digit as a value, so that
    negative rationals such as -7/3 need no '--' (argparse alone accepts only
    negative integers and decimals).  A usage error raises ValueError, which
    ``main`` prints as one line.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message: str):
        raise ValueError(message)


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
    p.add_argument("m1", type=_weight_arg)
    p.add_argument("m2", type=_weight_arg)
    p.set_defaults(func=_cmd_cg)

    p = sub.add_parser("series", help="composition series of a principal series")
    p.add_argument("lam", type=_scalar_arg, help="parameter, an integer or p/q")
    p.add_argument("eps", type=_parity_arg)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("tensor", help="tensor an irreducible class with V(m)")
    p.add_argument("cls", type=_class_arg, metavar="class", help="V(m), D+(l), D-(l), or I(lam,eps)")
    p.add_argument("m", type=_weight_arg)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("ktypes", help="K-type multiplicities over a window")
    p.add_argument("cls", type=_class_arg, metavar="class")
    p.add_argument("--window", type=_int_arg, nargs=2, metavar=("A", "B"), required=True)
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
        type=_checked(as_scalar, listed=True),
        default=(),
        help="comma-separated principal series parameters seeding the window; at most "
        f"{MAX_LATTICE_PS_POINTS} principal series points are enumerated (a key lam gives 1 "
        "when 2*lam is an integer, else 2; keys that differ by an integer or a sign share them)",
    )
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("verify", help="check a tensor decomposition against the matrix oracle")
    p.add_argument("lam", type=_scalar_arg)
    p.add_argument("eps", type=_parity_arg)
    p.add_argument("m", type=_weight_arg)
    p.add_argument("--window", type=_int_arg, nargs=2, metavar=("A", "B"))
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify a whole parameter grid")
    p.add_argument("--lambdas", type=_checked(as_scalar, listed=True), required=True)
    p.add_argument("--ms", type=_checked(check_highest_weight, parse_int, listed=True), required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


def _json_chunks(envelope: dict):
    """The chunks that ``json.dumps(envelope, indent=2)`` joins, then a newline."""
    import json

    yield from json.JSONEncoder(indent=2).iterencode(envelope)
    yield "\n"


def _blocks(chunks):
    """The text chunks joined into blocks of about _BLOCK characters, so that
    no more of the output than that is held at once."""
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= _BLOCK:
            yield "".join(block)
            block, size = [], 0
    yield "".join(block)


def _write_stdout(chunks) -> None:
    """Write the text chunks to stdout, block by block, or raise.

    A buffered binary layer writes everything or raises.  Under
    PYTHONUNBUFFERED the text layer writes through to a raw file and drops
    the count of a short write (what a pipe takes before its reader closes
    it), so there the bytes go to the raw file in a loop, which ends in
    BrokenPipeError once the reader is gone (a non-blocking file that takes
    nothing yet is asked again).  A stream without a binary layer, such as
    io.StringIO, takes the text as it is.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    for text in _blocks(chunks):
        if not isinstance(raw, io.RawIOBase):
            out.write(text)
            continue
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[raw.write(data) or 0 :]
    out.flush()


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.format == "dot" and args.command != "lattice":
            raise ValueError("argument --format: dot output is only supported for the lattice command")
        window = getattr(args, "window", None)
        if window and window[0] > window[1]:
            raise ValueError("argument --window: lower bound exceeds upper bound")
        payload, lines, passed = args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except UnexpectedEigenvalueError as exc:
        print(f"FAIL ({exc})", file=sys.stderr)
        return 3
    if args.format == "json":
        chunks = _json_chunks({"schema_version": SCHEMA_VERSION, "command": args.command, **payload})
    else:
        chunks = (line + "\n" for line in lines)
    try:
        _write_stdout(chunks)
    except BrokenPipeError:  # as the Python docs' SIGPIPE note: silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if passed else 3
