import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sl2hc.cli import (
    MAX_LAMBDA_BITS,
    MAX_LISTED_WEIGHTS,
    MAX_ORACLE_M,
    MAX_PRODUCT_SHIFTS,
    MAX_SWEEP_ROWS,
    main,
)
from sl2hc.core import (
    DiscreteSeries,
    FinDim,
    KTypeFunction,
    PrincipalIrr,
    format_class,
    ktype_function,
    parse_class,
    principal_is_irreducible,
)
from sl2hc.oracle import Segment, UnexpectedEigenvalueError, VerificationVerdict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cg_text_frozen(capsys):
    code, out, _ = run(capsys, "cg", "1", "1")
    assert code == 0
    assert out == "V(2) + V(0)\n"


def test_cg_text_with_explicit_format_flag(capsys):
    code, out, _ = run(capsys, "--format", "text", "cg", "1", "1")
    assert (code, out) == (0, "V(2) + V(0)\n")


def test_series_split_frozen(capsys):
    code, out, _ = run(capsys, "series", "0", "1")
    assert code == 0
    assert out == "D+(0) (+) D-(0)  [split]\n"


def test_series_other_shapes(capsys):
    code, out, _ = run(capsys, "series", "1/2", "0")
    assert (code, out) == (0, "I(1/2,0)  [irreducible]\n")
    code, out, _ = run(capsys, "series", "2", "1")
    assert (code, out) == (0, "0 -> D+(2) (+) D-(2) -> I(2,1) -> V(1) -> 0  [non-split]\n")
    code, out, _ = run(capsys, "series", "-2", "1")
    assert (code, out) == (0, "0 -> V(1) -> I(-2,1) -> D+(2) (+) D-(2) -> 0  [non-split]\n")


def test_verify_frozen(capsys):
    code, out, _ = run(capsys, "verify", "1/2", "0", "1")
    assert code == 0
    assert out == "PASS (k in [-9,9]: spectra match)\n"


def test_verify_with_explicit_window(capsys):
    code, out, _ = run(capsys, "verify", "2", "1", "3", "--window", "-11", "11")
    assert (code, out) == (0, "PASS (k in [-11,11]: spectra match)\n")


def test_verify_refuses_window_without_weights(capsys):
    code, out, err = run(capsys, "verify", "1/2", "0", "1", "--window", "2", "2")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "[2,2]" in err


def test_verify_reversed_window(capsys):
    code, out, err = run(capsys, "verify", "1/2", "0", "1", "--window", "5", "3")
    assert (code, out) == (2, "")
    assert err == "argument --window: lower bound exceeds upper bound\n"


def test_verify_failure_exit_code(capsys, monkeypatch):
    fake = VerificationVerdict(
        lam=Fraction(1, 2),
        eps=0,
        m=0,
        window=(-3, 3),
        segments=(Segment(first=3, last=3, eigenvalues=((Fraction(9, 4), 1, (1,)),)),),
        predicted=((Fraction(1, 4), 1),),
        block_observations=(),
        passed=False,
    )
    monkeypatch.setattr("sl2hc.oracle.verify_tensor", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "1/2", "0", "0")
    assert code == 3
    assert out == "FAIL (k=3: predicted 1/4:1; observed 9/4:1)\n"


def test_text_verify_and_sweep_render_no_json_payload(capsys, monkeypatch):
    from sl2hc import oracle

    def refuse(verdict):
        raise AssertionError("a text run rendered the JSON payload")

    monkeypatch.setattr(oracle, "verdict_to_dict", refuse)
    assert run(capsys, "verify", "--", "3", "0", "8") == (0, "PASS (k in [-18,18]: spectra match)\n", "")
    code, out, _ = run(capsys, "sweep", "--lambdas=0,1/2", "--ms=0,1")
    assert (code, out.splitlines()[-1]) == (0, "SWEEP PASS (8 verifications)")


def test_json_verify_failure_exit_code(capsys, monkeypatch):
    segment = Segment(3, 3, ((Fraction(9, 4), 1, (1,)),))
    fake = VerificationVerdict(Fraction(1, 2), 0, 0, (-3, 3), (segment,), ((Fraction(1, 4), 1),), (), False)
    monkeypatch.setattr("sl2hc.oracle.verify_tensor", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "--format", "json", "verify", "1/2", "0", "0")
    assert code == 3
    payload = json.loads(out)
    assert payload["verdict"] == "FAIL"
    # the segment expands to its one weight, with the prediction and the verdict
    assert payload["entries"] == [
        {
            "k": 3,
            "dim": 1,
            "spectrum": [{"value": "9/4", "mult": 1, "jordan": [1]}],
            "predicted": [{"value": "1/4", "mult": 1}],
            "match": False,
        }
    ]


def test_sweep_failure_exit_code_and_rows(capsys, monkeypatch):
    from sl2hc.oracle import verify_tensor as real

    def fail_eps_1(lam, eps, m):
        v = real(lam, eps, m)
        if eps == 0:
            return v
        return VerificationVerdict(v.lam, v.eps, v.m, v.window, v.segments, ((Fraction(99), 1),), (), False)

    monkeypatch.setattr("sl2hc.oracle.verify_tensor", fail_eps_1)
    code, out, _ = run(capsys, "sweep", "--lambdas=1/2", "--ms=0")
    assert code == 3
    assert out.splitlines() == [
        "lam=1/2 eps=0 m=0: PASS (k in [-8,8]: spectra match)",
        "lam=1/2 eps=1 m=0: FAIL (k=-7: predicted 99:1; observed 1/4:1)",
        "SWEEP FAIL (1 of 2 verifications failed)",
    ]
    code, out, _ = run(capsys, "--format", "json", "sweep", "--lambdas=1/2", "--ms=0")
    assert code == 3
    payload = json.loads(out)
    assert [row["verdict"] for row in payload["results"]] == ["PASS", "FAIL"]
    assert payload["results"][1] == {"lambda": "1/2", "eps": 1, "m": 0, "window": [-7, 7], "verdict": "FAIL"}
    assert (payload["count"], payload["failures"], payload["passed"]) == (2, 1, False)


def test_tensor_text(capsys):
    code, out, _ = run(capsys, "tensor", "I(1/2,0)", "1")
    assert (code, out) == (0, "I(3/2,1) (+) I(1/2,1)\n")
    code, out, _ = run(capsys, "tensor", "I(0,0)", "1")
    assert (code, out) == (0, "[I(1,1) | I(1,1)]\n")
    code, out, _ = run(capsys, "tensor", "D+(1)", "2")
    assert (code, out) == (0, "D+(3) + 2*D+(1) + V(0)\n")
    code, out, _ = run(capsys, "tensor", "V(1)", "1")
    assert (code, out) == (0, "V(2) + V(0)\n")


def test_ktypes_text(capsys):
    code, out, _ = run(capsys, "ktypes", "D+(1)", "--window", "-2", "4")
    assert code == 0
    assert out.splitlines() == [
        "parity 0, tail_left 0, tail_right 1",
        "k=-2: 0",
        "k=0: 0",
        "k=2: 1",
        "k=4: 1",
    ]


def test_ktypes_bad_window(capsys):
    code, _, err = run(capsys, "ktypes", "V(1)", "--window", "3", "-3")
    assert code == 2
    assert "--window" in err


@st.composite
def _class_and_window(draw) -> tuple:
    """A random irreducible class and a window of width at most 40."""
    kind = draw(st.sampled_from(("V", "D", "I")))
    if kind == "V":
        cls = FinDim(draw(st.integers(0, 30)))
    elif kind == "D":
        cls = DiscreteSeries(draw(st.sampled_from((1, -1))), draw(st.integers(0, 30)))
    else:
        lam = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 6)))
        eps = draw(st.integers(0, 1))
        cls = PrincipalIrr(lam, eps if principal_is_irreducible(lam, eps) else 1 - eps)
    lo = draw(st.integers(-40, 40))
    return cls, lo, lo + draw(st.integers(0, 40))


@settings(max_examples=200, deadline=None)
@given(_class_and_window())
def test_ktypes_payload_is_the_ktype_function(case):
    cls, lo, hi = case
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--format", "json", "ktypes", "--window", str(lo), str(hi), "--", format_class(cls)])
    assert code == 0
    payload = json.loads(out.getvalue())
    f = ktype_function(cls)
    for key in ("parity", "tail_left", "tail_right"):
        assert payload[key] == getattr(f, key), key
    assert payload["table"] == [[k, mult] for k, mult in f.table(lo, hi).items()]


def test_ktypes_of_a_huge_highest_weight_lists_no_ktypes(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("ktypes built a K-type function")

    monkeypatch.setattr(KTypeFunction, "__post_init__", refuse)
    code, out, _ = run(capsys, "ktypes", "V(1000000)", "--window", "0", "0")
    assert (code, out) == (0, "parity 0, tail_left 0, tail_right 0\nk=0: 1\n")
    code, out, _ = run(capsys, "ktypes", "V(1000000)", "--window", "999999", "1000003")
    assert out.splitlines()[1:] == ["k=1000000: 1", "k=1000002: 0"]


def test_generate_and_classify_text(capsys):
    code, out, _ = run(capsys, "generate", "D+(1)", "I(1/3,0)")
    assert (code, out) == (0, "{Fd, C+, Ps(1/3,0)}\n")
    code, out, _ = run(capsys, "classify", "I(5/2,0)")
    assert (code, out) == (0, "closure {Ps(1/2,*)}, index 2\n")
    code, out, _ = run(capsys, "classify", "V(3)")
    assert (code, out) == (0, "closure {Fd}, index 4\n")


def test_lattice_text_sections(capsys):
    code, out, _ = run(capsys, "lattice")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "points:"
    assert "  Fd: closed orbit P^1(C) (compact form SU(2))" in lines
    assert "sets:" in lines and "covers:" in lines and "specializations:" in lines
    assert "  C+ -> Fd" in lines


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "--format", "dot", "lattice", "--lambda-keys", "1/2")
    assert code == 0
    assert out.startswith("digraph class_lattice {")
    assert 'label="Ps(1/2,*)\\nopen orbit C^x"' in out
    assert out.rstrip().endswith("}")


def test_dot_rejected_outside_lattice(capsys):
    code, _, err = run(capsys, "--format", "dot", "cg", "1", "1")
    assert code == 2
    assert "--format" in err


def test_sweep_text(capsys):
    code, out, _ = run(capsys, "sweep", "--lambdas", "0,1/2", "--ms", "0,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "SWEEP PASS (8 verifications)"
    assert len(lines) == 9
    assert lines[0].startswith("lam=0 eps=0 m=0: PASS")


def test_json_payloads_carry_schema_version(capsys):
    invocations = [
        ("cg", "2", "2"),
        ("series", "-3", "0"),
        ("tensor", "I(1/3,0)", "2"),
        ("tensor", "D-(2)", "1"),
        ("ktypes", "I(1/2,1)", "--window", "-3", "3"),
        ("generate", "V(1)", "D-(0)"),
        ("classify", "I(7/3,1)"),
        ("lattice", "--lambda-keys", "0,1/3"),
        ("verify", "0", "1", "1"),
        ("sweep", "--lambdas", "1/2", "--ms", "0"),
    ]
    for argv in invocations:
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0, argv
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == argv[0]


def test_json_classes_reparse(capsys):
    code, out, _ = run(capsys, "--format", "json", "cg", "3", "4")
    payload = json.loads(out)
    for text in payload["module"]:
        parse_class(text)
    code, out, _ = run(capsys, "--format", "json", "tensor", "I(2,0)", "3")
    payload = json.loads(out)
    for text in payload["semisimplification"]:
        parse_class(text)


def test_output_is_deterministic(capsys):
    a = run(capsys, "--format", "json", "lattice", "--lambda-keys", "1/3,5/2")
    b = run(capsys, "--format", "json", "lattice", "--lambda-keys", "1/3,5/2")
    assert a == b


def test_exit_2_on_bad_arguments(capsys):
    bad = [
        ("cg", "1"),
        ("cg", "-1", "0"),
        ("series", "x", "0"),
        ("series", "0", "2"),
        ("tensor", "I(2,1)", "1"),
        ("tensor", "W(1)", "1"),
        ("nosuch", "1"),
        ("sweep", "--lambdas", "1/0", "--ms", "0"),
    ]
    for argv in bad:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err


# The malformed argvs of the benchmark's interactive workload, and three more
# that argparse itself refuses.
USAGE_ERRORS = [
    ("cg", "-1", "2"),
    ("series", "1/0", "0"),
    ("series", "1/2", "2"),
    ("tensor", "X(1)", "2"),
    ("--format", "dot", "cg", "1", "1"),
    ("ktypes", "V(2)", "--window", "3", "-3"),
    ("verify", "1/2", "0", "abc"),
    ("frobnicate",),
    ("lattice", "--lambda-keys", "1/0"),
    ("sweep", "--lambdas", "1", "--ms", "-1"),
    ("verify", "1/2", "0"),
    ("cg", "1", "1", "--bogus"),
    ("ktypes", "V(2)", "--window", "a", "2"),
]
# Numerals outside the one rule, -?[0-9]+ for an int and -?[0-9]+(/[0-9]+)?
# for a rational; each argv outside a class once ran.
USAGE_ERRORS += [
    ("cg", "\u0663", "1"),
    ("cg", "1_0", "0"),
    ("cg", "+1", "0"),
    ("series", "0.5", "0"),
    ("series", "+1/2", "0"),
    ("series", "1/2", "+1"),
    ("series", "1/\u0663", "0"),
    ("verify", "1e3", "0", "1"),
    ("verify", "--window", "0", "1_0", "--", "0", "1", "1"),
    ("ktypes", "V(2)", "--window", "1_0", "12"),
    ("tensor", "I(0.5,0)", "1"),
    ("tensor", "I(+1,0)", "1"),
    ("tensor", "V(\u0663)", "1"),
    ("tensor", "D+(\u0663)", "1"),
    ("tensor", "I(1,\u0660)", "1"),
    ("sweep", "--lambdas", "0.5", "--ms", "1"),
    ("sweep", "--lambdas", "0", "--ms", "1_0"),
    ("lattice", "--lambda-keys", "1e3"),
]
# Products over more than MAX_PRODUCT_SHIFTS shifts, refused before any work.
USAGE_ERRORS += [
    ("cg", "5000", "5000"),
    ("cg", "100000", "100000"),
    ("tensor", "I(1/3,0)", "5000"),
    ("tensor", "D+(0)", "100000"),
    ("tensor", "V(5000)", "5000"),
]
# Listings of more than MAX_LISTED_WEIGHTS weights, refused before any row.
USAGE_ERRORS += [
    ("ktypes", "V(2)", "--window", "-8000", "8000"),
    ("ktypes", "I(1/3,1)", "--window", "-1000000", "1000000"),
]
# Counts past sys.maxsize, once an OverflowError traceback with exit 1.
HUGE = "100000000000000000000"
USAGE_ERRORS += [
    ("ktypes", "V(2)", "--window", f"-{HUGE}", HUGE),
    ("verify", HUGE, "0", "1"),
]


def test_every_usage_error_is_one_line(capsys):
    for argv in USAGE_ERRORS:
        for prefix in ((), ("--format", "json")):
            code, out, err = run(capsys, *prefix, *argv)
            assert (code, out) == (2, ""), argv
            assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
            assert "usage:" not in err, argv


def test_products_at_the_shift_cap_run(capsys):
    assert MAX_PRODUCT_SHIFTS == 5000
    code, out, err = run(capsys, "cg", "4999", "100000")
    assert (code, err) == (0, "") and out.count("V(") == 5000
    assert run(capsys, "tensor", "V(3)", "100000")[:2] == (0, "V(100003) + V(100001) + V(99999) + V(99997)\n")
    code, out, err = run(capsys, "cg", "5000", "100000")
    assert (code, out, err) == (2, "", "the product walks 5001 shifts; at most 5000 are walked\n")


def test_listings_at_the_weight_cap_run(capsys, monkeypatch):
    assert MAX_LISTED_WEIGHTS == 8000
    code, out, err = run(capsys, "ktypes", "V(2)", "--window", "-8000", "7999")
    assert (code, err) == (0, "") and out.count("k=") == 8000
    code, out, err = run(capsys, "--format", "json", "verify", "7992", "0", "1")
    assert (code, err) == (0, "") and len(json.loads(out)["entries"]) == 8000
    # the default windows of these two hold 8002 and 20008 weights; a text
    # verify of them still runs, as its cost does not follow the window
    over = {"7993": 8001, "20000": 20007}
    for lam, bound in over.items():
        assert run(capsys, "verify", lam, "0", "1") == (0, f"PASS (k in [-{bound},{bound}]: spectra match)\n", "")
    from sl2hc import oracle
    from sl2hc.core import Ladder

    def refuse(*args):
        raise AssertionError("a listed weight was rendered")

    monkeypatch.setattr(oracle, "verdict_to_dict", refuse)
    monkeypatch.setattr(Ladder, "has_weight", refuse)
    message = "window [-8000,8000] lists 8001 weights; at most 8000 are listed\n"
    assert run(capsys, "ktypes", "V(2)", "--window", "-8000", "8000") == (2, "", message)
    for lam, bound in over.items():
        message = f"window [-{bound},{bound}] lists {bound + 1} weights; at most 8000 are listed\n"
        assert run(capsys, "--format", "json", "verify", lam, "0", "1") == (2, "", message)


def test_json_verify_refuses_a_long_listing_before_the_oracle_runs(capsys, monkeypatch):
    from sl2hc import oracle

    def refuse(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(oracle, "verify_tensor", refuse)
    message = "window [-100000,100000] lists 100001 weights; at most 8000 are listed\n"
    argv = ("--format", "json", "verify", "7/5", "0", "512", "--window", "-100000", "100000")
    assert run(capsys, *argv) == (2, "", message)
    message = "window [-8001,8001] lists 8002 weights; at most 8000 are listed\n"  # the default window
    assert run(capsys, "--format", "json", "verify", "7993", "0", "1") == (2, "", message)


def test_counts_past_sys_maxsize_are_refused_by_arithmetic(capsys):
    message = (
        "window [-100000000000000000000,100000000000000000000] lists 100000000000000000001 weights; "
        "at most 8000 are listed\n"
    )
    assert run(capsys, "ktypes", "V(2)", "--window", f"-{HUGE}", HUGE) == (2, "", message)
    message = f"window [-{HUGE},{HUGE}] lists {HUGE} weights; at most 8000 are listed\n"  # odd weights only
    argv = ("--format", "json", "verify", "--window", f"-{HUGE}", HUGE, "--", "7/5", "0", "1")
    assert run(capsys, *argv) == (2, "", message)


def test_oracle_caps_refuse_with_the_value_and_the_cap(capsys):
    assert (MAX_ORACLE_M, MAX_LAMBDA_BITS, MAX_SWEEP_ROWS) == (1024, 64, 1000)
    refusals = {
        ("verify", "7/5", "0", "1025"): "argument m: m=1025 is above the cap; at most m=1024 is verified",
        ("verify", HUGE, "0", "1"): (
            "argument lam: a numerator or denominator of 67 bits; at most 64 bits are verified"
        ),
        ("verify", "1/36893488147419103232", "0", "1"): (
            "argument lam: a numerator or denominator of 66 bits; at most 64 bits are verified"
        ),
        ("sweep", "--lambdas=1/2", "--ms=0,1025,3"): (
            "argument --ms: m=1025 is above the cap; at most m=1024 is verified"
        ),
        ("sweep", "--lambdas=-18446744073709551616/3,1", "--ms=0"): (
            "argument --lambdas: a numerator or denominator of 65 bits; at most 64 bits are verified"
        ),
        ("sweep", "--lambdas=" + ",".join(map(str, range(501))), "--ms=0,0"): (
            "the sweep runs 1002 verifications; at most 1000 are run"
        ),
    }
    for argv, message in refusals.items():
        for fmt in ("text", "json"):
            assert run(capsys, "--format", fmt, *argv) == (2, "", message + "\n"), argv


def test_oracle_caps_admit_their_edge(capsys, monkeypatch):
    from sl2hc import oracle

    calls = []

    def reached(*args):
        calls.append(args)
        raise UnexpectedEigenvalueError("reached")

    monkeypatch.setattr(oracle, "verify_tensor", reached)
    for argv in (
        ("verify", "7/5", "0", "1024"),
        ("verify", "--", "-18446744073709551615/2", "0", "0"),
        ("verify", "18446744073709551615/18446744073709551614", "1", "3"),
        ("sweep", "--lambdas=" + ",".join(map(str, range(500))) + ",0/7", "--ms=0,0"),
    ):
        assert run(capsys, *argv) == (3, "", "FAIL (reached)\n"), argv
    assert [args[2] for args in calls[:3]] == [1024, 0, 3] and len(calls) == 4


def test_lattice_refusal_names_its_point_count_at_any_window(capsys):
    keys = ",".join(f"1/{q}" for q in range(3, 7303))
    message = (
        "argument --lambda-keys: 14600 principal series points give 5*2^14600 sets; "
        "at most 12 points are enumerated\n"
    )
    assert run(capsys, "lattice", f"--lambda-keys={keys}") == (2, "", message)


def test_blanks_around_a_numeral_are_stripped(capsys):
    assert run(capsys, "cg", " 3", "1 ") == run(capsys, "cg", "3", "1")
    assert run(capsys, "series", " -7/3 ", "0") == run(capsys, "series", "--", "-7/3", "0")
    assert run(capsys, "ktypes", "V(2)", "--window", "-2", " 4") == run(capsys, "ktypes", "V(2)", "--window", "-2", "4")


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "cg", "--help")[0] == 0


def test_unexpected_eigenvalue_exits_3(capsys, monkeypatch):
    message = "unexpected eigenvalue at K-weight 3: char poly factor [1, -7] has no roots among the candidates"

    def raise_unexpected(*args, **kwargs):
        raise UnexpectedEigenvalueError(message)

    monkeypatch.setattr("sl2hc.oracle.verify_tensor", raise_unexpected)
    for argv in (
        ("verify", "1/2", "0", "0"),
        ("--format", "json", "verify", "1/2", "0", "0"),
        ("sweep", "--lambdas", "1/2", "--ms", "0"),
        ("--format", "json", "sweep", "--lambdas", "1/2", "--ms", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert len(err.splitlines()) == 1 and "K-weight 3" in err and "[1, -7]" in err
        assert "Traceback" not in err


def test_sweep_refuses_empty_lists(capsys):
    for fmt in ("text", "json"):
        for flags, named in (
            (("--lambdas=", "--ms=0"), "--lambdas"),
            (("--lambdas=1/2", "--ms="), "--ms"),
            (("--lambdas", ",", "--ms", ","), "--lambdas"),
        ):
            code, out, err = run(capsys, "--format", fmt, "sweep", *flags)
            assert (code, out) == (2, ""), flags
            assert len(err.splitlines()) == 1 and named in err


def test_sweep_deduplicates_ms(capsys):
    once = run(capsys, "sweep", "--lambdas=1", "--ms=0")
    assert once[0] == 0 and once[1].endswith("SWEEP PASS (2 verifications)\n")
    assert run(capsys, "sweep", "--lambdas=1", "--ms=0,0") == once
    assert run(capsys, "--format", "json", "sweep", "--lambdas=1,1", "--ms=0,0") == run(
        capsys, "--format", "json", "sweep", "--lambdas=1", "--ms=0"
    )


# --- the CLI grammar, including bad tokens and edge windows ---------------------------

def _token(good: tuple, bad: tuple) -> st.SearchStrategy:
    """A good token three times in four, else a bad one."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


_LAMBDA = _token(("0", "1", "-2", "1/2", "-7/3", "5/2"), ("1/0", "x"))
_PARITY = _token(("0", "1"), ("2", "x"))
_M = _token(("0", "1", "2"), ("-1", "x", "1/0"))
_CLASS = _token(("V(0)", "V(2)", "D+(1)", "D-(0)", "I(1/2,0)", "I(0,0)"), ("I(0,1)", "V(-1)", "1/0", "x", "I(1/0,0)"))


@st.composite
def _window(draw) -> list:
    """Width at most 12; reversed (hi < lo) and weight-free windows included."""
    lo = draw(st.integers(-8, 8))
    return ["--window", str(lo), str(lo + draw(st.integers(-3, 12)))]


def _token_list(token: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(token, max_size=3).map(",".join)


_COMMANDS = {
    "cg": st.tuples(_M, _M).map(lambda a: ["--", *a]),
    "series": st.tuples(_LAMBDA, _PARITY).map(lambda a: ["--", *a]),
    "tensor": st.tuples(_CLASS, _M).map(lambda a: ["--", *a]),
    "ktypes": st.tuples(_window(), _CLASS).map(lambda a: [*a[0], "--", a[1]]),
    "generate": st.lists(_CLASS, min_size=1, max_size=3).map(lambda a: ["--", *a]),
    "classify": _CLASS.map(lambda c: ["--", c]),
    "lattice": _token_list(_LAMBDA).map(lambda keys: [f"--lambda-keys={keys}"]),
    "verify": st.tuples(
        st.one_of(st.just([]), _window()), _LAMBDA, _PARITY, _M
    ).map(lambda a: [*a[0], "--", *a[1:]]),
    "sweep": st.tuples(_token_list(_LAMBDA), _token_list(_M)).map(
        lambda a: [f"--lambdas={a[0]}", f"--ms={a[1]}"]
    ),
}


@st.composite
def _cli_argv(draw) -> tuple:
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    fmt = draw(_token(("text", "json"), ("dot",)))
    return fmt, command, ["--format", fmt, command, *draw(_COMMANDS[command])]


@settings(max_examples=200, deadline=None)
@given(_cli_argv())
def test_cli_grammar_exit_codes(case):
    fmt, command, argv = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), argv
    if code == 2:
        assert out == "" and err, argv
    assert "(0 verifications)" not in out, argv
    if code == 0 and fmt == "json" and command in ("verify", "sweep"):
        payload = json.loads(out)
        assert payload["entries"] if command == "verify" else payload["count"], argv


def test_negative_rationals_need_no_double_dash(capsys):
    """A token starting with '-' and a digit is a value, not an option."""
    cases = [
        (("series", "-7/3", "0"), ("series", "--", "-7/3", "0")),
        (("verify", "-7/3", "0", "1"), ("verify", "--", "-7/3", "0", "1")),
        (("sweep", "--lambdas", "-7/3,1/2", "--ms", "0"), ("sweep", "--lambdas=-7/3,1/2", "--ms", "0")),
        (("lattice", "--lambda-keys", "-1/3"), ("lattice", "--lambda-keys=-1/3")),
    ]
    for argv, spelled_out in cases:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out and run(capsys, *spelled_out) == (0, out, ""), argv
    code, out, err = run(capsys, "series", "-7/3", "2")
    assert (code, out) == (2, "") and "parity must be 0 or 1" in err


def test_zero_denominator_class_tokens_exit_2(capsys):
    for fmt in ("text", "json"):
        for argv in (
            ("classify", "I(1/0,0)"),
            ("tensor", "I(1/0,0)", "1"),
            ("ktypes", "I(1/0,0)", "--window", "0", "2"),
        ):
            code, out, err = run(capsys, "--format", fmt, *argv)
            assert (code, out) == (2, ""), argv
            assert "cannot parse rational '1/0'" in err and "Traceback" not in err, argv


def test_lattice_refuses_more_than_12_principal_series_points(capsys):
    six = "1/5,1/7,2/7,1/9,2/9,4/9"
    code, out, err = run(capsys, "lattice", f"--lambda-keys={six}")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[lines.index("sets:") - 1] == "  Ps(4/9,1): open orbit C^x"
    assert lines.index("covers:") - lines.index("sets:") - 1 == 5 * 2**12
    assert lines.index("specializations:") - lines.index("covers:") - 1 == 5 * 2**12 + 5 * 12 * 2**11
    for fmt in ("text", "json", "dot"):
        code, out, err = run(capsys, "--format", fmt, "lattice", f"--lambda-keys={six},1/11")
        assert (code, out) == (2, ""), fmt
        assert err.splitlines() == [
            "argument --lambda-keys: 14 principal series points give 81920 sets and 655360 covers; "
            "at most 12 points are enumerated"
        ]
