import json
from fractions import Fraction

import sl2hc.cli as cli
from sl2hc.cli import main
from sl2hc.core import parse_class
from sl2hc.oracle import VerificationVerdict, VerifyEntry


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
    entry = VerifyEntry(
        k=3,
        dim=1,
        observed=((Fraction(9, 4), 1, (1,)),),
        predicted=((Fraction(1, 4), 1),),
        match=False,
    )
    fake = VerificationVerdict(
        lam=Fraction(1, 2),
        eps=0,
        m=0,
        window=(-3, 3),
        entries=(entry,),
        block_observations=(),
        passed=False,
    )
    monkeypatch.setattr(cli, "verify_tensor", lambda *a, **kw: fake)
    code, out, _ = run(capsys, "verify", "1/2", "0", "0")
    assert code == 3
    assert out == "FAIL (k=3: predicted 1/4:1; observed 9/4:1)\n"


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


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "cg", "--help")[0] == 0
