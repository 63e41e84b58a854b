"""How ``sl2hc.cli.main`` writes: pinned bytes, canonical JSON, one write for a
small output, blocks for a large one, and a reader that closes the pipe early."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2hc.cli import SCHEMA_VERSION, main
from sl2hc.core import format_scalar, principal_is_irreducible
from sl2hc.oracle import casimir_report, report_to_dict, verdict_to_dict, verify_tensor

SRC = Path(__file__).resolve().parents[1] / "src"
KEYS = ("1/5", "1/7", "2/7", "1/9", "2/9")

# sha256 of stdout for `sl2hc --format FMT lattice` over the first n keys
LATTICE_SHA256 = {
    (0, "text"): "47155558e54bebf77898b7979d56520a6bf2f3c74ef686b1f6f24999b8eab280",
    (0, "json"): "845da309e6851be90c32c1db66b16226717ea574a53bf9e1ad703a4fdb750407",
    (0, "dot"): "21064512c430b52a3c88da2ba21edd569a6c8e8c8bafba2e7d0957b137bd419d",
    (1, "text"): "4a0d72e1216afae580213100d14745c0e106cfea32ce9e626ccef0598d8f34b2",
    (1, "json"): "fc64f15775194f9bed11fe6b691cc26de4e0344618da168ed92043af9f5e0257",
    (1, "dot"): "eb8c86ac03b03b9a8d60c27a3676bacde93ac0c35d96c217249cbd2d6c64c1a4",
    (2, "text"): "65010f2f582f5038008ec2a6fd9f06558a2ceaa7265f115c34ee42ecd6e3d80d",
    (2, "json"): "bf93f5ae10872f8dd667dfc91e0d35ee0bb41802f36d636070bd7f22734eef62",
    (2, "dot"): "9393b9607c8bc5ac66f4599bcdfbd524647b9e0d5b660b006a1f17a5a7685d54",
    (3, "text"): "c368e796d886c050af006a9bd35791ee148d58a010a3af9d08f38d22901a9a00",
    (3, "json"): "cf90d098632533ef1a2d4cca3c2d8cfaed46082c3a418cbb8cb211b531521c2d",
    (3, "dot"): "1177d4ee17bce78a9f56c5b62ff636e364cdc89801364d298d713472b3fb8faa",
    (4, "text"): "ac69da820d66a8d8a662fb9a96597b39979e8b4657793c7617c3c15f2cd73adb",
    (4, "json"): "e6d80dbd837975aa20c4e842a37303631ac8a8d318e35c0baca3aea9c7d9b4f3",
    (4, "dot"): "7c79f77aee2bf886d6c8e2b6afdc2c08d0c4c577ce419d19596c1dc65df4db7d",
    (5, "text"): "b273b0c1e88b08074215000e41f7a2f370c5f7395fbcf2124044d7db7e9dc25e",
    (5, "json"): "ea229039780abe593fb8e93523a4b30a72258af6cc3ec46325298557112ba0fd",
    (5, "dot"): "f48ddabc5659725533def3308e47e05ed09b7a434ec85c0e328eda8b705c5fe9",
}


def _lattice_argv(n: int, fmt: str) -> list:
    return ["--format", fmt, "lattice", *([f"--lambda-keys={','.join(KEYS[:n])}"] if n else [])]


@pytest.mark.parametrize("n, fmt", sorted(LATTICE_SHA256))
def test_lattice_output_bytes_are_pinned(capsys, n, fmt):
    assert main(_lattice_argv(n, fmt)) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert hashlib.sha256(out).hexdigest() == LATTICE_SHA256[n, fmt]


# sha256 over "p/q eps m: <exit code>\n<stdout>" for `sl2hc --format FMT verify -- p/q eps m`,
# |p| <= 8, eps in {0, 1}, 0 <= m <= 4; recorded from the verify_tensor that rebuilt
# its prediction per weight from the decomposition's semisimplification
VERIFY_SHA256 = {
    (1, "text"): "d0315f952585ebb9cb89f1179d05be8b0a6cf22231f46b61c96d104fc6aa493d",
    (1, "json"): "3d65c4d51e21ed7c64e2108aa505a4d8c7fc7a6ff2099ce4b5da21f5e4bc76e5",
    (2, "text"): "269d9cdc8d1f0e7895bb6352f69c51040556912e9bfe4a20cc0c1e1820fbc146",
    (2, "json"): "9e417e099e7d43d8e89643ec856da20a1a34e3f397127a7c76e1a606da3bb3b0",
    (3, "text"): "73557a3ceaf03e7ee24eaa881d44a7bb659892dea227600b616bb97179dd39e2",
    (3, "json"): "a7449f6470d714615e2d71f40345f7012234cd011918dbd08e6d282634ded54f",
    (5, "text"): "5dbe2f538889011675271dce8062c5f03185bdec776aa2cf67be759aedb2940a",
    (5, "json"): "08efcd04a31011db97eedbb121de793a84fc8e78b3f0abed41d52dc114385e9b",
}


@pytest.mark.parametrize("q, fmt", sorted(VERIFY_SHA256))
def test_verify_output_bytes_are_pinned(capsys, q, fmt):
    digest = hashlib.sha256()
    for p in range(-8, 9):
        for eps in "01":
            for m in "01234":
                code = main(["--format", fmt, "verify", "--", f"{p}/{q}", eps, m])
                digest.update(f"{p}/{q} {eps} {m}: {code}\n{capsys.readouterr().out}".encode("ascii"))
    assert digest.hexdigest() == VERIFY_SHA256[q, fmt]


# sha256 over "p eps m: <exit code>\n<stdout>" for `sl2hc --format json verify -- p eps m`,
# -3 <= p <= 3, eps in {0, 1}, m in {8, 16}: integral lam at large m, where many weight
# spaces are reduced tridiagonal; recorded from the oracle that factored every weight's
# characteristic polynomial and took Jordan sizes from the full rank sequence
VERIFY_LARGE_M_SHA256 = "7366da34ab78b29816eb144ee78506352822a2acec158de20879aa94434aebfd"


def test_verify_output_bytes_at_large_m_are_pinned(capsys):
    digest = hashlib.sha256()
    for p in range(-3, 4):
        for eps in "01":
            for m in ("8", "16"):
                code = main(["--format", "json", "verify", "--", str(p), eps, m])
                digest.update(f"{p} {eps} {m}: {code}\n{capsys.readouterr().out}".encode("ascii"))
    assert digest.hexdigest() == VERIFY_LARGE_M_SHA256


class _CountingStdout(io.StringIO):
    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_main_writes_stdout_once(monkeypatch, fmt):
    fake = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", fake)
    assert main(_lattice_argv(3, fmt)) == 0
    assert fake.writes == 1
    assert hashlib.sha256(fake.getvalue().encode()).hexdigest() == LATTICE_SHA256[3, fmt]


class _DiscardingStdout(io.TextIOBase):
    """A text sink that keeps only the count of the characters it is given."""

    size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)


def test_main_streams_a_large_output(monkeypatch):
    """At its peak, a JSON verify holds less memory than it writes."""
    sink = _DiscardingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(["--format", "json", "verify", "7/5", "0", "128"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 3_000_000 and peak < sink.size


JSON_ARGVS = [
    ["cg", "2", "3"],
    ["series", "--", "-3", "1"],
    ["tensor", "I(1/3,0)", "2"],
    ["ktypes", "D+(2)", "--window", "-4", "4"],
    ["generate", "V(1)", "I(1/3,0)"],
    ["classify", "D-(2)"],
    ["lattice", "--lambda-keys=1/5,1/7,2/7"],
    ["verify", "3", "0", "2"],
    ["sweep", "--lambdas=1/2,2", "--ms=0,1"],
]


@pytest.mark.parametrize("argv", JSON_ARGVS, ids=[argv[0] for argv in JSON_ARGVS])
def test_json_output_is_json_dumps_indent_2(capsys, argv):
    assert main(["--format", "json", *argv]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert next(iter(payload)) == "schema_version" and payload["schema_version"] == SCHEMA_VERSION
    assert list(payload)[1] == "command" and payload["command"] == argv[0]
    assert out == json.dumps(payload, indent=2) + "\n"


class _ShortWritesRaw(io.RawIOBase):
    """A raw file that takes at most 4096 bytes a write, as a pipe may."""

    def __init__(self) -> None:
        super().__init__()
        self.data = bytearray()
        self.writes = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.writes += 1
        n = min(len(b), 4096)
        self.data += bytes(b[:n])
        return n


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_unbuffered_stdout_short_writes_lose_nothing(monkeypatch, fmt):
    """Under PYTHONUNBUFFERED stdout is a write-through text layer over a
    raw file, which does not retry a short write."""
    raw = _ShortWritesRaw()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii", write_through=True))
    assert main(_lattice_argv(3, fmt)) == 0
    assert raw.writes > 1
    assert hashlib.sha256(raw.data).hexdigest() == LATTICE_SHA256[3, fmt]


# --- a reader that stops early ------------------------------------------------------


def _env(unbuffered: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_pipe_closed_mid_output_leaves_stderr_empty(fmt, unbuffered):
    """The output (0.8 to 1.7 MB) is larger than a pipe buffer, so the reader's
    close always lands before the write ends.  Through a buffered stdout the
    broken pipe reaches Python and gives exit 1.  Through an unbuffered one
    the kernel first reports the bytes that did go through as a short write,
    which ``main`` must not take for the whole output: it writes the rest,
    meets the broken pipe and exits 1 as well."""
    argv = [sys.executable, "-m", "sl2hc", *_lattice_argv(5, fmt)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(unbuffered))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first in (b"points:\n", b"{\n")
    assert err == b""


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_stdout_closed_before_the_write_exits_1_silently(fmt, unbuffered):
    """A short output stays in the stdout buffer until the flush; when that
    fails, the flush at interpreter exit must not fail again."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        argv = [sys.executable, "-m", "sl2hc", "--format", fmt, "cg", "1", "1"]
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=_env(unbuffered), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


# --- the class commands, pinned across the three class kinds --------------------------

V_AND_D = [f"V({n})" for n in range(9)] + [f"D{s}({n})" for s in "+-" for n in range(9)]
PARAMETERS = [f"{p}/{q}" for q in (1, 2, 3, 5) for p in range(-12, 13)]
PRINCIPAL = [
    f"I({lam},{eps})"
    for lam in PARAMETERS
    for eps in (0, 1)
    if principal_is_irreducible(Fraction(lam), eps)
]
CLASS_ARGVS = {
    "cg": [["cg", str(m1), str(m2)] for m1 in range(13) for m2 in range(13)],
    "tensor": [["tensor", c, str(m)] for c in V_AND_D + PRINCIPAL for m in range(4)],
    "ktypes": [["ktypes", c, "--window", "-9", "9"] for c in V_AND_D + PRINCIPAL],
    "classify": [["classify", c] for c in V_AND_D + PRINCIPAL],
    "series": [["series", "--", lam, eps] for lam in PARAMETERS for eps in "01"],
    "verify": [["verify", "--", str(p), eps, str(m)] for p in range(-4, 5) for eps in "01" for m in range(5, 13)],
    "sweep": [["sweep", "--lambdas=-7/3,-2,0,1/2,3", "--ms=0,1,2,3"], ["sweep", "--lambdas=1,5/2", "--ms=4"]],
}

# sha256 over "<argv>: <exit code>\n<stdout>" for `sl2hc --format FMT <argv>` over
# CLASS_ARGVS[command]; recorded before the three class kinds shared one dispatch
CLASS_SHA256 = {
    ("cg", "text"): "9ad1096208a2185d0cac595ba4f8de6cc9c359f05f02181c0f16545ce6f83e23",
    ("cg", "json"): "4b11f2e6533abbea2212bdf8a07a41842ea3e8922a6441129a334348c49ac412",
    ("tensor", "text"): "2560272c1f081b02356fbdebb69eac1e05d8eff42f93a879af195175a73e3e84",
    ("tensor", "json"): "06cc77211bbf3899d04653fc1b2d1443e6bd9c7d7f6c87b90fb8e62420329b31",
    ("ktypes", "text"): "9f0e8325a651649fb1a8d0e31aef8c8670c006b8bb140967c2e523b0f3b95ba3",
    ("ktypes", "json"): "b960e31aa92a571048bc1c4937102bc80c6dc651f36aef4f99d8629baabecb7e",
    ("classify", "text"): "23daf09ca5628aa69cf48776a7b87c55997889e73a33acd7592d32b06d0dc760",
    ("classify", "json"): "f76bad661aa50e7be14ffaf4f29fbabd766e19ccaad8d2f41280b5ef930d66aa",
    ("series", "text"): "a9a18180002f32597bd2d57307800c3f4484b8e4071e215c69be316596bf772e",
    ("series", "json"): "600b16f078e8cbcd1852e9f8a9778290f17af19db479aaa1297028c4a4f1f19e",
    ("verify", "json"): "b0c81485b144450d849bd2c8a8114e292860548b8355a869b70f65b5664f7316",
    # recorded before sweep took its rows' fields from the verdicts
    ("sweep", "text"): "c3ab7693770d6e55ef310a07747283bec53cdaafa32998cf06494182e9ad9b31",
    ("sweep", "json"): "32bb67780d66dd4490843ab0dbed199dc218b51d9a7056c84973f946f3d95e28",
}


def _digest(capsys, fmt: str, argvs: list) -> str:
    digest = hashlib.sha256()
    for argv in argvs:
        code = main(["--format", fmt, *argv])
        digest.update(f"{' '.join(argv)}: {code}\n{capsys.readouterr().out}".encode("ascii"))
    return digest.hexdigest()


@pytest.mark.parametrize("command, fmt", sorted(CLASS_SHA256))
def test_class_command_output_bytes_are_pinned(capsys, command, fmt):
    assert _digest(capsys, fmt, CLASS_ARGVS[command]) == CLASS_SHA256[command, fmt]


# --- the oracle's JSON dicts, which no command prints whole -----------------------------

REPORT_LAMBDAS = (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(-7, 3), Fraction(2))


def _report_windows(eps: int, m: int) -> list:
    """Default, wide, one-weight, and a window whose ends are not weights."""
    k = eps + m
    return [None, (-30, 30), (k + 2, k + 2), (k - 5, k + 7)]


REPORT_CASES = [
    (lam, eps, m, window)
    for lam in REPORT_LAMBDAS
    for eps in (0, 1)
    for m in range(4)
    for window in _report_windows(eps, m)
]

# sha256 over "<case>\n<json.dumps(report_to_dict(casimir_report(*case)), indent=2)>\n"
# over REPORT_CASES; recorded while verdict_to_dict still extended report_to_dict's entries
REPORT_SHA256 = "2d26916cb84451b44d7198e26d468589ebfe0203152c84faa60407f713741936"


def test_report_dict_bytes_are_pinned():
    digest = hashlib.sha256()
    for case in REPORT_CASES:
        text = json.dumps(report_to_dict(casimir_report(*case)), indent=2)
        digest.update(f"{case}\n{text}\n".encode("ascii"))
    assert digest.hexdigest() == REPORT_SHA256


@given(
    st.sampled_from(REPORT_LAMBDAS + (Fraction(-1), Fraction(5, 2), Fraction(1, 5))),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-14, max_value=14),
    st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_verdict_entries_are_report_entries_with_the_verdict(lam, eps, m, lo, width):
    window = (lo, lo + width)
    assume(width > 0 or (lo - eps - m) % 2 == 0)  # else the window holds no weight
    verdict = verify_tensor(lam, eps, m, window)
    report, v = report_to_dict(casimir_report(lam, eps, m, window)), verdict_to_dict(verdict)
    predicted = [{"value": format_scalar(val), "mult": mult} for val, mult in verdict.predicted]
    entries = [{**entry, "predicted": predicted, "match": verdict.passed} for entry in report["entries"]]
    # compared as text, so that the key order counts too
    assert json.dumps(dict(list(v.items())[:5])) == json.dumps({**report, "entries": entries})
