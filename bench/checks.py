"""Output checks for the sl2hc benchmark.

``check`` applies the invariants that hold on any seed; ``Golden`` compares
exit codes and stdout digests with those recorded for the default seed
(``golden.json``, written by ``record_golden.py``).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

_TERM = re.compile(r"^(?:(\d+)\*)?V\((\d+)\)$")
_WINDOW = re.compile(r"k in \[(-?\d+),(-?\d+)\]")
_SWEEP_LINE = re.compile(r"^lam=\S+ eps=(\d) m=(\d+): PASS \(k in \[(-?\d+),(-?\d+)\]")


def digest(rc: int, out: bytes) -> list:
    return [rc, hashlib.sha256(out).hexdigest()]


def window_weights(lo: int, hi: int, eps: int, m: int) -> int:
    """Number of K-weights k in [lo, hi] with k = eps + m (mod 2)."""
    parity = (eps + m) % 2
    first = lo if (lo - parity) % 2 == 0 else lo + 1
    return max(0, (hi - first) // 2 + 1)


def lattice_counts(p: int) -> tuple:
    """(sets, covers) over p principal series points: 5*2^p and 5*2^p + 5p*2^(p-1)."""
    return 5 * 2**p, 5 * 2**p + (5 * p * 2 ** (p - 1) if p else 0)


def _fmt_of(argv: tuple) -> str:
    return argv[1] if argv[:1] == ("--format",) else "text"


def check(cmd, rc: int, out: bytes, err: bytes) -> tuple:
    """(failure reason or None, K-weights compared) for one command's result."""
    if b"Traceback (most recent call last)" in err:
        return "traceback on stderr", 0
    if cmd.check == "malformed":
        if rc != 2 or out:
            return f"expected exit 2 with empty stdout, got exit {rc}", 0
        return None, 0
    if rc != 0:
        return f"exit {rc}", 0
    text = out.decode("utf-8")
    fmt = _fmt_of(cmd.argv)
    payload = None
    if fmt == "json":
        try:
            payload = json.loads(text)
        except ValueError:
            return "json output does not parse", 0
        if payload.get("schema_version") != 1:
            return "json output lacks schema_version 1", 0
    if not text.strip():
        return "empty stdout", 0
    return _INVARIANTS.get(cmd.check, _plain)(cmd, text, payload, fmt)


def _plain(cmd, text, payload, fmt):
    return None, 0


def _cg(cmd, text, payload, fmt):
    m1, m2 = cmd.params
    if payload is not None:
        terms = [(mult, int(cls[2:-1])) for cls, mult in payload["module"].items()]
    else:
        terms = []
        for tok in text.strip().split(" + "):
            match = _TERM.match(tok)
            if not match:
                return f"unexpected cg term {tok!r}", 0
            terms.append((int(match.group(1) or 1), int(match.group(2))))
    if sum(mult * (m + 1) for mult, m in terms) != (m1 + 1) * (m2 + 1):
        return "cg dimensions do not multiply", 0
    return None, 0


def _verify(cmd, text, payload, fmt):
    eps, m = cmd.params
    if payload is not None:
        if payload.get("verdict") != "PASS":
            return "verify verdict is not PASS", 0
        lo, hi = payload["window"]
    else:
        match = _WINDOW.search(text)
        if not text.startswith("PASS (") or not match:
            return "verify did not print PASS", 0
        lo, hi = int(match.group(1)), int(match.group(2))
    return None, window_weights(lo, hi, eps, m)


def _sweep(cmd, text, payload, fmt):
    (count,) = cmd.params
    lines = text.strip().splitlines()
    if lines[-1] != f"SWEEP PASS ({count} verifications)" or len(lines) != count + 1:
        return "sweep did not pass every verification", 0
    weights = 0
    for line in lines[:-1]:
        match = _SWEEP_LINE.match(line)
        if not match:
            return f"unexpected sweep line {line!r}", 0
        eps, m, lo, hi = map(int, match.groups())
        weights += window_weights(lo, hi, eps, m)
    return None, weights


def _lattice(cmd, text, payload, fmt):
    (p,) = cmd.params
    if payload is not None:
        got = (len(payload["sets"]), len(payload["covers"]))
    elif fmt == "dot":
        got = (
            len(re.findall(r"^    s\d+ \[label=", text, re.M)),
            len(re.findall(r"^    s\d+ -> s\d+;$", text, re.M)),
        )
    else:
        sections: dict = {}
        current = None
        for line in text.splitlines():
            if not line.startswith(" "):
                current = line.rstrip(":")
                sections[current] = 0
            else:
                sections[current] += 1
        got = (sections.get("sets"), sections.get("covers"))
    if got != lattice_counts(p):
        return f"lattice sets/covers {got} != {lattice_counts(p)} for p={p}", 0
    return None, 0


_INVARIANTS = {"cg": _cg, "verify": _verify, "sweep": _sweep, "lattice": _lattice}


class Golden:
    """Recorded (exit code, stdout digest) per command line of the default seed."""

    def __init__(self, workload: str) -> None:
        recorded = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        self.expected = recorded.get(workload)

    def check(self, cmd, rc: int, out: bytes):
        if self.expected is None:
            return "no recorded output for the default seed"
        want = self.expected.get(" ".join(cmd.argv))
        if want is None:
            return "command line missing from the recorded output"
        if digest(rc, out) != want:
            return "exit code or stdout differs from the recorded output"
        return None
