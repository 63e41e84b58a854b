"""Every ``$ sl2hc ...`` line in the README runs and prints what follows it.

A line ``...`` in the expected output stands for any run of lines.  Class
arguments must be quoted, so that each line can be pasted into a shell.
"""

import shlex
from pathlib import Path

import pytest

from sl2hc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def examples() -> list:
    """(command line, expected output lines) for each ``$ sl2hc`` line."""
    found = []
    for block in README.read_text(encoding="utf-8").split("```text\n")[1:]:
        current = None
        for line in block.split("```", 1)[0].splitlines():
            if line.startswith("$ "):
                current = (line[2:], [])
                found.append(current)
            elif current is not None:
                current[1].append(line)
    for _, out in found:
        while out and not out[-1]:
            out.pop()
    return found


def matches(expected: list, actual: list) -> bool:
    if not expected:
        return not actual
    if expected[0].strip() == "...":
        return any(matches(expected[1:], actual[i:]) for i in range(len(actual) + 1))
    return bool(actual) and expected[0] == actual[0] and matches(expected[1:], actual[1:])


EXAMPLES = examples()


def test_readme_has_command_examples():
    assert len(EXAMPLES) == 11


@pytest.mark.parametrize("line, expected", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_readme_command_prints_what_follows(capsys, line, expected):
    argv = shlex.split(line)
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    assert list(lexer) == argv, "a shell would read an unquoted parenthesis"
    assert argv[0] == "sl2hc"
    assert main(argv[1:]) == 0
    actual = capsys.readouterr().out.splitlines()
    assert matches(expected, actual), "\n".join(actual)
