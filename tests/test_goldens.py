"""Every line of tests/data/goldens.txt, replayed in process.

A line holds the expected exit code, the golden file under tests/data (a
.sha256 file holds the `sha256sum` line of the report, and - compares
nothing) and the command in shell quoting.  CI replays the same lines with
the installed ninecubes command.
"""

import collections
import hashlib
import shlex
from pathlib import Path

import pytest

from ninecubes.cli import run

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "goldens.txt"
README = Path(__file__).parent.parent / "README.md"
# README examples with no manifest line: the full selftest, for its run time
README_ONLY = [["ninecubes", "selftest", "--threads", "4"]]


def manifest_lines() -> list[tuple[int, str, list[str]]]:
    """(exit code, golden, argv) of each line that is neither blank nor a # line."""
    lines = []
    for line in MANIFEST.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code, golden, *argv = shlex.split(line)
            lines.append((int(code), golden, argv))
    return lines


def line_ids(lines) -> list[str]:
    """A line's golden names it; a line without one is named by subcommand and exit code."""
    seen = collections.Counter()
    ids = []
    for code, golden, argv in lines:
        name = golden if golden != "-" else f"{argv[1]}-exit{code}"
        seen[name] += 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


LINES = manifest_lines()


@pytest.mark.parametrize("code, golden, argv", LINES, ids=line_ids(LINES))
def test_golden_line(code, golden, argv, capsysbinary):
    assert argv[0] == "ninecubes"
    assert run(argv[1:]) == code
    out = capsysbinary.readouterr().out
    if golden.endswith(".sha256"):
        out = f"{hashlib.sha256(out).hexdigest()}  -\n".encode()
    if golden != "-":
        assert out == (DATA / golden).read_bytes()


def test_every_file_under_data_is_the_golden_of_one_line():
    files = [p.relative_to(DATA).as_posix() for p in DATA.rglob("*") if p.is_file()]
    named = [golden for _, golden, _ in LINES if golden != "-"]
    assert sorted(named) == sorted(f for f in files if f != MANIFEST.name)


def test_readme_examples_are_manifest_lines():
    # the "Command line" block, its \ continuations joined
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    examples = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    listed = [argv for _, _, argv in LINES]
    assert all(example in examples for example in README_ONLY)
    assert [e for e in examples if e not in listed + README_ONLY] == []
