"""The README's command-line examples, byte for byte.

Each example runs in-process and its report is compared with a golden
file under tests/data/readme/.  The `selftest --threads 4` example is
left out for its run time.
"""

from pathlib import Path

import pytest

from ninecubes.cli import run

GOLDEN = Path(__file__).parent / "data" / "readme"
ONES = "1,1,1,1,1,1,1,1,1"

EXAMPLES = {
    "validate.json": ["validate", "--coeffs", ONES, "--n", "23"],
    "local.json": ["local", "--coeffs", ONES, "--n", "23", "--q", "9"],
    "series.json": ["series", "--coeffs", ONES, "--n", "23", "--qmax", "1000"],
    "integral.json": ["integral", "--coeffs", ONES, "--n", "500", "--M", "10", "--N", "100"],
    "rn.json": ["rn", "--coeffs", ONES, "--n", "72", "--M", "7", "--N", "8"],
    "arcs.json": ["arcs", "--N", "1000000", "--D", "2", "--epsilon", "0.01", "--c", "1.0"],
    "scan-minor.json": [
        "scan-minor", "--coeffs", ONES, "--n", "101", "--M", "10", "--N", "100000",
        "--epsilon", "0.01", "--c", "1.0", "--grid-step", "0.001",
    ],
    "search.json": ["search", "--coeffs", "1,1,1,1,1,1,1,1,-1", "--n", "0", "--prime-bound", "100"],
    "thresholds.csv": [
        "thresholds", "--grid", "1,1,1,1,1,1,1,1,1;1,1,1,1,1,1,1,1,3",
        "--n-lo", "1", "--n-hi", "200", "--format", "csv",
    ],
}


@pytest.mark.parametrize("golden", sorted(EXAMPLES))
def test_readme_example_output(golden, tmp_path):
    out = tmp_path / golden
    assert run(EXAMPLES[golden] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
