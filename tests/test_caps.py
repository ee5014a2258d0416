"""Resource caps: read at each call, refused before work, all in README's table."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import ninecubes
from ninecubes import arcs, arith, characters, convolve, expsum, localdata, singular
from ninecubes.convolve import IndexedWeights
from ninecubes.errors import ResourceLimitError
from ninecubes.localdata import CoefficientSystem

README = Path(__file__).parent.parent / "README.md"
ONES = CoefficientSystem.make([1] * 9, 23)
DENSE = IndexedWeights(0, np.ones(50))
# 11 primes a slot over (1e5, 1e6]: slot 1 alone forms 11 index pairs
JOIN = CoefficientSystem.make([1] * 9, 5 * 10**6 + 1)
# 20 grid points; slot 9 has 3 primes over (10, 1e3]
SCAN = (ONES, arcs.build_dissection(10**3, 2), 10, 10**3, 0.05)


@pytest.mark.parametrize(
    "module, cap, value, call, work",
    [
        pytest.param(arith, "SIEVE_CAP", 100, lambda: arith.sieve_primes(101),
                     (np, "ones"), id="sieve"),
        pytest.param(arith, "UNIT_GROUP_CAP", 100, lambda: arith.unit_group(101),
                     (arith, "_unit_group"), id="unit_group"),
        pytest.param(arith, "UNIT_GROUP_CAP", 100, lambda: characters.character_group(101),
                     (arith, "_unit_group"), id="character_group"),
        pytest.param(singular, "SERIES_X_CAP", 10,
                     lambda: singular.singular_series_partial(ONES, 11),
                     (singular, "_plan"), id="series"),
        pytest.param(singular, "SERIES_X_CAP", 10,
                     lambda: singular.singular_series_euler(ONES, 11),
                     (singular, "_plan"), id="euler"),
        pytest.param(singular, "INTEGRAL_N_CAP", 99,
                     lambda: singular.singular_integral(ONES, 10, 100),
                     (singular, "integral_support"), id="integral"),
        pytest.param(singular, "INTEGRAL_N_CAP", 99, lambda: singular.integral_support(1, 0, 100),
                     (np, "arange"), id="integral_support"),
        pytest.param(localdata, "LOCAL_Q_CAP", 10,
                     lambda: localdata.unit_solution_count_float(11, ONES),
                     (localdata, "_unit_cube_histograms"), id="local_q"),
        pytest.param(localdata, "LOCAL_Q_CAP", 10,
                     lambda: localdata.cubic_char_sum_table(characters.DirichletCharacter(11, (1,))),
                     (localdata, "_char_sum_block"), id="char_sums"),
        pytest.param(convolve, "CELL_CAP", 40, lambda: convolve.convolve_read([DENSE, DENSE], 49),
                     (np.fft, "rfft"), id="read"),
        pytest.param(convolve, "CELL_CAP", 40, lambda: convolve.convolve_full([DENSE, DENSE]),
                     (np.fft, "rfft"), id="full"),
        pytest.param(convolve, "CELL_CAP", 10,
                     lambda: expsum.weighted_count_direct(JOIN, 10**5, 10**6),
                     (np, "argsort"), id="join"),
        pytest.param(arcs, "P_CAP", 2, lambda: arcs.build_dissection(10**6, 2),
                     (arith, "euler_phi"), id="arcs"),
        pytest.param(expsum, "SCAN_POINTS_CAP", 19, lambda: expsum.minor_arc_sup(*SCAN),
                     (expsum, "cube_support"), id="scan_points"),
        pytest.param(convolve, "CELL_CAP", 59, lambda: expsum.minor_arc_sup(*SCAN),
                     (arcs, "major_mask"), id="scan_cells"),
    ],
)
def test_cap_is_read_at_call_time(monkeypatch, module, cap, value, call, work):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{work[1]} ran before {cap} refused")

    monkeypatch.setattr(module, cap, value)
    monkeypatch.setattr(*work, refuse)
    with pytest.raises(ResourceLimitError, match="exceeds"):
        call()


def test_readme_cap_table_names_every_cap():
    section = README.read_text().split("## Resource caps", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+\.\w+)` \|", section, re.M))
    defined = set()
    for path in Path(ninecubes.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                defined |= {
                    f"{path.stem}.{t.id}"
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.endswith("_CAP")
                }
    assert defined and rows == defined
