import numpy as np
import pytest

from ninecubes import expsum, localdata, selftest
from ninecubes.errors import DomainError
from ninecubes.selftest import CHECKS, DEFAULT_SEED, random_valid_system, run_all


def test_registry_names_are_unique():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names)) == 11


def test_random_systems_are_valid():
    rng = np.random.default_rng(911)
    for _ in range(50):
        system = random_valid_system(rng, 500, 5000)
        assert not system.violations()
        assert len(system.a) == 9
    flat = random_valid_system(rng, 500, 5000, max_prime_slots=0)
    assert all(abs(c) == 1 for c in flat.a)


def test_run_all_subset_deterministic():
    first = run_all(names=["arc_dissection"], seed=3)
    second = run_all(names=["arc_dissection"], seed=3)
    assert len(first) == 1
    assert first[0].name == "arc_dissection"
    assert first[0].passed
    assert first[0].detail == second[0].detail


def test_selection_reproduces_full_run():
    # a check is seeded by its position in CHECKS, so running it alone
    # (selftest --only) gives the result it has after any other selection
    name = "search_consistency"
    alone = run_all(names=[name])
    after = run_all(names=["arc_dissection", name])
    assert alone[0].detail == after[1].detail


def test_fourier_direct_compares_nonzero_counts(monkeypatch):
    # both routes return exact zeros on unattained targets, so a run that
    # compared zeros only would pass whatever the routes computed
    counts = []
    direct = expsum.weighted_count_direct

    def record(*args, **kwargs):
        counts.append(direct(*args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(expsum, "weighted_count_direct", record)
    result = run_all(names=["fourier_direct"])[0]
    assert result.passed and len(counts) == 30
    assert sum(c > 0 for c in counts) >= 15


def test_multiplicativity_checks_composed_count_against_convolution_count(monkeypatch):
    # q N(q) is multiplicative but wrong; on composed counts alone the
    # check would pass it
    count = localdata.unit_solution_count
    monkeypatch.setattr(localdata, "unit_solution_count", lambda q, s: q * count(q, s))
    result = run_all(names=["local_multiplicativity"])[0]
    assert not result.passed
    assert result.detail.startswith("composed N(2*3) = ")


def test_corridor_diagnostic_matches_staged_products():
    # ratios from the staged FFT chain, which convolve_full ran for every
    # table before it took spectral products
    raw, corrected = selftest.corridor_block_diagnostic()
    assert raw == pytest.approx(
        (0.25046965924493747, 0.06890994999667555, 0.19740708897592718), rel=1e-12
    )
    assert corrected == pytest.approx(
        (1.137434149185262, 0.8610608513457229, 0.6913175997508079), rel=1e-12
    )


def test_run_all_rejects_unknown_name():
    with pytest.raises(DomainError):
        run_all(names=["definitely_not_a_check"])


def test_failures_are_reported_not_raised(monkeypatch):
    def boom(rng):
        raise ValueError("synthetic breakage")

    monkeypatch.setattr(
        selftest, "CHECKS", (("fourier_direct", boom),) + tuple(selftest.CHECKS[1:])
    )
    results = run_all(names=["fourier_direct"], seed=DEFAULT_SEED)
    assert results[0].passed is False
    assert "ValueError" in results[0].detail
