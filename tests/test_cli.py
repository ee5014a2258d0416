import argparse
import ast
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import ninecubes
from ninecubes import cli, localdata, search
from ninecubes.cli import RunConfig, parse_config_file, run
from ninecubes.errors import NumericIntegrityError
from ninecubes.localdata import CoefficientSystem

ONES = "1,1,1,1,1,1,1,1,1"


def run_to_file(tmp_path, args, name="out.json"):
    path = tmp_path / name
    code = run(args + ["--out", str(path)])
    data = path.read_bytes() if path.exists() else b""
    return code, data


def test_rn_reference_value(tmp_path):
    code, data = run_to_file(
        tmp_path, ["rn", "--coeffs", ONES, "--n", "72", "--M", "7", "--N", "8"]
    )
    assert code == 0
    report = json.loads(data)
    want = math.log(2.0) ** 9
    assert report["r_direct"] == pytest.approx(want, rel=1e-11)
    assert report["r_fourier"] == pytest.approx(want, rel=1e-9)
    assert report["n"] == 72 and report["M"] == 7 and report["N"] == 8


def test_output_is_deterministic(tmp_path):
    args = ["series", "--coeffs", ONES, "--n", "23", "--qmax", "200"]
    _, first = run_to_file(tmp_path, args, "a.json")
    _, second = run_to_file(tmp_path, args, "b.json")
    assert first == second
    assert first.endswith(b"\n")


def test_validate_exit_codes(tmp_path):
    code, data = run_to_file(tmp_path, ["validate", "--coeffs", ONES, "--n", "23"])
    assert code == 0
    report = json.loads(data)
    assert report["valid"] is True and report["violations"] == []
    assert report["D"] == 2
    code, data = run_to_file(
        tmp_path, ["validate", "--coeffs", "2,4,1,1,1,1,1,1,1", "--n", "15"]
    )
    assert code == 1
    report = json.loads(data)
    assert report["valid"] is False
    assert any("share a factor" in v for v in report["violations"])


def test_parity_warns_but_runs(tmp_path, capsys):
    # n = 72 violates parity with all-ones coefficients, yet the window
    # (7, 8] admits the all-twos solution; the tool warns and proceeds
    code, data = run_to_file(
        tmp_path, ["rn", "--coeffs", ONES, "--n", "72", "--M", "7", "--N", "8"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "parity" in err
    assert err == f"warning: {localdata.PARITY_VIOLATION}\n"
    assert json.loads(data)["r_direct"] > 0


def test_hard_violation_rejected(tmp_path):
    code, data = run_to_file(
        tmp_path, ["series", "--coeffs", "2,4,1,1,1,1,1,1,1", "--n", "15"]
    )
    assert code == 1


def test_usage_errors(tmp_path):
    assert run(["unknown-subcommand"]) == 64
    assert run([]) == 64
    assert run(["rn", "--coeffs", "1,2", "--n", "5", "--M", "2", "--N", "4"]) == 64
    assert run(["series", "--coeffs", ONES, "--n", "23", "--format", "yaml"]) == 64
    assert run(["selftest", "--only", "no_such_check"]) == 64


def test_resource_and_domain_exits(tmp_path):
    code, _ = run_to_file(
        tmp_path, ["series", "--coeffs", ONES, "--n", "23", "--qmax", "99999999"]
    )
    assert code == 2
    code, _ = run_to_file(tmp_path, ["local", "--coeffs", ONES, "--n", "23", "--q", "0"])
    assert code == 1


def test_arcs_past_the_float_range_exits_on_its_cap(tmp_path, capsys):
    # N / D = 5e399 is no float; its P meets the arc cap (exit 2), and a
    # P under the cap gives a report
    huge = "1" + "0" * 400
    assert run(["arcs", "--N", huge, "--D", "2"]) == 2
    assert "exceeds the arc cap" in capsys.readouterr().err
    code, data = run_to_file(tmp_path, ["arcs", "--N", huge, "--D", "2", "--epsilon", "0.0999"])
    report = json.loads(data)
    assert code == 0 and (report["P"], report["arc_count"]) == (1, 1)


def test_windows_past_the_float_range_exit_on_the_sieve_cap(capsys):
    # icbrt stays in integers, and the scan takes 1 / Q as a float only
    # after the support's sieve cap has refused the window
    args = ["scan-minor", "--epsilon", "0.0999", "--coeffs", ONES, "--n", "101",
            "--M", "10", "--N", str(10**400)]
    assert run(args) == 2
    assert "sieve limit" in capsys.readouterr().err


def test_windowed_search_past_the_sieve_cap_matches_golden(capsys):
    # a search sieves to its prime bound, not to the window's N: N = 10^200
    # gives the exhaustion report of the bound's primes (search-window-1e200.json
    # in the manifest), and only a bound past its cap is refused
    window = ["--coeffs", ONES, "--n", "101", "--M", "10", "--N", str(10**200)]
    assert run(["search", "--prime-bound", "100"] + window) == 0
    assert run(["search", "--prime-bound", "20000"] + window) == 2
    assert "exceeds cap" in capsys.readouterr().err


def test_numeric_integrity_exit(monkeypatch, tmp_path):
    def broken(config):
        raise NumericIntegrityError("forced for the exit-code contract")

    local = dataclasses.replace(cli.COMMANDS["local"], runner=broken)
    monkeypatch.setitem(cli.COMMANDS, "local", local)
    code, _ = run_to_file(tmp_path, ["local", "--coeffs", ONES, "--n", "23", "--q", "9"])
    assert code == 3


def test_failed_search_checks_exit_3(monkeypatch, tmp_path):
    least_keys = search._least_keys

    def all_first_tuples(slots, cubes, windows, lex):
        # the lex pass then claims the all-2 tuple of each half for every sum
        sums, keys = least_keys(slots, cubes, windows, lex)
        return sums, 0 * keys if lex else keys

    monkeypatch.setattr(search, "_least_keys", all_first_tuples)
    code, data = run_to_file(
        tmp_path, ["search", "--coeffs", "1,1,1,1,1,1,1,1,-1", "--n", "0", "--prime-bound", "100"]
    )
    assert code == 3 and data == b""
    monkeypatch.undo()
    exhausted = search.SearchExhausted(CoefficientSystem.make([1] * 9, 72), 100, None, 0)
    monkeypatch.setattr(search, "find_solution", lambda system, bound: exhausted)
    code, data = run_to_file(tmp_path, ["thresholds", "--grid", ONES, "--n-lo", "1", "--n-hi", "200"])
    assert code == 3 and data == b""


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_config_round_trip(tmp_path):
    # every field type: nine integers, int, float, grid, check names, path, format
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        "subcommand=rn\n"
        "coeffs=1,1,1,-2,3,1,5,1,-1\n"
        "n=72\nM=7\nN=8\nq=9\nqmax=500\nprime_bound=100\n"
        "grid_step=0.25\nepsilon=0.02\nc=1.5\nD=5\n"
        "grid=1,1,1,1,1,1,1,1,1; ;1,1,1,1,1,1,1,1,3;\n"
        "n_lo=1\nn_hi=200\n"
        "only=arc_dissection, char_sum_bound\n"
        "seed=11\nthreads=2\nout=rows.csv\nformat=csv\n"
    )
    assert RunConfig(**parse_config_file(str(cfg))) == RunConfig(
        subcommand="rn",
        coeffs=(1, 1, 1, -2, 3, 1, 5, 1, -1),
        n=72,
        M=7,
        N=8,
        q=9,
        qmax=500,
        prime_bound=100,
        grid_step=0.25,
        epsilon=0.02,
        c=1.5,
        D=5,
        grid=((1,) * 9, (1,) * 8 + (3,)),
        n_lo=1,
        n_hi=200,
        only=("arc_dissection", "char_sum_bound"),
        seed=11,
        threads=2,
        out="rows.csv",
        format="csv",
    )


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coeffs=1,1,1,1,1,1,1,1,1\nn=23\nqmax=100\n# comment\n\n")
    code, data = run_to_file(tmp_path, ["series", "--config", str(cfg)])
    assert code == 0
    assert json.loads(data)["cutoff"] == 100
    code, data = run_to_file(
        tmp_path, ["series", "--config", str(cfg), "--qmax", "50"], "b.json"
    )
    assert code == 0
    assert json.loads(data)["cutoff"] == 50


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("qmax=100\nwidget=3\n")
    assert run(["series", "--config", str(cfg)]) == 64
    cfg.write_text("qmax=ten\n")
    assert run(["series", "--config", str(cfg)]) == 64


def test_missing_config_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.cfg"
    assert run(["series", "--config", str(missing)]) == 64
    assert "cannot read config file" in capsys.readouterr().err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "nonexistent" / "x.json"
    assert run(["validate", "--coeffs", ONES, "--n", "23", "--out", str(out)]) == 64
    assert "cannot write output file" in capsys.readouterr().err


def test_bad_grid_entry_is_usage_error(capsys):
    assert run(["thresholds", "--grid", "1,1,x,1,1,1,1,1,1", "--n-lo", "1", "--n-hi", "9"]) == 64
    assert "1,1,x,1,1,1,1,1,1" in capsys.readouterr().err


def test_oversized_threshold_range_exits_2(capsys):
    assert run(["thresholds", "--grid", ONES, "--n-lo", "1", "--n-hi", str(10**12)]) == 2
    assert "exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--coeffs", ONES, "--n", "73", "--prime-bound", "20000"],
        ["arcs", "--N", str(10**63), "--D", "2"],
        # no n up to 50 is reachable: only an up-front check sees the bound
        ["thresholds", "--grid", ONES, "--n-lo", "1", "--n-hi", "50", "--prime-bound", "20000"],
    ],
    ids=["search", "arcs", "thresholds"],
)
def test_cap_refusals_exit_2(args, capsys):
    assert run(args) == 2
    assert "exceeds" in capsys.readouterr().err


def test_search_report_schema(tmp_path):
    code, data = run_to_file(
        tmp_path,
        ["search", "--coeffs", ONES, "--n", "72", "--prime-bound", "100"],
    )
    assert code == 0
    report = json.loads(data)
    assert report["found"] is True
    assert report["primes"] == [2] * 9
    assert report["max_p"] == 2
    assert report["found_by"].startswith("meet_in_the_middle")
    code, data = run_to_file(
        tmp_path,
        ["search", "--coeffs", ONES, "--n", "3", "--prime-bound", "20"],
        "miss.json",
    )
    assert code == 0
    report = json.loads(data)
    assert report["found"] is False
    assert report["prime_bound"] == 20


def test_local_reports_the_exact_zero_term(tmp_path):
    # A(54) of the README system is exactly 0; the definition route alone
    # gave -9.39e-147, and series reports 0.0 for the same term
    code, data = run_to_file(tmp_path, ["local", "--coeffs", ONES, "--n", "23", "--q", "54"])
    assert code == 0
    assert json.loads(data)["series_term"] == 0.0
    assert b'"series_term": 0.0,' in data


def test_thresholds_csv(tmp_path):
    code, data = run_to_file(
        tmp_path,
        [
            "thresholds",
            "--grid",
            "1,1,1,1,1,1,1,1,1;1,1,1,1,1,1,1,1,3",
            "--n-lo",
            "1",
            "--n-hi",
            "200",
            "--format",
            "csv",
        ],
        "rows.csv",
    )
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0].split(",")[:3] == ["coeffs", "n", "found"]
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[1] == "72" and first[2] == "True"
    second = lines[2].split(",")
    assert second[1] == "88"


def test_series_csv(tmp_path):
    code, data = run_to_file(
        tmp_path,
        ["series", "--coeffs", ONES, "--n", "23", "--qmax", "10", "--format", "csv"],
        "terms.csv",
    )
    assert code == 0
    lines = data.decode().strip().split("\n")
    assert lines[0] == "q,term"
    assert lines[1].startswith("1,1")


def test_csv_unsupported_for_rn(tmp_path):
    code = run(
        ["rn", "--coeffs", ONES, "--n", "72", "--M", "7", "--N", "8", "--format", "csv"]
    )
    assert code == 64


def test_empty_selftest_selection_csv(tmp_path):
    code, data = run_to_file(tmp_path, ["selftest", "--only", ",", "--format", "csv"], "empty.csv")
    assert code == 0
    assert data == b"name,passed,detail\n"


def test_help_tells_target_from_bound(capsys):
    assert run(["search", "--help"]) == 0
    usage = capsys.readouterr().out
    assert "--n TARGET" in usage and "--N BOUND" in usage


def test_selftest_single_check(tmp_path, capsys):
    code, data = run_to_file(
        tmp_path, ["selftest", "--only", "arc_dissection", "--seed", "1"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "PASS" in err and "arc_dissection" in err
    report = json.loads(data)
    assert isinstance(report, list) and len(report) == 1
    assert report[0]["name"] == "arc_dissection"
    assert report[0]["passed"] is True
    assert "elapsed" not in report[0]


def test_arcs_subcommand(tmp_path):
    code, data = run_to_file(
        tmp_path,
        ["arcs", "--N", "1000000", "--D", "2", "--epsilon", "0.01", "--c", "1.0"],
    )
    assert code == 0
    report = json.loads(data)
    assert report["P"] == 3
    assert report["Q"] == 24127
    assert report["arc_count"] == 4
    assert report["major_measure"] == pytest.approx(0.00017960514499661514, rel=1e-12)


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ninecubes",
            "validate",
            "--coeffs",
            ONES,
            "--n",
            "23",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(out.read_text())["valid"] is True


def test_parse_config_file_round_trips_real_file(tmp_path):
    # a saved config as written by hand or by older releases: comments,
    # blank lines, padding, a subcommand line the command line overrides
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# series at a small cutoff\n\nsubcommand=series\n"
        "coeffs = 1,1,1,1,1,1,1,1,1\nn=23\nqmax=77\nonly=\nformat=json\n"
    )
    values = parse_config_file(str(cfg))
    assert values["coeffs"] == (1,) * 9
    assert values["n"] == 23 and values["qmax"] == 77 and values["only"] is None
    assert RunConfig(**values) == RunConfig(subcommand="series", coeffs=(1,) * 9, n=23, qmax=77)
    code, data = run_to_file(tmp_path, ["validate", "--config", str(cfg)])
    assert code == 0 and json.loads(data)["coeffs"] == [1] * 9


def test_option_parsers_return_checked_values():
    assert cli.nine_ints("1, 2,3,4,5,6,7,8,-9") == (1, 2, 3, 4, 5, 6, 7, 8, -9)
    assert cli.coefficient_grid(";1,1,1,1,1,1,1,1,1;") == ((1,) * 9,)
    assert cli.check_names(" arc_dissection ,") == ("arc_dissection",)
    assert cli.check_names(",") == ()  # selects no check
    assert cli.check_names("") is None  # selects every check, as no value does
    for parse, text in [(cli.nine_ints, "1,2"), (cli.nine_ints, "1,x"),
                        (cli.coefficient_grid, " ; "), (cli.check_names, "nope")]:
        with pytest.raises(argparse.ArgumentTypeError):
            parse(text)


@pytest.mark.parametrize(
    "line, reason",
    [
        ("grid=1,x", "bad value for grid: bad integer list '1,x'"),
        ("grid=;", "bad value for grid: empty coefficient grid"),
        ("only=nope", "bad value for only: unknown checks: nope"),
        ("coeffs=1,1,1,1,1,1,1,1", "bad value for coeffs: needs 9 integers, got 8"),
    ],
    ids=["grid", "empty_grid", "only", "coeffs"],
)
def test_config_file_values_checked_when_read(tmp_path, capsys, line, reason):
    # refused when the file is read, even for a subcommand that has no
    # such option (series takes neither grid nor only)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"coeffs=1,1,1,1,1,1,1,1,1\nn=23\nqmax=10\n{line}\n")
    assert run(["series", "--config", str(cfg)]) == 64
    assert f"bad.cfg:4: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, reason",
    [
        (["selftest", "--only", "arc_dissection,nope"], "argument --only: unknown checks: nope"),
        (["thresholds", "--grid", "1,1,1,1,1,1,1,1,1;1,1,1,1,1,1,1,1", "--n-lo", "1",
          "--n-hi", "9"], "argument --grid: needs 9 integers, got 8 in '1,1,1,1,1,1,1,1'"),
        (["thresholds", "--grid", " ; ", "--n-lo", "1", "--n-hi", "9"],
         "argument --grid: empty coefficient grid"),
        (["validate", "--coeffs", "1,2", "--n", "5"], "argument --coeffs: needs 9 integers, got 2"),
    ],
    ids=["unknown_check", "grid_count", "empty_grid", "coeffs_count"],
)
def test_flag_values_keep_their_reason(capsys, args, reason):
    assert run(args) == 64
    assert reason in capsys.readouterr().err


def test_library_has_no_assert_guards():
    # python -O strips assert statements; every guard in the library is a
    # typed error that the CLI maps onto its exit codes
    found = []
    for path in sorted(Path(ninecubes.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
