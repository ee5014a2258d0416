"""Command-line interface with deterministic JSON and CSV reports.

Every run is described by a RunConfig, whose fields are the options.
COMMANDS lists each subcommand's runner and options; each option comes
from its flag, else the flat key=value config file (--config), else the
subcommand's default.  Each option has one parser, shared by flag and
file, which returns the checked value the runner uses.
Serialization is canonical: object keys sorted, floats printed at 12
significant digits, so identical configs produce byte-identical output.

Exit codes: 0 success, 1 validation failure, 2 resource or cap error,
3 numeric-integrity error, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import arcs, expsum, localdata, search, selftest, singular
from .errors import DomainError, NumericIntegrityError, ResourceLimitError
from .localdata import CoefficientSystem

USAGE_EXIT = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); keep code 64
        raise UsageError(message)


def nine_ints(text: str) -> tuple[int, ...]:
    """Nine comma-separated integers: one coefficient system."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}: {exc}") from exc
    if len(values) != 9:
        raise argparse.ArgumentTypeError(f"needs 9 integers, got {len(values)} in {text!r}")
    return values


def coefficient_grid(text: str) -> tuple[tuple[int, ...], ...]:
    """Semicolon-separated coefficient systems; empty parts are skipped."""
    grid = tuple(nine_ints(part.strip()) for part in text.split(";") if part.strip())
    if not grid:
        raise argparse.ArgumentTypeError("empty coefficient grid")
    return grid


def check_names(text: str) -> tuple[str, ...] | None:
    """Comma-separated selftest check names; empty text selects every check."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    unknown = [name for name in names if name not in dict(selftest.CHECKS)]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown checks: {', '.join(unknown)}")
    return names if text else None


def output_format(text: str) -> str:
    if text not in ("json", "csv"):
        raise ValueError(f"expected json or csv, got {text!r}")
    return text


def _option(parse, help: str, default=None, metavar: str | None = None):
    """A RunConfig field that is also a flag and a config-file key."""
    return dataclasses.field(
        default=default, metadata={"parse": parse, "help": help, "metavar": metavar}
    )


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: the subcommand and its checked option values.

    Every field but subcommand is an option: its metadata holds the parser
    for flag and config-file values, the --help text and the --help metavar
    (None: argparse's default, the upper-cased name).
    """

    subcommand: str
    coeffs: tuple[int, ...] | None = _option(nine_ints, "nine comma-separated nonzero integers")
    n: int | None = _option(int, "target value", metavar="TARGET")
    M: int | None = _option(int, "window lower bound (exclusive)")
    N: int | None = _option(int, "window upper bound (inclusive)", metavar="BOUND")
    q: int | None = _option(int, "modulus for the local report")
    qmax: int | None = _option(int, "series cutoff")
    prime_bound: int | None = _option(int, "largest prime tried")
    grid_step: float | None = _option(float, "scan grid spacing")
    epsilon: float | None = _option(float, "arc exponent offset")
    c: float | None = _option(float, "log exponent in the arc parameter Q")
    D: int | None = _option(int, "coefficient bound for the dissection")
    grid: tuple[tuple[int, ...], ...] | None = _option(
        coefficient_grid, "semicolon-separated coefficient systems"
    )
    n_lo: int | None = _option(int, "scan range start")
    n_hi: int | None = _option(int, "scan range end")
    only: tuple[str, ...] | None = _option(check_names, "comma-separated selftest check names")
    seed: int | None = _option(int, "seed for randomized checks")
    threads: int | None = _option(int, "worker threads for the selftest")
    out: str | None = _option(str, "write output to this file instead of stdout")
    format: str = _option(output_format, "output format: json or csv", "json")


OPTIONS = {f.name: f.metadata for f in dataclasses.fields(RunConfig) if f.metadata}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _open(path: str, purpose: str, *args, **kwargs):
    """open(), with a missing or unwritable path reported as a usage error."""
    try:
        return open(path, *args, **kwargs)
    except OSError as exc:
        raise UsageError(f"cannot {purpose}: {exc}") from exc


def parse_config_file(path: str) -> dict:
    """Flat key=value pairs; blank lines and #-comments ignored."""
    values: dict = {}
    with _open(path, "read config file", "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key == "subcommand":  # older saved configs carry it; the command line decides
                values[key] = value.strip()
                continue
            if key not in OPTIONS:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = OPTIONS[key]["parse"](value.strip())
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _json_ready(obj):
    """Recursively convert report objects to JSON-serializable structures."""
    if obj is None or isinstance(obj, (str, int)):  # bool is an int
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _json_ready(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (float, Fraction)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit(report, config: RunConfig) -> bytes:
    """Canonical bytes for a report: sorted-key JSON or the subcommand's CSV table."""
    if config.format == "json":
        payload = _json_ready(report)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return text.encode("utf-8")
    table = COMMANDS[config.subcommand].csv(report)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(map(_json_ready, row) for row in table)
    return buf.getvalue().encode("utf-8")


def _require(config: RunConfig, *names: str):
    missing = [name for name in names if getattr(config, name) is None]
    if missing:
        raise UsageError(
            f"{config.subcommand}: missing required option(s): "
            + ", ".join(_flag(name) for name in missing)
        )


def _valid_system(config: RunConfig) -> CoefficientSystem:
    system = CoefficientSystem.make(config.coeffs, config.n)
    problems = system.violations()
    # parity has an escape clause (a slot value of 2 repairs it when the
    # window admits 2), so it only warns; the other conditions are hard
    hard = [p for p in problems if p != localdata.PARITY_VIOLATION]
    if hard:
        raise DomainError("invalid coefficient system: " + "; ".join(hard))
    if localdata.PARITY_VIOLATION in problems:
        sys.stderr.write(f"warning: {localdata.PARITY_VIOLATION}\n")
    return system


def _run_validate(config: RunConfig):
    system = CoefficientSystem.make(config.coeffs, config.n)
    problems = system.violations()
    report = {
        "coeffs": system.a,
        "n": system.n,
        "valid": not problems,
        "violations": problems,
        "D": system.size_bound,
    }
    return report, (0 if not problems else 1)


def _run_local(config: RunConfig):
    system = _valid_system(config)
    return localdata.local_data(config.q, system), 0


def _run_series(config: RunConfig):
    system = _valid_system(config)
    return singular.singular_series_partial(system, config.qmax), 0


def _series_csv(report: singular.SeriesReport):
    return [("q", "term")] + [(q, t) for q, t in report.terms]


def _run_integral(config: RunConfig):
    system = _valid_system(config)
    return singular.singular_integral(system, config.M, config.N), 0


def _run_rn(config: RunConfig):
    system = _valid_system(config)
    return expsum.rn_report(system, config.M, config.N, config.qmax), 0


def _run_arcs(config: RunConfig):
    return arcs.build_dissection(config.N, config.D, config.epsilon, config.c), 0


def _run_scan_minor(config: RunConfig):
    system = _valid_system(config)
    dis = arcs.build_dissection(config.N, system.size_bound, config.epsilon, config.c)
    return expsum.minor_arc_sup(system, dis, config.M, config.N, config.grid_step), 0


def _run_search(config: RunConfig):
    system = _valid_system(config)
    window = None
    if config.M is not None or config.N is not None:
        _require(config, "M", "N")
        window = (config.M, config.N)
    result = search.find_solution(system, config.prime_bound, window)
    # the result's own fields, its system as coeffs and n; the window is the command line's
    fields = {k: v for k, v in vars(result).items() if k not in ("system", "window")}
    found = isinstance(result, search.SolutionRecord)
    return {"found": found, "coeffs": system.a, "n": system.n, **fields}, 0


def _run_thresholds(config: RunConfig):
    n_range = range(config.n_lo, config.n_hi + 1)
    return search.threshold_scan(config.grid, n_range, config.prime_bound), 0


def _thresholds_csv(rows: list[search.ThresholdRow]):
    head = [("coeffs", "n", "found", "max_p", "n_cuberoot", "D")]
    return head + [
        (" ".join(str(c) for c in row.coeffs), row.n, row.found, row.max_p, row.n_cuberoot, row.D)
        for row in rows
    ]


def _run_selftest(config: RunConfig):
    names = None if config.only is None else list(config.only)
    results = selftest.run_all(names, threads=config.threads, seed=config.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stderr.write(f"{status} {res.name} ({res.elapsed:.2f}s): {res.detail}\n")
    code = 0 if all(r.passed for r in results) else 1
    # elapsed stays off the report so identical configs emit identical bytes
    report = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    return report, code


def _selftest_csv(report: list[dict]):
    return [("name", "passed", "detail")] + [(r["name"], r["passed"], r["detail"]) for r in report]


REQUIRED = object()  # option default meaning "the subcommand needs this option"


@dataclass(frozen=True)
class Command:
    """A subcommand: its runner and its options, each mapped to a default.

    The default is REQUIRED, None (optional, no default), or a value.
    --config, --out and --format are added to every subcommand.  csv turns
    the runner's report into rows, header first; None means the report has
    no tabular form and --format csv is a usage error.
    """

    runner: Callable[[RunConfig], tuple[object, int]]
    options: dict[str, object]
    csv: Callable[[object], list[tuple]] | None = None


_SYSTEM = {"coeffs": REQUIRED, "n": REQUIRED}
_WINDOW = {"M": REQUIRED, "N": REQUIRED}
_ARC_SHAPE = {"epsilon": 0.01, "c": 1.0}

COMMANDS = {
    "validate": Command(_run_validate, _SYSTEM),
    "local": Command(_run_local, {**_SYSTEM, "q": REQUIRED}),
    "series": Command(_run_series, {**_SYSTEM, "qmax": singular.DEFINITION_ROUTE_MAX}, _series_csv),
    "integral": Command(_run_integral, {**_SYSTEM, **_WINDOW}),
    "rn": Command(_run_rn, {**_SYSTEM, **_WINDOW, "qmax": singular.DEFINITION_ROUTE_MAX}),
    "arcs": Command(_run_arcs, {"N": REQUIRED, "D": 2, **_ARC_SHAPE}),
    "scan-minor": Command(_run_scan_minor, {**_SYSTEM, **_WINDOW, **_ARC_SHAPE, "grid_step": 1e-3}),
    "search": Command(_run_search, {**_SYSTEM, "M": None, "N": None, "prime_bound": 10**4}),
    "thresholds": Command(
        _run_thresholds,
        {"grid": REQUIRED, "n_lo": REQUIRED, "n_hi": REQUIRED, "prime_bound": 100},
        _thresholds_csv,
    ),
    "selftest": Command(
        _run_selftest,
        {"only": None, "seed": selftest.DEFAULT_SEED, "threads": os.cpu_count() or 1},
        _selftest_csv,
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ninecubes",
        description="Windowed prime-cube representation counts and their local predictions.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, add_help=True)
        for option in (*command.options, "out", "format"):
            meta = OPTIONS[option]
            p.add_argument(
                _flag(option), dest=option, type=meta["parse"], help=meta["help"],
                metavar=meta["metavar"],
            )
        p.add_argument("--config", help="key=value config file; flags override")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """Each option from its flag, else the config file, else the subcommand default."""
    file_values = parse_config_file(args.config) if args.config else {}
    defaults = COMMANDS[args.subcommand].options
    values: dict = {"subcommand": args.subcommand}
    for name in OPTIONS:
        value = getattr(args, name, None)
        if value is None:
            value = file_values.get(name, defaults.get(name))
        if value is not None and value is not REQUIRED:
            values[name] = value
    config = RunConfig(**values)
    _require(config, *(name for name, default in defaults.items() if default is REQUIRED))
    if config.format == "csv" and COMMANDS[args.subcommand].csv is None:
        raise UsageError(f"csv output is not defined for {config.subcommand}; use json")
    return config


def run(argv: list[str] | None = None) -> int:
    """Dispatch one CLI invocation and return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise UsageError("missing subcommand; expected one of " + ", ".join(COMMANDS))
        config = _merge_config(args)
        report, code = COMMANDS[config.subcommand].runner(config)
        payload = emit(report, config)
        if config.out:
            with _open(config.out, "write output file", "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.flush()
        return code
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return code if isinstance(code, int) else 0
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_EXIT
    except DomainError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return 2
    except NumericIntegrityError as exc:
        sys.stderr.write(f"numeric-integrity error: {exc}\n")
        return 3


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))
