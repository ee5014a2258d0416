"""Benchmark of the ninecubes pipeline: one client, closed loop, one process.

    python3 bench/run.py --workload local-series --seed 1 --seconds 25 --trace 0

Run from a checkout: the library is imported from its `src/` directory.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones, measured untraced; with `--trace 1` they are the per-layer ones
from a traced run, whose spans and per-op-kind counters are written to
bench/out/.  See bench/README.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5  # this process plus four set-up-only children
CHILD_TIMEOUT = 170
# Median of calibrate() on the reference machine (2-core Xeon).  Its CPU
# runs the same code up to 40% slower or faster for seconds at a time, so
# every time reported is scaled to this speed: multiplied by
# CALIBRATION_S / (time of calibrate() measured next to it).
CALIBRATION_S = 0.020


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("local-series", "window-count", "search"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--check-file", help=argparse.SUPPRESS)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the reference for its seed")
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, FFT and sort work.

    It uses no library code and runs with garbage collection off, so
    neither the library nor the objects it keeps alive can change it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    floats, ints = rng.random(1 << 13), rng.integers(0, 1 << 40, 1 << 14)
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for k in range(16000):
            acc += k * k % 7
        for _ in range(20):
            np.fft.rfft(floats)
        for _ in range(5):
            np.unique(ints)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile): the highest whole percentile with >= 10 samples above it."""
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


def end_to_end_metrics(run: dict, setup_s: list[float], key: str = "scaled") -> dict:
    """The end-to-end metrics from op times `key` ("scaled" or "latency")."""
    lat = [r[key] for r in run["ops"]]
    fresh = [r[key] for r in run["ops"] if r["fresh"]]
    repeat = [r[key] for r in run["ops"] if not r["fresh"]]
    tail_s, _ = tail(lat)
    values = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_s, "s"),
        "fresh_p50_s": (statistics.median(fresh), "s"),
        "repeat_p50_s": (statistics.median(repeat), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer_metrics(tracer, overhead_frac: float, scale: dict[int, float]) -> dict:
    """The per-layer metrics; span times of op i are multiplied by scale[i]."""
    import spans

    out = {}
    times = tracer.times(scale)
    for name in spans.TRACED:
        busy, self_s = times.get(name, (0.0, 0.0))
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    tot = tracer.totals()
    for name in spans.CACHED:
        hits, misses = tot[name + ".hits"], tot[name + ".misses"]
        out[f"{name}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for key in ("convolve.convolve_read.cells", "convolve.convolve_full.cells", "expsum.fourier_len",
                "expsum.minor_arc_sup.points_minor", "expsum.r_negative",
                "search.find_solution.states_visited"):
        out[key] = (int(tot[key]), "count")
    found = tot["search.find_solution.found"]
    out["search.find_solution.lex_ratio"] = (
        tot["search.find_solution.lex"] / found if found else 0.0, "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def load_library():
    if not os.path.isfile(os.path.join(SRC, "ninecubes", "__init__.py")):
        sys.exit(f"bench: no ninecubes package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import ninecubes
    import ninecubes.arcs
    import ninecubes.arith
    import ninecubes.characters
    import ninecubes.convolve
    import ninecubes.expsum
    import ninecubes.localdata
    import ninecubes.search
    import ninecubes.singular

    return ninecubes


def execute(args, tracer=None, n_rounds: int | None = None) -> dict:
    """Set up, run rounds of ops, and return latencies and output summaries.

    n_rounds defaults to --seconds at the workload's nominal round length.
    """
    nc = load_library()
    import workloads

    if tracer is not None:
        tracer.install(nc)
    if n_rounds is None:
        n_rounds = workloads.rounds_for(args.workload, args.seconds)
    rounds = workloads.generate(args.workload, args.seed, n_rounds)
    for spec in workloads.WARMUP:
        workloads.call(nc, spec["kind"], workloads.prepare(nc, spec))
    if tracer is not None:
        tracer.end()
    setup_s = time.perf_counter() - _T0
    cals = [calibrate() for _ in range(3)]
    setup_scale = CALIBRATION_S / statistics.median(cals)
    if args.setup_only:
        rounds = []

    ops, timed, before = [], 0.0, cals[-1]
    for r, specs in enumerate(rounds):
        if timed > 3 * args.seconds:
            break  # far slower than nominal: stop early to stay within time limits
        for spec in specs:
            index = len(ops)
            call_args = workloads.prepare(nc, spec)
            if tracer is not None:
                tracer.begin(index, spec["kind"])
            error = None
            start = time.perf_counter()
            try:
                out = workloads.call(nc, spec["kind"], call_args)
            except Exception:  # a failing op is counted, not fatal
                error = traceback.format_exc(limit=3)
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.end()
            del call_args
            summary = None if error else workloads.summarize(spec, out)
            out = None
            after = calibrate()
            scale = CALIBRATION_S / ((before + after) / 2)
            before = after
            ops.append({"index": index, "round": r, "kind": spec["kind"], "fresh": spec["fresh"],
                        "latency": latency, "scaled": latency * scale, "scale": scale, "spec": spec,
                        "summary": summary, "error": error})
            timed += latency
    return {"setup_s": setup_s * setup_scale, "setup_raw_s": setup_s, "setup_scale": setup_scale,
            "timed_s": timed, "scaled_s": sum(o["scaled"] for o in ops),
            "rounds": len({o["round"] for o in ops}), "ops": ops}


def run_child(argv: list[str]) -> dict:
    """Run this script in a child process and return its last stdout line."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *argv, "--child"],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outputs(args, run: dict) -> dict:
    """Problems per op index, found in a child process (see check_file)."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-ops{'-trace' if args.trace else ''}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "ops": [{k: o[k] for k in ("index", "kind", "fresh", "latency", "scaled", "spec",
                                              "summary")}
                           for o in run["ops"] if o["summary"] is not None]}, fh)
    found = run_child(["--workload", args.workload, "--check-file", path])
    problems = {int(k): v for k, v in found.items()}
    for o in run["ops"]:
        if o["error"]:
            problems[o["index"]] = [o["error"]]
    return problems


def reference_path(workload: str, seed: int) -> str:
    return os.path.join(HERE, "reference", f"{workload}-seed{seed}.json")


def check_file(path: str) -> dict:
    import checks

    with open(path) as fh:
        data = json.load(fh)
    ref = {}
    ref_path = reference_path(data["workload"], data["seed"])
    if os.path.exists(ref_path):
        with open(ref_path) as fh:
            ref = {o["index"]: o for o in json.load(fh)["ops"]}
    problems = {}
    for o in data["ops"]:
        stored = ref.get(o["index"])
        if stored is not None and stored["spec"] != o["spec"]:
            found = ["input differs from the stored reference input; regenerate the reference"]
        else:
            found = checks.check(o["spec"], o["summary"], stored and stored["summary"])
        if found:
            problems[o["index"]] = found
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if args.check_file:
        print(json.dumps(check_file(args.check_file)))
        return 0
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    overhead_base = None
    if args.trace:
        # the same rounds untraced, in a fresh process, give the tracing overhead
        overhead_base = run_child(base + ["--seconds", str(args.seconds / 2)])
        import spans

        tracer = spans.Tracer()
        run = execute(args, tracer, n_rounds=overhead_base["rounds"])
    else:
        tracer = None
        run = execute(args)

    if args.setup_only:
        print(json.dumps({"setup_s": run["setup_s"]}))
        return 0
    problems = check_outputs(args, run)
    if args.child:
        print(json.dumps({"setup_s": run["setup_s"], "scaled_s": run["scaled_s"],
                          "rounds": run["rounds"], "attempted": len(run["ops"]),
                          "failed": len(problems)}))
        return 0
    if args.write_reference:
        os.makedirs(os.path.dirname(reference_path(args.workload, args.seed)), exist_ok=True)
        with open(reference_path(args.workload, args.seed), "w") as fh:
            json.dump({"ops": [{k: o[k] for k in ("index", "spec", "summary")} for o in run["ops"]
                               if o["index"] not in problems]}, fh, indent=0)

    env = environment()
    attempted, failed = len(run["ops"]), len(problems)
    lat = [o["latency"] for o in run["ops"]]
    tail_s, tail_p = tail(lat)
    if tracer is None:
        setups = [run["setup_s"]] + [
            run_child(base + ["--seconds", str(args.seconds), "--setup-only"])["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        metrics = end_to_end_metrics(run, setups)
    else:
        attempted += overhead_base["attempted"]
        failed += overhead_base["failed"]
        overhead = run["scaled_s"] / overhead_base["scaled_s"] - 1.0
        scale = {o["index"]: o["scale"] for o in run["ops"]}
        scale[-1] = run["setup_scale"]
        metrics = per_layer_metrics(tracer, overhead, scale)
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace.json"), "w") as fh:
            json.dump({"environment": env, "metrics": metrics,
                       "counters_by_kind": tracer.counters, "spans": tracer.dump()}, fh)

    for index, found in sorted(problems.items()):
        print(f"bench: op {index} ({run['ops'][index]['kind']}): {'; '.join(found)}", file=sys.stderr)
    unscaled = None
    if tracer is None:
        unscaled = {k: v["value"] for k, v in end_to_end_metrics(
            run, [run["setup_raw_s"]], key="latency").items()}
    print(json.dumps({"environment": env, "rounds": run["rounds"], "timed_s": run["timed_s"],
                      "fail_frac": failed / attempted, "tail_percentile": tail_p,
                      "tail_samples": len(lat), "unscaled": unscaled}), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
