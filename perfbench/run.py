"""bccrates benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload frontiers --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src``
(no build step, so the NumPy sweep), with BLAS threads capped at one.  All
operations run in this process; only the set-up is repeated in four fresh
processes, beside a reference start-up, to time it.  The run repeats whole
rounds of the workload's operations, stopping at the round boundary nearest
to ``--seconds``, checks every output, and prints each metric with its
unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced rounds and reports the per-layer
metrics of the traced rounds and the tracing overhead.  Results and spans
are written under ``perfbench/out/``.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is mostly imports, which a process does once, so it is timed in
# fresh processes too.  On a 2-core VM single set-up times spread 0.09-0.66
# (interquartile range over median) over ten-run sets, medians of five
# 0.05-0.41.
SETUP_SAMPLES = 5  # this process plus four fresh ones
# The median set-up time drifted by up to 28% between ten-run sets made
# back to back, with the host, while the calibration kernel moved 6-13%.
# So set-up is scaled by a fresh interpreter importing NumPy, timed before
# each fresh set-up: the same kind of cold-start work, none of it the
# program's.  setup_s reads seconds on a host where that takes SETUP_REF_S.
SETUP_REF_CMD = (sys.executable, "-c", "import numpy")
SETUP_REF_S = 0.2
# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {section: {m["name"]: m["unit"] for m in SPEC[section]}
         for section in ("end_to_end", "per_layer")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (timed in fresh processes)")
    return parser.parse_args(argv)


def load_package():
    """Import bccrates from this checkout's ``src``; refuse anything else."""
    if not (SRC / "bccrates" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no bccrates sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    pkg = importlib.import_module("bccrates")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"benchmark: bccrates imported from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"bccrates.{name}")
            for name in ("channels", "cli", "simulate")}
    return types.SimpleNamespace(pkg=pkg, **mods)


def setup_samples(args, first: float) -> tuple[list[float], list[float]]:
    """Set-up time of this process and of fresh processes doing the same
    set-up, and the time of the reference start-up before each of those."""
    samples, refs = [first], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        start = time.perf_counter()
        subprocess.run(SETUP_REF_CMD, cwd=ROOT, capture_output=True, timeout=170, check=True)
        refs.append(time.perf_counter() - start)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                              check=True)
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples, refs


def per_layer(bench, tracer) -> dict:
    traced = [r for r in bench.rounds if r["traced"]]
    plain = [r for r in bench.rounds if not r["traced"]]
    n = len(traced)
    counts = dict(tracer.counts)
    for r in traced:
        for key, value in r["counts"].items():
            counts[key] = counts.get(key, 0.0) + value
    self_times = tracer.self_times()
    out = {}
    for name in UNITS["per_layer"]:
        if name.endswith(".self_s"):
            out[name] = self_times.get(name[:-len(".self_s")], 0.0) / n
        else:
            out[name] = counts.get(name, 0.0) / n
    checks = counts.get("checks", 0.0)
    trials = counts.get("trials", 0.0)
    roots = {op: name for name, _, _, parent, op in tracer.spans if parent == -1}
    in_checks = sum(1 for name, _, _, _, op in tracer.spans
                    if name == "chain.informations" and roots[op] == "op.checks")
    out["chain.informations.calls_per_check"] = in_checks / checks if checks else 0.0
    out["simulate.exact_share"] = counts.get("trials_exact", 0.0) / trials if trials else 0.0
    out["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                   / statistics.median(r["wall_s"] for r in plain))
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    bc = load_package()
    import tracer as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    work = workloads.Workload(args.workload, bc, args.seed, OUT)
    work.warm_up()
    setup_s = time.perf_counter() - SETUP_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    work.prepare_references()
    tracer = tracing.Tracer()
    bench = workloads.Bench(tracer)
    start = time.perf_counter()
    r = 0
    while True:
        traced = bool(args.trace) and r % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        bench.begin_round(traced)
        try:
            work.round(bench, r)
        finally:
            bench.end_round()
            tracer.uninstall()
        r += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= args.seconds and (not args.trace or r >= 2):
            break
    work.finish(bench)

    setups, setup_refs = ([], []) if args.trace else setup_samples(args, setup_s)
    if args.trace:
        values = per_layer(bench, tracer)
    else:
        values = bench.metrics()
        values["setup_s"] = (statistics.median(setups) * SETUP_REF_S
                             / statistics.median(setup_refs))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = UNITS["per_layer" if args.trace else "end_to_end"]
    if set(values) != set(units):
        raise SystemExit(f"benchmark: measured {sorted(values)}, declared {sorted(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    backend = getattr(bc.pkg, "ACTIVE_BACKEND", "python (no backend switch)")
    correct = not bench.check_failures
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "backend": backend, "rounds": len(bench.rounds),
                   "round_wall_s": [r["wall_s"] for r in bench.rounds],
                   "raw_metrics": bench.metrics(scaled=False),
                   "summary": bench.summary(),
                   "samples": [r["samples"] for r in bench.rounds],
                   "calibration": [r["calibration"] for r in bench.rounds],
                   "setup_samples_s": setups, "setup_reference_s": setup_refs,
                   "checks": bench.checks,
                   "check_failures": bench.check_failures,
                   "op_failures": bench.op_failures,
                   "untraced_layers": tracer.missing}, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"trace-{stem}.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  backend {backend}  "
          f"rounds {len(bench.rounds)}  checks {bench.checks}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']}")
    print(f"  attempted {bench.attempted}, failed {bench.failed}, "
          f"check failures {len(bench.check_failures)}")
    for line in bench.op_failures[:3] + bench.check_failures[:20]:
        print(f"  ! {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
