#!/usr/bin/env python3
"""bswkb benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload bs-order2 --seed 1 --seconds 30 --trace 0

Run from the repository root; bswkb is imported from ``src/``.  One run sets
up (imports bswkb, builds the workload's models), makes an untimed warm-up
solve, then runs whole rounds of the workload until the next round would end
past ``--seconds`` (at least one round).  Outputs are checked against
independent references after the timed rounds.  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.

--trace 0 reports wall_s, setup_s and peak_rss_mb; --trace 1 installs the
span tracer and reports per-layer metrics, and writes the spans of the
first round to perfbench/out/.  See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread, set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return (time.clock_gettime(time.CLOCK_BOOTTIME)
                - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


def _setup(workload: str, seed: int):
    """Import bswkb from src/ and build the workload; the timed cold set-up."""
    src = ROOT / "src"
    if not (src / "bswkb" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bswkb package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import bswkb
    if Path(bswkb.__file__).resolve().parent != src / "bswkb":
        sys.exit(f"perfbench: imported bswkb from {bswkb.__file__}, not {src}")
    import workloads

    OUT.mkdir(exist_ok=True)
    return workloads, workloads.WORKLOADS[workload](seed, OUT)


def _rounds(wl, seconds: float, tracer=None):
    """Whole rounds until the next would end past `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        results = [case.run() for case in wl.cases]
        wall = time.perf_counter() - t0
        rounds.append({"wall_s": wall, "results": results,
                       "layers": tracer.layer_metrics() if tracer else None,
                       "trace": tracer.dump() if tracer and not rounds else None})
        if time.perf_counter() - start + wall > seconds:
            return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("bs-order2", "bs-order01", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads, wl = _setup(args.workload, args.seed)
    setup_s = _process_age()

    workloads.warm_up()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        rounds = _rounds(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()

    ops = sum(case.ops for case in wl.cases)
    failed = sum(res[0] for r in rounds for res in r["results"])
    failures = []
    for i, r in enumerate(rounds):
        failures += [f"round {i}: {msg}" for msg in wl.check([res[1] for res in r["results"]])]
    failures += [f"reference self-test: {msg}" for msg in workloads.ref.self_test()]
    for msg in failures:
        print(f"perfbench: CHECK FAILED {msg}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = statistics.median(r["wall_s"] for r in rounds)

    if args.trace:
        layers = {name: {"value": statistics.median(r["layers"][name][0] for r in rounds)
                         if rounds[0]["layers"][name][0] is not None else None,
                         "unit": unit}
                  for name, (_, unit) in rounds[0]["layers"].items()}
        metrics = {**layers, "trace.wall_s": {"value": wall_s, "unit": "s"}}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
             "round_wall_s": [r["wall_s"] for r in rounds], **rounds[0]["trace"]}))
        print(f"perfbench: spans written to {trace_file.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"round wall {[round(r['wall_s'], 3) for r in rounds]} s", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": ops * len(rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
