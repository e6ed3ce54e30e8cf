"""Benchmark of prunekit's prune-and-retrain cycle; see perfbench/README.md.

    python3 perfbench/run.py                 # every workload untraced, tuning + held-out seed
    python3 perfbench/run.py --trace 1       # every workload traced: per-layer metrics
    python3 perfbench/run.py --workload desk-pipeline --seed 3 --seconds 36 --trace 0

Run from the repository root.  A single-workload run prints a summary and,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics untraced, the per-layer
metrics traced).  Without ``--workload`` each workload runs in its own
fresh process and the results are tabulated.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import envinfo  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", "_work")
RESULTS = os.path.join(WORK, "results")

WORKLOAD_NAMES = ("desk-pipeline", "cifar-train-resnet56", "prune-sweep-preresnet164")
RUN_SECONDS = 36
TUNING_SEED = 0
# Never used while the benchmark was tuned: later claims are checked on it.
HOLDOUT_SEED = 104729
CHILD_TIMEOUT_S = 600

# end-to-end metrics every workload reports untraced: name -> unit
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "samples_per_s": "1/s",
              "peak_rss_mib": "MiB"}


def process_age() -> float:
    """Seconds since this process started (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_AGE_AT_START = process_age()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload in this process (default: all, each in a child)")
    p.add_argument("--seed", type=int, default=TUNING_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_prunekit():
    """Import the checkout's own prunekit from src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "prunekit", "__init__.py")):
        sys.exit(f"perfbench: no prunekit source at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import prunekit
    if not os.path.abspath(prunekit.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported prunekit from {prunekit.__file__}, not {SRC}")


def result_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")


def print_summary(name, seed, trace, env, out) -> None:
    print(f"perfbench {name} seed={seed} trace={trace}")
    print(envinfo.format_environment(env))
    if out.determinism:
        print(f"determinism: {json.dumps(out.determinism, sort_keys=True)}")
    print(f"{'metric':<28}{'value':>16}  {'unit':<9}n")
    for metric, r in out.reported.items():
        extra = f" ({r['above']} above)" if "above" in r else ""
        print(f"{metric:<28}{r['value']:>16.4f}  {r['unit']:<9}{r['n']}{extra}")
    for metric, value in out.layers.items():
        print(f"{metric:<28}{value:>16.4f}")
    bad = [c for c in out.checks if not c[1]]
    print(f"checks: {len(out.checks) - len(bad)}/{len(out.checks)} passed")
    for name_, _, detail in bad:
        print(f"  FAILED {name_}: {detail}")


def run_one(args) -> int:
    envinfo.pin_blas_threads()
    import_prunekit()
    import tracing
    import workloads
    import_s = _AGE_AT_START + time.perf_counter() - _T0

    env = envinfo.environment()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(RESULTS, exist_ok=True)
    try:
        out, tracer = workloads.run_workload(args.workload, args.seed, args.seconds,
                                             bool(args.trace), workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = out.failed == 0 and out.attempted > 0
    profile = tracer.profile()
    with open(result_path(args.workload, args.seed, args.trace), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "environment": env, "correct": correct,
                   "attempted": out.attempted, "failed": out.failed,
                   "reported": out.reported, "contract": out.contract,
                   "layers": out.layers, "profile": profile,
                   "determinism": out.determinism, "checks": out.checks,
                   "samples": out.samples}, f, indent=1)
    if args.trace:
        tracer.write(result_path(args.workload, args.seed, args.trace)[:-5] + ".spans.jsonl")

    print_summary(args.workload, args.seed, args.trace, env, out)
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k]}
                   for k, v in out.layers.items()}
    else:
        metrics = {k: {"value": out.contract.get(k), "unit": unit}
                   for k, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_suite(args) -> int:
    """Every workload in a fresh child process, on the given and the held-out seed."""
    seeds = (args.seed, HOLDOUT_SEED)
    table: dict[str, dict[int, dict]] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for seed in seeds:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            path = result_path(name, seed, args.trace)
            if os.path.exists(path):
                os.remove(path)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            if not os.path.exists(path):
                continue
            with open(path) as f:
                table.setdefault(name, {})[seed] = json.load(f)
    for name, by_seed in table.items():
        first = next(iter(by_seed.values()))
        work = "fixed work" if args.trace else f"{args.seconds:g} s per run"
        print(f"\n== {name} (trace={args.trace}, {work})")
        print(envinfo.format_environment(first["environment"]))
        for seed, res in by_seed.items():
            verdict = "correct" if res["correct"] else "INCORRECT"
            print(f"seed {seed}: {verdict}, {res['failed']}/{res['attempted']} failed; "
                  f"determinism {json.dumps(res['determinism'], sort_keys=True)}")
        head = "".join(f"{'seed ' + str(s):>18}" for s in by_seed)
        print(f"{'metric':<28}{head}  unit       n")
        rows = first["layers"] if args.trace else first["reported"]
        for metric in rows:
            if args.trace:
                vals = "".join(f"{r['layers'][metric]:>18.4f}" for r in by_seed.values())
                print(f"{metric:<28}{vals}")
            else:
                vals = "".join(f"{r['reported'][metric]['value']:>18.4f}"
                               for r in by_seed.values())
                counts = "/".join(str(r["reported"][metric]["n"]) for r in by_seed.values())
                print(f"{metric:<28}{vals}  {first['reported'][metric]['unit']:<9}{counts}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
