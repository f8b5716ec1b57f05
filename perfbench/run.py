#!/usr/bin/env python3
"""The hipm benchmark: seeded CLI workloads, checked reports, per-layer traces.

    python3 perfbench/run.py --workload search|construct|erosion|all \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has `src/hipm`.  Each workload is one
closed-loop client in one single-threaded process: it writes the seeded input
files, then issues every operation as an in-process `hipm.cli.main([...])`
call with a cold functor cache, checks every report (see gate.py) and aborts
with exit code 1 on any mismatch.  A run makes whole passes over the
workload's fixed instance set; the pass count is fixed by `--seconds` and the
pass duration in PASS_SECONDS, so every run of a seed does the same work.
Times are rescaled to a reference host speed (speed.py); the plain wall
times are printed beside them.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of one traced pass (spans.py),
measured after one untraced pass that gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
LAYERS = HERE / "layers.json"

WORKLOADS = ("search", "construct", "erosion")
# nominal seconds of one pass over each instance set on the 2-core x86 VM the
# benchmark was tuned on; they only set the pass count
PASS_SECONDS = {"search": 10.5, "construct": 5.4, "erosion": 1.8}
SETUP_SAMPLES = 15
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment() -> None:
    """HINT_BUDGET silently overrides --budget in the CLI, and BLAS would
    start threads; neither may leak into a run."""
    os.environ.pop("HINT_BUDGET", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"


def measure_setup(speed) -> list:
    """(wall, reference-speed) times of fresh interpreters that only
    `import hipm.cli`; one untimed run first compiles the bytecode a user's
    install already has."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import hipm.cli"]
    subprocess.run(cmd, env=env, check=True)
    return [speed.timed(subprocess.run, cmd, env=env, check=True)[1:]
            for _ in range(SETUP_SAMPLES)]


def tail(latencies: list) -> tuple:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond)."""
    xs = sorted(latencies)
    n = len(xs)
    beyond = min(10, n - 1)
    return xs[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


class Client:
    """The closed-loop client: one operation at a time, each checked."""

    def __init__(self, ops, speed, tracer=None):
        from hipm import cli
        from hipm.functors import clear_cache
        import gate

        self.ops, self.speed, self.tracer = ops, speed, tracer
        self._cli, self._clear, self._gate = cli, clear_cache, gate
        # per operation, one latency per pass at the reference speed, and raw
        self.samples = [[] for _ in ops]
        self.raw = [[] for _ in ops]
        self.attempted, self.failed, self.reports = 0, 0, []

    def _main(self, argv) -> int:
        try:
            if self.tracer is not None:
                return self.tracer.root("cli.main", self._cli.main, argv)
            return self._cli.main(argv)
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            return 1

    def call(self, op) -> tuple:
        """One checked operation: (wall seconds, seconds at the reference speed)."""
        self._clear()
        gc.collect()
        op.report.unlink(missing_ok=True)
        code, dt, scaled = self.speed.timed(self._main, op.argv)
        decided = self._gate.check(op, code)
        self.attempted += 1
        self.failed += not decided
        if self.tracer is not None and op.report.exists():
            with open(op.report) as fh:
                self.reports.append(json.load(fh))
        return dt, scaled

    def run(self, passes: int) -> None:
        for _ in range(passes):
            for i, op in enumerate(self.ops):
                dt, scaled = self.call(op)
                self.raw[i].append(dt)
                self.samples[i].append(scaled)

    def op_latencies(self, wall: bool = False) -> list:
        """Each operation's median latency over the passes."""
        return [statistics.median(s) for s in (self.raw if wall else self.samples)]

    def instances_per_s(self, wall: bool = False) -> float:
        return len(self.ops) / sum(self.op_latencies(wall))


def environment(workload: str, budget: int, args, passes: int) -> dict:
    import numpy

    return {"workload": workload, "seed": args.seed, "budget": budget, "passes": passes,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "HINT_BUDGET": "unset",
            **{var: os.environ[var] for var in THREAD_VARS}}


def end_to_end(client: Client, setup: list, passes: int) -> dict:
    """Times at the reference speed (speed.py), each followed in its note by
    the plain wall time.  Latencies are per operation, each the median of its
    `passes` samples."""
    lat, wall = client.op_latencies(), client.op_latencies(wall=True)
    value, pct, beyond = tail(lat)
    return {
        "setup_s": (statistics.median(s for _, s in setup), "s",
                    f"median of {len(setup)} fresh `import hipm.cli` processes; wall "
                    f"{statistics.median(w for w, _ in setup):.4g} s"),
        "instances_per_s": (client.instances_per_s(), "1/s",
                            f"{len(lat)} operations / {sum(lat):.3f} s in cli.main, "
                            f"median of {passes} passes; wall "
                            f"{client.instances_per_s(wall=True):.4g} 1/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms",
                           f"n={len(lat)}; wall {1000 * statistics.median(wall):.4g} ms"),
        "latency_tail_ms": (1000 * value, "ms",
                            f"p{pct:.1f}, n={len(lat)}, {beyond} samples beyond; wall "
                            f"{1000 * tail(wall)[0]:.4g} ms"),
        "failed_share": (client.failed / client.attempted, "ratio",
                         f"{client.failed} of {client.attempted} undecided or invalid"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "ru_maxrss of the workload process"),
    }


def print_metrics(metrics: dict, layers: dict) -> None:
    for name, (value, unit, base) in metrics.items():
        moves = layers.get(name, {}).get("moves")
        line = f"{name} {value:.6g} {unit}"
        if base:
            line += f"  [{base}]"
        if moves:
            line += f"  -> {moves}"
        print(line)


def run_workload(args) -> int:
    import gate
    import pool
    import spans
    from speed import Speedometer

    name = args.workload
    workload = pool.load_pool()[name]
    with open(LAYERS) as fh:
        layers = json.load(fh)
    passes = max(1, round(args.seconds / PASS_SECONDS[name]))
    env = environment(name, workload["budget"], args, passes)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    speed = Speedometer()
    setup = measure_setup(speed) if not args.trace else []

    workdir = WORK / f"{name}-seed{args.seed}-pid{os.getpid()}"
    try:
        ops = pool.build_ops(workload, args.seed, workdir)
        warm = min(ops, key=lambda op: sum(p.stat().st_size for p in op.files.values()))
        client = Client(ops, speed)
        try:
            client.call(warm)  # first-call costs inside one process, not timed below
            gc.freeze()  # the per-call collections then skip the benchmark's own objects
            client = Client(ops, speed)
            if not args.trace:
                client.run(passes)
                metrics = end_to_end(client, setup, passes)
            else:
                client.run(1)
                tracer = spans.Tracer()
                traced = Client(ops, speed, tracer)
                tracer.install()
                try:
                    traced.run(1)
                finally:
                    tracer.uninstall()
                tracer.dump(WORK / f"{name}-seed{args.seed}-spans.json")
                metrics = spans.per_layer(tracer.spans, traced.reports)
                metrics["trace.overhead_ratio"] = (
                    client.instances_per_s() / traced.instances_per_s(), "ratio",
                    f"untraced {client.instances_per_s():.4g} / traced "
                    f"{traced.instances_per_s():.4g} instances_per_s")
                client.attempted += traced.attempted
                client.failed += traced.failed
        except gate.GateError as e:
            print(f"correctness mismatch: {e}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(1, client.attempted),
                              "failed": client.failed, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_metrics(metrics, layers)
    if args.trace:
        share = metrics["split.search_share"][0]
        build = metrics["split.build_share"][0]
        print(f"# split: {100 * share:.1f}% of traced time in the candidate loop and exactlin "
              f"under it; {100 * build:.1f}% in functors + kan + pmod")
    result = {"env": env, "metrics": {k: {"value": v, "unit": u, "base": b}
                                      for k, (v, u, b) in metrics.items()},
              "latencies_s": {op.report.stem: s for op, s in zip(client.ops, client.samples)},
              "wall_latencies_s": {op.report.stem: s for op, s in zip(client.ops, client.raw)},
              "reference_loop_s": speed.readings, "setup_samples_s": setup}
    with open(WORK / f"{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    wanted = [m for m, spec in layers.items() if spec["kind"] == ("per_layer" if args.trace
                                                                    else "end_to_end")]
    print(json.dumps({
        "correct": True, "attempted": client.attempted, "failed": client.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary, status = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        status = status or proc.returncode
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, val in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(summary))
    return status or (0 if summary["correct"] else 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hipm" / "__init__.py").is_file():
        print(f"no hipm sources at {SRC}: run inside a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_environment()
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
