"""Benchmark of the bprlab pipeline, run from the root of a checkout:

    python3 perfbench/run.py --workload bpr-pointmass --seed 0 --seconds 36 --trace 0

Workloads: bpr-pointmass, ed-probe, bounds-sweep (see perfbench/README.md).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones; with --trace 1 they are the per-layer ones from a traced run, which
alternates untraced and traced rounds and also writes its spans to
perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_PASSES = 3
MAX_PROBLEMS_SHOWN = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Harness:
    """Runs set-up passes, one warm-up op, then whole rounds of ops until the
    time is up, timing each op and checking its output outside the timing."""

    def __init__(self, workload, tracer, seconds: float, trace: bool):
        self.wl = workload
        self.tracer = tracer
        self.seconds = seconds
        self.trace = trace
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wall = {False: [], True: []}  # traced? -> op wall seconds
        self.cpu: list[float] = []
        self.n_traced_ops = 0

    def setup(self) -> float:
        times = []
        for _ in range(SETUP_PASSES):
            if self.trace:
                self.tracer.install()
            t = time.perf_counter()
            self.wl.setup()
            times.append(time.perf_counter() - t)
            self.tracer.uninstall()
            self.wl.setup_done()
        return statistics.median(times)

    def _op(self, op, timed: bool, traced: bool):
        if traced:
            self.tracer.op = self.n_traced_ops
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            out = op()
        except Exception:  # an op that raises is counted as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            out = None
        w1, c1 = time.perf_counter(), time.process_time()
        self.tracer.op = None
        if timed:
            self.attempted += 1
            if out is None:
                self.failed += 1
            else:
                self.wall[traced].append(w1 - w0)
                self.cpu.append(c1 - c0)
                self.n_traced_ops += traced
        if out is None:
            return None
        problems, summary = self.wl.check_op(out)
        self.problems += problems
        return summary

    def run(self) -> None:
        self._op(self.wl.round_ops(0)[0], timed=False, traced=False)
        start = time.perf_counter()
        r = 0
        while True:
            traced = self.trace and r % 2 == 1
            if traced:
                self.tracer.install()
            try:
                summaries = [self._op(op, True, traced) for op in self.wl.round_ops(r)]
            finally:
                self.tracer.uninstall()
            self.problems += self.wl.check_round([s for s in summaries if s is not None])
            r += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / r > self.seconds and (not self.trace or r % 2 == 0):
                break


def end_to_end_metrics(h: Harness, setup_s: float) -> dict:
    wall = h.wall[False]
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (1e3 * statistics.median(wall), "ms"),
        "op_cpu_ms.p50": (1e3 * statistics.median(h.cpu), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(h: Harness) -> dict:
    layer = h.tracer.layer_metrics(max(h.n_traced_ops, 1), h.wl.units)
    out = {name: (value, "count" if name.endswith("calls_per_op") else "ms")
           for name, value in layer.items()}
    wall = h.wall[False] + h.wall[True]
    out["process.cpu_per_wall"] = (sum(h.cpu) / sum(wall), "s/s")
    overhead = statistics.median(h.wall[True]) / statistics.median(h.wall[False]) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bprlab", "__init__.py")):
        print(f"error: no bprlab sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bprlab
    from tracer import Tracer
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(bprlab.__file__)) != os.path.join(SRC, "bprlab"):
        print(f"error: imported bprlab from {bprlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        tracer = Tracer(bprlab)
        workload = WORKLOADS[args.workload](args.seed, workdir, tracer)
        start_s = time.perf_counter() - _T0
        h = Harness(workload, tracer, args.seconds, bool(args.trace))
        setup_s = start_s + h.setup()
        h.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not h.wall[False] or (args.trace and not h.wall[True]):
        print(f"error: all {h.attempted} ops failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(h)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(trace_path)
        print(f"spans written to {os.path.relpath(trace_path)}")
    else:
        metrics = end_to_end_metrics(h, setup_s)
    for problem in h.problems[:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: attempted {h.attempted}, failed {h.failed}, "
          f"checks {'passed' if not h.problems else 'FAILED'}")
    for traced, wall in h.wall.items():
        if wall:
            print(f"  {'traced' if traced else 'untraced'} op wall ms: "
                  + " ".join(f"{1e3 * w:.0f}" for w in wall))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not h.problems,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
