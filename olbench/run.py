"""ordlen's benchmark: one workload per invocation, in one process, no threads.

    python3 olbench/run.py --workload profiles --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ordlen is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from a run whose second half calls ordlen through the
wrappers in ``tracer.py``, and the spans are written under
``.olbench_trace/``.

A round calls every operation of the workload once, on the same inputs
every time.  Before each round, outside the timed region, ``fcyc``'s
cache is cleared and ``gc.collect()`` runs.  Warm-up rounds are
discarded, and a run ends at the end of the round in which its time ran
out.  Operation times are reported in reference units (``ru``, see
``calibrate.py``), which the host's slow and fast phases do not move;
the same figures in wall time go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".olbench_trace"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from calibrate import Calibrator  # noqa: E402

SETUP_CHILDREN = 5
WARMUP_SECONDS = 1.0


def measure_setup(workload: str, text: str, expect: int) -> float:
    """Median wall time of fresh interpreters doing the set-up."""
    times = []
    for _ in range(SETUP_CHILDREN):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), workload],
            input=text,
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=120,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.split() != [str(expect)]:
            raise SystemExit(f"set-up child failed:\n{proc.stdout}{proc.stderr}")
    return statistics.median(times)


class Rounds:
    """Whole rounds of a workload's operations, with every output checked.

    Each operation is timed between calibration passes (``calibrate.py``)
    and kept both in seconds and in reference units (``ru``)."""

    def __init__(self, workload, calibrator, tracer=None):
        self.workload = workload
        self.calibrator = calibrator
        self.tracer = tracer
        self.latencies: list[list[float]] = []  # per round, each op in s
        self.costs: list[list[float]] = []  # per round, each op in ru
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.last_outputs = None
        self.cache_hits = self.cache_misses = 0

    def run(self, seconds: float) -> "Rounds":
        start = perf_counter()
        while True:
            self.workload.clear_cache()
            gc.collect()
            lat, cost, outs = [], [], []
            for i, (name, op) in enumerate(self.workload.ops):
                call = op if self.tracer is None else partial(self.tracer.span, name, op)
                wall, ru, out = self.calibrator.timed(i, call)
                if isinstance(out, Exception):
                    self.failed += 1
                    print(f"{name} raised {out!r}", file=sys.stderr)
                lat.append(wall)
                cost.append(ru)
                outs.append(out)
            self.attempted += len(outs)
            info = self.workload.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
            self.latencies.append(lat)
            self.costs.append(cost)
            self.problems += self.workload.check(outs)
            self.last_outputs = outs
            if perf_counter() - start >= seconds:
                return self

    def op_mean_ru(self) -> float:
        """The mean operation in ru, median over rounds."""
        return statistics.median(statistics.fmean(c) for c in self.costs)

    def op_p50_ru(self) -> float:
        """The median over operations of each one's median over rounds."""
        return statistics.median(statistics.median(op) for op in zip(*self.costs))

    def wall_summary(self) -> str:
        """The same figures in wall time, which the host's phases move."""
        ops = len(self.workload.ops)
        round_s = statistics.median(sum(lat) for lat in self.latencies)
        p50 = statistics.median(statistics.median(op) for op in zip(*self.latencies))
        return (
            f"wall time: {ops / round_s:.4g} ops/s, median op {1e3 * p50:.4g} ms, "
            f"{len(self.latencies)} rounds"
        )


def end_to_end(rounds: Rounds, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_mean_ru": (rounds.op_mean_ru(), "ru"),
        "op_p50_ru": (rounds.op_p50_ru(), "ru"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: Rounds, traced: Rounds, tracer) -> dict:
    """Every per-layer metric, per round of the traced half."""
    from tracer import per_layer_names

    n = len(traced.latencies)
    self_s, total_s, calls = tracer.self_times()
    lookups = traced.cache_hits + traced.cache_misses
    values = {name: count / n for name, count in tracer.counts.items()}
    values.update(
        {
            "modules.fcyc.cache_hits": traced.cache_hits / n,
            "modules.fcyc.cache_misses": traced.cache_misses / n,
            "modules.fcyc.hit_ratio": traced.cache_hits / lookups if lookups else 0.0,
            "trace.overhead_pct": 100 * (traced.op_mean_ru() / untraced.op_mean_ru() - 1),
        }
    )
    for name in calls:
        values[f"{name}.calls"] = calls[name] / n
        values[f"{name}.self_s"] = self_s[name] / n
    for (name, _), out in zip(traced.workload.ops, traced.last_outputs):
        if name.startswith("checks.") and not isinstance(out, Exception):
            values[f"{name}.wall_s"] = total_s[name] / n
            values[f"{name}.records"] = len(out)
    return {
        name: (values.get(name, 0), unit)
        for name, unit in per_layer_names(inputs.CHECK_SUITES)
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("profiles", "exponents", "checks"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ordlen" / "__init__.py").is_file():
        print(f"no ordlen sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    text = inputs.inputs_text(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, text)
    setup_s = 0.0
    if not args.trace:
        setup_s = measure_setup(args.workload, text, len(workload.ops))

    calibrator = Calibrator(len(workload.ops))
    warmup = Rounds(workload, calibrator).run(WARMUP_SECONDS)
    if args.trace:
        from tracer import Tracer

        untraced = Rounds(workload, calibrator).run(args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        measured = Rounds(workload, calibrator, tracer).run(args.seconds / 2)
        metrics = per_layer(untraced, measured, tracer)
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.json.gz")
        runs = [warmup, untraced, measured]
    else:
        measured = Rounds(workload, calibrator).run(args.seconds)
        metrics = end_to_end(measured, setup_s)
        print(measured.wall_summary(), file=sys.stderr)
        runs = [warmup, measured]

    problems = [p for r in runs for p in r.problems]
    problems += workload.check_run(measured.last_outputs)
    for line in problems[:20]:
        print(f"WRONG: {line}", file=sys.stderr)
    timed = runs[1:]
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(r.attempted for r in timed),
                "failed": sum(r.failed for r in timed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
