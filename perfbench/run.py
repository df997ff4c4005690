"""hho2d benchmark: one seeded workload per run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload solve_poly_hik --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Ops run in a closed loop, one after the other, each on a fresh input made
from ``(seed, op index)``, for about ``--seconds``; at least one op runs.
Times are reported in reference seconds: wall time scaled by the machine
speed that ``reference.py`` measures around every op.  With ``--trace 0`` the ops run untraced and the end-to-end
metrics are reported.  With ``--trace 1`` every second op runs traced, and
the per-layer metrics are reported, the tracing overhead among them; the
spans go to ``out/spans_<workload>.tsv`` next to this file.  See README.md
in this directory for the metric definitions.
"""

import os

# One BLAS thread keeps per-op times steady and below the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HHO_THREADS", None)  # the program's default: serial assembly

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, write_spans  # noqa: E402

OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args):
    import numpy
    import scipy

    try:
        commit = subprocess.run(  # only a repository at ROOT itself counts
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": commit or "unknown",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class SpeedGauge:
    """Reference-kernel timings between timed sections.

    ``scale()`` turns the wall time of the section just finished into
    reference seconds, using the kernel timings before and after it.
    """

    def __init__(self):
        self.samples = [reference.measure()]

    def scale(self):
        self.samples.append(reference.measure())
        return reference.NOMINAL_S / (0.5 * (self.samples[-2] + self.samples[-1]))


def measure_setup():
    """Median wall time from starting a fresh process to its 'ready' line.

    Not scaled to reference seconds: the probe may run on the other core,
    whose speed the gauge in this process does not see.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py")],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(t1 - t0)
    return statistics.median(samples)


@dataclass
class Phase:
    """Outcome of one closed loop of ops."""

    ops: list = field(default_factory=list)  # (wall s, scale, traced, dofs) per op
    attempted: int = 0
    failed: int = 0
    gauge: SpeedGauge = field(default_factory=SpeedGauge)

    def times(self, traced=False):
        """Reference seconds of the ops, failed ones included."""
        return [w * k for w, k, t, _ in self.ops if t == traced]

    def throughputs(self):
        """Dofs per reference second of each untraced op; 0 for a failed op."""
        return [d / (w * k) for w, k, t, d in self.ops if not t]


def run_ops(workload, prog, seed, seconds, tracer=None):
    """Closed loop of ops for about ``seconds``; outputs are checked untimed.

    An op is not started when the previous one, repeated, would end past
    the deadline.  With a tracer, every second op runs traced, so traced
    and untraced ops see the same drift in machine speed.
    """
    phase = Phase()
    gauge = phase.gauge
    deadline = time.perf_counter() + seconds
    last_wall = 0.0
    while phase.attempted < (1 if tracer is None else 2) or (
        time.perf_counter() + last_wall < deadline
    ):
        index = phase.attempted
        phase.attempted += 1
        texts = workload.inputs(seed, index)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.op_index = index
        problems = []
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.install(vars(prog), layers.OBSERVERS), tracer.span("op"):
                    output = workload.op(prog, texts)
            else:
                output = workload.op(prog, texts)
        except Exception:  # an op that raises counts as failed; the run goes on
            problems = [traceback.format_exc()]
        finally:
            last_wall = wall = time.perf_counter() - t0
            scale = gauge.scale()
        if traced:
            tracer.scale[index] = scale
        dofs = 0
        if not problems:
            try:
                result = workload.check(output)
                problems, dofs = result.problems, result.dofs
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            phase.failed += 1
            dofs = 0
            print(f"op {index} failed: {problems}", file=sys.stderr)
        phase.ops.append((wall, scale, traced, dofs))
    return phase


def end_to_end(args, workload, prog):
    setup_s = measure_setup()
    phase = run_ops(workload, prog, args.seed, args.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(phase.times()), "s"),
        "dofs_per_s": (statistics.median(phase.throughputs()), "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    walls = [w for w, _, _, _ in phase.ops]
    print(f"{args.workload} op p50 in wall seconds: {statistics.median(walls):.6g}")
    return metrics, phase


def traced(args, workload, prog, env):
    tracer = Tracer()
    phase = run_ops(workload, prog, args.seed, args.seconds, tracer=tracer)
    metrics = layers.layer_metrics(
        tracer, phase.times(traced=True), phase.times(traced=False),
        statistics.median(phase.gauge.samples),
    )
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"spans_{args.workload}.tsv", tracer, json.dumps(env))
    return metrics, phase


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        prog = workloads.import_program()
    except (workloads.ProgramMissing, ImportError) as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    workloads.warm_up(prog)
    reference.kernel()  # its own first-call costs

    if args.trace:
        metrics, phase = traced(args, workload, prog, env)
    else:
        metrics, phase = end_to_end(args, workload, prog)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(
        f"{args.workload} ops = {len(phase.ops)} timed, {phase.attempted} "
        f"attempted, {phase.failed} failed, fail_frac = "
        f"{phase.failed / phase.attempted:.6g}; reference kernel median "
        f"{statistics.median(phase.gauge.samples):.6g} s"
    )
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
