"""Run the benchmark several times per workload and summarize the spread.

    python3 perfbench/collect.py --runs 10 --first-seed 1 --out perfbench/baseline.json

Runs are sequential, one seed each (``first-seed``, ``first-seed + 1``,
...).  For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median.
With ``--trace`` one traced run per workload is added to the record.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return env, json.loads(lines[-1])


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values,
        }
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": args.seconds, "workloads": {}}
    for name in names:
        results = []
        for i in range(args.runs):
            env, result = run_once(name, args.first_seed + i, args.seconds, 0)
            results.append(result)
            print(f"{name} seed {args.first_seed + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {
            "env": {k: env[k] for k in ("python", "numpy", "scipy", "nproc",
                                        "blas_threads", "commit")},
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarize(results),
        }
        for metric, s in entry["end_to_end"].items():
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name} {metric}: median {s['median']:.4g} {s['unit']}, "
                  f"spread {s['spread']:.3f} (bound {bounds[metric]}){flag}")
        if args.trace:
            _, traced = run_once(name, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
        record["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
