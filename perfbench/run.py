"""conncluster benchmark: replays seeded documents through ``cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload disjoint-pipeline --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_REPEATS = 3

sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def run_worker(mode: str, args, work: str, result: str, deadline: float) -> tuple[dict, float]:
    """Start a fresh worker process, wait for it, return its result and
    the monotonic time it was started."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--src", SRC, "--work", work,
        "--reference", REFERENCE, "--result", result,
    ]
    env = dict(
        os.environ,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"{mode} worker exited with {rc}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh), started


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "smoke"], default="full",
                    help="smoke: tiny documents, for the benchmark's own tests")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "conncluster", "cli.py")):
        print(f"error: no conncluster sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    work = os.path.join(HERE, ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            res, started = run_worker("setup", args, work, os.path.join(work, f"setup{i}.json"), deadline)
            setups.append(dict(res, measured_s=res["ready"] - started, setup_s=(res["ready"] - started) * res["scale"]))
        result, _ = run_worker("measure", args, work, os.path.join(work, "result.json"), deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    gen_s = statistics.median(s["gen_s"] for s in setups)
    report(args, result, setups)
    if args.trace:
        units = declared_units("per_layer")
        values = dict(result["trace"]["layers"], **{"instances.gen_s": gen_s})
    else:
        units = declared_units("end_to_end")
        values = result
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


def report(args, r: dict, setups: list[dict]) -> None:
    """Human-readable lines before the JSON result.  Times are in
    reference seconds, with the measured seconds beside them."""
    say = print
    m = r["measured"]
    say(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  trace {args.trace}")
    say(f"  rounds {r['rounds']}  requests {r['samples']}" + ("  (untraced; each round followed by a traced one)" if args.trace else ""))
    say(f"  throughput_rps  {r['throughput_rps']:.4f} 1/s  (measured {m['throughput_rps']:.4f})")
    say(f"  latency_p50_s   {r['latency_p50_s']:.6f} s  (measured {m['latency_p50_s']:.6f})")
    say(f"  latency_tail_s  {r['latency_tail_s']:.6f} s  (measured {m['latency_tail_s']:.6f}; "
        f"p{r['tail_percentile']:.1f}, {r['tail_beyond']} of {r['samples']} samples beyond it)")
    say(f"  error_rate      {r['failed'] / r['attempted']:.4f}  ({r['failed']} of {r['attempted']} requests)")
    say(f"  objective_ratio {r['objective_ratio']:.6f}")
    say(f"  peak_rss_mb     {r['peak_rss_mb']:.1f} MB")
    parts = ", ".join(f"{s['setup_s']:.3f}" for s in setups)
    measured = ", ".join(f"{s['measured_s']:.3f}" for s in setups)
    say(f"  setup_s         {r['setup_s']:.4f} s  (median of {parts}; measured {measured})")
    for msg in r["failures"]:
        say(f"  FAILED {msg}")
    if not args.trace:
        return
    t = r["trace"]
    total = t["traced_request_s"]
    say(f"  traced rounds: {t['layers']['trace.requests']} requests, {total:.3f} s measured in cli.main "
        f"(untraced rounds {t['plain_request_s']:.3f} s); overhead ratio {t['layers']['trace.overhead_ratio']:.4f}")
    say("  self time by span, measured seconds (share of traced cli.main time):")
    for name, s in sorted(t["self_s"].items(), key=lambda kv: -kv[1]):
        say(f"    {name:24s} {s:10.4f} s  {100 * s / total:5.1f} %  calls {t['calls'][name]}")
    say("  per-layer metrics:")
    for name, value in t["layers"].items():
        say(f"    {name:28s} {value}")


if __name__ == "__main__":
    sys.exit(main())
