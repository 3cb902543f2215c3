"""One benchmark process: set-up, the closed request loop, and checks.

``run.py`` starts this file as a fresh child process per run, so the
peak resident memory it reports belongs to one workload.  In ``setup``
mode it generates the documents, imports the package and warms up, then
exits.  In ``measure`` mode it imports and warms up, replays rounds of
requests through ``conncluster.cli.main`` for the given number of
seconds, checks every output and writes its results as JSON.  A traced
run follows each untraced round with the same round traced.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

import workloads as wl

MEASURED, SCALED = 4, 5  # record columns: measured and reference seconds


def import_package(src: str):
    """Import conncluster from the checkout's ``src``, never elsewhere."""
    sys.path.insert(0, src)
    import conncluster.cli

    where = os.path.dirname(os.path.abspath(conncluster.cli.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"conncluster imported from {where}, not from {src}")
    return conncluster.cli


def call_main(cli, argv: list[str]) -> tuple[object, float]:
    """One request: returns the exit code (or the exception's name) and
    the seconds from the call of ``cli.main`` to its return."""
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crash
        rc = type(exc).__name__
    return rc, time.perf_counter() - t0


class Plan:
    """The request sequence of one round, with its file layout."""

    def __init__(self, docs: list[wl.Doc], doc_dir: str):
        self.docs = docs
        self.doc_dir = doc_dir
        self.items = [
            (di, ri) for di, doc in enumerate(docs) for ri in range(len(doc.slot.requests))
        ]

    def doc_path(self, di: int) -> str:
        return os.path.join(self.doc_dir, self.docs[di].filename)

    def request(self, di: int, ri: int) -> wl.Request:
        return self.docs[di].slot.requests[ri]

    @staticmethod
    def out_path(round_dir: str, di: int, label: str) -> str:
        return os.path.join(round_dir, f"{di}-{label.replace(':', '.')}.out")

    def argv(self, round_dir: str, di: int, ri: int) -> list[str]:
        req = self.request(di, ri)
        argv = [req.cmd, "--in", self.doc_path(di)]
        argv += wl.expand(self.docs[di], req)
        if req.of:
            argv += ["--clustering", self.out_path(round_dir, di, req.of) + ".clustering"]
        return argv + ["--out", self.out_path(round_dir, di, req.label)]

    def needs_clustering(self) -> set[tuple[int, str]]:
        return {(di, self.request(di, ri).of) for di, ri in self.items if self.request(di, ri).of}


#: Seconds the calibration kernel takes at the reference speed.
CAL_REF_S = 0.0008

_CAL_RNG = random.Random(0)
_CAL_ADJ = [[_CAL_RNG.randrange(300) for _ in range(4)] for _ in range(300)]
_CAL_VALUES = [_CAL_RNG.random() for _ in range(2000)]


def _kernel() -> int:
    """Pure-Python work like the package's hot loops: a graph search over
    adjacency lists and a tolerant dedup of sorted floats."""
    seen = {0}
    stack = [0]
    while stack:
        for u in _CAL_ADJ[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    out = [0.0]
    for v in sorted(_CAL_VALUES):
        if v - out[-1] > 1e-9 * max(1.0, v):
            out.append(v)
    return len(seen) + len(out)


class Clock:
    """Converts measured seconds into seconds at the reference speed.

    The speed of a shared host changes by a third or more within seconds,
    for reasons outside the program.  Timing a fixed kernel before and
    after each request gives the speed the request ran at; ``scale``
    returns CAL_REF_S over the mean of the two kernel times.
    """

    def __init__(self):
        self.last = self.sample()

    @staticmethod
    def sample() -> float:
        _kernel()  # refill the caches the request evicted
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0

    def scale(self) -> float:
        now = self.sample()
        factor = 2.0 * CAL_REF_S / (self.last + now)
        self.last = now
        return factor


def run_round(cli, plan: Plan, round_dir: str, records: list, clock: Clock, tracer=None) -> None:
    """Record per request: round directory, document and request index,
    exit code, measured seconds and reference seconds."""
    os.makedirs(round_dir)
    extract = plan.needs_clustering()
    for di, ri in plan.items:
        if tracer is not None:
            tracer.request_id = len(records)
        rc, seconds = call_main(cli, plan.argv(round_dir, di, ri))
        records.append((round_dir, di, ri, rc, seconds, seconds * clock.scale()))
        label = plan.request(di, ri).label
        if (di, label) in extract and rc == 0:
            # Check requests take the clustering sub-document, not the
            # whole {"report", "clustering"} output.
            out = plan.out_path(round_dir, di, label)
            with open(out, encoding="utf-8") as fh:
                sub = json.load(fh)["clustering"]
            with open(out + ".clustering", "w", encoding="utf-8") as fh:
                json.dump(sub, fh)


def replay(cli, plan: Plan, out_dir: str, *, seconds=None, rounds=None, tracer=None):
    """Whole rounds, until ``seconds`` have passed or ``rounds`` are done.
    With a tracer, every untraced round ``r<i>`` is followed by the same
    round traced, ``t<i>``, so that both see the same state of the host.
    Returns the untraced records, the traced records and the number of
    rounds."""
    plain: list = []
    traced: list = []
    clock = Clock()
    t0 = time.perf_counter()
    done = 0
    while (time.perf_counter() - t0 < seconds) if rounds is None else (done < rounds):
        run_round(cli, plan, os.path.join(out_dir, f"r{done}"), plain, clock)
        if tracer is not None:
            with tracer.installed():
                run_round(cli, plan, os.path.join(out_dir, f"t{done}"), traced, clock, tracer)
        done += 1
    return plain, traced, done


def latency_metrics(records: list, column: int) -> dict:
    """Closed loop, one client: throughput is requests over request time.

    Every request of the plan runs once per round.  A request's latency
    is the median of its rounds, so a stall of the host that hits one
    round does not reach the figures; throughput and p50 are taken over
    all samples, each at its request's median.  The tail has ten samples
    beyond it: with r rounds, that is 10/r requests, so it is read off
    the sorted request medians 10/r places below the slowest, linearly
    between neighbours.  It then moves smoothly with the number of rounds
    instead of jumping from one request to the next.
    """
    samples = defaultdict(list)
    for r in records:
        samples[r[1], r[2]].append(r[column])
    medians = {key: statistics.median(values) for key, values in samples.items()}
    ordered = sorted(medians[r[1], r[2]] for r in records)
    n = len(ordered)
    slowest = sorted(medians.values())
    m = len(slowest)
    beyond = 10 if n > 10 else 0  # ten samples beyond the tail, or none: the maximum
    at = max(m - 1 - beyond * m / n, 0.0)
    lo = int(at)
    hi = min(lo + 1, m - 1)
    return {
        "throughput_rps": n / sum(ordered),
        "latency_p50_s": statistics.median(ordered),
        "latency_tail_s": slowest[lo] + (slowest[hi] - slowest[lo]) * (at - lo),
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "samples": n,
    }


def warm_up(cli, workload: str, doc_dir: str, scratch: str) -> None:
    plan = Plan(wl.warmup_docs(workload), doc_dir)
    records: list = []
    run_round(cli, plan, scratch, records, Clock())
    bad = [(plan.argv(scratch, di, ri), rc) for _, di, ri, rc, _, _ in records if rc != 0]
    if bad:
        raise SystemExit(f"warm-up request failed: {bad[0]}")
    shutil.rmtree(scratch)


def setup(args) -> dict:
    clock = Clock()
    t0 = time.perf_counter()
    cli = import_package(args.src)
    t1 = time.perf_counter()
    docs = wl.pick_docs(args.workload, args.seed, args.scale) + wl.warmup_docs(args.workload)
    wl.write_docs(docs, args.docs)
    t2 = time.perf_counter()
    warm_up(cli, args.workload, args.docs, os.path.join(args.work, f"warmup-{os.getpid()}"))
    ready = time.monotonic()
    scale = clock.scale()
    return {"ready": ready, "scale": scale, "gen_s": (t2 - t1) * scale}


def measure(args) -> dict:
    import checks

    cli = import_package(args.src)
    warm_up(cli, args.workload, args.docs, os.path.join(args.work, "warmup"))
    plan = Plan(wl.pick_docs(args.workload, args.seed, args.scale), args.docs)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    records, traced, rounds = replay(
        cli, plan, os.path.join(args.work, "out"), seconds=args.seconds, tracer=tracer
    )
    result = latency_metrics(records, SCALED)
    result.update(
        rounds=rounds,
        measured=latency_metrics(records, MEASURED),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    result.update(checks.check(plan, records + traced, args.reference))
    if tracer is not None:
        tracer.save(os.path.join(args.work, "spans.npz"))
        result["trace"] = trace_summary(tracer, records, traced)
        differ = checks.compare_passes(records, traced, plan)
        result["failed"] += len(differ)
        result["failures"] += [f"traced output differs: {p}" for p in differ[:5]]
    return result


def trace_summary(tracer, plain: list, traced: list) -> dict:
    """Per-layer totals of the traced rounds.  Span times are measured
    seconds; the overhead ratio compares the reference seconds of the
    traced rounds with those of the untraced rounds they follow."""
    incl, own, calls = tracer.totals()
    counts = tracer.counts
    probes = counts["model.search.probes"]
    layers = {
        "model.candidate_radii_s": incl.get("model.candidate_radii", 0.0),
        "model.candidates": counts["model.candidates"],
        "model.search.probes": probes,
        "model.search.probe_yield": counts["model.search.hits"] / probes if probes else 0.0,
        "model.load_s": incl.get("model.load", 0.0),
        "model.in_bytes": counts["model.in_bytes"],
        "model.report_s": incl.get("model.report", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.out_bytes": counts["cli.out_bytes"],
        "greedy.cover_s": incl.get("greedy.cover", 0.0),
        "greedy.cover_calls": calls.get("greedy.cover", 0),
        "greedy.grow_s": incl.get("greedy.grow", 0.0),
        "greedy.grow_calls": calls.get("greedy.grow", 0),
        "greedy.given_s": incl.get("greedy.given", 0.0),
        "greedy.given_calls": calls.get("greedy.given", 0),
        "wsp.partition_s": incl.get("wsp.partition", 0.0),
        "wsp.layers": counts["wsp.layers"],
        "disjoint.transform_s": incl.get("disjoint.transform", 0.0),
        "disjoint.self_s": own.get("disjoint.solve", 0.0),
        "exact.probe_s": incl.get("exact.probe", 0.0),
        "exact.self_s": own.get("exact.solve", 0.0),
        "oracle.s": incl.get("oracle", 0.0),
        "oracle.calls": calls.get("oracle", 0),
        "trace.overhead_ratio": sum(r[SCALED] for r in traced) / sum(r[SCALED] for r in plain),
        "trace.requests": calls.get("cli.main", 0),
    }
    return {
        "layers": layers,
        "self_s": own,
        "calls": calls,
        "traced_request_s": incl.get("cli.main", 0.0),
        "plain_request_s": sum(r[MEASURED] for r in plain),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "measure"])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    args.docs = os.path.join(args.work, "docs")
    result = setup(args) if args.mode == "setup" else measure(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
