"""Reproduce the hand-timed baselines of ROADMAP.md ("Recent") with the
benchmark's tracer, through ``cli.main``.

    python3 perfbench/baselines.py

Cases (generator seed 2, as in the hand timings):
  * ``solve --algo general`` on an lp document, n=2000, k=50: the share
    of ``candidate_radii`` in ``solve_disjoint``, and the greedy probes,
    partition and transform beside it;
  * ``solve`` (auto, dispatches to tree-dp) on the same document: the
    tree-dp solve and the document load, end to end;
  * ``solve --mode non_disjoint`` on a line document, n=2000, k=50:
    line-center per solve;
  * ``solve`` (auto, dispatches to two-center) on general documents with
    k=2, against n.
Each line gives the median over the samples and the sample count.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from tracer import Tracer  # noqa: E402
from worker import call_main, import_package  # noqa: E402

REPEAT = 3  # samples per case; each line reports their median
TWO_CENTER_N = (50, 100, 200)


def traced(cli, argv: list[str]) -> dict[str, float]:
    """Inclusive seconds per span name for one request."""
    tracer = Tracer()
    with tracer.installed():
        rc, _ = call_main(cli, argv)
    if rc != 0:
        raise SystemExit(f"{argv}: exit code {rc}")
    return tracer.totals()[0]


def write(tmp: str, name: str, family: str, n: int, k: int) -> str:
    from conncluster.instances import gen_random
    from conncluster.model import instance_to_doc

    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_doc(gen_random(family, n, k, 2)), fh)
    return path


def main() -> None:
    cli = import_package(os.path.join(os.path.dirname(HERE), "src"))
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
        out = os.path.join(tmp, "out.json")
        lp = write(tmp, "lp.json", "lp", 2000, 50)
        line = write(tmp, "line.json", "line", 2000, 50)

        def sample(argv, *spans):
            runs = [traced(cli, argv + ["--out", out]) for _ in range(REPEAT)]
            return [statistics.median(r.get(s, 0.0) for r in runs) for s in spans]

        solve, radii, cover, part, transform = sample(
            ["solve", "--in", lp, "--algo", "general"],
            "disjoint.solve", "model.candidate_radii", "greedy.cover", "wsp.partition", "disjoint.transform",
        )
        print(f"lp n=2000 k=50 solve_disjoint(general): {solve:.3f} s; candidate_radii {radii:.3f} s "
              f"({100 * radii / solve:.0f} %); greedy probes {cover:.3f} s; partition + transform "
              f"{part + transform:.4f} s  [median of {REPEAT}]")
        main_s, load, tree = sample(["solve", "--in", lp], "cli.main", "model.load", "exact.solve")
        print(f"lp n=2000 k=50 CLI solve (auto -> tree-dp): {main_s:.3f} s end to end; load {load:.3f} s; "
              f"tree_dp_solve {tree:.3f} s  [median of {REPEAT}]")
        (lc,) = sample(["solve", "--in", line, "--mode", "non_disjoint"], "exact.solve")
        print(f"line n=2000 k=50 solve_line_center_nondisjoint: {lc:.3f} s  [median of {REPEAT}]")
        for n in TWO_CENTER_N:
            doc = write(tmp, f"two{n}.json", "general", n, 2)
            (tc,) = sample(["solve", "--in", doc], "disjoint.solve")
            print(f"general n={n} k=2 solve_two_center_disjoint: {tc:.3f} s  [median of {REPEAT}]")


if __name__ == "__main__":
    main()
