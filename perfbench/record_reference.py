"""Record the reference objectives of every pool document.

Run from the root of a checkout, at the commit whose outputs are the
reference (the objectives of later commits are compared against them):

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each pool document and solve
request, the reported objective and algorithm.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads as wl  # noqa: E402
from worker import Plan, call_main, import_package  # noqa: E402


def main() -> None:
    cli = import_package(os.path.join(os.path.dirname(HERE), "src"))
    reference = {}
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, ".work")) as tmp:
        for workload, slots in wl.WORKLOADS.items():
            for scale in ("full", "smoke"):
                docs = [wl.pool_doc(workload, slot, m, scale) for slot in slots for m in range(slot.pool)]
                wl.write_docs(docs, tmp)
                plan = Plan(docs, tmp)
                for di, ri in plan.items:
                    req = plan.request(di, ri)
                    if req.cmd != "solve":
                        continue
                    rc, _ = call_main(cli, plan.argv(tmp, di, ri))
                    if rc != 0:
                        raise SystemExit(f"{docs[di].key}/{req.label}: exit code {rc}")
                    with open(plan.out_path(tmp, di, req.label), encoding="utf-8") as fh:
                        rep = json.load(fh)["report"]
                    reference[f"{docs[di].key}/{req.label}"] = {
                        "objective": rep["objective"],
                        "algorithm": rep["algorithm"],
                    }
                for name in os.listdir(tmp):
                    os.remove(os.path.join(tmp, name))
                print(f"{workload} {scale}: {len(reference)} values so far", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
