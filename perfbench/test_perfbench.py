"""The benchmark's own tests.

    python3 -m pytest -q perfbench/test_perfbench.py

Smoke runs of every workload on tiny documents, traced and untraced,
with two seeds; a tampered output that the checks must count; a tracer
that must refuse a name its module does not bind; and a checkout
without the package's sources, where the command must fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402


def declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def smoke(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("seed,trace", [(1, 0), (2, 1)])
def test_smoke_run_passes_every_check(workload, seed, trace):
    result = smoke(workload, seed, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert result["metrics"]["objective_ratio"]["value"] == 1.0


def test_seeds_pick_different_documents():
    assert wl.pick_docs("cli-small", 1) != wl.pick_docs("cli-small", 2)
    assert wl.pick_docs("cli-small", 1) == wl.pick_docs("cli-small", 1)


def test_tampered_objective_is_counted(tmp_path):
    cli = worker.import_package(os.path.join(ROOT, "src"))
    docs = wl.pick_docs("cli-small", 3, "smoke")
    wl.write_docs(docs, str(tmp_path / "docs"))
    plan = worker.Plan(docs, str(tmp_path / "docs"))
    records, _, _ = worker.replay(cli, plan, str(tmp_path / "out"), rounds=2)
    reference = os.path.join(HERE, "reference.json")
    assert checks.check(plan, records, reference)["failed"] == 0

    # Edit the reported objective of one solve in the second round.
    round_dir, di, ri, *_ = next(r for r in records if r[0].endswith("r1") and plan.request(r[1], r[2]).cmd == "solve")
    path = plan.out_path(round_dir, di, plan.request(di, ri).label)
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    out["report"]["objective"] += 1.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    verdict = checks.check(plan, records, reference)
    assert verdict["failed"] == 1
    assert "recomputed cost" in verdict["failures"][0]


def test_tracer_refuses_an_unbound_name(monkeypatch):
    worker.import_package(os.path.join(ROOT, "src"))
    import tracer
    from conncluster import disjoint

    original = disjoint.candidate_radii
    monkeypatch.setattr(tracer, "WRAPPED", (
        ("disjoint", "candidate_radii", "model.candidate_radii"),
        ("disjoint", "no_such_function", "model.missing"),
    ))
    with pytest.raises(LookupError, match="no_such_function"):
        with tracer.Tracer().installed():
            pass
    assert disjoint.candidate_radii is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 2 and proc.stdout == ""
