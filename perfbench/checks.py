"""Output checks, run after timing on every request of a run.

A request fails on an unexpected exit code or when its output fails a
check; failures are counted, never skipped or retried.  Outputs that are
byte-identical to one already checked for the same request share its
verdict, so repeated rounds cost one check each.
"""

from __future__ import annotations

import json
import os

#: Algorithms whose objective must equal the recorded reference value,
#: besides the oracles.
EXACT_ALGORITHMS = ("line-center", "line-diameter", "tree-dp", "tree-assign")


def is_exact(algorithm: str) -> bool:
    return algorithm in EXACT_ALGORITHMS or algorithm.startswith("oracle")


class Checker:
    def __init__(self, plan, reference: dict):
        from conncluster import model

        self.m = model
        self.plan = plan
        self.reference = reference
        self._instances: dict[int, object] = {}

    def instance(self, di: int):
        if di not in self._instances:
            self._instances[di] = self.m.load_instance_file(self.plan.doc_path(di))
        return self._instances[di]

    def solve(self, di: int, req, text: str) -> tuple[list[str], float | None]:
        """Problems with a solve output, and objective / reference for
        approximation algorithms."""
        m, doc = self.m, self.plan.docs[di]
        out = json.loads(text)
        report, cdoc = out["report"], out["clustering"]
        objective = req.args[req.args.index("--objective") + 1] if "--objective" in req.args else m.CENTER
        inst = self.instance(di)
        c = m.clustering_from_doc(cdoc)
        value = report["objective"]
        problems = []
        verdict = m.validate_clustering(inst, c)
        if not verdict.feasible:
            problems.append(f"invalid clustering: {'; '.join(verdict.violations)}")
        if cdoc.get("objective") != objective:
            problems.append(f"clustering objective {cdoc.get('objective')!r}, asked {objective!r}")
        cost = m.clustering_cost(inst, c, objective)
        if not m.dist_eq(cost, value):
            problems.append(f"reported objective {value} but recomputed cost {cost}")
        if report["clusters_used"] != c.clusters_used or c.clusters_used > inst.k:
            problems.append(f"clusters_used {report['clusters_used']} for {c.clusters_used} clusters, k={inst.k}")
        if doc.metric and (report["bound"] is None or not m.dist_leq(value, report["bound"])):
            problems.append(f"objective {value} above bound {report['bound']}")
        ref = self.reference.get(f"{doc.key}/{req.label}")
        if ref is None:
            return problems + ["no reference value recorded"], None
        if report["algorithm"] != ref["algorithm"]:
            problems.append(f"algorithm {report['algorithm']}, reference {ref['algorithm']}")
        if is_exact(ref["algorithm"]):
            if not m.dist_eq(value, ref["objective"]):
                problems.append(f"exact objective {value}, reference {ref['objective']}")
            return problems, None
        if value == ref["objective"]:
            return problems, 1.0
        if ref["objective"] == 0:
            return problems + [f"objective {value}, reference 0"], None
        return problems, value / ref["objective"]

    def follow_up(self, round_dir: str, di: int, req, text: str) -> list[str]:
        """Problems with a validate, eval or export-dot output."""
        with open(self.plan.out_path(round_dir, di, req.of) + ".clustering", encoding="utf-8") as fh:
            cdoc = json.load(fh)
        if req.cmd == "validate":
            out = json.loads(text)
            return [] if out == {"feasible": True, "violations": []} else [f"validate says {out}"]
        if req.cmd == "eval":
            out = json.loads(text)
            ok = (
                out["matches"] is True
                and out["objective"] == cdoc["objective"]
                and out["declared"] == cdoc["value"]
                and self.m.dist_eq(out["value"], cdoc["value"])
            )
            return [] if ok else [f"eval says {out}, clustering declares {cdoc['value']}"]
        inst = self.instance(di)
        lines = text.splitlines()
        nodes = [ln for ln in lines[2:-1] if "[" in ln]
        edges = [ln for ln in lines[2:-1] if " -- " in ln]
        filled = sum('fillcolor="' in ln for ln in nodes)
        ringed = sum("peripheries=2" in ln for ln in nodes)
        centers = len(set(cdoc["centers"] or ()))
        ok = (
            lines[:1] == ["graph conncluster {"]
            and lines[-1:] == ["}"]
            and len(nodes) == inst.n == filled
            and len(edges) == len(inst.edges)
            and ringed == centers
        )
        return [] if ok else [f"dot output has {len(nodes)} nodes ({filled} filled, {ringed} ringed), {len(edges)} edges"]

    def request(self, round_dir: str, di: int, ri: int, rc) -> tuple[list[str], float | None]:
        req = self.plan.request(di, ri)
        if rc != 0:
            return [f"exit code {rc!r}, expected 0"], None
        with open(self.plan.out_path(round_dir, di, req.label), encoding="utf-8") as fh:
            text = fh.read()
        try:
            if req.cmd == "solve":
                return self.solve(di, req, text)
            return self.follow_up(round_dir, di, req, text), None
        except Exception as exc:  # a malformed output fails its request, not the run
            return [f"unreadable output: {type(exc).__name__}: {exc}"], None


def check(plan, records: list, reference_path: str) -> dict:
    """Check every record; returns counts, the objective ratio and the
    first failure messages."""
    with open(reference_path, encoding="utf-8") as fh:
        checker = Checker(plan, json.load(fh))
    seen: dict[tuple, tuple] = {}
    failed = 0
    ratios = []
    failures = []
    for round_dir, di, ri, rc, *_ in records:
        req = plan.request(di, ri)
        path = plan.out_path(round_dir, di, req.label)
        key = (di, ri, rc, _read(path) if rc == 0 else None)
        if req.of:
            key += (_read(plan.out_path(round_dir, di, req.of) + ".clustering"),)
        if key not in seen:
            seen[key] = checker.request(round_dir, di, ri, rc)
        problems, ratio = seen[key]
        if problems:
            failed += 1
            if len(failures) < 5:
                failures.append(f"{plan.docs[di].key}/{req.label}: {problems[0]}")
        if ratio is not None:
            ratios.append(ratio)
    return {
        "attempted": len(records),
        "failed": failed,
        "objective_ratio": sum(ratios) / len(ratios) if ratios else 1.0,
        "failures": failures,
    }


def _read(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def compare_passes(plain: list, traced: list, plan) -> list[str]:
    """Requests whose traced output differs from the untraced one."""
    differ = []
    for a, b in zip(plain, traced, strict=True):
        label = plan.request(a[1], a[2]).label
        pa, pb = plan.out_path(a[0], a[1], label), plan.out_path(b[0], b[1], label)
        if a[3] != b[3] or _read(pa) != _read(pb):
            differ.append(pb)
    return differ
