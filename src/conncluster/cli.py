"""Command-line interface: generate, solve, validate, evaluate, export.

Exit codes: 0 success, 1 infeasible, 2 bad input, 3 algorithm
precondition failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import sys
import time
from typing import Callable, Optional, Sequence

from . import instances as gens
from .disjoint import (
    DisjointInvariantError,
    pad_to_k,
    solve_assignment_given_centers,
    solve_disjoint,
    solve_two_center_disjoint,
)
from .exact import (
    is_tree,
    path_order,
    solve_line_center_nondisjoint,
    solve_line_diameter,
    solve_tree_assignment,
    tree_dp_solve,
)
from .greedy import solve_nondisjoint
from .model import (
    CENTER,
    DIAMETER,
    DISJOINT,
    NON_DISJOINT,
    OBJECTIVES,
    AlgorithmPreconditionError,
    Clustering,
    InfeasibleError,
    Instance,
    InstanceFormatError,
    SolveReport,
    clustering_cost,
    clustering_from_doc,
    clustering_to_doc,
    dist_eq,
    instance_to_doc,
    load_instance_file,
    make_report,
    to_dot,
    validate_clustering,
)
from .oracle import (
    OracleLimitError,
    exact_assignment,
    exact_disjoint,
    exact_nondisjoint_center,
    exact_nondisjoint_center_with_witness,
    exact_nondisjoint_diameter,
    exact_nondisjoint_diameter_with_witness,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3


def _emit(doc: dict, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _is_path_graph(inst: Instance) -> bool:
    try:
        path_order(inst)
        return True
    except AlgorithmPreconditionError:
        return False


def _parse_formula(text: str) -> list[list[int]]:
    try:
        return [
            [int(tok) for tok in clause.split(",") if tok.strip()]
            for clause in text.split(";")
            if clause.strip()
        ]
    except ValueError as exc:
        raise InstanceFormatError(f"cannot parse formula {text!r}") from exc


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(";"):
        if not part.strip():
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise InstanceFormatError(f"cannot parse pair {part!r}")
        out.append((int(bits[0]), int(bits[1])))
    return out


def _parse_centers(text: str, inst: Instance) -> list[int]:
    try:
        centers = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InstanceFormatError(f"cannot parse centers {text!r}") from exc
    bad = [c for c in centers if not 0 <= c < inst.n]
    if bad:
        raise InstanceFormatError(f"center ids {bad} out of range for n={inst.n}")
    return centers


def _load_clustering(path: str, inst: Instance) -> tuple[dict, Clustering]:
    """Read a clustering document whose point ids are points of ``inst``
    and whose ``objective``, if present, is a known one."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    result = clustering_from_doc(doc)
    # centers lie inside their clusters, so the clusters hold every id
    bad = sorted(x for x in set().union(*result.clusters) if not 0 <= x < inst.n)
    if bad:
        raise InstanceFormatError(f"point ids {bad} out of range for n={inst.n}")
    if doc.get("objective", CENTER) not in OBJECTIVES:
        raise InstanceFormatError(f"unknown objective {doc['objective']!r}")
    return doc, result


def cmd_gen(args: argparse.Namespace) -> int:
    fam = args.family
    seed = args.seed if args.seed is not None else 0
    if fam in ("line", "tree", "general", "lp"):
        inst = gens.gen_random(
            fam,
            args.n,
            args.k,
            seed,
            dim=args.dim,
            p=float("inf") if args.p == "inf" else float(args.p),
            metric_repair=args.metric_repair,
        )
        meta = gens.GadgetMeta(inst, {})
    elif fam == "worstcase-I":
        meta = gens.gen_worstcase_I(args.m)
    elif fam == "worstcase-Iprime":
        meta = gens.gen_worstcase_Iprime(args.m)
    elif fam == "sat":
        meta = gens.gen_sat_gadget(_parse_formula(args.formula), args.variant)
    elif fam == "star-clique-cover":
        meta = gens.gen_star_clique_cover(args.n, _parse_pairs(args.pairs), args.k)
    elif fam == "star-set-cover":
        sets = [
            [int(t) for t in s.split(",") if t.strip()]
            for s in args.sets.split(";")
            if s.strip()
        ]
        meta = gens.gen_star_set_cover(args.n, sets, args.k)
    elif fam == "star-multicut":
        meta = gens.gen_star_multicut(args.n, _parse_pairs(args.pairs), args.k)
    else:
        raise InstanceFormatError(f"unknown family {fam!r}")
    _emit(instance_to_doc(meta.instance), args.out)
    if meta.annotations and args.out:
        ann_path = args.annotations or (args.out + ".ann.json")
        with open(ann_path, "w", encoding="utf-8") as fh:
            json.dump(meta.annotations, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


@dataclasses.dataclass(frozen=True)
class _Query:
    """What a solve asks for, besides the instance."""

    objective: str
    mode: str
    dim: int
    centers: Optional[list[int]] = None
    seed: Optional[int] = None


Solved = tuple[SolveReport, Clustering]


def _auto(inst: Instance, q: _Query) -> Solved:
    if _is_path_graph(inst) and (q.objective == DIAMETER or q.mode == NON_DISJOINT):
        return ALGORITHMS["line"](inst, q)
    if q.mode == NON_DISJOINT:
        return ALGORITHMS["greedy"](inst, dataclasses.replace(q, seed=None))
    if is_tree(inst) and q.objective == CENTER:
        return ALGORITHMS["tree-dp"](inst, q)
    if inst.k == 2 and q.objective == CENTER:
        return ALGORITHMS["two-center"](inst, q)
    return solve_disjoint(inst, q.objective, "auto")


def _line(inst: Instance, q: _Query) -> Solved:
    if q.objective == DIAMETER:
        return solve_line_diameter(inst)
    if q.mode == NON_DISJOINT:
        return solve_line_center_nondisjoint(inst)
    raise AlgorithmPreconditionError(
        "disjoint line center is solved by tree-dp; use --algo tree-dp"
    )


def _tree_dp(inst: Instance, q: _Query) -> Solved:
    report, result = tree_dp_solve(inst)
    if q.objective == DIAMETER:
        report = make_report(
            inst, result, DIAMETER, report.algorithm, bound=2 * report.objective
        )
    return report, result


def _centers(q: _Query, algo: str) -> list[int]:
    if q.centers is None:
        raise AlgorithmPreconditionError(f"{algo} needs --centers")
    return q.centers


def _oracle(inst: Instance, q: _Query) -> Solved:
    if q.centers is not None:
        res = exact_assignment(inst, q.centers, q.objective)
        if res is None:
            raise InfeasibleError("no feasible assignment for the given centers")
        value, result = res
        return make_report(inst, result, q.objective, "oracle-assign", bound=value), result
    if q.mode == DISJOINT:
        value, result = exact_disjoint(inst, q.objective)
        return make_report(inst, result, q.objective, "oracle-disjoint", bound=value), result
    if q.objective == CENTER:
        value, result = exact_nondisjoint_center_with_witness(inst)
    else:
        value, result = exact_nondisjoint_diameter_with_witness(inst)
    return make_report(inst, result, q.objective, "oracle-nondisjoint", bound=value), result


#: ``--algo`` name -> solver.  Every entry names its solver inside a
#: function body, so the name is looked up in this module when the entry
#: runs, and a solver rebound here (as perfbench/tracer.py does) is the
#: one called.
ALGORITHMS: dict[str, Callable[[Instance, _Query], Solved]] = {
    "auto": _auto,
    "greedy": lambda inst, q: solve_nondisjoint(inst, q.objective, seed=q.seed),
    "line": _line,
    "tree-dp": _tree_dp,
    "tree-assign": lambda inst, q: solve_tree_assignment(inst, _centers(q, "tree-assign")),
    "general": lambda inst, q: solve_disjoint(inst, q.objective, "general", dim=q.dim),
    "lp": lambda inst, q: solve_disjoint(inst, q.objective, "lp", dim=q.dim),
    "doubling": lambda inst, q: solve_disjoint(inst, q.objective, "doubling", dim=q.dim),
    "two-center": lambda inst, q: solve_two_center_disjoint(inst),
    "assign": lambda inst, q: solve_assignment_given_centers(
        inst, _centers(q, "assign"), q.objective
    ),
    "oracle": _oracle,
}


def cmd_solve(args: argparse.Namespace) -> int:
    inst = load_instance_file(args.infile)
    centers = _parse_centers(args.centers, inst) if args.centers else None
    query = _Query(args.objective, args.mode, args.dim, centers, args.seed)
    report, result = ALGORITHMS[args.algo](inst, query)
    if args.exact_k:
        if result.mode != DISJOINT:
            raise AlgorithmPreconditionError("--exact-k needs a disjoint result")
        result = pad_to_k(inst, result)
        report = make_report(
            inst, result, args.objective, report.algorithm, bound=report.bound
        )
    doc = {
        "report": report.to_doc(),
        "clustering": clustering_to_doc(inst, result, args.objective),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    inst = load_instance_file(args.infile)
    _, result = _load_clustering(args.clustering, inst)
    verdict = validate_clustering(inst, result)
    _emit(
        {"feasible": verdict.feasible, "violations": list(verdict.violations)},
        args.out,
    )
    return EXIT_OK if verdict.feasible else EXIT_INFEASIBLE


def cmd_eval(args: argparse.Namespace) -> int:
    inst = load_instance_file(args.infile)
    doc, result = _load_clustering(args.clustering, inst)
    objective = doc.get("objective", args.objective)
    if objective == CENTER and result.centers is None:
        raise InstanceFormatError("the center objective needs a clustering with centers")
    value = clustering_cost(inst, result, objective)
    declared = doc.get("value")
    try:
        matches = declared is None or dist_eq(float(declared), value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f'"value" must be a number, got {declared!r}') from exc
    _emit(
        {
            "objective": objective,
            "value": value,
            "declared": declared,
            "matches": matches,
        },
        args.out,
    )
    return EXIT_OK if matches else EXIT_INFEASIBLE


def cmd_export_dot(args: argparse.Namespace) -> int:
    inst = load_instance_file(args.infile)
    result = None
    if args.clustering:
        _, result = _load_clustering(args.clustering, inst)
    text = to_dot(inst, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    algos = args.algos.split(",")
    unknown = [algo for algo in algos if algo not in ALGORITHMS]
    if unknown:
        raise InstanceFormatError(f"unknown algorithm {unknown[0]!r}")
    query = _Query(args.objective, args.mode, args.dim)
    rows = []
    for path in args.infiles:
        inst = load_instance_file(path)
        oracle_value: Optional[float] = None
        if inst.n <= args.oracle_limit:
            try:
                if args.mode == DISJOINT:
                    oracle_value = exact_disjoint(inst, args.objective)[0]
                elif args.objective == CENTER:
                    oracle_value = exact_nondisjoint_center(inst)
                else:
                    oracle_value = exact_nondisjoint_diameter(inst)
            except OracleLimitError:
                oracle_value = None
        for algo in algos:
            t0 = time.perf_counter()
            report, _ = ALGORITHMS[algo](inst, query)
            elapsed = time.perf_counter() - t0
            ratio = (
                report.objective / oracle_value
                if oracle_value not in (None, 0)
                else ""
            )
            rows.append(
                [
                    path,
                    algo,
                    inst.n,
                    inst.k,
                    report.objective,
                    oracle_value if oracle_value is not None else "",
                    ratio,
                    f"{elapsed:.4f}",
                ]
            )
    with (
        open(args.out, "w", newline="", encoding="utf-8")
        if args.out
        else contextlib.nullcontext(sys.stdout)
    ) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["instance", "algo", "n", "k", "value", "oracle", "ratio", "seconds"]
        )
        writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="conncluster",
        description="Connected k-center / k-diameter clustering toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instances")
    g.add_argument("--family", required=True)
    g.add_argument("--n", type=int, default=8)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--seed", type=int, default=None)
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--p", default="2")
    g.add_argument("--metric-repair", action="store_true", default=None)
    g.add_argument("--formula", default="1,2;-1,-2")
    g.add_argument("--variant", default="two_center")
    g.add_argument("--pairs", default="")
    g.add_argument("--sets", default="")
    g.add_argument("--out", default=None)
    g.add_argument("--annotations", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve an instance")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--objective", choices=[CENTER, DIAMETER], default=CENTER)
    s.add_argument("--mode", choices=[DISJOINT, NON_DISJOINT], default=DISJOINT)
    s.add_argument("--algo", default="auto", choices=list(ALGORITHMS))
    s.add_argument("--centers", default=None)
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--exact-k", action="store_true")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("validate", help="check a clustering document")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--clustering", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_validate)

    e = sub.add_parser("eval", help="recompute a clustering's objective")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--clustering", required=True)
    e.add_argument("--objective", choices=[CENTER, DIAMETER], default=CENTER)
    e.add_argument("--out", default=None)
    e.set_defaults(func=cmd_eval)

    x = sub.add_parser("export-dot", help="render the connectivity graph")
    x.add_argument("--in", dest="infile", required=True)
    x.add_argument("--clustering", default=None)
    x.add_argument("--out", default=None)
    x.set_defaults(func=cmd_export_dot)

    b = sub.add_parser("bench", help="run algorithms over instance files")
    b.add_argument("--in", dest="infiles", nargs="+", required=True)
    b.add_argument("--algos", default="auto")
    b.add_argument("--objective", choices=[CENTER, DIAMETER], default=CENTER)
    b.add_argument("--mode", choices=[DISJOINT, NON_DISJOINT], default=DISJOINT)
    b.add_argument("--dim", type=int, default=2)
    b.add_argument("--oracle-limit", type=int, default=10)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (AlgorithmPreconditionError, DisjointInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InfeasibleError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
