"""Command-line interface: generate, solve, validate, evaluate, export.

Exit codes: 0 success, 1 infeasible, 2 bad input (including a request
too large for the memory the process may use), 3 algorithm precondition
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
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
    _scalar,
    center_set,
    clustering_cost,
    clustering_from_doc,
    clustering_to_doc,
    dist_eq,
    instance_to_doc,
    load_instance_file,
    make_report,
    point_ids,
    read_json_file,
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


def _write(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none.
    Line ends are written as they are (bench's CSV rows end in ``\\r\\n``)."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, out: Optional[str]) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _int_lists(text: str, what: str, width: Optional[int] = None) -> list[list[int]]:
    """``"a,b;c,d"`` as ``[[a, b], [c, d]]``, skipping empty parts; with
    ``width``, every part must hold exactly that many ids."""
    out = []
    for part in filter(str.strip, text.split(";")):
        try:
            ids = [int(tok) for tok in part.split(",") if tok.strip()]
        except ValueError:
            ids = None
        if ids is None or width not in (None, len(ids)):
            raise InstanceFormatError(f"cannot parse {what} {part!r}")
        out.append(ids)
    return out


def _parse_centers(text: str, inst: Instance) -> list[int]:
    try:
        centers = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise InstanceFormatError(f"cannot parse centers {text!r}") from exc
    return center_set(centers, inst.n)  # the budget is checked where centers are used


def _load_clustering(path: str, inst: Instance) -> tuple[dict, Clustering]:
    """Read a clustering document whose point ids are points of ``inst``
    and whose ``objective``, if present, is a known one."""
    doc = read_json_file(path)
    result = clustering_from_doc(doc)
    # centers lie inside their clusters, so the clusters hold every id
    point_ids(sorted(set().union(*result.clusters)), inst.n)
    if doc.get("objective", CENTER) not in OBJECTIVES:
        raise InstanceFormatError(f"unknown objective {doc['objective']!r}")
    return doc, result


def _random(args: argparse.Namespace) -> gens.GadgetMeta:
    try:
        p = float(args.p)
    except ValueError:
        raise InstanceFormatError(f"cannot parse p {args.p!r}") from None
    inst = gens.gen_random(
        args.family, args.n, args.k, args.seed or 0, dim=args.dim, p=p,
        metric_repair=args.metric_repair,
    )
    return gens.GadgetMeta(inst, {})


def _pairs(args: argparse.Namespace) -> list[list[int]]:
    return _int_lists(args.pairs, "pair", 2)


#: ``gen --family`` name -> generator of the parsed arguments.
FAMILIES: dict[str, Callable[[argparse.Namespace], gens.GadgetMeta]] = {
    **dict.fromkeys(("line", "tree", "general", "lp"), _random),
    "worstcase-I": lambda args: gens.gen_worstcase_I(args.m),
    "worstcase-Iprime": lambda args: gens.gen_worstcase_Iprime(args.m),
    "sat": lambda args: gens.gen_sat_gadget(_int_lists(args.formula, "clause"), args.variant),
    "star-clique-cover": lambda args: gens.gen_star_clique_cover(args.n, _pairs(args), args.k),
    "star-set-cover": lambda args: gens.gen_star_set_cover(
        args.n, _int_lists(args.sets, "set"), args.k
    ),
    "star-multicut": lambda args: gens.gen_star_multicut(args.n, _pairs(args), args.k),
}


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family not in FAMILIES:
        raise InstanceFormatError(f"unknown family {args.family!r}")
    meta = FAMILIES[args.family](args)
    _emit(instance_to_doc(meta.instance), args.out)
    if args.annotations:  # a named path always gets a file, {} without roles
        _emit(meta.annotations, args.annotations)
    elif meta.annotations and args.out:
        _emit(meta.annotations, args.out + ".ann.json")
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
Entry = Callable[[Instance, _Query], Solved]


def _auto(inst: Instance, q: _Query) -> Solved:
    tree = inst.tree
    path = tree is not None and tree.path is not None
    if path and (q.objective == DIAMETER or q.mode == NON_DISJOINT):
        return ALGORITHMS["line"](inst, q)
    if q.mode == NON_DISJOINT:
        return ALGORITHMS["greedy"](inst, dataclasses.replace(q, seed=None))
    if tree is not None and q.objective == CENTER:
        return ALGORITHMS["tree-dp"](inst, q)
    if inst.k == 2 and q.objective == CENTER:
        return ALGORITHMS["two-center"](inst, q)
    return solve_disjoint(inst, q.objective, "auto")


def _line(inst: Instance, q: _Query) -> Solved:
    if inst.tree is None or inst.tree.path is None:
        raise AlgorithmPreconditionError("connectivity graph is not a path")
    if q.objective == DIAMETER:
        return solve_line_diameter(inst)
    if q.mode == NON_DISJOINT:
        return solve_line_center_nondisjoint(inst)
    raise AlgorithmPreconditionError(
        "disjoint line center is solved by tree-dp; use --algo tree-dp"
    )


def _center_only(solve: Entry) -> Entry:
    """The entry of a center-only solver: under the diameter objective its
    report is rebuilt for the clustering's diameter, with twice the radius
    bound (diameter <= 2 * radius; ``make_report`` drops a bound that fails)."""

    def entry(inst: Instance, q: _Query) -> Solved:
        report, result = solve(inst, q)
        if q.objective == DIAMETER:
            bound = None if report.bound is None else 2 * report.bound
            report = make_report(inst, result, DIAMETER, report.algorithm, bound=bound)
        return report, result

    return entry


def _centers(q: _Query, algo: str) -> list[int]:
    if q.centers is None:
        raise AlgorithmPreconditionError(f"{algo} needs --centers")
    return q.centers


def _oracle(inst: Instance, q: _Query) -> Solved:
    if q.centers is not None:
        res = exact_assignment(inst, center_set(q.centers, inst.n, inst.k), q.objective)
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
ALGORITHMS: dict[str, Entry] = {
    "auto": _auto,
    "greedy": lambda inst, q: solve_nondisjoint(inst, q.objective, seed=q.seed),
    "line": _line,
    "tree-dp": _center_only(lambda inst, q: tree_dp_solve(inst)),
    "tree-assign": _center_only(
        lambda inst, q: solve_tree_assignment(inst, _centers(q, "tree-assign"))
    ),
    "general": lambda inst, q: solve_disjoint(inst, q.objective, "general", dim=q.dim),
    "lp": lambda inst, q: solve_disjoint(inst, q.objective, "lp", dim=q.dim),
    "doubling": lambda inst, q: solve_disjoint(inst, q.objective, "doubling", dim=q.dim),
    "two-center": _center_only(lambda inst, q: solve_two_center_disjoint(inst)),
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
    # every entry reports its cost under the requested objective
    clustering_doc = clustering_to_doc(result)
    clustering_doc.update(objective=args.objective, value=report.objective)
    _emit({"report": report.to_doc(), "clustering": clustering_doc}, args.out)
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
    try:  # the loader's number rule (no strings, no booleans), and finite
        if declared is not None and not math.isfinite(_scalar(declared)):
            raise ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f'"value" must be a number, got {declared!r}') from exc
    matches = declared is None or dist_eq(float(declared), value)
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
    _write(to_dot(inst, result), args.out)
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
        oracle: float | str = ""  # the column's cell: empty where the oracle declines
        with contextlib.suppress(OracleLimitError):
            if args.mode == DISJOINT:
                oracle = exact_disjoint(inst, args.objective)[0]
            elif args.objective == CENTER:
                oracle = exact_nondisjoint_center(inst)
            else:
                oracle = exact_nondisjoint_diameter(inst)
        for algo in algos:
            t0 = time.perf_counter()
            report, _ = ALGORITHMS[algo](inst, query)
            elapsed = time.perf_counter() - t0
            ratio = report.objective / oracle if oracle else ""
            rows.append(
                [path, algo, inst.n, inst.k, report.objective, oracle, ratio, f"{elapsed:.4f}"]
            )
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["instance", "algo", "n", "k", "value", "oracle", "ratio", "seconds"])
    writer.writerows(rows)
    _write(text.getvalue(), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # ``main`` reuses one parser for the whole process (``_parser``), so
    # each ``func`` names its ``cmd_*`` inside a lambda body, as the
    # ``ALGORITHMS`` entries do: a command rebound here after the parser
    # was built is the one called.
    ap = argparse.ArgumentParser(
        prog="conncluster",
        description="Connected k-center / k-diameter clustering toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate instances")
    g.add_argument("--family", required=True, help="one of: " + ", ".join(FAMILIES))
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
    g.set_defaults(func=lambda args: cmd_gen(args))

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
    s.set_defaults(func=lambda args: cmd_solve(args))

    v = sub.add_parser("validate", help="check a clustering document")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--clustering", required=True)
    v.add_argument("--out", default=None)
    v.set_defaults(func=lambda args: cmd_validate(args))

    e = sub.add_parser("eval", help="recompute a clustering's objective")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--clustering", required=True)
    e.add_argument("--objective", choices=[CENTER, DIAMETER], default=CENTER)
    e.add_argument("--out", default=None)
    e.set_defaults(func=lambda args: cmd_eval(args))

    x = sub.add_parser("export-dot", help="render the connectivity graph")
    x.add_argument("--in", dest="infile", required=True)
    x.add_argument("--clustering", default=None)
    x.add_argument("--out", default=None)
    x.set_defaults(func=lambda args: cmd_export_dot(args))

    b = sub.add_parser("bench", help="run algorithms over instance files")
    b.add_argument("--in", dest="infiles", nargs="+", required=True)
    b.add_argument("--algos", default="auto")
    b.add_argument("--objective", choices=[CENTER, DIAMETER], default=CENTER)
    b.add_argument("--mode", choices=[DISJOINT, NON_DISJOINT], default=DISJOINT)
    b.add_argument("--dim", type=int, default=2)
    b.add_argument("--out", default=None)
    b.set_defaults(func=lambda args: cmd_bench(args))
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first ``main`` call.

    Parsing never changes a parser, only the namespace it returns, and
    argparse reads the terminal width when it formats usage or help, not
    when it builds; so reuse changes no output and a failed parse leaves
    nothing behind for the next one."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (AlgorithmPreconditionError, DisjointInvariantError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
