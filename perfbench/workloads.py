"""Workload definitions: document pools, request mixes and generation.

A workload is a list of slots.  A slot names a document family and the
requests replayed on each of its documents.  Every slot has a fixed pool
of ``pool`` documents; each pool member has its own generator seed, so
its reference objectives can be recorded once (see
``record_reference.py``).  The benchmark's ``--seed`` picks ``pool - 1``
members of each pool and the order of the document blocks in a round.
Leaving one document out keeps the work of a run nearly independent of
the seed, although single documents differ in cost.

One round replays, for every picked document, all of its slot's
requests in order.  ``validate``, ``eval`` and ``export-dot`` requests
read the ``clustering`` sub-document of the solve request named in
their ``of`` field, from the same round.
"""

from __future__ import annotations

import json
import os
import random
import zlib
from dataclasses import dataclass

@dataclass(frozen=True)
class Request:
    label: str
    cmd: str  # solve | validate | eval | export-dot
    args: tuple[str, ...] = ()
    of: str = ""  # label of the solve whose clustering a check request reads


@dataclass(frozen=True)
class Slot:
    name: str
    family: str  # lp | general | line | tree | graph
    n: tuple[int, int]  # inclusive range, drawn per pool member
    k: tuple[int, int]
    requests: tuple[Request, ...]
    pool: int = 4
    dim: int = 2
    p: float = 2.0
    max_distance: int = 9
    centers: int = 0  # size of the drawn center set for {centers}


def _solve(label: str, *args: str) -> Request:
    return Request(label, "solve", args)


def _checks(of: str) -> tuple[Request, ...]:
    return (
        Request(f"{of}:validate", "validate", (), of),
        Request(f"{of}:eval", "eval", (), of),
        Request(f"{of}:dot", "export-dot", (), of),
    )


def _pipeline(dim: int) -> tuple[Request, ...]:
    out = []
    for algo in ("lp", "general", "doubling"):
        for obj in ("center", "diameter"):
            extra = ("--dim", str(dim)) if algo == "doubling" else ()
            out.append(_solve(f"{algo}-{obj}", "--algo", algo, "--objective", obj, *extra))
    out.append(_solve("greedy-nd", "--algo", "greedy", "--mode", "non_disjoint"))
    return tuple(out)


def _small(label: str, *args: str) -> tuple[Request, ...]:
    return (_solve(label, *args),) + _checks(label)


SMALL_MIX = (
    _small("auto")
    + _small("greedy-nd", "--algo", "greedy", "--mode", "non_disjoint")
    + _small("general-diameter", "--algo", "general", "--objective", "diameter")
)

TWO_CENTER_MIX = (
    _solve("auto"),
    _solve("auto-exact-k", "--exact-k"),
    _solve("assign", "--algo", "assign", "--centers", "{centers}"),
)

WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "disjoint-pipeline": (
        Slot("lp-d2-p2", "lp", (400, 400), (20, 20), _pipeline(2), dim=2, p=2.0),
        Slot("lp-d3-pinf", "lp", (400, 400), (40, 40), _pipeline(3), dim=3, p=float("inf")),
        Slot(
            "general-dense",
            "general",
            (300, 300),
            (30, 30),
            (
                _solve("general-center", "--algo", "general"),
                _solve("greedy-nd", "--algo", "greedy", "--mode", "non_disjoint"),
            ),
        ),
    ),
    "exact-paths": (
        Slot(
            "line",
            "line",
            (400, 400),
            (10, 10),
            (
                _solve("auto-center", "--objective", "center"),
                _solve("auto-center-nd", "--mode", "non_disjoint"),
                _solve("auto-diameter", "--objective", "diameter"),
                _solve("line-center-nd", "--algo", "line", "--mode", "non_disjoint"),
            ),
            max_distance=1000,
        ),
        Slot(
            "tree",
            "tree",
            (400, 400),
            (30, 30),
            (
                _solve("auto-center"),
                _solve("tree-assign", "--algo", "tree-assign", "--centers", "{centers}"),
            ),
            max_distance=1000,
            centers=8,
        ),
    ),
    "two-center": (
        Slot("n20", "general", (20, 20), (2, 2), TWO_CENTER_MIX, pool=16, centers=2),
        Slot("n30", "general", (30, 30), (2, 2), TWO_CENTER_MIX, pool=16, centers=2),
    ),
    "cli-small": (
        Slot("general", "general", (30, 50), (3, 5), SMALL_MIX, pool=7),
        Slot("lp", "lp", (30, 50), (3, 5), SMALL_MIX, pool=7),
        Slot("graph", "graph", (30, 50), (3, 5), SMALL_MIX, pool=7),
        Slot(
            "oracle",
            "general",
            (8, 8),
            (3, 3),
            _small("oracle", "--algo", "oracle")
            + (_solve("oracle-diameter", "--algo", "oracle", "--objective", "diameter"),),
            pool=12,
        ),
    ),
}

#: Document sizes outside the full-scale runs: ``smoke`` for the
#: benchmark's own tests, ``warmup`` for the untimed first requests.
SMALL_N = {
    "smoke": {"disjoint-pipeline": 40, "exact-paths": 30, "two-center": 12, "cli-small": 12},
    "warmup": dict.fromkeys(WORKLOADS, 16),
}


@dataclass(frozen=True)
class Doc:
    """One generated document: its pool identity and generation spec."""

    key: str  # "<scale>/<workload>/<slot>/<member>"
    slot: Slot
    seed: int
    n: int
    k: int
    centers: str
    metric: bool  # whether the distances satisfy the triangle inequality

    @property
    def filename(self) -> str:
        return self.key.replace("/", "_") + ".json"


def pool_doc(workload: str, slot: Slot, member: int, scale: str = "full") -> Doc:
    key = f"{scale}/{workload}/{slot.name}/{member}"
    seed = zlib.crc32(key.encode())
    rng = random.Random(seed)
    n = rng.randint(*slot.n)
    k = rng.randint(*slot.k)
    if scale != "full":
        n = min(slot.n[1], SMALL_N[scale][workload])
        k = min(k, max(2, n // 4))
    centers = ",".join(map(str, sorted(rng.sample(range(n), min(slot.centers, k)))))
    metric = slot.family in ("lp", "general", "graph")
    return Doc(key, slot, seed, n, k, centers, metric)


def pick_docs(workload: str, seed: int, scale: str = "full") -> list[Doc]:
    """The documents a run with this seed replays, in round order."""
    docs = []
    for slot in WORKLOADS[workload]:
        members = random.Random(f"{seed}:{slot.name}").sample(range(slot.pool), slot.pool - 1)
        docs += [pool_doc(workload, slot, m, scale) for m in members]
    random.Random(seed).shuffle(docs)
    return docs


def warmup_docs(workload: str) -> list[Doc]:
    """One tiny document per slot, so that every request kind of the
    workload runs once before timing."""
    return [pool_doc(workload, slot, 0, "warmup") for slot in WORKLOADS[workload]]


def instance_doc(doc: Doc) -> dict:
    """Generate the instance document through the package's generators."""
    from conncluster.instances import gen_random
    from conncluster.model import instance_to_doc

    slot = doc.slot
    family = "general" if slot.family == "graph" else slot.family
    inst = gen_random(
        family,
        doc.n,
        doc.k,
        doc.seed,
        dim=slot.dim,
        p=slot.p,
        max_distance=slot.max_distance,
    )
    out = instance_to_doc(inst)
    if slot.family == "graph":
        # Same connectivity, but distances are shortest paths over
        # randomly weighted connectivity edges, realized at load time.
        rng = random.Random(doc.seed + 1)
        out["metric"] = {
            "type": "graph",
            "edges": [[u, v, rng.randint(1, 9)] for u, v in out["edges"]],
        }
    return out


def write_docs(docs: list[Doc], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for doc in docs:
        with open(os.path.join(directory, doc.filename), "w", encoding="utf-8") as fh:
            json.dump(instance_doc(doc), fh)


def expand(doc: Doc, request: Request) -> list[str]:
    return [a.replace("{centers}", doc.centers) for a in request.args]
