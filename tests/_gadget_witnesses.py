"""Witness clusterings of the adversarial and SAT gadgets.

Each builds, from a gadget's annotations, the clustering its docstring
claims: the radius-(2m-1) assignment and the radius-2 alternative of the
worst-case family, and the radius-1 clusterings a satisfying assignment
induces on the SAT gadgets.  Only the tests build them.
"""

from conncluster.instances import GadgetMeta
from conncluster.model import DISJOINT, Clustering, clustering


def worstcase_I_given_center_assignment(meta: GadgetMeta) -> Clustering:
    """The explicit radius-(2m-1) assignment to the annotated centers:
    a vector with its special at coordinate t joins the center that is
    all-ones up to t and matches it afterwards."""
    m = meta.annotations["m"]
    points = [tuple(v) for v in meta.annotations["points"]]
    index = {v: i for i, v in enumerate(points)}
    centers = meta.annotations["centers"]
    blocks: dict[int, set[int]] = {c: {c} for c in centers}
    for i, v in enumerate(points):
        sp = [t for t in range(m) if v[t] < 0]
        if not sp:
            continue
        t = sp[0]
        target = tuple([1] * (t + 1)) + v[t + 1 :]
        blocks[index[target]].add(i)
    return clustering(
        [blocks[c] for c in centers if blocks[c]],
        [c for c in centers if blocks[c]],
        DISJOINT,
    )


def worstcase_I_alt_clustering(meta: GadgetMeta) -> Clustering:
    """The radius-2 disjoint clustering around the alternative centers
    (vectors whose special sits before the last coordinate)."""
    m = meta.annotations["m"]
    points = [tuple(v) for v in meta.annotations["points"]]
    index = {v: i for i, v in enumerate(points)}
    if m == 1:
        centers = meta.annotations["centers"]
        blocks = {c: {c} for c in centers}
        for i, v in enumerate(points):
            if v[0] < 0:
                blocks[centers[0]].add(i)
        return clustering([blocks[c] for c in centers], centers, DISJOINT)
    alt = meta.annotations["alt_centers"]
    blocks = {c: {c} for c in alt}
    for i, v in enumerate(points):
        sp = [t for t in range(m) if v[t] < 0]
        if not sp:  # a plain vector joins its first-coordinate specialization
            target = (-1,) + v[1:]
            blocks[index[target]].add(i)
        elif sp[0] == m - 1:  # last-coordinate specials slide one step left
            t = m - 1
            target = v[: t - 1] + (-1, 1)
            blocks[index[target]].add(i)
    return clustering([blocks[c] for c in alt], alt, DISJOINT)


def sat_two_center_clustering(
    meta: GadgetMeta, assignment: dict[int, bool]
) -> Clustering:
    """The radius-1 clustering induced by a satisfying assignment."""
    ann = meta.annotations
    t, f = ann["centers"]
    t_side, f_side = {t}, {f}
    for i_str, (xi, nxi, ai) in ann["variables"].items():
        if assignment[int(i_str)]:
            t_side.add(xi)
            f_side.add(nxi)
        else:
            t_side.add(nxi)
            f_side.add(xi)
        f_side.add(ai)
    t_side.update(ann["clause_points"])
    return clustering([t_side, f_side], [t, f], DISJOINT)


def sat_four_center_clustering(
    meta: GadgetMeta, assignment: dict[int, bool]
) -> Clustering:
    """The radius-1 four-cluster solution induced by a satisfying
    assignment of the linked five-copy gadget."""
    ann = meta.annotations
    hubs = ann["centers"]
    blocks: dict[int, set[int]] = {h: {h} for h in hubs}
    # owner hub of each sub-instance role, per the linking pattern
    true_lit = {1: 0, 2: 1, 3: 2, 4: 3, 5: 0}  # x_sj -> hub when assignment true
    false_lit = {1: 1, 2: 2, 3: 3, 4: 0, 5: 2}
    a_owner = {1: 1, 2: 2, 3: 3, 4: 0, 5: 2}  # a_sj always joins F_s
    b_owner = {1: 0, 2: 1, 3: 2, 4: 3, 5: 0}  # b_sj always joins T_s
    for s_idx, sub in enumerate(ann["subinstances"], start=1):
        for i_str, (xi, nxi, ai) in sub["variables"].items():
            if assignment[int(i_str)]:
                blocks[hubs[true_lit[s_idx]]].add(xi)
                blocks[hubs[false_lit[s_idx]]].add(nxi)
            else:
                blocks[hubs[true_lit[s_idx]]].add(nxi)
                blocks[hubs[false_lit[s_idx]]].add(xi)
            blocks[hubs[a_owner[s_idx]]].add(ai)
        for bj in sub["clause_points"]:
            blocks[hubs[b_owner[s_idx]]].add(bj)
    return clustering([blocks[h] for h in hubs], hubs, DISJOINT)
