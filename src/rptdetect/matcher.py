"""Instance enumeration for RPT patterns plus baseline neighbor definitions.

Matching uses homomorphism semantics: the role-to-node mapping preserves node
types and every pattern edge, but two roles may land on the same node (the
collapsed-instance case).  An injective mode is available for comparison.

Enumeration is a join that binds one role at a time for a chunk of anchors:
every partial row is expanded through the CSR of an edge to an already-bound
role, and the candidates are filtered with array operations.  The built index
is immutable and safe to share.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import InfeasibleConfig, InstanceCapExceeded, MalformedMetapath
from .hetgraph import HetGraph, distinct
from .patterns import RptPattern, validate_pattern

log = logging.getLogger(__name__)

CAP_ERROR = "error"
CAP_TRUNCATE = "truncate"
DEFAULT_CAP = 64
# rows a join chunk holds at any level, plus at most its last anchor's row bound: a new
# chunk starts where the anchors' summed row bound passes a multiple of it
ROW_BUDGET = 1 << 16
# bytes a baseline walk's block holds in its live node-major bit matrices, at most six:
# own/seen, keep, the frontier, a hop's accumulator, its gathers and its result
WALK_BUDGET = 1 << 22


def _bfs_role_order(pattern: RptPattern) -> list[str]:
    """Anchor first, then roles in breadth-first order over the pattern graph,
    each role's neighbors in canonical order.

    Guarantees every role after the first is adjacent to an already-ordered
    role, so candidates can always be drawn from a neighbor list.
    """
    order = [pattern.anchor]
    for cur in order:  # the loop reaches the roles it appends: a breadth-first walk
        order += [r for r in pattern.role_names if r not in order
                  and any({s, t} == {cur, r} for s, t, _ in pattern.edges)]
    return order


def _base_candidates(graph: HetGraph, pattern: RptPattern, role: str,
                     injective: bool) -> np.ndarray:
    """Mask of the nodes of the role's type with every incident edge type the role needs.

    An undirected edge type is satisfied by an edge in either direction.  In
    injective mode a node also needs at least as many edges as the role has
    distinct neighbor roles, itself included for a self-loop.
    """
    degrees = graph.edge_degrees
    keep = graph.type_code == graph.type_names.index(pattern.role_type(role))
    for s, t, etype in pattern.edges:
        out_deg, in_deg = degrees[etype]
        for end, deg in ((s, out_deg), (t, in_deg)):
            if end == role:
                keep &= (deg if graph.schema.edge_types[etype].directed else out_deg + in_deg) > 0
    if injective:
        deg_needed = len({t if s == role else s for s, t, _ in pattern.edges if role in (s, t)})
        total = sum(out_deg + in_deg for out_deg, in_deg in degrees.values())
        keep &= total >= deg_needed
    return keep


def _ranges(start: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges ``start[j]:start[j] + counts[j]`` back to back."""
    # element k of range j sits at start[j] + k and lands at (elements before j) + k
    shift = start - (np.cumsum(counts) - counts)
    return np.arange(counts.sum()) + np.repeat(shift, counts)


def _rank(cols: list[np.ndarray], bits: int) -> tuple[np.ndarray, int]:
    """Each row's place among the distinct rows of the columns (ids below ``2**bits``), and
    the bits the places take.  The columns are packed into one int64 key, first column
    highest; where the next would reach the sign bit, the key (or, too wide, the column)
    is first replaced by its rank, which orders the same."""
    key, width = np.zeros(len(cols[0]), dtype=np.int64), 0
    for c in cols:
        if width + bits > 63:
            key, width = _rank([key], 63)
        c, c_bits = (c, bits) if width + bits <= 63 else _rank([c], 63)
        key, width = key << c_bits | c, width + c_bits
    by = np.argsort(key)
    key[by] = np.cumsum(np.r_[False, key[by[1:]] != key[by[:-1]]])
    return key, int(key.max()).bit_length()


def _multiset_groups(leaves: np.ndarray, anchor: np.ndarray, cap: int, n: int):
    """The group step of ``_keep_first_multisets``: each leaf's (anchor, multiset) group,
    whether it is its group's first leaf in walk order, and whether the walk keeps it."""
    m, bits = len(leaves), max(1, (n - 1).bit_length())
    group, leaf = _rank([anchor, *np.sort(leaves, axis=1).T], bits)[0], np.arange(m)
    lead = np.full(m, m)
    np.minimum.at(lead, group, leaf)
    first = lead[group] == leaf
    # distinct multisets the walk has met at each leaf, counted per anchor
    seen = np.cumsum(first)
    starts = np.flatnonzero(np.r_[True, anchor[1:] != anchor[:-1]])
    seen -= np.repeat((seen - first)[starts], np.diff(np.r_[starts, m]))
    return group, first, seen <= cap


def _keep_first_multisets(leaves: np.ndarray, anchor: np.ndarray, cap: int,
                          n: int) -> tuple[np.ndarray, np.ndarray]:
    """What a depth-first walk keeps of its leaves, and the anchors it cut short.

    ``leaves`` are grouped by ascending ``anchor`` and in walk order within
    one; every id is below ``n``.  Per anchor, the walk keeps node multisets in
    order of first occurrence and stops at the first leaf of the (cap+1)-th;
    each kept multiset is represented by its smallest row among the leaves
    before the stop.  Rows come back sorted by anchor, then by row.
    """
    m, bits = len(leaves), max(1, (n - 1).bit_length())
    if not m:
        return leaves, anchor
    group, _, kept = _multiset_groups(leaves, anchor, cap, n)
    # each kept group's leaf with the least place in (anchor, row) order is its smallest row
    idx = np.flatnonzero(kept)
    place = _rank([anchor[idx], *leaves[idx].T], bits)[0]
    lead, leaf = np.full(m, m), np.arange(m)
    np.minimum.at(lead, group[idx], place)
    leaf[place] = idx  # now the kept leaf at each place
    return leaves[leaf[np.sort(lead[lead < m])]], distinct(anchor[~kept])


def _join(graph: HetGraph, pattern: RptPattern, injective: bool,
          anchors: Sequence[int] | None, exists: bool = False):
    """Per chunk of the pattern's candidate anchors (ascending; only ``anchors`` when
    given), the join's leaves in canonical role order and their anchor column, grouped
    by ascending anchor and in depth-first walk order within one.  With ``exists`` (not
    injective), each level keeps only the distinct rows on the anchor and the columns a
    later level reads: the last keeps one row per anchor that has any match."""
    order = _bfs_role_order(pattern)
    pos = {r: k for k, r in enumerate(order)}
    # the edges each role must satisfy against itself and earlier roles, by position
    checks: list[list[tuple[int, int, str]]] = [[] for _ in order]
    for s, t, etype in pattern.edges:
        checks[max(pos[s], pos[t])].append((pos[s], pos[t], etype))
    # each later role's candidates are the neighbors of the role its first
    # edge to an earlier role joins; that edge then holds for every candidate
    levels = []
    for k in range(1, len(order)):
        gen = next(e for e in checks[k] if e[0] != e[1])
        levels.append((gen[1] if gen[0] == k else gen[0], graph.adjacency(gen[2], gen[0] == k),
                       [e for e in checks[k] if e != gen]))
    masks = [_base_candidates(graph, pattern, r, injective) for r in order]
    if anchors is not None:
        masks[0] &= np.bincount(np.asarray(anchors, dtype=np.intp), minlength=len(graph)) > 0
    candidates = np.flatnonzero(masks[0])
    for _, _, etype in checks[0]:  # self-loops on the anchor
        candidates = candidates[graph.has_edges(candidates, candidates, etype)]
    # a partial row's extensions depend only on its anchor and the columns later levels
    # read: their generating roles and other edges' ends
    reads = [{b} | {x for s, t, _ in others for x in (s, t)} for b, _, others in levels]
    need = [sorted({0}.union(*reads[k:]) & set(range(k + 1))) for k in range(1, len(order))]
    bits = max(1, (len(graph) - 1).bit_length())

    # rows per anchor at every level are at most its matches of the tree of
    # generating edges, with no role filter and a role without candidates
    # counted once: one segment sum per tree edge, leaves first
    bound = np.ones((len(order), len(graph)))
    for k in range(len(order) - 1, 0, -1):
        b, (ptr, idx), _ = levels[k - 1]
        total = np.concatenate(([0.0], np.cumsum(bound[k][idx])))
        bound[b] *= np.maximum(total[ptr[1:]] - total[ptr[:-1]], 1.0)
    cost = bound[0][candidates]
    canonical = [pos[r] for r in pattern.role_names]
    for chunk in np.split(candidates,
                          np.flatnonzero(np.diff((np.cumsum(cost) - cost) // ROW_BUDGET)) + 1):
        rows = chunk[:, None]
        for k, (b, (ptr, idx), others) in enumerate(levels, start=1):
            start = ptr[rows[:, b]]
            counts = ptr[rows[:, b] + 1] - start
            parent = np.repeat(np.arange(len(rows)), counts)
            cand = idx[_ranges(start, counts)]
            keep = masks[k][cand]
            for s, t, etype in others:
                keep &= graph.has_edges(cand if s == k else rows[parent, s],
                                        cand if t == k else rows[parent, t], etype)
            if injective:
                keep &= (rows[parent] != cand[:, None]).all(axis=1)
            rows = np.column_stack((rows[parent[keep]], cand[keep]))
            if exists and len(rows):  # one row per distinct key on the needed columns
                key = _rank([rows[:, c] for c in need[k - 1]], bits)[0]
                one = np.empty(int(key.max()) + 1, dtype=np.intp)
                one[key] = np.arange(len(rows))
                rows = rows[one]
        yield rows[:, canonical], rows[:, 0]


def _check(graph: HetGraph, pattern: RptPattern, cap: int, cap_mode: str) -> None:
    validate_pattern(pattern, graph.schema)
    if cap_mode not in (CAP_ERROR, CAP_TRUNCATE):
        raise ValueError(f"cap_mode must be 'error' or 'truncate', got {cap_mode!r}")
    if cap < 1:
        raise InfeasibleConfig(f"cap must be >= 1, got {cap}")


def _cut(graph: HetGraph, pattern: RptPattern, truncated: np.ndarray, cap: int,
         cap_mode: str) -> None:
    """Raise for the first anchor the cap cut short (``error``), or warn for each."""
    if truncated.size and cap_mode == CAP_ERROR:
        raise InstanceCapExceeded(f"pattern {pattern.pattern_id!r}: anchor "
                                  f"{graph.ids[truncated[0]]!r} exceeds instance cap {cap}")
    for anchor_node in truncated.tolist():
        log.warning("pattern %s: anchor %s truncated at cap %d",
                    pattern.pattern_id, graph.ids[anchor_node], cap)


def enumerate_instances(graph: HetGraph, pattern: RptPattern, *,
                        injective: bool = False,
                        cap: int = DEFAULT_CAP,
                        cap_mode: str = CAP_ERROR,
                        anchors: Sequence[int] | None = None) -> np.ndarray:
    """Every occurrence of the pattern, deduplicated and deterministically ordered.

    Returns one ``np.intp`` row per instance (shape ``[n_inst, n_roles]``,
    columns in canonical role order), rows sorted by the anchor column and
    then by the whole row.  Two matches with the same anchor node and the same
    node multiset count as one instance (role-permutation symmetry).  ``cap``
    bounds distinct instances per anchor node; hitting it raises
    ``InstanceCapExceeded`` unless ``cap_mode="truncate"``, which logs a
    warning and keeps the first ``cap`` a depth-first walk over the roles in
    ``_bfs_role_order``, candidates ascending, meets.  With ``anchors``, only
    their rows: the same as without, since the cap cuts each anchor on its own.
    """
    _check(graph, pattern, cap, cap_mode)
    out = []
    for leaves, anchor in _join(graph, pattern, injective, anchors):
        kept, truncated = _keep_first_multisets(leaves, anchor, cap, len(graph))
        _cut(graph, pattern, truncated, cap, cap_mode)
        out.append(kept)
    return np.concatenate(out).astype(np.intp, copy=False)


def count_instances(graph: HetGraph, pattern: RptPattern, *, injective: bool = False,
                    cap: int = DEFAULT_CAP, cap_mode: str = CAP_ERROR) -> tuple[int, int]:
    """``enumerate_instances``' row count and distinct anchors, with its warnings and
    errors, from the group step alone: no representative row is built."""
    _check(graph, pattern, cap, cap_mode)
    instances = anchored = 0
    for leaves, anchor in _join(graph, pattern, injective, None):
        if len(leaves):
            _, first, kept = _multiset_groups(leaves, anchor, cap, len(graph))
            _cut(graph, pattern, distinct(anchor[~kept]), cap, cap_mode)
            instances += int(np.count_nonzero(first & kept))
            anchored += 1 + int(np.count_nonzero(anchor[1:] != anchor[:-1]))
    return instances, anchored


def anchoring_nodes(graph: HetGraph, patterns: Sequence[RptPattern],
                    nodes: Sequence[int]) -> np.ndarray:
    """Per node of the graph, whether it is one of ``nodes`` and anchors an instance of any
    of the patterns.  Each pattern is joined, with no cap, from the nodes left unmarked."""
    given = np.bincount(np.asarray(nodes, dtype=np.intp), minlength=len(graph)) > 0
    rest = given.copy()
    for p in patterns:
        validate_pattern(p, graph.schema)
        for _, found in _join(graph, p, False, np.flatnonzero(rest), exists=True):
            rest[found] = False
    return given & ~rest


class NeighborIndex:
    """Per pattern, the instance rows grouped by anchor in CSR form.

    ``nodes[pid]`` holds one row per instance (shape ``[n_inst, n_roles]``,
    columns in canonical role order, rows sorted by anchor then nodes), and
    node ``i``'s rows are ``anchor_ptr[pid][i]:anchor_ptr[pid][i + 1]``
    (length ``n_nodes + 1``).  ``companies`` are the nodes the index covers.
    """

    def __init__(self, patterns: Sequence[RptPattern], nodes: dict[str, np.ndarray],
                 companies: Sequence[int], n_nodes: int):
        self.patterns = tuple(patterns)
        self.companies = tuple(companies)
        self.nodes = nodes
        self.anchor_ptr = {
            p.pattern_id: np.concatenate(([0], np.cumsum(np.bincount(
                nodes[p.pattern_id][:, p.role_names.index(p.anchor)],
                minlength=n_nodes))))
            for p in self.patterns}

    @property
    def pattern_ids(self) -> tuple[str, ...]:
        return tuple(p.pattern_id for p in self.patterns)

    @property
    def per_node(self) -> dict[int, dict[str, np.ndarray]]:
        """Each company's instance rows per pattern, sliced from the arrays on each access."""
        return {i: {pid: self.instances(i, pid) for pid in self.pattern_ids}
                for i in self.companies}

    def instances(self, node: int, pattern_id: str) -> np.ndarray:
        """The node's instance rows for one pattern (empty when it anchors none)."""
        ptr = self.anchor_ptr[pattern_id]
        return self.nodes[pattern_id][ptr[node]:ptr[node + 1]]

    def has_any(self, node: int) -> bool:
        return any(ptr[node] != ptr[node + 1] for ptr in self.anchor_ptr.values())

    def gather(self, pattern_id: str, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The anchors' instance rows back to back, in anchor order, and each anchor's count."""
        ptr = self.anchor_ptr[pattern_id]
        start = ptr[anchors]
        counts = ptr[anchors + 1] - start
        return self.nodes[pattern_id][_ranges(start, counts)], counts


def build_neighbor_index(graph: HetGraph, patterns: Sequence[RptPattern], *,
                         cap: int = DEFAULT_CAP,
                         cap_mode: str = CAP_ERROR,
                         anchors: Sequence[int] | None = None) -> NeighborIndex:
    """Every pattern's instance rows, indexed by anchor over all company nodes, or over
    the ``anchors`` alone, whose rows are then the same as in the whole index."""
    nodes = {p.pattern_id: enumerate_instances(graph, p, cap=cap, cap_mode=cap_mode,
                                               anchors=anchors)
             for p in patterns}
    return NeighborIndex(patterns, nodes, graph.company_nodes() if anchors is None else anchors,
                         len(graph))


class CenterSets(Mapping):
    """Per center, the nodes a walk from it reaches, the center excluded.  Each of the
    walk's ``steps`` names the CSRs (``adjacency`` arguments) a node pulls the next
    frontier through; a set is the last frontier, or with ``ball`` every node seen,
    companies only.  Only the walk is held: a lookup walks the center's block of
    ``width`` centers and keeps the last block it walked."""

    def __init__(self, graph: HetGraph, centers: Sequence[int], steps: list, ball: bool = False):
        self.graph, self.steps, self.ball = graph, steps, ball
        self.centers = list(dict.fromkeys(centers))
        self._pos = dict(zip(self.centers, range(len(self.centers))))
        # 64 centers per uint64 word of a node's row; six such matrices fit WALK_BUDGET bytes
        self.width = 64 * max(1, WALK_BUDGET // max(6 * 8 * len(graph), 1))
        self._plans, self._last = {}, (-1, None)

    def __getitem__(self, center: int) -> frozenset[int]:
        j = self._pos[center]
        lo = j - j % self.width
        if self._last[0] != lo:
            for bits in self.walk(self.centers[lo:lo + self.width]):
                self._last = lo, bits
        word = self._last[1][:, (j - lo) >> 6] >> np.uint64((j - lo) & 63)
        return frozenset(np.flatnonzero(word & np.uint64(1)).tolist())

    def __iter__(self):
        return iter(self.centers)

    def __len__(self) -> int:
        return len(self.centers)

    def walk(self, centers: Sequence[int], rows: np.ndarray | None = None):
        """After each step, the ``centers``' sets of a walk that stops there at the nodes
        ``rows`` (default: every node), node-major: bit ``j % 64`` of word ``j // 64`` in
        row ``i`` is set when ``rows[i]`` is in the set of ``centers[j]``.  The first step
        pushes from the centers alone; the last pulls into the ``rows`` alone."""
        graph, c = self.graph, np.array(centers, dtype=np.intp)
        j = np.arange(c.size)
        own = np.zeros((len(graph), -(-c.size // 64)), dtype=np.uint64)
        own[c, j >> 6] = np.uint64(1) << (j & 63).astype(np.uint64)
        at = (lambda a: a) if rows is None else (lambda a: a.take(rows, axis=0))
        keep = ~at(own)
        if self.ball:
            keep[at(graph.type_code) != graph.type_names.index(graph.schema.company_type)] = 0
        seen = frontier = own
        for step, csrs in enumerate(self.steps, 1):
            last = step == len(self.steps)
            into = rows if last else None
            tag = () if into is None else (into.tobytes(),)  # a plan per CSR and row set
            for key in {k + tag for k in csrs} - self._plans.keys() if step > 1 else ():
                self._plans[key] = _hop_plan(graph, *key[:2], into)
            frontier = (_push(graph, c, own.shape[1], csrs) if step == 1 else reduce(
                np.bitwise_or, (_hop(frontier, self._plans[key + tag]) for key in csrs)))
            if last:  # nothing walks on from here: only the rows are read
                frontier = at(frontier) if step == 1 else frontier
                yield ((at(seen) | frontier) if self.ball else frontier) & keep
            else:
                if self.ball:
                    frontier &= ~seen
                    seen |= frontier
                yield at(seen if self.ball else frontier) & keep


def count_members(sets: Sequence[CenterSets], centers: Sequence[int],
                  rows: np.ndarray) -> list[np.ndarray]:
    """Per set, how many of the distinct ``centers``' sets hold each node of ``rows``.
    Each block of centers is reduced to counts before the next is walked, and the
    ``ball`` sets share one walk that counts at every radius.  A center a set does
    not hold raises ``KeyError``."""
    for s in sets:
        for c in centers:
            s._pos[c]  # raises KeyError for a center the set does not hold
    counts = [np.zeros(len(rows), dtype=np.int64) for _ in sets]
    balls = [k for k, s in enumerate(sets) if s.ball]
    for walk in [[k] for k, s in enumerate(sets) if not s.ball] + [balls] * bool(balls):
        walker = max((sets[k] for k in walk), key=lambda s: len(s.steps))
        for lo in range(0, len(centers), walker.width):
            for radius, reached in enumerate(walker.walk(centers[lo:lo + walker.width], rows), 1):
                held = np.bitwise_count(reached).sum(axis=1, dtype=np.int64)
                for k in walk:
                    if len(sets[k].steps) == radius:
                        counts[k] += held
    return counts


def _push(graph: HetGraph, centers: np.ndarray, words: int, csrs: list) -> np.ndarray:
    """A walk's first step, from ``centers`` alone: the bit of ``centers[j]`` ORed into the
    row of each node that pulls from it through one of the ``csrs`` (its reversed CSR)."""
    out = np.zeros((len(graph), words), dtype=np.uint64)
    for etype, reverse in csrs:
        ptr, idx = graph.adjacency(etype, not reverse)
        counts = ptr[centers + 1] - ptr[centers]
        j = np.repeat(np.arange(centers.size), counts)
        np.bitwise_or.at(out.reshape(-1), idx[_ranges(ptr[centers], counts)] * words + (j >> 6),
                         np.uint64(1) << (j & 63).astype(np.uint64))
    return out


def _hop_plan(graph: HetGraph, etype: str | None, reverse: bool, rows: np.ndarray | None = None):
    """What ``_hop`` gathers through the CSR into every node, or into ``rows`` alone.  In
    descending degree order the nodes with a p-th neighbor are a prefix, so each
    position below h, the degrees' h-index, is one gather of at least h rows; the at
    most h nodes with more neighbors end with one reduceat over their other ones.
    ``inverse`` is each node's (or row's) place in that order, ``size`` for none."""
    ptr, idx = graph.adjacency(etype, reverse)
    start, end = (ptr[:-1], ptr[1:]) if rows is None else (ptr[rows], ptr[rows + 1])
    deg = end - start
    order = np.argsort(-deg, kind="stable")[:np.count_nonzero(deg)]
    inverse = np.full(deg.size, order.size)
    inverse[order] = np.arange(order.size)
    deg, start = deg[order], start[order]
    h = int(np.count_nonzero(deg > np.arange(deg.size)))
    gathers = [idx[start[:count] + p]
               for p, count in enumerate(np.searchsorted(-deg, -np.arange(h)).tolist())]
    rest = deg[deg > h] - h
    return (inverse, order.size, gathers, idx[_ranges(start[:rest.size] + h, rest)],
            np.cumsum(rest) - rest)


def _hop(frontier: np.ndarray, plan) -> np.ndarray:
    """Per node, the OR of the frontier rows of its neighbors in one planned CSR."""
    inverse, size, gathers, tail, starts = plan
    acc = np.zeros((size + 1, frontier.shape[1]), dtype=frontier.dtype)
    for rows in gathers:
        acc[:rows.size] |= frontier.take(rows, axis=0)
    if starts.size:
        acc[:starts.size] |= np.bitwise_or.reduceat(frontier.take(tail, axis=0), starts, axis=0)
    return acc.take(inverse, axis=0)


def metapath_neighbors(graph: HetGraph, metapath: Sequence[str],
                       centers: Sequence[int] | None = None) -> CenterSets:
    """End nodes reachable along the typed path, per start node, start excluded.

    ``metapath`` alternates node and edge types, e.g.
    ``["company", "invest", "person", "invest", "company"]``.  Steps traverse
    the edge type in whichever direction joins the two declared node types.
    The start nodes are ``centers``, by default every node of the first type.
    """
    if len(metapath) < 3 or len(metapath) % 2 == 0:
        raise MalformedMetapath(f"metapath must alternate node/edge types: {metapath}")
    node_types, edge_types = metapath[0::2], metapath[1::2]
    for t in node_types:
        if t not in graph.schema.node_types:
            raise MalformedMetapath(f"unknown node type {t!r} in metapath")
    steps = []  # per step, the CSRs a node pulls its next frontier bits through
    for (ta, e, tb) in zip(node_types[:-1], edge_types, node_types[1:]):
        if e not in graph.schema.edge_types:
            raise MalformedMetapath(f"unknown edge type {e!r} in metapath")
        et = graph.schema.edge_types[e]
        # a step along the edge type reaches a node from its sources, one against
        # it from its targets; an undirected type's one CSR holds both ways
        forward = (et.source, et.target) == (ta, tb) or (
            not et.directed and (et.source, et.target) == (tb, ta))
        backward = et.directed and (et.source, et.target) == (tb, ta)
        if not (forward or backward):
            raise MalformedMetapath(
                f"edge type {e!r} does not join {ta!r} and {tb!r}")
        steps.append([(e, True)] * forward + [(e, False)] * backward)

    return CenterSets(graph, graph.nodes_of_type(node_types[0]) if centers is None else centers,
                      steps)


def k_order_neighbors(graph: HetGraph, k: int,
                      centers: Sequence[int] | None = None) -> CenterSets:
    """Type-agnostic BFS ball of radius k minus the center.

    Reported sets are restricted to company-type members; traversal itself
    crosses all node types.  A walk takes its centers 64 to a ``uint64`` word,
    so a hop costs one pass over the graph's CSR per word.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return CenterSets(graph, range(len(graph)) if centers is None else centers,
                      [[(None, False)]] * k, ball=True)
