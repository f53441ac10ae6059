"""Instance enumeration for RPT patterns plus baseline neighbor definitions.

Matching uses homomorphism semantics: the role-to-node mapping preserves node
types and every pattern edge, but two roles may land on the same node (the
collapsed-instance case).  An injective mode is available for comparison.

Anchors are enumerated independently against the immutable graph and results
merged by a final sort, so enumeration can be fanned out across workers; the
built index is immutable and safe to share.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InfeasibleConfig, InstanceCapExceeded, MalformedMetapath
from .hetgraph import HetGraph
from .patterns import RptPattern, validate_pattern

log = logging.getLogger(__name__)

CAP_ERROR = "error"
CAP_TRUNCATE = "truncate"
DEFAULT_CAP = 64


@dataclass(frozen=True)
class RptInstance:
    """One matched occurrence: node indices in canonical role order."""

    pattern_id: str
    anchor: int
    nodes: tuple[int, ...]

    def node_set(self) -> frozenset[int]:
        return frozenset(self.nodes)

    def mapping(self, pattern: RptPattern) -> dict[str, int]:
        return {role: node for (role, _), node in zip(pattern.roles, self.nodes)}


def _bfs_role_order(pattern: RptPattern) -> list[str]:
    """Anchor first, then roles in breadth-first order over the pattern graph.

    Guarantees every role after the first is adjacent to an already-ordered
    role, so candidates can always be drawn from a neighbor list.
    """
    adj: dict[str, list[str]] = {r: [] for r in pattern.role_names}
    for s, t, _ in pattern.edges:
        adj[s].append(t)
        adj[t].append(s)
    order = [pattern.anchor]
    seen = {pattern.anchor}
    queue = [pattern.anchor]
    while queue:
        cur = queue.pop(0)
        for nxt in sorted(set(adj[cur]), key=pattern.role_names.index):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def _role_requirements(pattern: RptPattern) -> dict[str, tuple[set[str], set[str]]]:
    """Edge types each role must have outgoing / incoming (direction-aware)."""
    req: dict[str, tuple[set[str], set[str]]] = {r: (set(), set()) for r in pattern.role_names}
    for s, t, etype in pattern.edges:
        req[s][0].add(etype)
        req[t][1].add(etype)
    return req


def _base_candidates(graph: HetGraph, pattern: RptPattern, role: str,
                     injective: bool) -> list[int]:
    rtype = pattern.role_type(role)
    req_out, req_in = _role_requirements(pattern)[role]
    directed = {r: graph.schema.edge_types[r].directed for r in graph.schema.edge_types}
    out: list[int] = []
    deg_needed = sum(1 for s, t, _ in pattern.edges if role in (s, t))
    for i in graph.nodes_of_type(rtype):
        outs, ins = graph.incident_edge_types(i)
        undirected_ok = outs | ins
        if any(r not in (outs if directed[r] else undirected_ok) for r in req_out):
            continue
        if any(r not in (ins if directed[r] else undirected_ok) for r in req_in):
            continue
        if injective and graph.degree(i) < deg_needed:
            continue
        out.append(i)
    return out


def enumerate_instances(graph: HetGraph, pattern: RptPattern, *,
                        injective: bool = False,
                        cap: int = DEFAULT_CAP,
                        cap_mode: str = CAP_ERROR) -> list[RptInstance]:
    """Every occurrence of the pattern, deduplicated and deterministically ordered.

    Two matches with the same anchor node and the same node multiset count as
    one instance (role-permutation symmetry).  ``cap`` bounds distinct instances
    per anchor node; hitting it raises ``InstanceCapExceeded`` unless
    ``cap_mode="truncate"``, which logs a warning and keeps the first ``cap``.
    """
    validate_pattern(pattern, graph.schema)
    if cap_mode not in (CAP_ERROR, CAP_TRUNCATE):
        raise ValueError(f"cap_mode must be 'error' or 'truncate', got {cap_mode!r}")
    if cap < 1:
        raise InfeasibleConfig(f"cap must be >= 1, got {cap}")

    order = _bfs_role_order(pattern)
    role_pos = {r: k for k, r in enumerate(order)}
    # edges each newly assigned role must satisfy against earlier roles
    check_edges: list[list[tuple[str, str, str]]] = [[] for _ in order]
    for s, t, etype in pattern.edges:
        later = s if role_pos[s] >= role_pos[t] else t
        check_edges[role_pos[later]].append((s, t, etype))
    # pick, per role, one earlier-assigned neighbor to generate candidates from
    gen_edge: list[tuple[str, str, str] | None] = [None] * len(order)
    for k in range(1, len(order)):
        gen_edge[k] = check_edges[k][0]

    base = {r: _base_candidates(graph, pattern, r, injective) for r in pattern.role_names}
    canonical = pattern.role_names
    undirected = {r: not graph.schema.edge_types[r].directed for r in graph.schema.edge_types}

    results: list[RptInstance] = []

    base_sets = {r: set(v) for r, v in base.items()}

    def candidates_for(k: int, assignment: dict[str, int]) -> Iterable[int]:
        role = order[k]
        s, t, etype = gen_edge[k]
        if s == role:
            bound = assignment[t]
            cands = set(graph.in_neighbors(bound, etype))
            if undirected[etype]:
                cands |= set(graph.out_neighbors(bound, etype))
        else:
            bound = assignment[s]
            cands = set(graph.out_neighbors(bound, etype))
            if undirected[etype]:
                cands |= set(graph.in_neighbors(bound, etype))
        return sorted(cands.intersection(base_sets[role]))

    for anchor_node in base[pattern.anchor]:
        # anchor self-loop edges sit at position 0 and must be checked up front
        if any(not graph.has_edge(anchor_node, anchor_node, e)
               for _, _, e in check_edges[0]):
            continue
        collected: dict[tuple[int, ...], tuple[int, ...]] = {}  # multiset key -> nodes
        truncated = False

        def dfs(k: int, assignment: dict[str, int]) -> bool:
            """Returns False when the anchor's enumeration should stop."""
            nonlocal truncated
            if k == len(order):
                nodes = tuple(assignment[r] for r in canonical)
                key = tuple(sorted(nodes))
                if key in collected:
                    # keep the lexicographically smallest representative
                    if nodes < collected[key]:
                        collected[key] = nodes
                    return True
                if len(collected) >= cap:
                    if cap_mode == CAP_ERROR:
                        raise InstanceCapExceeded(
                            pattern.pattern_id, graph.ids[anchor_node], cap)
                    truncated = True
                    return False
                collected[key] = nodes
                return True
            role = order[k]
            for cand in candidates_for(k, assignment):
                if injective and cand in assignment.values():
                    continue
                ok = True
                for s, t, etype in check_edges[k]:
                    su = assignment[s] if s != role else cand
                    tu = assignment[t] if t != role else cand
                    if not graph.has_edge(su, tu, etype):
                        ok = False
                        break
                if not ok:
                    continue
                if not dfs(k + 1, {**assignment, role: cand}):
                    return False
            return True

        dfs(1, {pattern.anchor: anchor_node})
        if truncated:
            log.warning("pattern %s: anchor %s truncated at cap %d",
                        pattern.pattern_id, graph.ids[anchor_node], cap)
        results.extend(RptInstance(pattern.pattern_id, anchor_node, nodes)
                       for nodes in collected.values())

    results.sort(key=lambda inst: (inst.anchor, inst.nodes))
    return results


class NeighborIndex:
    """Per company node and pattern, the ordered list of matched instances.

    Each pattern's instances are also compiled into CSR arrays for batched
    gathers: ``nodes[pid]`` holds one row per instance (shape
    ``[n_inst, n_roles]``, columns in canonical role order, rows sorted by
    anchor then nodes), and node ``i``'s rows are
    ``anchor_ptr[pid][i]:anchor_ptr[pid][i + 1]`` (length ``n_nodes + 1``).
    """

    def __init__(self, patterns: Sequence[RptPattern],
                 per_node: dict[int, dict[str, list[RptInstance]]], n_nodes: int):
        self.patterns = tuple(patterns)
        self.per_node = per_node
        self.anchor_ptr: dict[str, np.ndarray] = {}
        self.nodes: dict[str, np.ndarray] = {}
        anchors = sorted(per_node)
        for p in self.patterns:
            counts = np.zeros(n_nodes, dtype=np.intp)
            rows: list[tuple[int, ...]] = []
            for node in anchors:
                insts = per_node[node].get(p.pattern_id, [])
                counts[node] = len(insts)
                rows.extend(inst.nodes for inst in insts)
            self.anchor_ptr[p.pattern_id] = np.concatenate(([0], np.cumsum(counts)))
            self.nodes[p.pattern_id] = np.array(rows, dtype=np.intp).reshape(
                len(rows), len(p.roles))

    @property
    def pattern_ids(self) -> tuple[str, ...]:
        return tuple(p.pattern_id for p in self.patterns)

    def instances(self, node: int, pattern_id: str) -> list[RptInstance]:
        return self.per_node.get(node, {}).get(pattern_id, [])

    def has_any(self, node: int) -> bool:
        return any(self.per_node.get(node, {}).get(pid) for pid in self.pattern_ids)

    def neighbor_sets(self, node: int, pattern_id: str) -> list[set[int]]:
        """The k-th entry is the node set of the k-th instance (includes the anchor)."""
        return [set(inst.nodes) for inst in self.instances(node, pattern_id)]

    def gather(self, pattern_id: str, anchors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The anchors' instance rows back to back, in anchor order, and each anchor's count."""
        ptr = self.anchor_ptr[pattern_id]
        start = ptr[anchors]
        counts = ptr[anchors + 1] - start
        # row k of anchor j sits at start[j] + k and lands at (rows before j) + k
        shift = start - (np.cumsum(counts) - counts)
        rows = np.arange(counts.sum()) + np.repeat(shift, counts)
        return self.nodes[pattern_id][rows], counts


def build_neighbor_index(graph: HetGraph, patterns: Sequence[RptPattern], *,
                         injective: bool = False,
                         cap: int = DEFAULT_CAP,
                         cap_mode: str = CAP_ERROR) -> NeighborIndex:
    """Group instances of every pattern by anchor node over all company nodes."""
    per_node: dict[int, dict[str, list[RptInstance]]] = {
        i: {p.pattern_id: [] for p in patterns} for i in graph.company_nodes()
    }
    for pattern in patterns:
        for inst in enumerate_instances(graph, pattern, injective=injective,
                                        cap=cap, cap_mode=cap_mode):
            per_node[inst.anchor][pattern.pattern_id].append(inst)
    return NeighborIndex(patterns, per_node, len(graph))


def metapath_neighbors(graph: HetGraph, metapath: Sequence[str]) -> dict[int, set[int]]:
    """End nodes reachable along the typed path, per start node, start excluded.

    ``metapath`` alternates node and edge types, e.g.
    ``["company", "invest", "person", "invest", "company"]``.  Steps traverse
    the edge type in whichever direction joins the two declared node types.
    """
    if len(metapath) < 3 or len(metapath) % 2 == 0:
        raise MalformedMetapath(f"metapath must alternate node/edge types: {metapath}")
    node_types = metapath[0::2]
    edge_types = metapath[1::2]
    for t in node_types:
        if t not in graph.schema.node_types:
            raise MalformedMetapath(f"unknown node type {t!r} in metapath")
    steps: list[tuple[str, bool, bool]] = []  # (edge type, forward ok, backward ok)
    for (ta, e, tb) in zip(node_types[:-1], edge_types, node_types[1:]):
        if e not in graph.schema.edge_types:
            raise MalformedMetapath(f"unknown edge type {e!r} in metapath")
        et = graph.schema.edge_types[e]
        forward = (et.source, et.target) == (ta, tb)
        backward = (et.source, et.target) == (tb, ta)
        if not et.directed and {et.source, et.target} == {ta, tb}:
            forward = backward = True
        if not (forward or backward):
            raise MalformedMetapath(
                f"edge type {e!r} does not join {ta!r} and {tb!r}")
        steps.append((e, forward, backward))

    result: dict[int, set[int]] = {}
    for start in graph.nodes_of_type(node_types[0]):
        frontier = {start}
        for etype, forward, backward in steps:
            nxt: set[int] = set()
            for node in frontier:
                if forward:
                    nxt.update(graph.out_neighbors(node, etype))
                if backward:
                    nxt.update(graph.in_neighbors(node, etype))
            frontier = nxt
        frontier.discard(start)
        result[start] = frontier
    return result


def k_order_neighbors(graph: HetGraph, k: int,
                      centers: Sequence[int] | None = None) -> dict[int, set[int]]:
    """Type-agnostic BFS ball of radius k minus the center.

    Reported sets are restricted to company-type members; traversal itself
    crosses all node types.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    company = graph.schema.company_type
    is_company = [t == company for t in graph.types]
    nodes = range(len(graph)) if centers is None else centers
    result: dict[int, set[int]] = {}
    for start in nodes:
        seen = {start}
        frontier = [start]
        ball: set[int] = set()
        for _ in range(k):
            nxt: list[int] = []
            for node in frontier:
                for nb in graph.neighbors(node):
                    if nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            ball.update(nxt)
            frontier = nxt
            if not frontier:
                break
        result[start] = {i for i in ball if is_company[i]}
    return result
