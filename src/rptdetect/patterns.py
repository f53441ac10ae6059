"""RPT group patterns: small typed graphs whose instances drive the model.

The five bundled patterns are chains of person/company/item roles joined by
investment, transaction, and item-trade relations; each designates one company
role as the anchor whose embedding the matched instances feed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import PatternTypeUnknown
from .hetgraph import Schema, read_json


@dataclass(frozen=True)
class RptPattern:
    pattern_id: str
    roles: tuple[tuple[str, str], ...]        # (role name, node type), canonical order
    edges: tuple[tuple[str, str, str], ...]   # (source role, target role, edge type)
    anchor: str                               # company role fed by instances

    def __post_init__(self):
        names = [r for r, _ in self.roles]
        if len(set(names)) != len(names):
            raise PatternTypeUnknown(f"pattern {self.pattern_id!r}: duplicate role names")
        if self.anchor not in names:
            raise PatternTypeUnknown(
                f"pattern {self.pattern_id!r}: anchor {self.anchor!r} is not a role"
            )
        for s, t, _ in self.edges:
            if s not in names or t not in names:
                raise PatternTypeUnknown(
                    f"pattern {self.pattern_id!r}: edge ({s!r}, {t!r}) uses unknown roles"
                )
        if len(self.role_order()) != len(self.roles):
            raise PatternTypeUnknown(f"pattern {self.pattern_id!r}: roles must be connected")

    @property
    def role_names(self) -> tuple[str, ...]:
        return tuple(r for r, _ in self.roles)

    def role_type(self, role: str) -> str:
        return dict(self.roles)[role]

    def role_order(self) -> list[str]:
        """Anchor first, then roles in breadth-first order over the pattern graph,
        each role's neighbors in canonical order: every role after the first is
        adjacent to an earlier one.  Roles the anchor does not reach are left out."""
        order = [self.anchor]
        for cur in order:  # the loop reaches the roles it appends: a breadth-first walk
            order += [r for r in self.role_names if r not in order
                      and any({s, t} == {cur, r} for s, t, _ in self.edges)]
        return order

    def anchor_first_roles(self) -> tuple[tuple[str, str], ...]:
        """Roles with the anchor moved to the front, remainder in canonical order."""
        rest = tuple(rt for rt in self.roles if rt[0] != self.anchor)
        return ((self.anchor, self.role_type(self.anchor)),) + rest


def validate_pattern(pattern: RptPattern, schema: Schema) -> None:
    """Check that every role and edge type exists and the anchor is a company role."""
    for role, rtype in pattern.roles:
        if rtype not in schema.node_types:
            raise PatternTypeUnknown(
                f"pattern {pattern.pattern_id!r}: role {role!r} has unknown type {rtype!r}"
            )
    for s, t, etype in pattern.edges:
        if etype not in schema.edge_types:
            raise PatternTypeUnknown(
                f"pattern {pattern.pattern_id!r}: unknown edge type {etype!r}"
            )
        et = schema.edge_types[etype]
        st, tt = pattern.role_type(s), pattern.role_type(t)
        if (st, tt) != (et.source, et.target):
            raise PatternTypeUnknown(
                f"pattern {pattern.pattern_id!r}: edge type {etype!r} expects "
                f"({et.source} -> {et.target}), got ({st} -> {tt})"
            )
    if pattern.role_type(pattern.anchor) != schema.company_type:
        raise PatternTypeUnknown(
            f"pattern {pattern.pattern_id!r}: anchor must be of type "
            f"{schema.company_type!r}"
        )


def pattern_applies(pattern: RptPattern, schema: Schema) -> bool:
    try:
        validate_pattern(pattern, schema)
    except PatternTypeUnknown:
        return False
    return True


def applicable_patterns(patterns, schema: Schema) -> list[RptPattern]:
    """Keep patterns whose node/edge types exist in the schema; skip the rest."""
    return [p for p in patterns if pattern_applies(p, schema)]


def bundled_patterns() -> list[RptPattern]:
    """The five default company-relationship patterns shipped with the package."""
    return [
        RptPattern(
            "PCCP",
            roles=(("p1", "person"), ("c1", "company"), ("c2", "company"), ("p2", "person")),
            edges=(("p1", "c1", "invest"), ("c1", "c2", "transaction"), ("p2", "c2", "invest")),
            anchor="c1",
        ),
        RptPattern(
            "PCCCP",
            roles=(("p1", "person"), ("c1", "company"), ("c2", "company"),
                   ("c3", "company"), ("p2", "person")),
            edges=(("p1", "c1", "invest"), ("c1", "c2", "transaction"),
                   ("c2", "c3", "transaction"), ("p2", "c3", "invest")),
            anchor="c1",
        ),
        RptPattern(
            "PCICP",
            roles=(("p1", "person"), ("c1", "company"), ("i1", "item"),
                   ("c2", "company"), ("p2", "person")),
            edges=(("p1", "c1", "invest"), ("c1", "i1", "sell"),
                   ("c2", "i1", "buy"), ("p2", "c2", "invest")),
            anchor="c1",
        ),
        RptPattern(
            "PCPCP",
            roles=(("p1", "person"), ("c1", "company"), ("p2", "person"),
                   ("c2", "company"), ("p3", "person")),
            edges=(("p1", "c1", "invest"), ("p2", "c1", "invest"),
                   ("p2", "c2", "invest"), ("p3", "c2", "invest")),
            anchor="c1",
        ),
        RptPattern(
            "PCPCCP",
            roles=(("p1", "person"), ("c1", "company"), ("p2", "person"),
                   ("c2", "company"), ("c3", "company"), ("p3", "person")),
            edges=(("p1", "c1", "invest"), ("p2", "c1", "invest"),
                   ("p2", "c2", "invest"), ("c2", "c3", "transaction"),
                   ("p3", "c3", "invest")),
            anchor="c1",
        ),
    ]


BUNDLED_METAPATHS: dict[str, list[str]] = {
    "CC": ["company", "transaction", "company"],
    "CPC": ["company", "invest", "person", "invest", "company"],
    "CIC": ["company", "sell", "item", "buy", "company"],
}


def load_patterns(path: str | os.PathLike) -> list[RptPattern]:
    """Read a ``{"patterns": [{"id", "roles", "edges", "anchor"}, ...]}`` file;
    a file that is not one raises ``PatternTypeUnknown`` naming it."""
    raw = read_json(path, "pattern file", PatternTypeUnknown)
    try:
        patterns = [RptPattern(pattern_id=spec["id"],
                               roles=tuple((r, t) for r, t in spec["roles"]),
                               edges=tuple((s, t, e) for s, t, e in spec["edges"]),
                               anchor=spec["anchor"])
                    for spec in raw["patterns"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise PatternTypeUnknown(
            f"pattern file {path}: needs a 'patterns' list of objects with 'id', 'roles', "
            f"'edges' and 'anchor' ({type(exc).__name__}: {exc})") from exc
    seen = set()
    for p in patterns:  # an id heads table rows and names checkpoint keys
        pid = p.pattern_id
        if not isinstance(pid, str) or not pid or set(pid) & set("\t\r\n") or pid in seen:
            raise PatternTypeUnknown(f"pattern file {path}: pattern id {pid!r} is not a unique, "
                                     f"non-empty string free of tabs and line breaks")
        seen.add(pid)
        if not all(isinstance(name, str) for name in (p.anchor, *sum(p.roles + p.edges, ()))):
            raise PatternTypeUnknown(f"pattern file {path}: pattern {pid!r} has a role, type "
                                     f"or anchor name that is not a string")
    return patterns
