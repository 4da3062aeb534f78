"""Admissible diagrams: parsing, classification, degrees, subdiagrams.

A diagram is a finite labeled graph: vertex i carries an integer order
p_i >= 2 and an edge {i,j} carries a braid length m_ij >= 3 (a missing
edge means m_ij = 2, i.e. the generators commute).  A diagram is
*admissible* when every connected component matches one of the known
finite irreducible Coxeter or Shephard groups; ``classify_component``
is the single source of truth for that table.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial


class DiagramError(ValueError):
    """Malformed diagram or symbol."""


class NotAdmissible(DiagramError):
    """Diagram (or one of its components) matches no known finite group."""


@dataclass(frozen=True)
class Diagram:
    """Vertex orders plus labeled edges, vertices indexed 0..rank-1.

    ``edges`` holds triples (i, j, m) with i < j and m >= 3; absent
    pairs commute (m = 2).
    """

    orders: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = len(self.orders)
        for p in self.orders:
            if p < 2:
                raise DiagramError("vertex order %r below 2" % (p,))
        seen = set()
        for (i, j, m) in self.edges:
            if not (0 <= i < j < n):
                raise DiagramError("bad edge (%r,%r)" % (i, j))
            if m < 3:
                raise DiagramError("edge label %r below 3 (use no edge for m=2)" % m)
            if (i, j) in seen:
                raise DiagramError("duplicate edge (%r,%r)" % (i, j))
            seen.add((i, j))
            if m % 2 == 1 and self.orders[i] != self.orders[j]:
                # an odd braid makes r_i conjugate to r_j, so p_i = p_j
                raise NotAdmissible(
                    "odd braid length %d forces equal orders at (%d,%d)" % (m, i, j))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def rank(self) -> int:
        return len(self.orders)

    def edge_map(self) -> dict[tuple[int, int], int]:
        return {(i, j): m for (i, j, m) in self.edges}

    def m(self, i: int, j: int) -> int:
        """Braid length between two distinct vertices (2 when no edge)."""
        if i == j:
            raise DiagramError("m(i,i) undefined")
        a, b = min(i, j), max(i, j)
        return self.edge_map().get((a, b), 2)

    def neighbors(self, i: int) -> list[int]:
        return [j if i == a else a
                for (a, j, _m) in self.edges if i in (a, j)]

    def induced(self, vertices) -> "Diagram":
        """Subdiagram on a vertex subset, retaining all labels."""
        vs = sorted(vertices)
        pos = {v: k for k, v in enumerate(vs)}
        return Diagram(
            tuple(self.orders[v] for v in vs),
            tuple((pos[i], pos[j], m) for (i, j, m) in self.edges
                  if i in pos and j in pos))

    def relabeled(self, perm) -> "Diagram":
        """Apply vertex relabeling old->new given as a sequence perm[new] = old."""
        pos = {old: new for new, old in enumerate(perm)}
        return Diagram(
            tuple(self.orders[old] for old in perm),
            tuple((min(pos[i], pos[j]), max(pos[i], pos[j]), m)
                  for (i, j, m) in self.edges))

    def __add__(self, other: "Diagram") -> "Diagram":
        """Disjoint union."""
        off = self.rank
        return Diagram(self.orders + other.orders,
                       self.edges + tuple((i + off, j + off, m)
                                          for (i, j, m) in other.edges))


EMPTY_DIAGRAM = Diagram((), ())


# ---------------------------------------------------------------------------
# group identities and the classification table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupId:
    """A row of the classification table with parameters filled in."""

    family: str                  # "cyclic","dihedral","A","D","monomial", "G4".. "E8"
    params: tuple[int, ...]
    degrees: tuple[int, ...]

    @property
    def name(self) -> str:
        f, p = self.family, self.params
        if f == "cyclic":
            return "Z%d" % p
        if f == "dihedral":
            return "I2(%d)" % p
        if f == "A":
            return "A%d" % p
        if f == "D":
            return "D%d" % p
        if f == "monomial":
            return "G(%d,1,%d)" % (p[0], p[1])
        return f

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def order(self) -> int:
        n = 1
        for d in self.degrees:
            n *= d
        return n


# rank-2 Shephard groups keyed by (sorted vertex orders, edge label)
_RANK2_EXCEPTIONAL = {
    ((3, 3), 3): ("G4", (4, 6)),
    ((3, 3), 4): ("G5", (6, 12)),
    ((2, 3), 6): ("G6", (4, 12)),
    ((4, 4), 3): ("G8", (8, 12)),
    ((2, 4), 6): ("G9", (8, 24)),
    ((3, 4), 4): ("G10", (12, 24)),
    ((2, 3), 8): ("G14", (6, 24)),
    ((5, 5), 3): ("G16", (20, 30)),
    ((2, 5), 6): ("G17", (20, 60)),
    ((3, 5), 4): ("G18", (30, 60)),
    ((3, 3), 5): ("G20", (12, 30)),
    ((2, 3), 10): ("G21", (12, 60)),
}

_FIXED_DEGREES = {
    "H3": (2, 6, 10),
    "G25": (6, 9, 12),
    "G26": (6, 12, 18),
    "F4": (2, 6, 8, 12),
    "H4": (2, 12, 20, 30),
    "G32": (12, 18, 24, 30),
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
}

# Shephard-Todd numbers for the Coxeter rows, accepted as input aliases
_ST_ALIASES = {"G23": "H3", "G28": "F4", "G30": "H4",
               "G35": "E6", "G36": "E7", "G37": "E8"}


def _degrees_of(family: str, params: tuple[int, ...]) -> tuple[int, ...]:
    if family == "cyclic":
        return (params[0],)
    if family == "dihedral":
        return (2, params[0])
    if family == "A":
        n = params[0]
        return tuple(range(2, n + 2))
    if family == "D":
        n = params[0]
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    if family == "monomial":
        m, n = params
        return tuple(m * k for k in range(1, n + 1))
    if family in _FIXED_DEGREES:
        return _FIXED_DEGREES[family]
    for (key, (name, degs)) in _RANK2_EXCEPTIONAL.items():
        if name == family:
            return degs
    raise DiagramError("unknown family %r" % family)


def group_id(family: str, *params: int) -> GroupId:
    return GroupId(family, tuple(params), _degrees_of(family, tuple(params)))


def _linear(orders, labels) -> Diagram:
    return Diagram(tuple(orders),
                   tuple((i, i + 1, m) for i, m in enumerate(labels) if m >= 3))


def diagram_of(gid: GroupId) -> Diagram:
    """Canonical diagram for a classified group."""
    f, p = gid.family, gid.params
    if f == "cyclic":
        return Diagram((p[0],), ())
    if f == "dihedral":
        return _linear((2, 2), (p[0],))
    if f == "A":
        n = p[0]
        return _linear((2,) * n, (3,) * (n - 1))
    if f == "D":
        n = p[0]
        edges = [(i, i + 1, 3) for i in range(n - 3)] + [(n - 3, n - 2, 3), (n - 3, n - 1, 3)]
        return Diagram((2,) * n, tuple(edges))
    if f == "monomial":
        m, n = p
        return _linear((2,) * (n - 1) + (m,), (3,) * (n - 2) + (4,))
    if f in ("E6", "E7", "E8"):
        n = {"E6": 6, "E7": 7, "E8": 8}[f]
        edges = [(i, i + 1, 3) for i in range(n - 2)] + [(2, n - 1, 3)]
        return Diagram((2,) * n, tuple(edges))
    if f == "H3":
        return _linear((2, 2, 2), (3, 5))
    if f == "H4":
        return _linear((2, 2, 2, 2), (3, 3, 5))
    if f == "F4":
        return _linear((2, 2, 2, 2), (3, 4, 3))
    if f == "G25":
        return _linear((3, 3, 3), (3, 3))
    if f == "G26":
        return _linear((3, 3, 2), (3, 4))
    if f == "G32":
        return _linear((3, 3, 3, 3), (3, 3, 3))
    for (key, (name, _degs)) in _RANK2_EXCEPTIONAL.items():
        if name == f:
            (p1, p2), q = key
            return _linear((p1, p2), (q,))
    raise DiagramError("unknown family %r" % f)


# ---------------------------------------------------------------------------
# components and classification
# ---------------------------------------------------------------------------

def components_with_indices(d: Diagram) -> list[tuple[Diagram, tuple[int, ...]]]:
    """Connected components in order of smallest vertex index, with the
    original vertex indices of each."""
    n = d.rank
    seen = [False] * n
    adj = {i: [] for i in range(n)}
    for (i, j, _m) in d.edges:
        adj[i].append(j)
        adj[j].append(i)
    out = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comp.sort()
        out.append((d.induced(comp), tuple(comp)))
    return out


def connected_components(d: Diagram) -> list[Diagram]:
    return [c for (c, _idx) in components_with_indices(d)]


def _classify_path(orders, labels):
    """Classify a path written as vertex orders + consecutive edge labels."""
    n = len(orders)
    if all(p == 2 for p in orders):
        if all(m == 3 for m in labels):
            return group_id("A", n)
        if n >= 2 and labels[:-1] == (3,) * (n - 2) and labels[-1] == 4:
            return group_id("monomial", 2, n)
        if n in (3, 4) and labels[:-1] == (3,) * (n - 2) and labels[-1] == 5:
            return group_id("H3" if n == 3 else "H4")
        if n == 4 and labels == (3, 4, 3):
            return group_id("F4")
        return None
    if orders[:-1] == (2,) * (n - 1) and orders[-1] >= 3 \
            and labels == (3,) * (n - 2) + (4,):
        return group_id("monomial", orders[-1], n)
    if orders == (3, 3, 3) and labels == (3, 3):
        return group_id("G25")
    if orders == (3, 3, 2) and labels == (3, 4):
        return group_id("G26")
    if orders == (3, 3, 3, 3) and labels == (3, 3, 3):
        return group_id("G32")
    return None


def classify_component(d: Diagram) -> GroupId:
    """Match a connected nonempty diagram against the classification table."""
    n = d.rank
    if n == 0:
        raise DiagramError("empty diagram is not connected")
    if n == 1:
        return group_id("cyclic", d.orders[0])
    degs = [len(d.neighbors(i)) for i in range(n)]
    if n == 2:
        q = d.m(0, 1)
        if q == 2:
            raise DiagramError("rank-2 component must be connected")
        p = tuple(sorted(d.orders))
        if p == (2, 2):
            if q == 3:
                return group_id("A", 2)
            if q == 4:
                return group_id("monomial", 2, 2)
            return group_id("dihedral", q)
        if q == 4 and p[0] == 2 and p[1] >= 3:
            return group_id("monomial", p[1], 2)
        hit = _RANK2_EXCEPTIONAL.get((p, q))
        if hit is None:
            raise NotAdmissible("no rank-2 group with symbol %d[%d]%d"
                                % (d.orders[0], q, d.orders[1]))
        return group_id(hit[0])
    if max(degs) >= 3:
        # branched: only the simply laced D/E trees are admissible
        if max(degs) > 3 or degs.count(3) != 1:
            raise NotAdmissible("branched diagram outside D/E families")
        if any(p != 2 for p in d.orders) or any(m != 3 for (_i, _j, m) in d.edges):
            raise NotAdmissible("branched diagram with nonminimal labels")
        b = degs.index(3)
        arms = []
        for start in d.neighbors(b):
            length, prev, cur = 1, b, start
            while True:
                nxt = [x for x in d.neighbors(cur) if x != prev]
                if not nxt:
                    break
                if len(nxt) > 1:
                    raise NotAdmissible("multiple branch vertices")
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == 1 and arms[1] == 1:
            return group_id("D", n)
        if arms == [1, 2, 2]:
            return group_id("E6")
        if arms == [1, 2, 3]:
            return group_id("E7")
        if arms == [1, 2, 4]:
            return group_id("E8")
        raise NotAdmissible("branched tree outside D/E families")
    if degs.count(1) != 2 or 0 in degs:
        raise NotAdmissible("component with a cycle is not admissible")
    # walk the path from one endpoint; try both orientations
    start = degs.index(1)
    order_seq, label_seq = [d.orders[start]], []
    prev, cur = None, start
    while True:
        nxt = [x for x in d.neighbors(cur) if x != prev]
        if not nxt:
            break
        prev, cur = cur, nxt[0]
        label_seq.append(d.m(prev, cur))
        order_seq.append(d.orders[cur])
    for orders, labels in ((tuple(order_seq), tuple(label_seq)),
                           (tuple(reversed(order_seq)), tuple(reversed(label_seq)))):
        gid = _classify_path(orders, labels)
        if gid is not None:
            return gid
    raise NotAdmissible("linear diagram %s / %s matches no table row"
                        % (order_seq, label_seq))


def classify(d: Diagram) -> list[GroupId]:
    """GroupIds of all connected components (empty list for the empty diagram)."""
    return [classify_component(c) for c in connected_components(d)]


def basic_degrees(d: Diagram) -> tuple[int, ...]:
    """Sorted multiset union of component degree lists."""
    degs = []
    for gid in classify(d):
        degs.extend(gid.degrees)
    return tuple(sorted(degs))


def group_order(d: Diagram) -> int:
    n = 1
    for deg in basic_degrees(d):
        n *= deg
    return n


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _component_key(d: Diagram) -> tuple:
    """Lexicographically minimal (orders, edges) encoding over relabelings.

    Permutations are pruned by a local vertex invariant so even E8 stays
    cheap; feasible at rank <= 8.
    """
    n = d.rank
    inv = []
    for i in range(n):
        labels = tuple(sorted(d.m(i, j) for j in d.neighbors(i)))
        inv.append((d.orders[i], len(labels), labels))
    target = sorted(inv)
    classes = {}
    for i, v in enumerate(inv):
        classes.setdefault(v, []).append(i)
    slots = {}
    for v, members in classes.items():
        slots[v] = [k for k in range(n) if target[k] == v]
    best = None
    class_lists = list(classes.items())
    for assignment in itertools.product(
            *[itertools.permutations(members) for (_v, members) in class_lists]):
        perm = [None] * n
        ok = True
        for (v, _members), placed in zip(class_lists, assignment):
            for slot, old in zip(slots[v], placed):
                perm[slot] = old
        pos = {old: new for new, old in enumerate(perm)}
        key = (tuple(d.orders[old] for old in perm),
               tuple(sorted((min(pos[i], pos[j]), max(pos[i], pos[j]), m)
                            for (i, j, m) in d.edges)))
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=8192)
def canonical_key(d: Diagram) -> tuple:
    """Canonical encoding of the diagram up to vertex relabeling."""
    return tuple(sorted(_component_key(c) for c in connected_components(d)))


def diagram_name(d: Diagram) -> str:
    """Display name: component GroupId names joined with '+'."""
    if d.rank == 0:
        return "1"
    return "+".join(gid.name for gid in classify(d))


# ---------------------------------------------------------------------------
# symbols and parsing
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^\d+(\[\d+\]\d+)*$")
_MONOMIAL_RE = re.compile(r"^[GB]\((\d+),1,(\d+)\)$", re.IGNORECASE)
_B_RE = re.compile(r"^B\((\d+),(\d+)\)$", re.IGNORECASE)
_DIHEDRAL_RE = re.compile(r"^I2\((\d+)\)$", re.IGNORECASE)


def _parse_term(term: str) -> Diagram:
    t = term.strip()
    if not t:
        raise DiagramError("empty symbol term")
    up = t.upper()
    if up in _ST_ALIASES:
        up = _ST_ALIASES[up]
    m = _MONOMIAL_RE.match(t) or _B_RE.match(t)
    if m:
        mm, nn = int(m.group(1)), int(m.group(2))
        if mm < 2 or nn < 1:
            raise DiagramError("G(m,1,n) needs m >= 2, n >= 1")
        if nn == 1:
            return Diagram((mm,), ())
        return diagram_of(group_id("monomial", mm, nn))
    m = _DIHEDRAL_RE.match(t)
    if m:
        q = int(m.group(1))
        if q < 3:
            raise DiagramError("I2(q) needs q >= 3")
        return diagram_of(group_id("dihedral", q))
    if up.startswith("Z") and up[1:].lstrip("_").isdigit():
        mm = int(up[1:].lstrip("_"))
        if mm < 2:
            raise DiagramError("Zm needs m >= 2")
        return Diagram((mm,), ())
    m = re.match(r"^([ABDEFH])(\d+)$", up)
    if m:
        fam, n = m.group(1), int(m.group(2))
        if fam == "A" and n >= 1:
            return diagram_of(group_id("A", n)) if n >= 2 else Diagram((2,), ())
        if fam == "B" and n >= 2:
            return diagram_of(group_id("monomial", 2, n))
        if fam == "D" and n >= 4:
            return diagram_of(group_id("D", n))
        if fam == "E" and n in (6, 7, 8):
            return diagram_of(group_id("E%d" % n))
        if fam == "F" and n == 4:
            return diagram_of(group_id("F4"))
        if fam == "H" and n in (3, 4):
            return diagram_of(group_id("H%d" % n))
        raise DiagramError("unknown named diagram %r" % term)
    m = re.match(r"^G(\d+)$", up)
    if m:
        name = "G%d" % int(m.group(1))
        for (key, (nm, _d)) in _RANK2_EXCEPTIONAL.items():
            if nm == name:
                (p1, p2), q = key
                return _linear((p1, p2), (q,))
        if name in ("G25", "G26", "G32"):
            return diagram_of(group_id(name))
        raise DiagramError("group %s is not a Coxeter or Shephard group" % name)
    if _TERM_RE.match(t):
        parts = re.split(r"\[(\d+)\]", t)
        orders = tuple(int(x) for x in parts[0::2])
        labels = tuple(int(x) for x in parts[1::2])
        for p in orders:
            if p < 2:
                raise DiagramError("vertex label %d below 2" % p)
        for q in labels:
            if q < 2:
                raise DiagramError("edge label %d below 2" % q)
        return _linear(orders, labels)
    raise DiagramError("cannot parse symbol term %r" % term)


def parse_symbol(text: str) -> Diagram:
    """Parse a linear symbol, a named alias, or a '+'-union of terms.

    The grammar follows ``term := INT ('[' INT ']' INT)*`` with named
    aliases accepted case-insensitively; q = 2 inside a term means the
    two vertices commute (no edge).
    """
    text = text.strip()
    if not text:
        raise DiagramError("empty symbol")
    if text == "1":
        return EMPTY_DIAGRAM
    out = EMPTY_DIAGRAM
    for term in text.split("+"):
        out = out + _parse_term(term)
    return out


def diagram_symbol(d: Diagram) -> str:
    """Serialize: linear components as symbols, branched ones by name."""
    if d.rank == 0:
        return "1"
    parts = []
    for comp in connected_components(d):
        degs = [len(comp.neighbors(i)) for i in range(comp.rank)]
        if comp.rank == 1:
            parts.append(str(comp.orders[0]))
            continue
        if max(degs) <= 2 and degs.count(1) == 2:
            start = degs.index(1)
            seq = [comp.orders[start]]
            labels = []
            prev, cur = None, start
            while True:
                nxt = [x for x in comp.neighbors(cur) if x != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                labels.append(comp.m(prev, cur))
                seq.append(comp.orders[cur])
            fwd = "[".join("%d]%d" % (labels[i], seq[i + 1]) for i in range(len(labels)))
            fwd = "%d[%s" % (seq[0], fwd)
            rev_seq, rev_lab = list(reversed(seq)), list(reversed(labels))
            rev = "[".join("%d]%d" % (rev_lab[i], rev_seq[i + 1]) for i in range(len(rev_lab)))
            rev = "%d[%s" % (rev_seq[0], rev)
            parts.append(min(fwd, rev))
        else:
            parts.append(classify_component(comp).name)
    return "+".join(parts)


# ---------------------------------------------------------------------------
# forbidden subdiagrams
# ---------------------------------------------------------------------------

_FORBIDDEN_KEYS = {}


def _forbidden_key(name: str):
    if name not in _FORBIDDEN_KEYS:
        _FORBIDDEN_KEYS[name] = canonical_key(parse_symbol(name))
    return _FORBIDDEN_KEYS[name]


def has_forbidden_subdiagram(d: Diagram, families) -> bool:
    """True iff some induced subdiagram is isomorphic to a named family member.

    ``families`` is an iterable of names from {D4, F4, H4, G25, G26}.
    """
    targets = {}
    for name in families:
        key = _forbidden_key(name)
        size = len(key[0][0])  # rank of the (connected) target
        targets.setdefault(size, set()).add(key)
    for comp, _idx in components_with_indices(d):
        n = comp.rank
        for size, keys in targets.items():
            if size > n:
                continue
            for subset in itertools.combinations(range(n), size):
                try:
                    sk = canonical_key(comp.induced(subset))
                except DiagramError:
                    continue
                if sk in keys:
                    return True
    return False


# ---------------------------------------------------------------------------
# enumeration of admissible diagrams by rank and order
# ---------------------------------------------------------------------------

def _irreducible_ids(rank: int, order: int) -> list[GroupId]:
    """All irreducible GroupIds with the given rank and group order."""
    out = []
    if rank == 1:
        if order >= 2:
            out.append(group_id("cyclic", order))
        return out
    if rank == 2:
        if order % 2 == 0 and order // 2 >= 3:
            q = order // 2
            if q == 3:
                out.append(group_id("A", 2))
            elif q == 4:
                out.append(group_id("monomial", 2, 2))
            else:
                out.append(group_id("dihedral", q))
        for (key, (name, degs)) in sorted(_RANK2_EXCEPTIONAL.items()):
            if degs[0] * degs[1] == order:
                out.append(group_id(name))
        m = 2
        while 2 * m * m <= order:
            if 2 * m * m == order and m >= 3:
                out.append(group_id("monomial", m, 2))
            m += 1
    else:
        n = rank
        if factorial(n + 1) == order:
            out.append(group_id("A", n))
        if n >= 4 and 2 ** (n - 1) * factorial(n) == order:
            out.append(group_id("D", n))
        m = 2
        while m ** n * factorial(n) <= order:
            if m ** n * factorial(n) == order:
                out.append(group_id("monomial", m, n))
            m += 1
        for name, degs in _FIXED_DEGREES.items():
            if len(degs) == n:
                o = 1
                for dd in degs:
                    o *= dd
                if o == order:
                    out.append(group_id(name))
    # one GroupId per diagram isomorphism class
    seen, uniq = set(), []
    for gid in out:
        k = canonical_key(diagram_of(gid))
        if k not in seen:
            seen.add(k)
            uniq.append(gid)
    return uniq


def _divisors(n: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def enumerate_admissible(rank: int, order: int,
                         irreducible_only: bool = False) -> list[Diagram]:
    """All admissible diagrams (up to isomorphism) with the exact rank and
    degree product, as disjoint unions of table rows."""
    return list(_admissible(rank, order, bool(irreducible_only)))


@lru_cache(maxsize=4096)
def _admissible(rank: int, order: int,
                irreducible_only: bool) -> tuple[Diagram, ...]:
    if rank < 0 or order < 1:
        return ()
    if rank == 0:
        return (EMPTY_DIAGRAM,) if order == 1 else ()
    if irreducible_only:
        found = [diagram_of(g) for g in _irreducible_ids(rank, order)]
        return tuple(sorted(found, key=canonical_key))

    results = {}

    def rec(rank_left: int, order_left: int, min_key, chosen):
        if rank_left == 0:
            if order_left == 1:
                diag = EMPTY_DIAGRAM
                for c in chosen:
                    diag = diag + c
                results[canonical_key(diag)] = diag
            return
        for r in range(1, rank_left + 1):
            for o in _divisors(order_left):
                if o < 2:
                    continue
                for gid in _irreducible_ids(r, o):
                    comp = diagram_of(gid)
                    k = canonical_key(comp)
                    if min_key is not None and k < min_key:
                        continue
                    rec(rank_left - r, order_left // o, k, chosen + [comp])

    rec(rank, order, None, [])
    return tuple(results[k] for k in sorted(results))
