"""Admissible diagrams: parsing, classification, degrees, subdiagrams.

A diagram is a finite labeled graph: vertex i carries an integer order
p_i >= 2 and an edge {i,j} carries a braid length m_ij >= 3 (a missing
edge means m_ij = 2, i.e. the generators commute).  A diagram is
*admissible* when every connected component is isomorphic to a row of
the classification table of finite irreducible Coxeter and Shephard
groups.  The table has the families Zm, A_n, D_n, I2(q) and G(m,1,n),
built by ``diagram_of``, and the exceptional rows in ``_EXCEPTIONAL``,
each written once with its diagram and degrees.  ``classify_component``
matches a diagram's ``canonical_key`` against these rows; degrees,
parsing and enumeration read the same table.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod


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

    def m(self, i: int, j: int) -> int:
        """Braid length between two distinct vertices (2 when no edge)."""
        if i == j:
            raise DiagramError("m(i,i) undefined")
        a, b = min(i, j), max(i, j)
        return {(p, q): m for (p, q, m) in self.edges}.get((a, b), 2)

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


def _linear(orders, labels) -> Diagram:
    return Diagram(tuple(orders),
                   tuple((i, i + 1, m) for i, m in enumerate(labels) if m >= 3))


def _forked(n: int, b: int) -> Diagram:
    """The path 0..n-2 of 3-edges with vertex n-1 hung on vertex b."""
    return Diagram((2,) * n, tuple((i, i + 1, 3) for i in range(n - 2))
                   + ((b, n - 1, 3),))


# the exceptional rows of the classification table: name -> (diagram,
# basic degrees)
_EXCEPTIONAL = {
    "G4": (_linear((3, 3), (3,)), (4, 6)),
    "G5": (_linear((3, 3), (4,)), (6, 12)),
    "G6": (_linear((2, 3), (6,)), (4, 12)),
    "G8": (_linear((4, 4), (3,)), (8, 12)),
    "G9": (_linear((2, 4), (6,)), (8, 24)),
    "G10": (_linear((3, 4), (4,)), (12, 24)),
    "G14": (_linear((2, 3), (8,)), (6, 24)),
    "G16": (_linear((5, 5), (3,)), (20, 30)),
    "G17": (_linear((2, 5), (6,)), (20, 60)),
    "G18": (_linear((3, 5), (4,)), (30, 60)),
    "G20": (_linear((3, 3), (5,)), (12, 30)),
    "G21": (_linear((2, 3), (10,)), (12, 60)),
    "H3": (_linear((2, 2, 2), (3, 5)), (2, 6, 10)),
    "G25": (_linear((3, 3, 3), (3, 3)), (6, 9, 12)),
    "G26": (_linear((3, 3, 2), (3, 4)), (6, 12, 18)),
    "F4": (_linear((2, 2, 2, 2), (3, 4, 3)), (2, 6, 8, 12)),
    "H4": (_linear((2, 2, 2, 2), (3, 3, 5)), (2, 12, 20, 30)),
    "G32": (_linear((3, 3, 3, 3), (3, 3, 3)), (12, 18, 24, 30)),
    "E6": (_forked(6, 2), (2, 5, 6, 8, 9, 12)),
    "E7": (_forked(7, 2), (2, 6, 8, 10, 12, 14, 18)),
    "E8": (_forked(8, 2), (2, 8, 12, 14, 18, 20, 24, 30)),
}

# Shephard-Todd numbers for the Coxeter rows, accepted as input aliases
_ST_ALIASES = {"G23": "H3", "G28": "F4", "G30": "H4",
               "G35": "E6", "G36": "E7", "G37": "E8"}


def _degrees_of(family: str, params: tuple[int, ...]) -> tuple[int, ...]:
    if family in _EXCEPTIONAL:
        return _EXCEPTIONAL[family][1]
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
    raise DiagramError("unknown family %r" % family)


def group_id(family: str, *params: int) -> GroupId:
    return GroupId(family, tuple(params), _degrees_of(family, tuple(params)))


def diagram_of(gid: GroupId) -> Diagram:
    """Canonical diagram for a classified group."""
    f, p = gid.family, gid.params
    if f in _EXCEPTIONAL:
        return _EXCEPTIONAL[f][0]
    if f == "cyclic":
        return Diagram((p[0],), ())
    if f == "dihedral":
        return _linear((2, 2), (p[0],))
    if f == "A":
        n = p[0]
        return _linear((2,) * n, (3,) * (n - 1))
    if f == "D":
        return _forked(p[0], p[0] - 3)
    if f == "monomial":
        m, n = p
        return _linear((2,) * (n - 1) + (m,), (3,) * (n - 2) + (4,))
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
        # a connected diagram is its own component: no copy to build
        out.append((d if len(comp) == n else d.induced(comp), tuple(comp)))
    return out


@lru_cache(maxsize=8192)
def _row_invariants(family: str, *params: int) -> tuple:
    return _sorted_invariants(diagram_of(group_id(family, *params)))


@lru_cache(maxsize=8192)
def _row_key(family: str, *params: int) -> tuple:
    return canonical_key(diagram_of(group_id(family, *params)))


def _may_match(d: Diagram, rows) -> bool:
    """Whether some exceptional row or one of the family rows `rows` has
    d's sorted vertex invariants; if none does, d is no table row."""
    inv = _sorted_invariants(d)
    return (inv in _EXCEPTIONAL_INVARIANTS
            or any(_row_invariants(*row) == inv for row in rows))


def classify_component(d: Diagram) -> GroupId:
    """The table row whose diagram is isomorphic to d: the exceptional row
    with d's canonical key, or a family row whose parameters d itself
    fixes (its rank, its largest vertex order, its one edge label at
    rank 2).  A disconnected diagram matches no row."""
    n = d.rank
    if n == 0:
        raise DiagramError("empty diagram is not connected")
    if n == 1:
        return group_id("cyclic", d.orders[0])
    rows = [("A", n), ("monomial", max(d.orders), n)]
    if n == 2 and d.edges:
        rows.append(("dihedral", d.edges[0][2]))
    if n >= 4:
        rows.append(("D", n))
    # from rank 4 up the key search can take factorial time (below, it
    # tries at most 3! relabelings): first rule out, by vertex invariants,
    # a diagram that no candidate row can match
    if n <= 3 or _may_match(d, rows):
        key = canonical_key(d)
        for row in rows:
            if _row_key(*row) == key:
                return group_id(*row)
        if key in _EXCEPTIONAL_BY_KEY:
            return group_id(_EXCEPTIONAL_BY_KEY[key])
    raise NotAdmissible("diagram %s / %s matches no table row"
                        % (d.orders, d.edges))


@lru_cache(maxsize=256)
def classify(d: Diagram) -> tuple[GroupId, ...]:
    """GroupIds of all connected components (empty for the empty diagram).

    Memoized, since every display name and degree list goes through it; a
    few hundred diagrams cover one group's checks and their recognition
    candidates, and a larger memo only keeps more diagrams alive."""
    return tuple(classify_component(c)
                 for c, _idx in components_with_indices(d))


def basic_degrees(d: Diagram) -> tuple[int, ...]:
    """Sorted multiset union of component degree lists."""
    degs = []
    for gid in classify(d):
        degs.extend(gid.degrees)
    return tuple(sorted(degs))


def group_order(d: Diagram) -> int:
    return prod(basic_degrees(d))


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _vertex_invariants(d: Diagram) -> list[tuple]:
    """Per vertex: its order, its degree and its sorted edge labels."""
    labels = [[] for _ in range(d.rank)]
    for (i, j, m) in d.edges:
        labels[i].append(m)
        labels[j].append(m)
    return [(p, len(ls), tuple(sorted(ls)))
            for p, ls in zip(d.orders, labels)]


def _sorted_invariants(d: Diagram) -> tuple:
    """The multiset of vertex invariants: equal for isomorphic diagrams."""
    return tuple(sorted(_vertex_invariants(d)))


def _component_key(d: Diagram) -> tuple:
    """Lexicographically minimal (orders, edges) encoding over the
    relabelings that sort the vertices by a local invariant.

    The slots are filled in order, depth first.  Giving each unplaced
    vertex the first free slot of its invariant class bounds every edge
    from below, so the sorted bounds are a lower bound on the key of any
    completion, and a partial relabeling whose bound exceeds the best key
    is dropped.  Paths and the D and E trees take polynomial time; a
    diagram with many interchangeable vertices can still take factorial
    time.
    """
    n = d.rank
    adj = [[] for _ in range(n)]
    for (i, j, _m) in d.edges:
        adj[i].append(j)
        adj[j].append(i)
    inv = _vertex_invariants(d)
    target = sorted(inv)
    first = {}
    for k, v in enumerate(target):
        first.setdefault(v, k)
    cls = [first[v] for v in inv]
    best = None
    stack = [()]
    while stack:
        perm = stack.pop()
        placed = set(perm)
        # a slot whose class has one vertex left takes it
        while len(perm) < n:
            left = [v for v in range(n)
                    if cls[v] == first[target[len(perm)]] and v not in placed]
            if len(left) > 1:
                break
            perm += (left[0],)
            placed.add(left[0])
        k = len(perm)
        slot = [max(k, c) for c in cls]
        for s, v in enumerate(perm):
            slot[v] = s
        if best is not None or k == n:
            bound = sorted([(slot[i], slot[j], m) if slot[i] < slot[j]
                            else (slot[j], slot[i], m)
                            for (i, j, m) in d.edges])
            if best is not None and bound > best:
                continue
            if k == n:
                best = bound
                continue
        # the neighbours of the earliest slots first: a good bound comes soon
        near = sorted([(min([slot[w] for w in adj[v]], default=n), v)
                       for v in left])
        stack.extend([perm + (v,) for _s, v in reversed(near)])
    return (tuple(v[0] for v in target), tuple(best))


@lru_cache(maxsize=8192)
def canonical_key(d: Diagram) -> tuple:
    """Canonical encoding of the diagram up to vertex relabeling."""
    return tuple(sorted(_component_key(c)
                        for c, _idx in components_with_indices(d)))


# the exceptional rows by canonical key, and their sorted vertex
# invariants, for classify_component
_EXCEPTIONAL_BY_KEY = {canonical_key(diag): name
                       for name, (diag, _degs) in _EXCEPTIONAL.items()}
_EXCEPTIONAL_INVARIANTS = frozenset(_sorted_invariants(diag)
                                    for diag, _degs in _EXCEPTIONAL.values())


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
    m = re.match(r"^([ABDEFGH])(\d+)$", up)
    if m:
        fam, n = m.group(1), int(m.group(2))
        name = "%s%d" % (fam, n)
        if name in _EXCEPTIONAL:
            return _EXCEPTIONAL[name][0]
        if fam == "A" and n >= 1:
            return diagram_of(group_id("A", n)) if n >= 2 else Diagram((2,), ())
        if fam == "B" and n >= 2:
            return diagram_of(group_id("monomial", 2, n))
        if fam == "D" and n >= 4:
            return diagram_of(group_id("D", n))
        raise DiagramError("unknown named diagram %r" % term)
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
    for comp, _idx in components_with_indices(d):
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

@lru_cache(maxsize=None)
def _forbidden_key(name: str):
    return canonical_key(parse_symbol(name))


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

@lru_cache(maxsize=4096)
def _irreducible_ids(rank: int, order: int) -> tuple[GroupId, ...]:
    """All irreducible GroupIds with the given rank and group order, one
    per diagram: the rows that classify their own diagram."""
    if rank == 1:
        rows = [group_id("cyclic", order)] if order >= 2 else []
    else:
        m = 2
        while m ** rank * factorial(rank) < order:
            m += 1
        rows = [group_id("A", rank), group_id("monomial", m, rank)]
        if rank == 2 and order % 2 == 0 and order >= 6:
            rows.append(group_id("dihedral", order // 2))
        if rank >= 4:
            rows.append(group_id("D", rank))
        rows += [group_id(name) for name, (diag, _degs) in _EXCEPTIONAL.items()
                 if diag.rank == rank]
    return tuple(gid for gid in rows if gid.order == order
                 and classify_component(diagram_of(gid)) == gid)


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


def enumerate_admissible(rank: int, order: int) -> list[Diagram]:
    """All admissible diagrams (up to isomorphism) with the exact rank and
    degree product, as disjoint unions of table rows."""
    return list(_admissible(rank, order))


@lru_cache(maxsize=4096)
def _admissible(rank: int, order: int) -> tuple[Diagram, ...]:
    if rank < 0 or order < 1:
        return ()
    if rank == 0:
        return (EMPTY_DIAGRAM,) if order == 1 else ()

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
