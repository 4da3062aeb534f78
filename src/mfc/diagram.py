"""Admissible diagrams: parsing, classification, degrees, subdiagrams.

A diagram is a finite labeled graph: vertex i carries an integer order
p_i >= 2 and an edge {i,j} carries a braid length m_ij >= 3 (a missing
edge means m_ij = 2, i.e. the generators commute).  A diagram is
*admissible* when every connected component is isomorphic to a row of
the classification table of finite irreducible Coxeter and Shephard
groups.  The table is written once: ``_FAMILIES`` gives each family
(Zm, I2(q), A_n, D_n, G(m,1,n)) its name format, and its degrees and
diagram from the parameters; ``_EXCEPTIONAL`` gives each exceptional
row's diagram and degrees.  Every row is a path or a fork (one vertex
of degree 3), so ``classify_component`` reads a diagram's shape off in
linear time (``_reading``) and matches it against the rows; parsing
and enumeration read the same tables.  Enumerated diagrams are ordered
by their rows' keys (``_row_key``).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from typing import Callable


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

    def induced(self, vertices) -> "Diagram":
        """Subdiagram on a vertex subset, retaining all labels."""
        vs = sorted(vertices)
        pos = {v: k for k, v in enumerate(vs)}
        return Diagram(
            tuple(self.orders[v] for v in vs),
            tuple((pos[i], pos[j], m) for (i, j, m) in self.edges
                  if i in pos and j in pos))

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
        row = _FAMILIES.get(self.family)
        return self.family if row is None else row[0] % self.params

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def order(self) -> int:
        return prod(self.degrees)


def _linear(orders, labels) -> Diagram:
    return Diagram(tuple(orders),
                   tuple((i, i + 1, m) for i, m in enumerate(labels) if m >= 3))


def _forked(n: int, b: int) -> Diagram:
    """The path 0..n-2 of 3-edges with vertex n-1 hung on vertex b."""
    return Diagram((2,) * n, tuple((i, i + 1, 3) for i in range(n - 2))
                   + ((b, n - 1, 3),))


# the families of the classification table: family -> (display-name
# format, basic degrees, diagram), the last two from the parameters
_FAMILIES = {
    "cyclic": ("Z%d", lambda m: (m,), lambda m: Diagram((m,), ())),
    "dihedral": ("I2(%d)", lambda q: (2, q), lambda q: _linear((2, 2), (q,))),
    "A": ("A%d", lambda n: tuple(range(2, n + 2)),
          lambda n: _linear((2,) * n, (3,) * (n - 1))),
    "D": ("D%d", lambda n: tuple(sorted([*range(2, 2 * n - 1, 2), n])),
          lambda n: _forked(n, n - 3)),
    "monomial": ("G(%d,1,%d)",
                 lambda m, n: tuple(m * k for k in range(1, n + 1)),
                 lambda m, n: _linear((2,) * (n - 1) + (m,),
                                      (3,) * (n - 2) + (4,))),
}

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


def group_id(family: str, *params: int) -> GroupId:
    """The row of a family with its parameters, or an exceptional row."""
    if family in _EXCEPTIONAL:
        degrees = _EXCEPTIONAL[family][1]
    elif family in _FAMILIES:
        degrees = _FAMILIES[family][1](*params)
    else:
        raise DiagramError("unknown family %r" % family)
    return GroupId(family, params, degrees)


def diagram_of(gid: GroupId) -> Diagram:
    """Canonical diagram for a classified group."""
    if gid.family in _EXCEPTIONAL:
        return _EXCEPTIONAL[gid.family][0]
    return _FAMILIES[gid.family][2](*gid.params)


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


def _reading(d: Diagram):
    """A connected diagram read off as a path or a fork, or None.

    A path reads as ("path", orders, labels) in whichever of its two
    directions gives the smaller (orders, labels).  A fork, a tree with
    one vertex of degree 3 and no other above 2, reads as ("fork", the
    centre's order, its three arms sorted), an arm being the (label,
    order) steps out from the centre.  Any other diagram, a disconnected
    one included, reads as None.  Isomorphic diagrams read the same, and
    a reading takes linear time.
    """
    n = d.rank
    adj = [[] for _ in range(n)]
    for (i, j, m) in d.edges:
        adj[i].append((j, m))
        adj[j].append((i, m))

    def arm(prev, cur, m):
        # the steps from prev through cur along degree-2 vertices to a leaf
        steps = [(m, d.orders[cur])]
        while len(adj[cur]) == 2:
            (a, ma), (b, mb) = adj[cur]
            prev, cur, m = (cur, b, mb) if a == prev else (cur, a, ma)
            steps.append((m, d.orders[cur]))
        return tuple(steps) if len(adj[cur]) == 1 else None

    # read a fork from its centre and a path from one end
    ends = [v for v in range(n) if len(adj[v]) != 2]
    if len(d.edges) != n - 1 or not ends:
        return None
    root = max(ends, key=lambda v: len(adj[v]))
    arms = [arm(root, v, m) for v, m in adj[root]]
    if len(arms) > 3 or None in arms or 1 + sum(map(len, arms)) != n:
        return None
    if len(arms) == 3:
        return ("fork", d.orders[root], tuple(sorted(arms)))
    steps = arms[0] if arms else ()
    orders = (d.orders[root],) + tuple(p for _m, p in steps)
    labels = tuple(m for m, _p in steps)
    return ("path",) + min((orders, labels), (orders[::-1], labels[::-1]))


def classify_component(d: Diagram) -> GroupId:
    """The table row whose diagram is isomorphic to d, from d's reading:
    first the families A, G(m,1,n) and I2(q), in that order (so 2[3]2 is
    A2 and 2[4]2 is G(2,1,2)), then D_n, then the exceptional rows.  A
    diagram that is neither a path nor a fork, a disconnected one
    included, matches no row."""
    n = d.rank
    if n == 0:
        raise DiagramError("empty diagram is not connected")
    r = _reading(d)
    if r is not None:
        if r[0] == "path":
            _shape, orders, labels = r
            if n == 1:
                return group_id("cyclic", orders[0])
            if orders == (2,) * n and labels == (3,) * (n - 1):
                return group_id("A", n)
            if orders[:-1] == (2,) * (n - 1) and labels == (3,) * (n - 2) + (4,):
                return group_id("monomial", orders[-1], n)
            if orders == (2, 2):
                return group_id("dihedral", labels[0])
        else:
            # 3-edges force the centre's order to equal its neighbours'
            arms, leg = r[2], ((3, 2),)
            if arms[:2] == (leg, leg) and arms[2] == leg * (n - 3):
                return group_id("D", n)
        if r in _EXCEPTIONAL_BY_READING:
            return group_id(_EXCEPTIONAL_BY_READING[r])
    raise NotAdmissible("diagram %s / %s matches no table row"
                        % (d.orders, d.edges))


# the exceptional rows by reading, for classify_component
_EXCEPTIONAL_BY_READING = {_reading(diag): name
                           for name, (diag, _degs) in _EXCEPTIONAL.items()}


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

def _component_key(d: Diagram) -> tuple:
    """Lexicographically minimal (orders, edges) encoding over the
    relabelings that sort the vertices by a local invariant.

    The slots are filled in order, depth first.  Giving each unplaced
    vertex the first free slot of its invariant class bounds every edge
    from below, so the sorted bounds are a lower bound on the key of any
    completion, and a partial relabeling whose bound exceeds the best key
    is dropped.  It runs only on table rows (through ``_row_key``):
    paths and the D and E trees take polynomial time, where a diagram
    with many interchangeable vertices could take factorial time.
    """
    n = d.rank
    adj = [[] for _ in range(n)]
    labels = [[] for _ in range(n)]
    for (i, j, m) in d.edges:
        adj[i].append(j)
        adj[j].append(i)
        labels[i].append(m)
        labels[j].append(m)
    # the local invariant: order, degree and sorted incident labels
    inv = [(p, len(ls), tuple(sorted(ls))) for p, ls in zip(d.orders, labels)]
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
def _row_key(gid: GroupId) -> tuple:
    """The key of a table row: ``_component_key`` of its diagram."""
    return _component_key(diagram_of(gid))


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


def _row(rank: int, family: str, *params: int
         ) -> tuple[int, Callable[[], Diagram]]:
    """A family row's rank and a function that builds its diagram."""
    return rank, lambda: _FAMILIES[family][2](*params)


def _read_term(term: str) -> tuple[int, Callable[[], Diagram]]:
    """The rank of a symbol term and a function that builds its diagram.
    The text is read and checked here; no vertex is built until the
    function is called."""
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
        return _row(nn, "monomial", mm, nn) if nn > 1 else _row(1, "cyclic", mm)
    m = _DIHEDRAL_RE.match(t)
    if m:
        q = int(m.group(1))
        if q < 3:
            raise DiagramError("I2(q) needs q >= 3")
        return _row(2, "dihedral", q)
    if up.startswith("Z") and up[1:].lstrip("_").isdigit():
        mm = int(up[1:].lstrip("_"))
        if mm < 2:
            raise DiagramError("Zm needs m >= 2")
        return _row(1, "cyclic", mm)
    m = re.match(r"^([ABDEFGH])(\d+)$", up)
    if m:
        fam, n = m.group(1), int(m.group(2))
        name = "%s%d" % (fam, n)
        if name in _EXCEPTIONAL:
            d = _EXCEPTIONAL[name][0]
            return d.rank, lambda: d
        if fam == "A" and n >= 1:
            return _row(n, "A", n)
        if fam == "B" and n >= 2:
            return _row(n, "monomial", 2, n)
        if fam == "D" and n >= 4:
            return _row(n, "D", n)
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
        return len(orders), lambda: _linear(orders, labels)
    raise DiagramError("cannot parse symbol term %r" % term)


def _read_symbol(text: str) -> list[tuple[int, Callable[[], Diagram]]]:
    """``_read_term`` of each '+'-separated term of a symbol ("1", the
    empty diagram, has none)."""
    text = text.strip()
    if not text:
        raise DiagramError("empty symbol")
    if text == "1":
        return []
    return [_read_term(term) for term in text.split("+")]


def symbol_rank(text: str) -> int:
    """The rank of ``parse_symbol(text)``, read from the text alone: a
    check against a rank cap costs no vertex.  Raises DiagramError on a
    text that cannot be read."""
    return sum(rank for rank, _build in _read_symbol(text))


def parse_symbol(text: str) -> Diagram:
    """Parse a linear symbol, a named alias, or a '+'-union of terms.

    The grammar follows ``term := INT ('[' INT ']' INT)*`` with named
    aliases accepted case-insensitively; q = 2 inside a term means the
    two vertices commute (no edge).
    """
    out = EMPTY_DIAGRAM
    for _rank, build in _read_symbol(text):
        out = out + build()
    return out


def diagram_symbol(d: Diagram) -> str:
    """Serialize: path components as symbols, each the smaller of its two
    direction strings, and the other components by name."""
    if d.rank == 0:
        return "1"
    parts = []
    for comp, _idx in components_with_indices(d):
        r = _reading(comp)
        if r is not None and r[0] == "path":
            _shape, orders, labels = r
            parts.append(min(
                str(ps[0]) + "".join("[%d]%d" % ml for ml in zip(ms, ps[1:]))
                for ps, ms in ((orders, labels), (orders[::-1], labels[::-1]))))
        else:
            parts.append(classify_component(comp).name)
    return "+".join(parts)


# ---------------------------------------------------------------------------
# forbidden subdiagrams
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _named_reading(name: str) -> tuple:
    """The rank and reading of the row a family name such as "D4" names."""
    d = parse_symbol(name)
    return d.rank, _reading(d)


def _subreadings(r, sizes):
    """The readings of the connected induced subdiagrams with a size in
    ``sizes`` of a path or fork read as r.  Those of a path are its
    subpaths.  A fork is a tree, so those of a fork are the subpaths of
    its three paths from one arm's end through the centre to another's,
    and the centre with its three neighbours."""
    if r[0] == "path":
        paths = [r[1:]]
    else:
        _shape, centre, arms = r
        paths = [(tuple(p for _m, p in a[::-1]) + (centre,)
                  + tuple(p for _m, p in b),
                  tuple(m for m, _p in a[::-1]) + tuple(m for m, _p in b))
                 for a, b in itertools.combinations(arms, 2)]
        if 4 in sizes:
            yield ("fork", centre, tuple(sorted(a[:1] for a in arms)))
    for orders, labels in paths:
        for k in sizes:
            for i in range(len(orders) - k + 1):
                o, m = orders[i:i + k], labels[i:i + k - 1]
                yield ("path",) + min((o, m), (o[::-1], m[::-1]))


def has_forbidden_subdiagram(d: Diagram, families) -> bool:
    """True iff some induced subdiagram is isomorphic to a named family member.

    ``families`` is an iterable of names from {D4, F4, H4, G25, G26}.  The
    members are connected, so each is compared, by its reading, with the
    connected induced subdiagrams of d's components (``_subreadings``).
    Raises NotAdmissible for a component that is neither a path nor a
    fork.
    """
    named = [_named_reading(name) for name in families]
    targets = {r for _rank, r in named}
    sizes = {rank for rank, _r in named}
    for comp, _idx in components_with_indices(d):
        r = _reading(comp)
        if r is None:
            raise NotAdmissible("diagram %s / %s matches no table row"
                                % (comp.orders, comp.edges))
        if not targets.isdisjoint(_subreadings(r, sizes)):
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

    # components are chosen in order of row key, so the keys of a union
    # come out sorted: they are its canonical key
    def rec(rank_left: int, order_left: int, chosen):
        if rank_left == 0:
            if order_left == 1:
                diag = EMPTY_DIAGRAM
                for gid in chosen:
                    diag = diag + diagram_of(gid)
                results[tuple(_row_key(gid) for gid in chosen)] = diag
            return
        for r in range(1, rank_left + 1):
            for o in _divisors(order_left):
                if o < 2:
                    continue
                for gid in _irreducible_ids(r, o):
                    if chosen and _row_key(gid) < _row_key(chosen[-1]):
                        continue
                    rec(rank_left - r, order_left // o, chosen + [gid])

    rec(rank, order, [])
    return tuple(results[k] for k in sorted(results))
