"""Walls, fixed subcomplexes, recognition, and Milnor-wall search.

The recognition pipeline mirrors the counting arguments used for the
classification: candidate groups from the chamber count, then one pass
over them in canonical-key order, each decided by a bouquet (reduced
Betti) filter, then by its model's f-vector and vertex profile read off
group orders, and only then by exact isomorphism against the built
model, anchored at its identity chamber.  Per-class fixed-simplex
counts also come from an exact coset-counting identity, cross-checked
against explicitly constructed subcomplexes in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import combinations
from math import prod

from .complexes import (ChamberSystem, TypedComplex, _face_closure, _reindexed,
                        milnor_fiber_complex, order_f_vector,
                        order_vertex_profile, vertex_profile)
from .diagram import (Diagram, basic_degrees, classify, diagram_name,
                      enumerate_admissible, group_order,
                      has_forbidden_subdiagram)
from .group import (DEFAULT_CAP, ConjugacyClasses, GroupTable, _subgroup_tree,
                    enumerate_group)
from .homology import _n_components, reduced_betti
from .isomorphism import find_isomorphism

THEOREM_A_FORBIDDEN = ("D4", "F4", "H4", "G25", "G26")
THEOREM_B_FORBIDDEN = ("D4", "F4", "H4")

# most per-class detail rows a report shows, failing rows first
DETAIL_ROW_LIMIT = 16


# ---------------------------------------------------------------------------
# fixed subcomplexes
# ---------------------------------------------------------------------------

def fixed_subcomplex(chambers: ChamberSystem,
                     fixed: tuple[int, ...]) -> TypedComplex:
    """The full subcomplex of the built complex on the vertex ids
    ``fixed``, ascending: the wall of any element g that fixes exactly
    these vertices (``chambers.fixed_vertices(g)``), the simplices with
    g(sigma) = sigma setwise.  Its vertex k is ``fixed[k]``: fixed
    vertices lie in chambers, and the ids keep their order.

    The action preserves types and the vertices of a simplex have
    distinct types, so setwise is pointwise, and a fixed simplex lies on
    fixed vertices.  The action on vertices is faithful, so g != 1 iff g
    moves a vertex.  Such a g moves every chamber, so it fixes no edge at
    rank n <= 2, where the edges are the chambers, nor with fewer than
    two fixed vertices: then the wall is its vertices alone, and the
    chambers are not read.

    Otherwise every simplex is a restriction of a chamber, so the fixed
    simplices are the faces of the chambers restricted to their fixed
    vertices: each chamber is read once as a tuple with None at its
    moved vertices, and the distinct tuples, stripped of the Nones,
    close to the wall.
    """
    n_vertices = len(chambers.vertex_types)
    if len(fixed) < n_vertices and (len(fixed) < 2
                                    or chambers.table.ngens < 3):
        return TypedComplex(map(chambers.vertex_types.__getitem__, fixed),
                            {0: [(i,) for i in range(len(fixed))]})
    keep = [None] * n_vertices
    for v in fixed:
        keep[v] = v
    restricted = set(zip(*(map(keep.__getitem__, col)
                           for col in chambers.chamber)))
    return _reindexed(_face_closure((tuple(v for v in s if v is not None), 0)
                                    for s in restricted),
                      chambers.vertex_types)


# ---------------------------------------------------------------------------
# exact per-class fixed-simplex counts (fixed parabolic cosets)
# ---------------------------------------------------------------------------

class ParabolicData:
    """The fixed-simplex counts of every conjugacy class of t
    (``classes``) that meets some proper standard parabolic subgroup G_J.

    A coset hG_J is fixed by g iff h^{-1} g h lies in G_J, and the number
    of fixed cosets is |C_G(g)| * |cls(g) ∩ G_J| / |G_J|.  Only the terms
    with cls(g) ∩ G_J nonempty are summed, once per group, over one walk
    of each G_J; a class that meets no proper G_J fixes only the empty
    simplex.
    """

    def __init__(self, t: GroupTable, classes: ConjugacyClasses):
        self.table = t
        self.classes = classes
        n = t.ngens
        class_of = classes.class_of
        sizes = classes.sizes
        fixed: dict[int, list[int]] = {}
        # J = R is left out: G_R = G labels only the empty simplex
        for mask in range((1 << n) - 1):
            members, _tree = _subgroup_tree(
                t, [i for i in range(n) if mask >> i & 1])
            met = Counter(map(class_of.__getitem__, members))
            order = len(members)
            k = n - bin(mask).count("1")   # vertices of a type-(R - J) simplex
            for cid, m in met.items():
                num = t.order // sizes[cid] * m
                if num % order:
                    raise RuntimeError("non-integral fixed-coset count")
                fixed.setdefault(cid, [1] + [0] * n)[k] += num // order
        # class id -> counts, ascending, for the classes that fix a
        # nonempty simplex (those meeting some proper G_J, the identity too)
        self.nontrivial_counts = {cid: tuple(c)
                                  for cid, c in sorted(fixed.items())}
        self._empty_only = (1,) + (0,) * n

    def fixed_counts(self, class_id: int) -> tuple[int, ...]:
        """f_{-1}, ..., f_{n-1} of the fixed subcomplex of the class: entry
        k counts the fixed simplices with k vertices."""
        return self.nontrivial_counts.get(class_id, self._empty_only)


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

@dataclass
class CandidateReport:
    diagram: Diagram
    status: str            # "betti-mismatch" | "isomorphism-failed" | "matched"

    @property
    def name(self) -> str:
        """The diagram's display name, classified only when read."""
        return diagram_name(self.diagram)


@dataclass
class RecognitionVerdict:
    """What recognition computed; the rest is read off the candidates."""
    rank: int
    chambers: int
    betti: dict[int, int] | None          # None without candidates
    candidates: list[CandidateReport] = field(default_factory=list)
    certificate: dict[int, int] | None = None   # first match's vertex map

    @property
    def matches(self) -> list[Diagram]:
        return [cr.diagram for cr in self.candidates if cr.status == "matched"]

    @property
    def recognized(self) -> bool:
        return bool(self.matches)

    @property
    def outcome(self) -> str:           # "recognized" | "not-mfc"
        return "recognized" if self.recognized else "not-mfc"

    @property
    def diagram(self) -> Diagram | None:
        return next(iter(self.matches), None)

    @property
    def reason(self) -> str | None:
        """Why no candidate matched; None when one did."""
        statuses = {cr.status for cr in self.candidates}
        return (None if "matched" in statuses else
                "no-admissible-factorization" if not statuses else
                "betti-mismatch-all" if statuses == {"betti-mismatch"} else
                "isomorphism-failed-all")

    def to_jsonable(self):
        return {
            "outcome": self.outcome,
            "rank": self.rank,
            "chambers": self.chambers,
            "betti": None if self.betti is None else
                     {str(k): v for k, v in sorted(self.betti.items())},
            "diagram": None if self.diagram is None else diagram_name(self.diagram),
            "reason": self.reason,
            "candidates": [[cr.name, cr.status] for cr in self.candidates],
            "matches": [diagram_name(d) for d in self.matches],
        }


_MODEL_CACHE: dict = {}
_MODEL_CACHE_MAX = 4096
_MODEL_ORDER_LIMIT = 20_000


def _model_complex(d: Diagram) -> TypedComplex:
    """The Milnor fiber complex of a candidate diagram, cached per diagram
    for groups of order at most _MODEL_ORDER_LIMIT (and at most
    _MODEL_CACHE_MAX of them), which bounds the cache's memory.  Raises
    SimplexCapExceeded (from milnor_fiber_complex) for a model over the
    simplex cap."""
    hit = _MODEL_CACHE.get(d)
    if hit is not None:
        return hit
    t = enumerate_group(d, cap=max(DEFAULT_CAP, group_order(d)))
    cx, _act = milnor_fiber_complex(t)
    if group_order(d) <= _MODEL_ORDER_LIMIT and len(_MODEL_CACHE) < _MODEL_CACHE_MAX:
        _MODEL_CACHE[d] = cx
    return cx


@lru_cache(maxsize=4096)
def predicted_bouquet_count(d: Diagram) -> int:
    """Bouquet size for the Milnor fiber complex of d: product over
    components of (smallest degree - 1)^rank.  Memoized per diagram: the
    walls of one group, and the groups of one suite, share candidate
    lists."""
    return prod((gid.degrees[0] - 1) ** len(gid.degrees)
                for gid in classify(d))


def _may_match(s: TypedComplex, d: Diagram, profile) -> bool:
    """False when d's model differs from s in its f-vector or, failing
    that, in its vertex profile (``profile()`` gives s's), both read off
    group orders without building the model.  An isomorphism preserves
    both, so False is exact: s is not d's Milnor fiber complex."""
    return (order_f_vector(d) == s.f_vector()
            and order_vertex_profile(d) == profile())


def recognize_milnor_fiber(s: TypedComplex, rank: int) -> RecognitionVerdict:
    """Decide whether s is the Milnor fiber complex of some rank-`rank`
    admissible diagram.  The chamber count gives the candidates, in
    canonical-key order, and one pass over them decides each in turn: a
    bouquet count that differs from s's is a betti-mismatch, and
    otherwise the candidate is isomorphism-failed when its f-vector or
    vertex profile, from group orders, differs from s's, and else
    ``find_isomorphism`` with no type map, an exact search that pins
    s's first chamber to the model's identity chamber and extends the
    map panel by panel, gives matched or isomorphism-failed.  s's incidence
    counts are computed once, for its profile and that search's colors.
    The verdict's certificate is the first match's vertex map."""
    # the chambers are the (rank-1)-simplices, or the empty simplex alone
    chambers = 1 if rank == 0 and s.dim == -1 else len(s.simplices(rank - 1))
    candidates = enumerate_admissible(rank, chambers)
    if not candidates:
        return RecognitionVerdict(rank, chambers, None)
    comps = _n_components(s.n_vertices, s.simplices(1)) if rank >= 2 else 1
    if comps != 1:
        # every Milnor fiber complex of rank >= 2 is connected (chamber
        # complexes are gallery connected), so reduced b_0 > 0 rejects all
        # candidates without running the boundary matrices
        reports = [CandidateReport(d, "betti-mismatch") for d in candidates]
        return RecognitionVerdict(rank, chambers, {0: comps - 1}, reports)
    betti = reduced_betti(s)
    bouquet = betti.concentrated_value(rank - 1)
    profile = cache(lambda: vertex_profile(s))     # read once, if at all
    reports = []
    certificate = None
    for d in candidates:
        if bouquet != predicted_bouquet_count(d):
            status = "betti-mismatch"
        else:
            iso = (find_isomorphism(s, _model_complex(d))
                   if _may_match(s, d, profile) else None)
            if iso is None:
                status = "isomorphism-failed"
            else:
                status = "matched"
                if certificate is None:     # the empty complex's map is {}
                    certificate = iso
        reports.append(CandidateReport(d, status))
    return RecognitionVerdict(rank, chambers, betti.betti, reports, certificate)


# ---------------------------------------------------------------------------
# Milnor walls
# ---------------------------------------------------------------------------

@dataclass
class MilnorWallCertificate:
    """A type family of a wall that is a Milnor fiber complex."""
    missing_types: tuple[int, ...]    # F = {R - {s} : s in this tuple}
    verdict: RecognitionVerdict

    @property
    def diagram(self) -> Diagram:
        return self.verdict.diagram

    @property
    def proper(self) -> bool:           # F is not the full family
        return len(self.missing_types) != self.verdict.rank + 1

    def to_jsonable(self):
        return {"missing_types": list(self.missing_types),
                "diagram": diagram_name(self.diagram),
                "proper": self.proper,
                "verdict": self.verdict.to_jsonable()}


@lru_cache(maxsize=4096)
def _model_f_vectors(rank: int, chambers: int) -> frozenset:
    """The f-vectors, read off group orders, of the models of every
    rank-`rank` candidate with this many chambers."""
    return frozenset(map(order_f_vector, enumerate_admissible(rank, chambers)))


def _type_families(wall_cx: TypedComplex, n: int):
    """Every type family of a rank-n complex's wall in search order,
    descending by size and lexicographic within a size, as
    (missing, f_vector, faces): the family is the wall's (n-2)-simplices
    of type R - {s} for s in ``missing``, ``f_vector`` is (f_0, ...,
    f_{n-2}) of the complex they generate, and ``faces()`` lists that
    complex's simplices by dimension, in the wall's vertex ids.

    One face pass (``_face_closure``) gives each face of a facet the
    bitmask of the types s whose facets contain it: a facet's is its own
    missing type, and a face's is the union of its cofaces'.  A family's
    faces are those whose mask meets its types, so its f-vector is read
    off one histogram of masks per dimension."""
    full = (1 << n) - 1
    types = wall_cx.vertex_types
    masks = _face_closure((f, full ^ sum(1 << types[v] for v in f))
                          for f in wall_cx.simplices(n - 2))
    hists = [Counter(masks.get(k, {}).values()) for k in range(n - 1)]
    for size in range(n, 0, -1):
        for missing in combinations(range(n), size):
            bits = sum(1 << s for s in missing)
            yield (missing,
                   tuple(sum(c for m, c in h.items() if m & bits)
                         for h in hists),
                   lambda bits=bits: {k: [s for s, m in ms.items() if m & bits]
                                      for k, ms in masks.items()})


def milnor_wall_search(wall_cx: TypedComplex, n: int,
                       wall_verdict: RecognitionVerdict
                       ) -> MilnorWallCertificate | None:
    """First certificate for a wall of a rank-n complex, over all 2^n
    type families, descending by family size (so non-proper Milnor walls
    are found first), lexicographic within a size.  It depends on the
    wall alone, so every reflection with that wall shares it.

    ``wall_verdict`` is the wall's own recognition at rank n-1; the family
    whose f-vector is the wall's generates the whole wall and takes it (at
    rank 1, the one family, with no facets).  Any other nonempty family is
    built and recognized only when its f-vector is one of its candidates'
    model f-vectors, from group orders: recognition matches no candidate
    whose f-vector differs, so skipping the others is exact."""
    wall_fv = wall_cx.f_vector()
    for missing, fv, faces in _type_families(wall_cx, n):
        if fv == wall_fv:
            verdict = wall_verdict
        elif any(fv) and fv in _model_f_vectors(n - 1, fv[-1]):
            verdict = recognize_milnor_fiber(
                _reindexed(faces(), wall_cx.vertex_types), n - 1)
        else:
            continue
        if verdict.recognized:
            return MilnorWallCertificate(missing, verdict)
    return None


# ---------------------------------------------------------------------------
# fixed-space dimension count checks
# ---------------------------------------------------------------------------

def _detail_rows(row, checked, order) -> tuple[list[dict], int]:
    """The detail rows a report shows, and how many of them fail: every
    failing row of the ids in ``checked``, then the first holding rows of
    the ids in ``order``, up to DETAIL_ROW_LIMIT rows in all.  ``row(i)``
    gives (holds, row) and runs at most once per id."""
    built = {i: row(i) for i in checked}
    shown = [r for holds, r in built.values() if not holds]
    n_failing = len(shown)
    for i in order:
        if len(shown) >= DETAIL_ROW_LIMIT:
            break
        holds, r = built[i] if i in built else row(i)
        if holds:
            shown.append(r)
    return shown, n_failing


@dataclass
class CountReport:
    rows: list[dict]            # the detail rows shown: failing ones first
    item_i: bool
    item_ii: bool
    item_iii: bool
    eq8_holds: bool


def chamber_count_check(pdata: ParabolicData, d: Diagram,
                        refl: list[int]) -> CountReport:
    """Per conjugacy class: p = fixed-space dimension proxy and the count
    f_{p-1}(Delta^g) against d_1...d_p; items (i)-(iii) of the
    chamber-count equivalence; Eq-(8) per reflection class, given by its
    representative in ``refl`` (none is looked at in rank 1).

    Only the classes in ``pdata.nontrivial_counts`` are evaluated: any
    other class fixes just the empty simplex, so p = 0 and f_{-1} = 1 =
    d_1...d_0, and it holds (and satisfies (i) at rank 2).  ``rows`` are
    the report's class rows by ``_detail_rows``, in class-id order; with
    more than 512 classes, only the failing ones.
    """
    degs = basic_degrees(d)
    n = pdata.table.ngens
    prefix = [1]
    for dd in degs:
        prefix.append(prefix[-1] * dd)
    classes = pdata.classes

    def row(cid: int) -> tuple[bool, dict]:
        counts = pdata.fixed_counts(cid)
        p = max(k for k in range(n + 1) if counts[k])
        holds = counts[p] == prefix[p]
        return holds, {"rep": classes.reps[cid], "size": classes.sizes[cid],
                       "p": p, "f": {str(k - 1): v for k, v in enumerate(counts)
                                     if v or k == 0},
                       "expected": prefix[p], "holds": holds}

    rows, n_failing = _detail_rows(
        row, pdata.nontrivial_counts,
        range(classes.n_classes) if classes.n_classes <= 512 else ())
    item_i = all(r["p"] != n - 2 for r in rows[:n_failing])
    item_iii = not has_forbidden_subdiagram(d, THEOREM_B_FORBIDDEN)
    # Eq (8): a wall's chambers are its fixed simplices with n-1 vertices.
    # At rank 1 that is the empty simplex alone, f_{-1} = 1 = d_1...d_0,
    # for every class
    eq8 = n == 1 or all(
        pdata.fixed_counts(classes.class_of[rep])[n - 1] == prefix[n - 1]
        for rep in refl)
    return CountReport(rows, item_i, not n_failing, item_iii, eq8)
