"""Walls, fixed subcomplexes, recognition, and Milnor-wall search.

The recognition pipeline mirrors the counting arguments used for the
classification: candidate groups from the chamber count, then one pass
over them in canonical-key order, each decided by a bouquet (reduced
Betti) filter and then exact isomorphism.  Per-class fixed-simplex
counts also come from an exact coset-counting identity, cross-checked
against explicitly constructed subcomplexes in the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from math import prod

from .complexes import (ChamberSystem, TypedComplex, _face_closure, _reindexed,
                        milnor_fiber_complex)
from .diagram import (Diagram, basic_degrees, canonical_key, classify,
                      diagram_name, enumerate_admissible, group_order,
                      has_forbidden_subdiagram)
from .group import (DEFAULT_CAP, GroupTable, _subgroup_tree,
                    conjugacy_classes, enumerate_group)
from .homology import _n_components, reduced_betti
from .isomorphism import find_isomorphism, verify_isomorphism

THEOREM_A_FORBIDDEN = ("D4", "F4", "H4", "G25", "G26")
THEOREM_B_FORBIDDEN = ("D4", "F4", "H4")

# most per-class detail rows a report shows, failing rows first
DETAIL_ROW_LIMIT = 16


# ---------------------------------------------------------------------------
# fixed subcomplexes
# ---------------------------------------------------------------------------

def fixed_subcomplex(chambers: ChamberSystem, g: int) -> TypedComplex:
    """All simplices with g(sigma) = sigma setwise, read off the chambers;
    vertex ids and names as in the full subcomplex of the built complex on
    g's fixed vertices.

    The action preserves types and the vertices of a simplex have
    distinct types, so setwise is pointwise.  g fixes the vertex v iff
    ``chambers.vertex_perm(g)[v] == v``.  Every simplex is a restriction
    of a chamber, so the fixed simplices are the faces of the chambers
    restricted to their fixed vertices: each chamber is read once as a
    tuple with None at its moved vertices, and the distinct tuples,
    stripped of the Nones, close to the fixed subcomplex.
    """
    keep = [v if w == v else None
            for v, w in enumerate(chambers.vertex_perm(g))]
    restricted = set(zip(*(map(keep.__getitem__, col)
                           for col in chambers.chamber)))
    return _reindexed(_face_closure(tuple(v for v in s if v is not None)
                                    for s in restricted),
                      chambers.vertex_types, chambers.vertex_names)


# ---------------------------------------------------------------------------
# exact per-class fixed-simplex counts (fixed parabolic cosets)
# ---------------------------------------------------------------------------

class ParabolicData:
    """Order of every proper standard parabolic subgroup G_J, its
    intersection count with each conjugacy class it meets, and the
    fixed-simplex counts of every class that meets some G_J.

    A coset hG_J is fixed by g iff h^{-1} g h lies in G_J, and the number
    of fixed cosets is |C_G(g)| * |cls(g) ∩ G_J| / |G_J|.  Only the terms
    with cls(g) ∩ G_J nonempty are summed, once per group; a class that
    meets no proper G_J fixes only the empty simplex.
    """

    def __init__(self, t: GroupTable):
        self.table = t
        self.classes = conjugacy_classes(t)
        n = t.ngens
        class_of = self.classes.class_of
        sizes = self.classes.sizes
        self.subgroup_orders = {}
        self.intersections = {}   # mask -> {class id: |cls ∩ G_J|}, nonzero
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
            self.subgroup_orders[mask] = order
            self.intersections[mask] = met
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
    name: str
    status: str            # "betti-mismatch" | "isomorphism-failed" | "matched"


@dataclass
class RecognitionVerdict:
    outcome: str           # "recognized" | "not-mfc"
    rank: int
    chambers: int
    betti: dict[int, int] | None
    diagram: Diagram | None
    reason: str | None     # "no-admissible-factorization" | "betti-mismatch-all"
                           # | "isomorphism-failed-all"
    candidates: list[CandidateReport] = field(default_factory=list)
    certificate: dict[int, int] | None = None   # vertex map onto the model
    matches: list[Diagram] = field(default_factory=list)
    _complex: TypedComplex | None = None

    @property
    def recognized(self) -> bool:
        return self.outcome == "recognized"

    def recheck(self) -> bool:
        """Re-verify the stored isomorphism certificate from scratch."""
        if not self.recognized or self.certificate is None or self._complex is None:
            return False
        model = _model_complex(self.diagram)
        return verify_isomorphism(self._complex, model, self.certificate)

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
    """The Milnor fiber complex of a candidate diagram, cached.  Raises
    SimplexCapExceeded (from milnor_fiber_complex) for a model over the
    simplex cap."""
    key = canonical_key(d)
    hit = _MODEL_CACHE.get(key)
    if hit is not None:
        return hit
    t = enumerate_group(d, cap=max(DEFAULT_CAP, group_order(d)))
    cx, _act = milnor_fiber_complex(t)
    if group_order(d) <= _MODEL_ORDER_LIMIT and len(_MODEL_CACHE) < _MODEL_CACHE_MAX:
        _MODEL_CACHE[key] = cx
    return cx


def predicted_bouquet_count(d: Diagram) -> int:
    """Bouquet size for the Milnor fiber complex of d: product over
    components of (smallest degree - 1)^rank."""
    return prod((gid.degrees[0] - 1) ** len(gid.degrees)
                for gid in classify(d))


def _chamber_count(s: TypedComplex, rank: int) -> int:
    """Chambers of s read as a rank-`rank` complex: its (rank-1)-simplices,
    or the empty simplex alone at rank 0."""
    return 1 if rank == 0 and s.dim == -1 else len(s.simplices(rank - 1))


def _euler_excludes(chi: int, rank: int, candidates: list[Diagram]) -> bool:
    """True when no candidate can be recognized for a complex of Euler
    characteristic chi, by that alone: a Milnor fiber complex has its
    reduced homology in degree rank-1 only, so its reduced Euler
    characteristic is (-1)^(rank-1) times the bouquet count.  Exact, and
    no boundary matrix is built."""
    reduced_chi = chi - 1
    want = reduced_chi if (rank - 1) % 2 == 0 else -reduced_chi
    return all(predicted_bouquet_count(d) != want for d in candidates)


def recognize_milnor_fiber(s: TypedComplex, rank: int) -> RecognitionVerdict:
    """Decide whether s is the Milnor fiber complex of some rank-`rank`
    admissible diagram.  The chamber count gives the candidates, in
    canonical-key order, and one pass over them decides each in turn: a
    bouquet count that differs from s's is a betti-mismatch, and
    otherwise an exact type-free isomorphism search against the
    candidate's model gives matched or isomorphism-failed.  The verdict's
    diagram is the first match, and its certificate that match's vertex
    map."""
    chambers = _chamber_count(s, rank)
    candidates = enumerate_admissible(rank, chambers)
    if not candidates:
        return RecognitionVerdict("not-mfc", rank, chambers, None, None,
                                  "no-admissible-factorization")
    comps = _n_components(s) if rank >= 2 else 1
    if comps != 1:
        # every Milnor fiber complex of rank >= 2 is connected (chamber
        # complexes are gallery connected), so reduced b_0 > 0 rejects all
        # candidates without running the boundary matrices
        reports = [CandidateReport(d, diagram_name(d), "betti-mismatch")
                   for d in candidates]
        return RecognitionVerdict("not-mfc", rank, chambers,
                                  {0: comps - 1}, None,
                                  "betti-mismatch-all", reports)
    betti = reduced_betti(s)
    bouquet = betti.concentrated_value(rank - 1)
    reports = []
    matches = []
    certificate = None
    reason = "betti-mismatch-all"
    for d in candidates:
        if bouquet != predicted_bouquet_count(d):
            status = "betti-mismatch"
        else:
            reason = "isomorphism-failed-all"
            iso = find_isomorphism(s, _model_complex(d))
            if iso is None:
                status = "isomorphism-failed"
            else:
                status = "matched"
                matches.append(d)
                if certificate is None:     # the empty complex's map is {}
                    certificate = iso
        reports.append(CandidateReport(d, diagram_name(d), status))
    if not matches:
        return RecognitionVerdict("not-mfc", rank, chambers, betti.betti, None,
                                  reason, reports)
    return RecognitionVerdict("recognized", rank, chambers, betti.betti,
                              matches[0], None, reports, certificate, matches,
                              _complex=s)


# ---------------------------------------------------------------------------
# Milnor walls
# ---------------------------------------------------------------------------

@dataclass
class MilnorWallCertificate:
    reflection: int
    missing_types: tuple[int, ...]    # F = {R - {s} : s in this tuple}
    diagram: Diagram
    verdict: RecognitionVerdict
    proper: bool                      # True when F is not the full family

    def recheck(self) -> bool:
        return self.verdict.recheck()

    def to_jsonable(self):
        return {"reflection": self.reflection,
                "missing_types": list(self.missing_types),
                "diagram": diagram_name(self.diagram),
                "proper": self.proper,
                "verdict": self.verdict.to_jsonable()}


def _type_families(wall_cx: TypedComplex, n: int):
    """Every type family of a rank-n complex's wall in search order,
    descending by size and lexicographic within a size, as
    (missing, faces): the family is the wall's (n-2)-simplices of type
    R - {s} for s in ``missing``, and ``faces`` holds every face of them
    by dimension, in the wall's vertex ids.

    Each facet type is closed once.  The closure of a union is the union
    of the closures, so a family's faces are its types' closures united
    dimension by dimension, and ``_reindexed`` of them with the wall's
    vertex types and names is the complex its facets generate."""
    by_type: dict[frozenset, list] = {}
    for s in wall_cx.simplices(n - 2):
        by_type.setdefault(wall_cx.type_of(s), []).append(s)
    closures = [_face_closure(by_type.get(
        frozenset(x for x in range(n) if x != s), ())) for s in range(n)]
    for size in range(n, 0, -1):
        for missing in combinations(range(n), size):
            parts = [closures[s] for s in missing if closures[s]]
            if len(parts) == 1:
                faces = parts[0]
            elif parts:
                # in _face_closure's key order: top dimension first
                faces = {k: set().union(*(p[k] for p in parts))
                         for k in range(n - 2, -1, -1)}
            else:
                faces = {}
            yield missing, faces


def milnor_wall_search(wall_cx: TypedComplex, n: int, r: int,
                       wall_verdict: RecognitionVerdict
                       ) -> MilnorWallCertificate | None:
    """First certificate for the wall of reflection r of a rank-n complex,
    over all 2^n type families, descending by family size (so non-proper
    Milnor walls are found first), lexicographic within a size.

    ``wall_verdict`` is the wall's own recognition at rank n-1; a family
    that generates the whole wall takes it (at rank 1, the one family,
    with no facets).  The chamber and simplex counts and the Euler
    characteristic of a family are read off its faces, and a family whose
    Euler characteristic rules out every candidate is skipped before its
    complex is built or any homology is computed."""
    wall_size = wall_cx.n_simplices()
    for missing, faces in _type_families(wall_cx, n):
        if n > 1 and not faces:
            continue
        if sum(map(len, faces.values())) == wall_size:
            verdict = wall_verdict
        else:
            chambers = len(faces[n - 2]) if n > 1 else 1
            chi = sum((-1) ** k * len(v) for k, v in faces.items())
            if _euler_excludes(chi, n - 1,
                               enumerate_admissible(n - 1, chambers)):
                continue
            verdict = recognize_milnor_fiber(
                _reindexed(faces, wall_cx.vertex_types, wall_cx.vertex_names),
                n - 1)
        if verdict.recognized:
            return MilnorWallCertificate(
                r, missing, verdict.diagram, verdict,
                proper=len(missing) != n)
    return None


# ---------------------------------------------------------------------------
# fixed-space dimension count checks
# ---------------------------------------------------------------------------

@dataclass
class ClassCountRow:
    class_rep: int
    class_size: int
    p: int
    f_vector: dict[int, int]
    expected: int            # d_1 ... d_p
    holds: bool


@dataclass
class CountReport:
    rows: list[ClassCountRow]   # the detail rows shown: failing ones first
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
    d_1...d_0, and it holds (and satisfies (i) at rank 2).  ``rows`` holds
    the failing classes, then the first holding classes up to
    DETAIL_ROW_LIMIT rows in all, each part in class-id order; with more
    than 512 classes, only the failing ones.
    """
    degs = basic_degrees(d)
    n = pdata.table.ngens
    prefix = [1]
    for dd in degs:
        prefix.append(prefix[-1] * dd)
    classes = pdata.classes

    def row(cid: int) -> ClassCountRow:
        counts = pdata.fixed_counts(cid)
        p = max(k for k in range(n + 1) if counts[k])
        fv = {k - 1: v for k, v in enumerate(counts) if v or k == 0}
        return ClassCountRow(classes.reps[cid], classes.sizes[cid], p, fv,
                             prefix[p], counts[p] == prefix[p])

    failing = [r for r in map(row, pdata.nontrivial_counts) if not r.holds]
    item_i = all(r.p != n - 2 for r in failing)
    holding = []
    if classes.n_classes <= 512:
        for cid in range(classes.n_classes):
            if len(failing) + len(holding) >= DETAIL_ROW_LIMIT:
                break
            r = row(cid)
            if r.holds:
                holding.append(r)
    item_iii = not has_forbidden_subdiagram(d, THEOREM_B_FORBIDDEN)
    # Eq (8): a wall's chambers are its fixed simplices with n-1 vertices.
    # At rank 1 that is the empty simplex alone, f_{-1} = 1 = d_1...d_0,
    # for every class
    eq8 = n == 1 or all(
        pdata.fixed_counts(classes.class_of[rep])[n - 1] == prefix[n - 1]
        for rep in refl)
    return CountReport(failing + holding, item_i, not failing, item_iii, eq8)
