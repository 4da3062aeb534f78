"""Theorem-level verification harness and suite runner.

Every verifier computes a *predicted* answer from the diagram alone and
a *computed* answer from the complexes, and reports whether they agree.
The computed side never consults the forbidden-subdiagram predicate.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from math import prod

from .complexes import (ChamberSystem, TypedComplex, join,
                        milnor_fiber_complex, monomial_flag_complex)
from .diagram import (Diagram, DiagramError, basic_degrees, classify,
                      components_with_indices, diagram_name,
                      has_forbidden_subdiagram, parse_symbol, symbol_rank)
from .group import (DEFAULT_CAP, CapExceeded, ConjugacyClasses,
                    ReflectionClasses, _check_rank, conjugacy_classes,
                    enumerate_group, reflection_classes)
from .homology import BettiResult, _graph_betti, reduced_betti
from .isomorphism import find_isomorphism, verify_isomorphism
from .walls import (MilnorWallCertificate, ParabolicData, RecognitionVerdict,
                    THEOREM_A_FORBIDDEN, THEOREM_B_FORBIDDEN, _detail_rows,
                    _model_complex, chamber_count_check, fixed_subcomplex,
                    milnor_wall_search, predicted_bouquet_count,
                    recognize_milnor_fiber)

# explicit per-class subcomplex homology: always at rank >= 3 (orders are
# small there); at rank <= 2 only for small orders, since every
# non-identity class fixes a complex of dimension <= 0 whose homology the
# exact coset counts already determine (cross-checked in the tests)
EXPLICIT_ORLIK_ORDER = 240

# the fixed subcomplex of a class that fixes no vertex
_EMPTY_COMPLEX = TypedComplex((), {})


class SuiteError(ValueError):
    """A suite spec that cannot be run: unreadable, not JSON, or malformed."""


@dataclass
class TheoremReport:
    symbol: str
    theorem: str                  # "A" | "B" | "counts" | "orlik" | "monomial" | "join"
    predicted: object
    computed: object
    status: str                   # "agree" | "disagree" | "skipped"
    details: dict = field(default_factory=dict)
    timing_ms: int | None = None      # this check's own time
    context_ms: int | None = None     # its entry's GroupContext build

    def to_jsonable(self):
        out = {"symbol": self.symbol, "theorem": self.theorem,
               "predicted": self.predicted, "computed": self.computed,
               "status": self.status, "details": self.details}
        if self.timing_ms is not None:
            out["timing_ms"] = self.timing_ms
        if self.context_ms is not None:
            out["context_ms"] = self.context_ms
        return out


class GroupContext:
    """Everything verifiers need for one diagram, built once: the table,
    its chamber system, its conjugacy classes and reflection classes, the
    parabolic data, and the walls.  The reflection classes are read off
    the conjugacy classes when those are built already (counts builds
    them), and are otherwise walked alone (``reflection_classes``), so
    A, B, monomial and join never build every class.  A wall is named
    by the ids of the vertices its elements fix
    (``chambers.fixed_vertices``, read once per cyclic subgroup); the
    wall, and for a reflection's wall its verdict and certificate, are
    computed once per name, so the powers of a reflection, often in
    other classes, share them.  The walls, the f-vector and, at rank
    <= 2, Delta's homology (``delta_betti``) come from the chambers; the
    full complex is built only when a check reads ``complex`` (orlik from
    rank 3 up, monomial, join, ``mfc build``), and only then is the
    simplex cap checked; the parabolic data, a walk of every proper
    parabolic, only when counts or orlik reads ``pdata``; the order cap
    is checked before any table."""

    def __init__(self, d: Diagram, cap: int = DEFAULT_CAP):
        self.diagram = d
        self.cap = cap
        self.table = enumerate_group(d, cap=cap)
        self.chambers = ChamberSystem(self.table)
        self._walls = {}            # these three by the wall's name
        self._verdicts = {}
        self._certificates = {}

    @cached_property
    def complex(self) -> TypedComplex:
        """The full Milnor fiber complex, built once from the chambers."""
        return milnor_fiber_complex(self.table, chambers=self.chambers)[0]

    @cached_property
    def delta_betti(self) -> BettiResult:
        """The reduced homology of Delta, the full complex.  At rank <= 2
        Delta is a graph: its vertices are the vertex ids, and its edges,
        if any, are the chambers, one per element.  They are distinct,
        since K_R, the intersection of every G_{R - {r}}, is trivial, so
        one union-find over the chambers gives b_0 and b_1 with no
        complex built.  From rank 3 up, ``reduced_betti`` of ``complex``."""
        if self.table.ngens >= 3:
            return reduced_betti(self.complex)
        cs = self.chambers
        n_edges = self.table.order if self.table.ngens == 2 else 0
        return _graph_betti(len(cs.vertex_types), zip(*cs.chamber), n_edges)

    @cached_property
    def classes(self) -> ConjugacyClasses:
        return conjugacy_classes(self.table)

    @cached_property
    def pdata(self) -> ParabolicData:
        return ParabolicData(self.table, self.classes)

    @cached_property
    def reflections(self) -> ReflectionClasses:
        """The reflection classes' representatives and sizes."""
        return reflection_classes(self.table, self.__dict__.get("classes"))

    @property
    def refl_classes(self) -> list[int]:
        """The representatives of the reflection classes, in class order."""
        return self.reflections.reps

    def fixed_of(self, g: int) -> TypedComplex:
        """The fixed subcomplex of element g, built once per wall."""
        key = self.chambers.fixed_vertices(g)
        if key not in self._walls:
            self._walls[key] = fixed_subcomplex(self.chambers, key)
        return self._walls[key]

    def verdict_of(self, r: int) -> RecognitionVerdict:
        """Whether the wall of reflection r is a Milnor fiber complex of
        rank n-1, decided once per wall."""
        key = self.chambers.fixed_vertices(r)
        if key not in self._verdicts:
            self._verdicts[key] = recognize_milnor_fiber(
                self.fixed_of(r), self.table.ngens - 1)
        return self._verdicts[key]

    def certificate_of(self, r: int) -> MilnorWallCertificate | None:
        """The Milnor-wall certificate of reflection r's wall (None when
        no type family has one), searched once per wall."""
        key = self.chambers.fixed_vertices(r)
        if key not in self._certificates:
            self._certificates[key] = milnor_wall_search(
                self.fixed_of(r), self.table.ngens, self.verdict_of(r))
        return self._certificates[key]


# ---------------------------------------------------------------------------
# Theorem A / Theorem B
# ---------------------------------------------------------------------------

def _wall_theorem(ctx: GroupContext, theorem: str, forbidden: tuple,
                  wall_row) -> TheoremReport:
    """Check A or B: predicted from the forbidden subdiagrams, computed
    wall by wall, one per reflection class; ``wall_row(rep)`` gives
    whether the class's wall passes and its detail row past "rep"."""
    predicted = not has_forbidden_subdiagram(ctx.diagram, forbidden)
    rows = []
    computed = True
    if ctx.table.ngens <= 1:
        # walls of a rank-<=1 complex are {empty}: the regular action is
        # fixed-point free, so only the empty simplex is fixed, and one
        # row stands for every class
        if ctx.refl_classes:
            computed, row = wall_row(ctx.refl_classes[0])
            rows.append({"rep": "all", "count": len(ctx.refl_classes), **row})
    else:
        for rep in ctx.refl_classes:
            holds, row = wall_row(rep)
            rows.append({"rep": rep, **row})
            computed = computed and holds
    status = "agree" if computed == predicted else "disagree"
    return TheoremReport(diagram_name(ctx.diagram), theorem, predicted,
                         computed, status, {"classes": rows})


def verify_theorem_A(ctx: GroupContext) -> TheoremReport:
    """Every wall is again a Milnor fiber complex iff no forbidden
    subdiagram of type D4/F4/H4/G25/G26."""
    def wall_row(rep):
        verdict = ctx.verdict_of(rep)
        row = {"verdict": verdict.to_jsonable()}
        if ctx.table.ngens > 1:
            row["wall_f"] = list(ctx.fixed_of(rep).f_vector())
        return verdict.recognized, row
    return _wall_theorem(ctx, "A", THEOREM_A_FORBIDDEN, wall_row)


def verify_theorem_B(ctx: GroupContext) -> TheoremReport:
    """Every wall is a Milnor wall iff no subdiagram of type D4/F4/H4."""
    def wall_row(rep):
        cert = ctx.certificate_of(rep)
        if cert is None:
            return False, {"certificate": None}
        if ctx.table.ngens <= 1:
            # the {empty} subcomplex is the trivial group's complex of
            # dimension n-2 = -1: a non-proper certificate for every class
            return True, {"certificate": {"diagram": diagram_name(cert.diagram),
                                          "proper": cert.proper}}
        return True, {"certificate": {"reflection": rep,
                                      **cert.to_jsonable()}}
    return _wall_theorem(ctx, "B", THEOREM_B_FORBIDDEN, wall_row)


# ---------------------------------------------------------------------------
# counts (chamber counts plus the fixed-space count equivalence)
# ---------------------------------------------------------------------------

def verify_counts(ctx: GroupContext) -> TheoremReport:
    """f_{n-1}(Delta) = d_1...d_n always, with Delta's f-vector read off
    the chambers (ChamberSystem.f_vector); for irreducible diagrams also
    the per-class count identities (i)/(ii) against predicate (iii), and
    the wall count f_{n-2}(Delta^r) = d_1...d_{n-1} both from coset
    counting and from the explicitly built walls."""
    d = ctx.diagram
    sym = diagram_name(d)
    degs = basic_degrees(d)
    n = ctx.table.ngens
    product = prod(degs)
    fv = ctx.chambers.f_vector()
    chambers = fv[n - 1] if n >= 1 else 1
    chamber_ok = chambers == product == ctx.table.order
    details = {"f_vector": list(fv), "degree_product": product,
               "chambers_ok": chamber_ok}
    irreducible = len(components_with_indices(d)) == 1
    if irreducible and n >= 1:
        rpt = chamber_count_check(ctx.pdata, d, ctx.refl_classes)
        prefix = prod(degs[:-1])

        # Eq (8) from explicitly built walls, per reflection class; at
        # rank 1 every wall is the empty simplex alone, 1 = d_1...d_0
        # chamber, so it holds and only its shown row is built
        def wall_row(rep: int) -> tuple[bool, dict]:
            if n == 1:
                got = 1
            else:
                w = ctx.fixed_of(rep)
                got = w.f_vector()[n - 2] if w.dim >= n - 2 else 0
            return got == prefix, {"rep": rep, "chambers": got,
                                   "expected": prefix}

        wall_rows, n_failing = _detail_rows(
            wall_row, ctx.refl_classes if n > 1 else (), ctx.refl_classes)
        details.update({
            "item_i": rpt.item_i, "item_ii": rpt.item_ii,
            "item_iii": rpt.item_iii,
            "eq8_counts": rpt.eq8_holds, "eq8_explicit": not n_failing,
            "walls": wall_rows,
            "n_reflection_classes": len(ctx.refl_classes),
            "n_classes": ctx.classes.n_classes,
            "class_rows": rpt.rows,
        })
        # agreement: chamber and wall counts exact (unconditional parts of
        # the theorem) and (i) iff (ii) iff (iii)
        agree = (chamber_ok and rpt.eq8_holds and not n_failing
                 and rpt.item_i == rpt.item_ii == rpt.item_iii)
        status = "agree" if agree else "disagree"
        return TheoremReport(sym, "counts", rpt.item_iii, rpt.item_ii, status,
                             details)
    status = "agree" if chamber_ok else "disagree"
    return TheoremReport(sym, "counts", True, chamber_ok, status, details)


# ---------------------------------------------------------------------------
# Orlik bouquet checks
# ---------------------------------------------------------------------------

def verify_orlik(ctx: GroupContext) -> TheoremReport:
    """Reduced Betti of Delta^g concentrated in degree p-1 with value
    (d_1 - 1)^p (irreducible groups of rank 2 and 3, every class; the
    product formula for Delta itself in general), plus torsion-freeness
    wherever the homology ran.

    Delta's homology is ``ctx.delta_betti``: read off the chambers at
    rank <= 2, where no complex is built, and off the built complex from
    rank 3 up.  A class's exact counts (``ctx.pdata.fixed_counts``) give
    p; a class they show to fix no vertex fixes the empty simplex alone,
    so its explicit row is the empty complex's, with no wall named or
    built."""
    d = ctx.diagram
    sym = diagram_name(d)
    n = ctx.table.ngens
    irreducible = len(components_with_indices(d)) == 1
    want_top = predicted_bouquet_count(d)
    details = {"bouquet": want_top, "classes": []}
    computed = True
    bt = ctx.delta_betti
    delta_ok = bt.concentrated_value(n - 1) == want_top and bt.torsion_free
    details["delta"] = {"betti": {str(k): v for k, v in sorted(bt.betti.items())},
                        "torsion_free": bt.torsion_free}
    if not delta_ok:
        computed = False
    if irreducible and 2 <= n <= 3:
        d1 = basic_degrees(d)[0]
        classes = ctx.classes
        explicit_all = n >= 3 or ctx.table.order <= EXPLICIT_ORLIK_ORDER

        def row(cid: int) -> tuple[bool, dict]:
            rep = classes.reps[cid]
            counts = ctx.pdata.fixed_counts(cid)
            p = max(k for k in range(n + 1) if counts[k])
            want = (d1 - 1) ** p
            if explicit_all or p >= 2:
                # a fixed simplex has fixed vertices: with none, only the
                # empty simplex is fixed
                sub = ctx.fixed_of(rep) if counts[1] else _EMPTY_COMPLEX
                b = reduced_betti(sub)
                ok = (b.concentrated_value(p - 1) == want
                      and sub.dim + 1 == p and b.torsion_free)
                return ok, {"rep": rep, "p": p, "want": want,
                            "betti": {str(k): v
                                      for k, v in sorted(b.betti.items())},
                            "torsion_free": b.torsion_free, "holds": ok}
            # p <= 1 here: the fixed complex is f_0 points (or {empty}),
            # so its reduced homology is determined by the exact counts
            if p == 0:
                ok = want == 1
            else:
                ok = counts[1] == want + 1 and counts[2] == 0
            return ok, {"rep": rep, "p": p, "want": want,
                        "from_counts": True, "holds": ok}

        # class 0, the identity, is handled as Delta above.  Without
        # explicit homology, a class outside the nontrivial counts has
        # p = 0 and want = 1, so it holds: only its shown row is built
        checked = range(1, classes.n_classes) if explicit_all \
            else [cid for cid in ctx.pdata.nontrivial_counts if cid]
        shown, n_failing = _detail_rows(row, checked,
                                        range(1, classes.n_classes))
        computed = computed and not n_failing
        details["n_classes"] = classes.n_classes - 1
        details["classes"] = shown
    status = "agree" if computed else "disagree"
    return TheoremReport(sym, "orlik", True, computed, status, details)


# ---------------------------------------------------------------------------
# monomial flag model (equivariant isomorphism + wall recursion)
# ---------------------------------------------------------------------------

def verify_monomial(ctx: GroupContext) -> TheoremReport:
    """Equivariant isomorphism between the coset model of G(m,1,n) and the
    flag complex of labeled coordinate subsets, plus the wall recursion
    onto G(m,1,n-1).  ctx is the context of the diagram of G(m,1,n) as
    parse_symbol gives it: n is its rank, m its last generator's order.

    The certificate sends each coset vertex to its identity flag moved by
    its representative's word in the flag generators (E_k, the flag
    model's first vertex of type k).  It must be an isomorphism
    (``verify_isomorphism``, f-vectors included) that carries each
    generator's vertex permutation onto its flag permutation; the flag
    generators are then the coset action conjugated by a bijection, so
    the relations and stabilizers follow.  On failure,
    "simplex_transport" or "equivariance" names the half that failed.
    The wall recursion searches each distinct wall once."""
    d = ctx.diagram
    n = d.rank
    m = d.orders[-1] if n else 0
    sym = "G(%d,1,%d)" % (m, n)
    if n == 0 or d != parse_symbol(sym):
        raise ValueError("%s is not a G(m,1,n) diagram" % diagram_name(d))
    fc, perms = monomial_flag_complex(m, n)
    cx = ctx.complex
    t = ctx.table
    # identity chamber: type-k coset vertex -> standard flag {e_0..e_k}
    base = [fc.vertex_types.index(k) for k in range(n)]
    # a type-k vertex: transport its coset's representative element
    # through the flag action, starting from the identity flag E_k
    vmap = {}
    for vid, g in enumerate(ctx.chambers.vertex_reps):
        img = base[cx.vertex_types[vid]]
        for letter in reversed(t.word(g)):
            img = perms[letter][img]
        vmap[vid] = img
    details = {}
    if not verify_isomorphism(cx, fc, vmap):
        details["simplex_transport"] = False
    elif not all(vmap[w] == perms[j][vmap[v]] for j in range(n)
                 for v, w in enumerate(
                     ctx.chambers.vertex_perm(t.gen_elements[j]))):
        details["equivariance"] = False
    ok = not details
    details["equivariant_isomorphism"] = ok

    # wall recursion: every wall of Delta_n is Delta_{n-1}
    recursion_ok = True
    if n >= 2:
        model = _model_complex(parse_symbol("G(%d,1,%d)" % (m, n - 1)))
        isomorphic = {}             # by the wall's fixed vertices
        rows = []
        for rep in ctx.refl_classes:
            key = ctx.chambers.fixed_vertices(rep)
            if key not in isomorphic:
                isomorphic[key] = find_isomorphism(ctx.fixed_of(rep),
                                                   model) is not None
            rows.append({"rep": rep, "isomorphic": isomorphic[key]})
        recursion_ok = all(isomorphic.values())
        details["wall_recursion"] = rows
    else:
        for rep in ctx.refl_classes:
            if ctx.fixed_of(rep).dim != -1:
                recursion_ok = False
    details["wall_recursion_ok"] = recursion_ok
    computed = ok and recursion_ok
    return TheoremReport(sym, "monomial", True, computed,
                         "agree" if computed else "disagree", details)


# ---------------------------------------------------------------------------
# join decompositions (product complexes, walls of products, Milnor walls
# of products)
# ---------------------------------------------------------------------------

def verify_join(ctx: GroupContext) -> TheoremReport:
    """For a reducible diagram: the complex is the join of the factor
    complexes; each wall is the join with one factor replaced by its
    wall; the Milnor-wall property matches factorwise.  Every join is
    taken over the factors in order, so one type map serves them all: it
    sends factor i's type t, tagged (i, t) by ``join``, to the union's
    generator index of t, and each isomorphism must respect it.

    The whole join is found by the search onto the union's complex, a
    model.  A wall needs no search: the group is the direct product of
    its factors, so the union's type-r vertex, the coset x G_{R - {r}}
    with r factor i's type t, is factor i's coset h (G_i)_{R_i - {t}},
    where h, x's projection onto factor i, is x's word with the letters
    of the other factors left out.  That map, restricted to the union
    wall's vertices (the k-th is its key's k-th id), is re-checked by
    ``verify_isomorphism``, so a wrong map can only give disagree."""
    sym = diagram_name(ctx.diagram)
    comps = components_with_indices(ctx.diagram)
    factor_ctx = [GroupContext(cd, ctx.cap) for cd, _idx in comps]
    type_map = {(i, t): r for i, (_cd, idx) in enumerate(comps)
                for t, r in enumerate(idx)}
    ok = find_isomorphism(join(*(f.complex for f in factor_ctx)),
                          ctx.complex, type_map) is not None
    details = {"join_isomorphism": ok}

    # each element's projection onto each factor, its stored word with
    # the other factors' letters left out, read along the parent links;
    # then each union vertex's factor i and its vertex id there
    home = {r: it for it, r in type_map.items()}
    table = ctx.table
    proj = [[0] * table.order for _ in comps]
    for x in range(1, table.order):
        y = table.parent[x]
        for col in proj:
            col[x] = col[y]
        i, u = home[table.last_letter[x]]
        proj[i][x] = factor_ctx[i].table.right[u][proj[i][y]]
    image = []
    for r, x in zip(ctx.chambers.vertex_types, ctx.chambers.vertex_reps):
        i, u = home[r]
        image.append((i, factor_ctx[i].chambers.chamber[u][proj[i][x]]))

    # walls: factor i's elements embed into the union in one pass along
    # that factor's parent links, x = p * r_l giving emb(x) = emb(p) * r
    # with r the union's generator of type l
    wall_rows = []
    milnor_rows = []
    for fi, (cd, idx) in enumerate(comps):
        fctx = factor_ctx[fi]
        ft = fctx.table
        emb = [0] * ft.order
        for x in range(1, ft.order):
            emb[x] = table.right[idx[ft.last_letter[x]]][emb[ft.parent[x]]]
        for rep in fctx.refl_classes:
            g_union = emb[rep]
            parts = [fctx.fixed_of(rep) if fj == fi else f.complex
                     for fj, f in enumerate(factor_ctx)]
            # each part's vertex ids (a wall's: its key) to join ids
            place, off = [], 0
            for fj, p in enumerate(parts):
                ids = (fctx.chambers.fixed_vertices(rep) if fj == fi
                       else range(p.n_vertices))
                place.append(dict(zip(ids, range(off, off + len(ids)))))
                off += len(ids)
            vmap = {}
            for k, u in enumerate(ctx.chambers.fixed_vertices(g_union)):
                i, v = image[u]
                if v in place[i]:
                    vmap[k] = place[i][v]
            iso_w = verify_isomorphism(ctx.fixed_of(g_union), join(*parts),
                                       vmap, home)
            wall_rows.append({"factor": fi, "rep": rep,
                              "isomorphic": iso_w})
            if not iso_w:
                ok = False
            # Milnor-wall property transfers between union and factor
            cert_union = ctx.certificate_of(g_union) is not None
            cert_factor = fctx.certificate_of(rep) is not None
            milnor_rows.append({"factor": fi, "rep": rep,
                                "union": cert_union,
                                "factor_wall": cert_factor})
            if cert_union != cert_factor:
                ok = False
    details["walls"] = wall_rows
    details["milnor"] = milnor_rows
    return TheoremReport(sym, "join", True, ok,
                         "agree" if ok else "disagree", details)


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

def default_suite(deep: bool = False) -> dict:
    """The standard verification suite: all rank <= 2 table rows of order
    <= 2000 plus the named rank 3/4 groups; monomial and join fixtures.
    Deep mode adds G32."""
    entries = []
    seen = set()

    def add(symbol, checks):
        key = classify(parse_symbol(symbol))
        if key in seen:
            return
        seen.add(key)
        entries.append({"symbol": symbol, "checks": checks})

    for mm in range(2, 2001):
        add("Z%d" % mm, ["counts", "orlik", "A", "B"])
    for q in range(3, 1001):
        add("I2(%d)" % q, ["counts", "orlik", "A", "B"])
    mm = 2
    while 2 * mm * mm <= 2000:
        add("G(%d,1,2)" % mm, ["counts", "orlik", "A", "B"])
        mm += 1
    for name in ("G4", "G5", "G6", "G8", "G9", "G10", "G14",
                 "G16", "G17", "G18", "G20", "G21"):
        add(name, ["counts", "orlik", "A", "B"])
    for name in ("A3", "A4", "B3", "B4", "H3", "G25", "G26",
                 "G(3,1,2)", "G(3,1,3)", "G(6,1,2)"):
        add(name, ["counts", "orlik", "A", "B"])
    for name in ("D4", "F4", "H4"):
        checks = ["counts", "A", "B"]
        if name != "H4":
            checks.insert(1, "orlik")
        add(name, checks)
    if deep:
        add("G32", ["counts", "A", "B"])
    out = {"mfc_suite": 1, "allow_skip": True, "entries": entries}
    out["entries"].extend([
        {"monomial": [2, 2], "checks": ["monomial"]},
        {"monomial": [3, 2], "checks": ["monomial"]},
        {"monomial": [2, 3], "checks": ["monomial"]},
        {"monomial": [3, 3], "checks": ["monomial"]},
        {"symbol": "2 + 2", "checks": ["join"]},
        {"symbol": "2[3]2 + 3", "checks": ["join"]},
        {"symbol": "2[3]2 + 2", "checks": ["join"]},
        {"symbol": "3 + 2[4]3", "checks": ["join"]},
    ])
    return out


# check name -> verifier name.  run_entry looks the verifier up in this
# module's namespace when it calls it, so a wrapper installed there (a
# tracer, a test's monkeypatch) is the one that runs.
_CHECKS = {"counts": "verify_counts", "orlik": "verify_orlik",
           "A": "verify_theorem_A", "B": "verify_theorem_B",
           "join": "verify_join", "monomial": "verify_monomial"}


def run_entry(entry: dict, cap: int,
              timings: bool = False) -> list[TheoremReport]:
    """Build the entry's GroupContext once and run each of its checks on
    it.  A check that meets a cap (CapExceeded) or runs out of memory
    (MemoryError) is reported skipped and the others still run: all of
    them for a group over the order cap or a context that ran out of
    memory, one for a complex over the simplex cap.  A monomial entry
    [m, n] is the group G(m,1,n)."""
    _check_entry(entry)
    return _run_entry(entry, cap, timings, None)


def _parse_entry(sym: str, cap: int) -> Diagram:
    """The diagram of symbol text sym.  |G| >= 2^rank: a rank read from
    the text skips before any vertex is built."""
    _check_rank(symbol_rank(sym), cap)
    return parse_symbol(sym)


def _run_entry(entry, cap, timings, parsed) -> list[TheoremReport]:
    """run_entry on a checked entry, given its report symbol and diagram
    when run_suite's check has them; a symbol entry is named by
    diagram_name, which classifies it.  With ``timings``, each report
    gets its check's time and the time the entry's context took to
    build."""
    if "monomial" in entry:
        sym = "G(%d,1,%d)" % tuple(entry["monomial"])
        checks = entry.get("checks", ["monomial"])
    else:
        sym = entry["symbol"]
        checks = entry.get("checks", ["counts", "A", "B"])
    skip = None
    t0 = time.monotonic()
    try:
        # a rank skip keeps the symbol as written
        if parsed is None:
            d = _parse_entry(sym, cap)
            parsed = (sym if "monomial" in entry else diagram_name(d)), d
        sym, d = parsed
        ctx = GroupContext(d, cap)
    except (CapExceeded, MemoryError) as e:
        # every check reports this skip.  Only the reason is kept: the
        # exception's traceback holds the frames, and so the memory, of
        # the build that failed
        skip = _skip_reason(e)
    context_ms = int((time.monotonic() - t0) * 1000)
    reports = []
    for c in checks:
        t0 = time.monotonic()
        reason = skip
        if reason is None:
            try:
                rep = globals()[_CHECKS[c]](ctx)
            except (CapExceeded, MemoryError) as e:
                reason = _skip_reason(e)
        if reason is not None:
            rep = TheoremReport(sym, c, None, None, "skipped", reason)
        if timings:
            rep.timing_ms = int((time.monotonic() - t0) * 1000)
            rep.context_ms = context_ms
        reports.append(rep)
    return reports


def _skip_reason(e: CapExceeded | MemoryError) -> dict:
    """The details of a skipped report: the cap it met, or that it ran
    out of memory (a MemoryError, often with no message)."""
    if isinstance(e, MemoryError):
        return {"memory": "out of memory"}
    return {"cap": str(e)}


def _run_entry_star(args):
    return [r.to_jsonable() for r in _run_entry(*args)]


def _is_int(x) -> bool:
    """A JSON integer: an int that is not a bool (true == 1 in Python)."""
    return isinstance(x, int) and not isinstance(x, bool)


_SUITE_KEYS = ("mfc_suite", "allow_skip", "entries")
_ENTRY_KEYS = ("symbol", "monomial", "checks")


def _check_keys(d: dict, known, where: str) -> None:
    """Reject a key outside ``known``: a misspelled key would otherwise
    be ignored and silently change what runs."""
    for key in d:
        if key not in known:
            raise SuiteError("%s: unknown key %s (known: %s)"
                             % (where, json.dumps(key), ", ".join(known)))


def _check_entry(e) -> None:
    """Reject a suite entry that names neither a symbol nor an m,n pair
    of integers with m >= 2, n >= 1, names both, has a key other than
    "symbol", "monomial" and "checks", or whose "checks" is not a list of
    known check names ("monomial" is the one check of a monomial
    entry)."""
    if isinstance(e, dict):
        _check_keys(e, _ENTRY_KEYS, "suite entry %s" % json.dumps(e))
        if "symbol" in e and "monomial" in e:
            raise SuiteError("suite entry %s names both a \"symbol\" and a "
                             "\"monomial\" pair" % json.dumps(e))
        checks = e.get("checks", [])
        if not (isinstance(checks, list)
                and all(isinstance(c, str) for c in checks)):
            raise SuiteError("suite entry %s: \"checks\" must be a list of "
                             "names" % json.dumps(e))
        for c in checks:
            if c not in _CHECKS or (c == "monomial") != ("monomial" in e):
                raise SuiteError("suite entry %s: unknown check %r"
                                 % (json.dumps(e), c))
        if "monomial" in e:
            mn = e["monomial"]
            if (isinstance(mn, list) and len(mn) == 2
                    and all(map(_is_int, mn))
                    and mn[0] >= 2 and mn[1] >= 1):
                return
        elif isinstance(e.get("symbol"), str):
            return
    raise SuiteError("suite entry %s needs a \"symbol\" string or a "
                     "\"monomial\" pair [m, n] with m >= 2, n >= 1"
                     % json.dumps(e))


def run_suite(spec: dict | str, deep: bool = False, cap: int = DEFAULT_CAP,
              jobs: int = 1, out_dir: str | None = None,
              timings: bool = False) -> tuple[int, dict]:
    """Run a suite spec (dict, path to a JSON file, or the literal string
    "default") in ``jobs`` processes, at most one per CPU; returns
    (exit_code, report bundle)."""
    if isinstance(spec, str):
        if spec == "default":
            spec = default_suite(deep=deep)
        else:
            try:
                with open(spec) as fh:
                    spec = json.load(fh)
            except (OSError, ValueError) as e:
                raise SuiteError("cannot read suite file: %s" % e) from None
    if not (isinstance(spec, dict) and _is_int(spec.get("mfc_suite"))
            and spec["mfc_suite"] == 1):
        raise SuiteError("suite file must declare \"mfc_suite\": 1")
    _check_keys(spec, _SUITE_KEYS, "suite file")
    allow_skip = spec.get("allow_skip", True)
    if not isinstance(allow_skip, bool):
        raise SuiteError("\"allow_skip\" must be true or false, got %s"
                         % json.dumps(allow_skip))
    entries = spec.get("entries")
    if not isinstance(entries, list):
        raise SuiteError("suite file must hold a list of \"entries\"")
    parsed = [None] * len(entries)
    for i, e in enumerate(entries):
        _check_entry(e)
        # a symbol that names no admissible diagram stops the suite before
        # any entry runs; one over the rank cap is left unparsed, to be
        # skipped as run_entry skips it, and any other's parse is passed on
        if "symbol" in e:
            try:
                d = _parse_entry(e["symbol"], cap)
                parsed[i] = diagram_name(d), d
            except CapExceeded:
                pass
            except DiagramError as err:
                raise SuiteError("suite entry %s: %s"
                                 % (json.dumps(e), err)) from None
    # a process pool starts all its workers at once
    if not 1 <= jobs <= (os.cpu_count() or 1):
        raise SuiteError("jobs must be between 1 and %d, the number of "
                         "CPUs, got %r" % (os.cpu_count() or 1, jobs))
    if out_dir:             # before any entry runs: a bad path costs no work
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as e:
            raise SuiteError("cannot create the report directory: %s"
                             % e) from None
    args = [(e, cap, timings, p) for e, p in zip(entries, parsed)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_entry_star, args))
    else:
        results = list(map(_run_entry_star, args))
    flat = [r for rs in results for r in rs]
    summary = {"agree": sum(1 for r in flat if r["status"] == "agree"),
               "disagree": sum(1 for r in flat if r["status"] == "disagree"),
               "skipped": sum(1 for r in flat if r["status"] == "skipped")}
    bundle = {"mfc_report": 1, "cap": cap, "deep": deep,
              "entries": flat, "summary": summary}
    if out_dir:
        with open(os.path.join(out_dir, "mfc-report.json"), "w") as fh:
            json.dump(bundle, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if summary["disagree"]:
        return 1, bundle
    if summary["skipped"] and not allow_skip:
        return 3, bundle
    return 0, bundle
