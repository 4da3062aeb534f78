"""Acceptance criteria, one test per criterion.

The default suite runs once per session; each criterion prints a
PASS/FAIL line (run with -s to see them).  Criterion 9 (the G32 deep
run) is behind the 'deep' marker: pytest -m deep.
"""

import hashlib
import json
import time

import pytest

from mfc.diagram import parse_symbol
from mfc.homology import reduced_betti
from mfc.verify import GroupContext, run_suite, verify_theorem_A, verify_theorem_B

SUITE_TIME_BUDGET_S = 300


@pytest.fixture(scope="session")
def suite():
    t0 = time.monotonic()
    code, bundle = run_suite("default")
    elapsed = time.monotonic() - t0
    by_key = {}
    for r in bundle["entries"]:
        by_key[(r["theorem"], r["symbol"])] = r
    return {"code": code, "bundle": bundle, "elapsed": elapsed, "by": by_key}


def _select(suite, theorem):
    return [r for r in suite["bundle"]["entries"] if r["theorem"] == theorem]


def _line(ok, text):
    print("ACCEPTANCE %s: %s" % ("PASS" if ok else "FAIL", text))
    return ok


def test_criterion_1_chamber_counts(suite):
    counts = _select(suite, "counts")
    bad = [r for r in counts if not r["details"].get("chambers_ok")]
    ok = not bad and suite["elapsed"] < SUITE_TIME_BUDGET_S
    _line(ok, "criterion 1 - f_{n-1}(Delta) = d_1...d_n on all %d suite groups,"
          " suite wall-clock %.1fs < %ds"
          % (len(counts), suite["elapsed"], SUITE_TIME_BUDGET_S))
    assert not bad
    assert suite["elapsed"] < SUITE_TIME_BUDGET_S


def test_criterion_2_wall_chamber_counts(suite):
    counts = _select(suite, "counts")
    irr = [r for r in counts if "eq8_explicit" in r["details"]]
    bad = [r["symbol"] for r in irr
           if not (r["details"]["eq8_explicit"] and r["details"]["eq8_counts"])]
    expect = {"G25": 54, "G26": 72, "H3": 12}
    named_ok = True
    for sym, want in expect.items():
        rows = suite["by"][("counts", sym)]["details"]["walls"]
        if not rows or any(row["chambers"] != want for row in rows):
            named_ok = False
    ok = not bad and named_ok
    _line(ok, "criterion 2 - wall chamber counts d_1...d_{n-1} exact on %d "
          "irreducible groups (G25=54, G26=72, H3=12)" % len(irr))
    assert not bad and named_ok


def test_criterion_3_orlik_betti(suite):
    orlik = _select(suite, "orlik")
    bad = [r["symbol"] for r in orlik if r["status"] != "agree"]
    for sym in ("D4", "G(2,1,4)", "F4"):
        assert ("orlik", sym) in suite["by"], sym
        assert suite["by"][("orlik", sym)]["details"]["delta"]["torsion_free"]
    # spot-check the rank-3 bouquets recorded in the reports
    assert suite["by"][("orlik", "G25")]["details"]["delta"]["betti"]["2"] == 125
    g4 = suite["by"][("orlik", "G4")]["details"]["delta"]["betti"]
    assert g4 == {"-1": 0, "0": 0, "1": 9}
    ok = not bad
    _line(ok, "criterion 3 - Orlik bouquet Betti on %d groups "
          "(incl. rank-4 D4/B4/F4 with SNF torsion-freeness)" % len(orlik))
    assert not bad


def test_criterion_4_theorem_A(suite):
    reports = _select(suite, "A")
    bad = [r["symbol"] for r in reports if r["status"] != "agree"]
    assert not bad, bad

    # G25: all walls rejected at the Betti step, the four order-54 candidates
    g25 = suite["by"][("A", "G25")]
    assert g25["predicted"] is False and g25["computed"] is False
    for row in g25["details"]["classes"]:
        v = row["verdict"]
        assert v["outcome"] == "not-mfc" and v["reason"] == "betti-mismatch-all"
        assert sorted(c[0] for c in v["candidates"]) == \
            sorted(["Z2+Z27", "Z3+Z18", "Z6+Z9", "I2(27)"])

    # G26: the order-3 walls survive count+Betti with exactly {G5, G(6,1,2)},
    # both eliminated by isomorphism; the wall has a degree-4 vertex
    g26 = suite["by"][("A", "G26")]
    assert g26["predicted"] is False and g26["computed"] is False
    ctx = GroupContext(parse_symbol("G26"))
    order3 = [rep for rep in ctx.refl_classes
              if ctx.table.element_order(rep) == 3]
    assert order3
    for rep in order3:
        row = next(r for r in g26["details"]["classes"] if r["rep"] == rep)
        v = row["verdict"]
        assert v["outcome"] == "not-mfc"
        assert v["reason"] == "isomorphism-failed-all"
        survivors = sorted(c[0] for c in v["candidates"]
                           if c[1] != "betti-mismatch")
        assert survivors == sorted(["G5", "G(6,1,2)"])
        w = ctx.fixed_of(rep)
        degrees = {}
        for (a, b) in w.simplices(1):
            degrees[a] = degrees.get(a, 0) + 1
            degrees[b] = degrees.get(b, 0) + 1
        assert 4 in degrees.values()
    # machine-verified truth recorded: the order-2 wall of G26 is the
    # Milnor fiber complex of G5 (so Theorem A still computes False via
    # the order-3 classes)
    order2 = [rep for rep in ctx.refl_classes
              if ctx.table.element_order(rep) == 2]
    row = next(r for r in g26["details"]["classes"] if r["rep"] == order2[0])
    assert row["verdict"]["outcome"] == "recognized"
    assert row["verdict"]["diagram"] == "G5"

    # G(m,1,n) walls recognized as G(m,1,n-1)
    recursion = {"G(3,1,3)": "G(3,1,2)", "G(2,1,4)": "G(2,1,3)", "G(2,1,3)": "G(2,1,2)",
                 "G(3,1,2)": "Z3", "G(6,1,2)": "Z6"}
    for sym, want in recursion.items():
        rep = suite["by"][("A", sym)]
        for row in rep["details"]["classes"]:
            assert row["verdict"]["outcome"] == "recognized", sym
            assert row["verdict"]["diagram"] == want, (sym, row)

    _line(True, "criterion 4 - Theorem A mechanized on %d groups; G25/G26 "
          "elimination reasons reproduced; monomial wall recursion" % len(reports))


def test_criterion_5_theorem_B(suite):
    reports = _select(suite, "B")
    bad = [r["symbol"] for r in reports
           if r["status"] != "agree" and r["symbol"] != "G26"]
    assert not bad, bad

    g25 = suite["by"][("B", "G25")]
    assert g25["computed"] is True
    for row in g25["details"]["classes"]:
        assert row["certificate"]["diagram"] == "G(3,1,2)"

    for sym in ("D4", "F4"):
        rep = suite["by"][("B", sym)]
        assert rep["predicted"] is False and rep["computed"] is False
        assert any(row["certificate"] is None
                   for row in rep["details"]["classes"]), sym

    _line(True, "criterion 5 - Theorem B mechanized on %d groups "
          "(G26 clause: see companion xfail test and the decisions notes)"
          % (len(reports) - 1))


@pytest.mark.xfail(strict=True,
                   reason="known discrepancy at G26: under the type-family "
                   "search the order-3 walls admit no certificate, and the "
                   "order-2 wall is the complex of G5, not of G(6,1,2)")
def test_criterion_5_g26_clause(suite):
    g26 = suite["by"][("B", "G26")]
    ok = g26["status"] == "agree"
    certs = [row["certificate"] for row in g26["details"]["classes"]]
    ok = ok and all(c is not None and c["diagram"] in ("G(3,1,2)", "G(6,1,2)")
                    for c in certs)
    _line(ok, "criterion 5 (G26 clause) - certificates recognize "
          "G(3,1,2) or G(6,1,2)")
    assert ok


def test_criterion_6_chamber_count_equivalence(suite):
    d4 = suite["by"][("counts", "D4")]["details"]
    assert d4["item_i"] is False and d4["item_iii"] is False
    assert any(row["p"] == 2 and row["f"].get("1", 0) != 8
               for row in d4["class_rows"] if not row["holds"])
    for sym in ("A3", "G(2,1,3)", "H3", "G4", "G(3,1,3)"):
        det = suite["by"][("counts", sym)]["details"]
        assert det["item_i"] and det["item_ii"] and det["item_iii"], sym
    irr = [r for r in _select(suite, "counts") if "item_i" in r["details"]]
    bad = [r["symbol"] for r in irr
           if not (r["details"]["item_i"] == r["details"]["item_ii"]
                   == r["details"]["item_iii"])]
    ok = not bad
    _line(ok, "criterion 6 - count identity fails for D4 (p=2, f_1 != 8), "
          "holds for A3/B3/H3/G4/G(3,1,3); (i)<->(ii)<->(iii) on %d groups"
          % len(irr))
    assert not bad


def test_criterion_7_monomial_models(suite):
    pairs = [(2, 2), (3, 2), (2, 3), (3, 3)]
    for m, n in pairs:
        rep = suite["by"][("monomial", "G(%d,1,%d)" % (m, n))]
        assert rep["status"] == "agree", (m, n)
        assert rep["details"]["equivariant_isomorphism"] is True
        assert rep["details"]["wall_recursion_ok"] is True
    _line(True, "criterion 7 - flag model equivariantly isomorphic and "
          "wall recursion for (m,n) in %s" % (pairs,))


def test_criterion_8_join_decompositions(suite):
    fixtures = ["Z2+Z2", "A2+Z3", "A2+Z2", "Z3+G(3,1,2)"]
    for sym in fixtures:
        rep = suite["by"][("join", sym)]
        assert rep["status"] == "agree", sym
        assert rep["details"]["join_isomorphism"] is True
        assert all(row["isomorphic"] for row in rep["details"]["walls"])
        assert all(row["union"] == row["factor_wall"]
                   for row in rep["details"]["milnor"])
    _line(True, "criterion 8 - join decomposition, wall reduction and "
          "Milnor-wall factorization on %s" % fixtures)


def test_suite_exit_status(suite):
    # exactly one disagreement: Theorem B at G26 (documented defect)
    flags = [(r["theorem"], r["symbol"]) for r in suite["bundle"]["entries"]
             if r["status"] != "agree"]
    assert flags == [("B", "G26")]
    assert suite["code"] == 1


# sha256 of the default suite's report as ``mfc suite default --out DIR``
# writes it to DIR/mfc-report.json
PINNED_DEFAULT_REPORT_SHA256 = \
    "9819b2c72b2fed73434faf00dbb7982be55781c46bfb65b687062db7d33f212f"


def test_default_report_bytes_pinned(suite):
    text = json.dumps(suite["bundle"], indent=1, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == PINNED_DEFAULT_REPORT_SHA256


@pytest.mark.deep
def test_criterion_9_deep_g32():
    t0 = time.monotonic()
    ctx = GroupContext(parse_symbol("G32"))
    assert ctx.table.order == 155520
    assert ctx.complex.f_vector()[3] == 155520
    classes = ctx.refl_classes
    walls_ok = True
    betti_ok = True
    for rep in classes:
        w = ctx.fixed_of(rep)
        if w.f_vector()[2] != 5184:
            walls_ok = False
        b = reduced_betti(w)
        if b.concentrated_value(2) != 1331 or not b.torsion_free:
            betti_ok = False
    ra = verify_theorem_A(ctx)
    rb = verify_theorem_B(ctx)
    cert_diagrams = {row["certificate"]["diagram"]
                     for row in rb.details["classes"]
                     if row["certificate"] is not None}
    ok = (walls_ok and betti_ok
          and ra.predicted is False and ra.computed is False
          and rb.computed is True and cert_diagrams == {"G26"})
    _line(ok, "criterion 9 (deep) - G32: walls 5184 chambers, Betti "
          "(0,0,1331), Theorem A false, Theorem B true via G26 "
          "certificates; %.0fs" % (time.monotonic() - t0))
    assert walls_ok and betti_ok
    assert ra.predicted is False and ra.computed is False
    assert rb.computed is True and rb.status == "agree"
    assert cert_diagrams == {"G26"}
    # G32's reflections have order 3, and r and r^2 lie in the two
    # classes: both fix the same vertices, so they share one wall, one
    # verdict and one certificate, and each row names its own class
    assert len(classes) == 2
    assert len({ctx.chambers.fixed_vertices(rep) for rep in classes}) == 1
    assert ctx.certificate_of(classes[0]) is ctx.certificate_of(classes[1])
    assert [row["certificate"]["reflection"]
            for row in rb.details["classes"]] == classes
