import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfc.cli
import mfc.complexes
import mfc.group
import mfc.verify
import mfc.walls
from mfc.cli import main
from mfc.complexes import milnor_fiber_complex
from mfc.diagram import (components_with_indices, diagram_name, group_order,
                         parse_symbol, symbol_rank)
from mfc.homology import reduced_betti
from mfc.verify import (DEFAULT_CAP, GroupContext, SuiteError, default_suite,
                        run_entry, run_suite, verify_counts, verify_join,
                        verify_monomial, verify_orlik, verify_theorem_A,
                        verify_theorem_B)
from strategies import admissible_unions, from_facets

SMALL_SUITE = {
    "mfc_suite": 1,
    "allow_skip": True,
    "entries": [
        {"symbol": "A3", "checks": ["counts", "orlik", "A", "B"]},
        {"symbol": "Z5", "checks": ["counts", "A", "B"]},
        {"symbol": "I2(5)", "checks": ["counts", "orlik", "A", "B"]},
        {"monomial": [2, 2], "checks": ["monomial"]},
    ],
}


def context(sym):
    return GroupContext(parse_symbol(sym))


def test_reports_have_schema_fields():
    rep = verify_theorem_A(context("A3"))
    blob = rep.to_jsonable()
    assert blob["theorem"] == "A" and blob["status"] == "agree"
    assert "timing_ms" not in blob  # byte-reproducible by default


def test_predicted_side_is_diagram_only():
    # predicted values match the forbidden-subdiagram predicate directly
    assert verify_theorem_A(context("H3")).predicted is True
    assert verify_theorem_A(context("G26")).predicted is False
    assert verify_theorem_B(context("D4")).predicted is False


def test_run_suite_deterministic_bytes():
    _c1, b1 = run_suite(dict(SMALL_SUITE))
    _c2, b2 = run_suite(dict(SMALL_SUITE))
    assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)


def test_run_suite_exit_codes(tmp_path):
    code, bundle = run_suite(dict(SMALL_SUITE))
    assert code == 0 and bundle["summary"]["disagree"] == 0
    # skipped entry with allow_skip
    spec = {"mfc_suite": 1, "allow_skip": True,
            "entries": [{"symbol": "E8", "checks": ["counts"]}]}
    code, bundle = run_suite(spec)
    assert code == 0 and bundle["summary"]["skipped"] == 1
    spec["allow_skip"] = False
    code, _b = run_suite(spec)
    assert code == 3
    # a disagreement: Theorem B on G26 (see the decisions notes)
    spec = {"mfc_suite": 1, "allow_skip": True,
            "entries": [{"symbol": "G26", "checks": ["B"]}]}
    code, bundle = run_suite(spec)
    assert code == 1 and bundle["summary"]["disagree"] == 1


def test_run_suite_from_file(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SMALL_SUITE))
    code, bundle = run_suite(str(path), out_dir=str(tmp_path / "out"))
    assert code == 0
    written = json.loads((tmp_path / "out" / "mfc-report.json").read_text())
    assert written["mfc_report"] == 1
    assert written["summary"] == bundle["summary"]


def test_run_suite_bad_alias():
    spec = {"mfc_suite": 1, "entries": [{"symbol": "Q9", "checks": ["A"]}]}
    with pytest.raises(Exception):
        run_suite(spec)


def test_timings_flag():
    _c, bundle = run_suite(dict(SMALL_SUITE), timings=True)
    assert all("timing_ms" in r for r in bundle["entries"])
    # each report of an entry carries the same context build time
    by_symbol = {}
    for r in bundle["entries"]:
        assert isinstance(r["context_ms"], int) and r["context_ms"] >= 0
        by_symbol.setdefault(r["symbol"], set()).add(r["context_ms"])
    assert len(by_symbol) == 4
    assert all(len(times) == 1 for times in by_symbol.values())
    _c, bundle = run_suite(dict(SMALL_SUITE))
    assert not any("timing_ms" in r or "context_ms" in r
                   for r in bundle["entries"])


def test_default_suite_contents():
    suite = default_suite()
    symbols = [e.get("symbol") for e in suite["entries"] if "symbol" in e]
    for must in ("Z2000", "I2(1000)", "G(31,1,2)", "G17", "A3", "A4",
                 "B3", "B4", "D4", "H3", "H4", "F4", "G25", "G26",
                 "G(3,1,3)"):
        assert must in symbols, must
    assert "G32" not in symbols
    deep_symbols = [e.get("symbol") for e in default_suite(deep=True)["entries"]]
    assert "G32" in deep_symbols
    # monomial entries
    monos = [tuple(e["monomial"]) for e in suite["entries"] if "monomial" in e]
    assert monos == [(2, 2), (3, 2), (2, 3), (3, 3)]


def test_skipped_report_for_large_groups():
    (rep,) = run_entry({"symbol": "E7", "checks": ["A"]}, DEFAULT_CAP)
    assert (rep.symbol, rep.theorem, rep.status) == ("E7", "A", "skipped")


def test_simplex_cap_is_a_cap_skip(monkeypatch, capsys):
    # H3's complex (362 simplices) is over a cap of 100, but its wall
    # model (I2(6), 24 simplices) is not: only orlik builds a complex
    # over the cap, so only orlik is skipped, and the entry's other checks
    # still run.  Where skips are not allowed that is exit 3, never a
    # traceback
    monkeypatch.setattr(mfc.complexes, "DEFAULT_SIMPLEX_CAP", 100)
    monkeypatch.setattr(mfc.walls, "_MODEL_CACHE", {})
    reports = run_entry({"symbol": "H3",
                         "checks": ["counts", "orlik", "A", "B"]}, DEFAULT_CAP)
    assert [(r.theorem, r.status) for r in reports] == \
        [("counts", "agree"), ("orlik", "skipped"), ("A", "agree"),
         ("B", "agree")]
    assert reports[1].details == {"cap": "complex would exceed 100 simplices"}
    assert main(["verify", "orlik", "H3"]) == 3
    assert capsys.readouterr().out.rstrip().endswith("-> skipped")
    assert main(["verify", "A", "H3"]) == 0


def test_recognition_model_over_simplex_cap_is_a_skip(monkeypatch):
    # a check whose recognition model is over the cap is skipped like one
    # whose own complex is; counts builds no complex and still agrees
    monkeypatch.setattr(mfc.complexes, "DEFAULT_SIMPLEX_CAP", 10)
    monkeypatch.setattr(mfc.walls, "_MODEL_CACHE", {})
    reports = run_entry({"symbol": "H3", "checks": ["counts", "A", "B"]},
                        DEFAULT_CAP)
    assert [r.status for r in reports] == ["agree", "skipped", "skipped"]
    assert reports[1].details == {"cap": "complex would exceed 10 simplices"}


def test_simplex_cap_skips_before_any_table(monkeypatch):
    # only the order cap skips before any table is built; the simplex cap
    # is checked where a complex is built, so D7 (4,364,978 simplices) is
    # no longer skipped from group orders alone
    def no_table(*args, **kw):
        raise AssertionError("group table built for a certain skip")

    monkeypatch.setattr(mfc.group, "_build", no_table)
    for checks in (["counts"], ["counts", "orlik", "A", "B"]):
        reports = run_entry({"symbol": "E7", "checks": checks}, DEFAULT_CAP)
        assert [(r.symbol, r.theorem, r.status) for r in reports] == \
            [("E7", c, "skipped") for c in checks]
        assert {r.details["cap"] for r in reports} == \
            {"group order 2903040 exceeds cap 200000"}
    with pytest.raises(AssertionError, match="group table built"):
        run_entry({"symbol": "D7", "checks": ["counts"]}, 1_000_000)


def test_large_monomial_rank_skips_before_parsing():
    # |G(m,1,n)| >= 2^n: n = 10^8 would build 10^8 diagram vertices
    t0 = time.monotonic()
    for n in (5000, 100_000_000):
        (rep,) = run_entry({"monomial": [2, n], "checks": ["monomial"]},
                           DEFAULT_CAP)
        assert (rep.symbol, rep.status) == ("G(2,1,%d)" % n, "skipped")
        assert rep.details == {
            "cap": "group order at least 2^%d exceeds cap 200000" % n}
    assert time.monotonic() - t0 < 0.5
    with pytest.raises(SuiteError, match="m >= 2, n >= 1"):
        run_entry({"monomial": [1, 100_000_000]}, DEFAULT_CAP)


def test_large_symbol_rank_skips_before_classifying(monkeypatch):
    # 2^200 > cap: the skip is decided from the rank, and the entry keeps
    # its symbol as written, since naming it would classify the diagram
    import mfc.diagram

    def no_classify(d):
        raise AssertionError("diagram classified")

    monkeypatch.setattr(mfc.diagram, "classify", no_classify)
    t0 = time.monotonic()
    (rep,) = run_entry({"symbol": "G(2,1,200)", "checks": ["counts"]},
                       DEFAULT_CAP)
    assert time.monotonic() - t0 < 0.5
    assert (rep.symbol, rep.status) == ("G(2,1,200)", "skipped")
    assert rep.details == {
        "cap": "group order at least 2^200 exceeds cap 200000"}


def test_large_symbol_rank_skips_before_parsing():
    # the rank is read from the text, so no vertex of G(2,1,200000) is
    # built for its skip
    t0 = time.monotonic()
    reports = run_entry({"symbol": "G(2,1,200000)"}, DEFAULT_CAP)
    assert time.monotonic() - t0 < 0.1
    assert [(r.symbol, r.theorem, r.status) for r in reports] == \
        [("G(2,1,200000)", c, "skipped") for c in ("counts", "A", "B")]


def test_symbol_rank_matches_parsed_rank():
    for e in default_suite()["entries"]:
        if "symbol" in e:
            assert symbol_rank(e["symbol"]) == \
                parse_symbol(e["symbol"]).rank, e["symbol"]


def test_verdicts_invariant_under_symbol_reversal():
    # generator numbering runs left-to-right in the symbol; verdicts must
    # not depend on the choice of end
    for fn in (verify_theorem_A, verify_theorem_B, verify_counts):
        for sym, rev in (("3[3]3[4]2", "2[4]3[3]3"), ("2[4]3", "3[4]2")):
            a, b = fn(context(sym)), fn(context(rev))
            assert (a.predicted, a.computed, a.status) == \
                (b.predicted, b.computed, b.status), (fn.__name__, sym)


def test_monomial_wider_range():
    for m, n in ((4, 2), (4, 3)):
        rep = verify_monomial(context("G(%d,1,%d)" % (m, n)))
        assert (rep.symbol, rep.status) == ("G(%d,1,%d)" % (m, n), "agree")
        assert rep.details["equivariant_isomorphism"]
    # m and n are read off the diagram in parse_symbol's numbering
    for sym in ("A3", "3[4]2"):
        with pytest.raises(ValueError):
            verify_monomial(context(sym))


def test_monomial_searches_each_wall_once(monkeypatch):
    # the classes of a reflection and of its powers share one wall: the
    # wall recursion searches each distinct wall once, and still reports
    # one row per reflection class
    real = mfc.verify.find_isomorphism
    searches = []

    def counted(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(mfc.verify, "find_isomorphism", counted)
    for m, n, n_classes in ((8, 3, 8), (6, 2, 6), (3, 3, 3)):
        searches.clear()
        (rep,) = run_entry({"monomial": [m, n]}, DEFAULT_CAP)
        assert rep.status == "agree", (m, n)
        assert len(searches) == 2, (m, n)
        rows = rep.details["wall_recursion"]
        assert len(rows) == n_classes and all(r["isomorphic"] for r in rows)


def test_monomial_mutated_generator_disagrees(monkeypatch):
    # a flag generator with two images swapped, or acting trivially, is no
    # longer conjugate to the coset action: the check names which half of
    # its certificate failed, the transported map or its equivariance
    real = mfc.verify.monomial_flag_complex
    ctx = context("G(3,1,2)")

    def swap(a):
        def mutate(p):
            p[a], p[a + 1] = p[a + 1], p[a]
        return mutate

    def trivial(p):
        p[:] = range(len(p))

    failed = set()
    # the flag complex of G(3,1,2) has 15 vertices
    for mutate in [swap(a) for a in range(14)] + [trivial]:
        def mutated(m, n):
            fc, perms = real(m, n)
            mutate(perms[0])
            return fc, perms
        monkeypatch.setattr(mfc.verify, "monomial_flag_complex", mutated)
        rep = verify_monomial(ctx)
        assert rep.status == "disagree" and rep.computed is False
        assert rep.details["equivariant_isomorphism"] is False
        (key,) = set(rep.details) & {"simplex_transport", "equivariance"}
        assert rep.details[key] is False
        failed.add(key)
    assert failed == {"simplex_transport", "equivariance"}
    monkeypatch.setattr(mfc.verify, "monomial_flag_complex", real)
    assert verify_monomial(ctx).status == "agree"


def test_join_with_a_missing_facet_disagrees(monkeypatch):
    # the joined complexes lose one facet: neither the complex nor any
    # wall is then isomorphic to the union's
    real = mfc.verify.join

    def broken(*factors):
        c = real(*factors)
        return from_facets(c.vertex_types, c.chambers()[:-1])

    monkeypatch.setattr(mfc.verify, "join", broken)
    (rep,) = run_entry({"symbol": "2[3]2 + 3", "checks": ["join"]}, DEFAULT_CAP)
    assert (rep.status, rep.computed) == ("disagree", False)
    assert rep.details["join_isomorphism"] is False
    assert not any(row["isomorphic"] for row in rep.details["walls"])


JOIN_FIXTURES = ("2[3]2 + 3", "3[3]3 + 2[3]2", "G25 + 2")


def test_join_wall_with_a_missing_facet_disagrees():
    # each union wall loses one facet: its transported map then fails the
    # re-check, while the whole join still matches
    def drop_last_facet(c):
        return mfc.complexes.TypedComplex(
            c.vertex_types, {k: c.simplices(k)[:-1] if k == c.dim
                             else c.simplices(k) for k in range(c.dim + 1)})

    for sym in JOIN_FIXTURES:
        ctx = context(sym)
        real = ctx.fixed_of
        ctx.fixed_of = lambda g, real=real: drop_last_facet(real(g))
        rep = verify_join(ctx)
        assert (rep.status, rep.computed) == ("disagree", False), sym
        assert rep.details["join_isomorphism"] is True, sym
        assert not any(row["isomorphic"] for row in rep.details["walls"]), sym


def test_join_wall_with_two_images_swapped_disagrees(monkeypatch):
    # swapping the images of two vertices of one type whose neighbours
    # differ makes the transported map wrong; each such map fails its
    # re-check, and the entry disagrees
    real = mfc.verify.verify_isomorphism
    swapped = []

    def swap(a, b, vmap, type_map):
        nbrs = [set() for _ in range(a.n_vertices)]
        for u, v in a.simplices(1):
            nbrs[u].add(v)
            nbrs[v].add(u)
        pair = next(((u, v) for v in range(a.n_vertices) for u in range(v)
                     if a.vertex_types[u] == a.vertex_types[v]
                     and nbrs[u] != nbrs[v]), None)
        swapped.append(pair is not None)
        if pair is not None:
            u, v = pair
            vmap = {**vmap, u: vmap[v], v: vmap[u]}
        return real(a, b, vmap, type_map)

    monkeypatch.setattr(mfc.verify, "verify_isomorphism", swap)
    for sym in JOIN_FIXTURES:
        swapped.clear()
        (rep,) = run_entry({"symbol": sym, "checks": ["join"]}, DEFAULT_CAP)
        assert any(swapped) and rep.status == "disagree", sym
        assert [not row["isomorphic"] for row in rep.details["walls"]] \
            == swapped, sym


@st.composite
def _two_or_more_components(draw):
    """A union of admissible rows of rank <= 2 and order <= 50, followed
    by one of rank <= 3 in all and order <= 300 in all; the second is
    never empty, since a row of rank 1 or 2 and order 6 fits any budget
    of 6 or more."""
    first = draw(admissible_unions(max_rank=2, max_order=50))
    return first + draw(admissible_unions(
        max_rank=3 - first.rank, max_order=300 // group_order(first)))


@settings(max_examples=40, deadline=None)
@given(_two_or_more_components())
def test_join_check_agrees_on_random_unions(d):
    # every union of two or more admissible rows (rank <= 3) is the join
    # of its factors, wall by wall; order <= 300 bounds the factors'
    # reflection classes, each of which is a wall row
    assert len(components_with_indices(d)) > 1
    rep = verify_join(GroupContext(d))
    assert rep.status == "agree", diagram_name(d)
    assert all(row["isomorphic"] for row in rep.details["walls"])


def test_counts_on_a_reducible_diagram():
    # a union has no per-class identities: only the chamber count is
    # checked, and the details say nothing more
    rep = verify_counts(context("2 + 2"))
    assert (rep.predicted, rep.computed, rep.status) == (True, True, "agree")
    assert rep.details == {"f_vector": [4, 4], "degree_product": 4,
                           "chambers_ok": True}


def test_jobs_out_of_range_rejected_before_any_pool(monkeypatch, capsys):
    # a pool would start every worker process at once: --jobs is bounded
    # by the CPU count, and a bad value is a usage error
    import concurrent.futures
    import os

    def no_pool(*args, **kwargs):
        raise AssertionError("process pool created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for jobs in (0, -1, os.cpu_count() + 1, 100_000):
        with pytest.raises(SuiteError, match="jobs"):
            run_suite(dict(SMALL_SUITE), jobs=jobs)
        assert main(["suite", "default", "--jobs", str(jobs)]) == 2
        assert capsys.readouterr().err.startswith("error: jobs")


def test_jobs_parallel_matches_serial():
    _c1, b1 = run_suite(dict(SMALL_SUITE), jobs=2)
    _c2, b2 = run_suite(dict(SMALL_SUITE), jobs=1)
    assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)


def test_suite_parses_each_symbol_once(monkeypatch):
    # the suite's check parses each symbol entry, and the entry runs on
    # that parse
    parsed = []
    real = mfc.verify.parse_symbol
    monkeypatch.setattr(mfc.verify, "parse_symbol",
                        lambda text: parsed.append(text) or real(text))
    code, _bundle = run_suite(dict(SMALL_SUITE))
    assert code == 0
    symbols = [e["symbol"] for e in SMALL_SUITE["entries"] if "symbol" in e]
    assert [p for p in parsed if p in symbols] == symbols


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_classify(capsys):
    assert main(["classify", "3[3]3[4]2"]) == 0
    out = capsys.readouterr().out
    assert "G26" in out and "1296" in out


def test_cli_classify_long_path(capsys):
    # classification reads the path in linear time: no relabeling search
    assert main(["classify", "G(2,1,400)"]) == 0
    out = capsys.readouterr().out
    assert "name:     G(2,1,400)\n" in out


def test_cli_classify_error(capsys):
    assert main(["classify", "5[5]5"]) == 2


def test_cli_build_and_export(tmp_path, capsys):
    path = str(tmp_path / "a3.mfc")
    assert main(["build", "A3", "--export", path]) == 0
    with open(path) as fh:
        lines = fh.read().splitlines()
    # f-vector (14, 36, 24): 14 vertices and 24 chambers
    assert lines[0] == "MFC-COMPLEX v1 14 24"
    assert [ln[:2] for ln in lines[1:]] == ["v:"] * 14 + ["f:"] * 24


def test_cli_walls(capsys):
    assert main(["walls", "G25"]) == 0
    out = capsys.readouterr().out
    assert "recognized as: not a Milnor fiber complex" in out
    assert "Milnor wall: yes, G(3,1,2)" in out


def test_cli_walls_bytes_pinned(capsys):
    # the walls of G26, B3 and Z5 as printed when the class sizes were
    # read off the full conjugacy classes
    for sym in ("G26", "B3", "Z5"):
        assert main(["walls", sym]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == \
        "2843f4ff59b7ecfe82c85022854b2c731f1c7724fad0304f5d396cdcac3e9b0e"


def test_cli_walls_class_filter(capsys):
    assert main(["walls", "G26", "--class", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("class ") == 1


def test_cli_verify(capsys):
    assert main(["verify", "A", "G25"]) == 0
    assert main(["verify", "B", "G26"]) == 1
    capsys.readouterr()
    assert main(["verify", "counts", "H3", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["theorem"] == "counts" and blob["status"] == "agree"
    assert main(["verify", "monomial", "3,2"]) == 0
    assert main(["verify", "A", "E8"]) == 3


def test_cli_verify_join(capsys):
    # the command's check names are the suite's, join included
    assert main(["verify", "join", "2[3]2 + 3"]) == 0
    assert capsys.readouterr().out == \
        "join A2+Z3: predicted=True computed=True -> agree\n"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "Z", "A3"])
    assert exc.value.code == 2
    assert "invalid choice: 'Z'" in capsys.readouterr().err


def test_cli_suite(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SMALL_SUITE))
    assert main(["suite", str(path), "--out", str(tmp_path / "rep")]) == 0
    out = capsys.readouterr().out
    assert "agree" in out


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    no_marker = tmp_path / "no-marker.json"
    no_marker.write_text(json.dumps({"entries": []}))
    bad_check = tmp_path / "bad-check.json"
    bad_check.write_text(json.dumps(
        {"mfc_suite": 1, "entries": [{"symbol": "A3", "checks": ["Z"]}]}))
    not_json = tmp_path / "not-json.json"
    not_json.write_text("{")
    bad_entries = []
    for i, entry in enumerate([{"checks": ["A"]}, {"monomial": [3]}, "A3",
                               {"symbol": "A3", "checks": 5}]):
        path = tmp_path / ("bad-entry-%d.json" % i)
        path.write_text(json.dumps({"mfc_suite": 1, "entries": [entry]}))
        bad_entries.append(["suite", str(path)])
    for argv in (["verify", "monomial", "3"],
                 ["verify", "monomial", "3,x"],
                 ["suite", str(tmp_path / "missing.json")],
                 ["suite", str(no_marker)],
                 ["suite", str(bad_check)],
                 ["suite", str(not_json)], *bad_entries):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_cli_cap_below_one_exit_2(monkeypatch, capsys):
    # rejected before any group is built or any entry runs
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(mfc.cli, "GroupContext", no_work)
    monkeypatch.setattr(mfc.cli, "run_suite", no_work)
    for cap in ("0", "-5"):
        for argv in (["build", "A3"], ["walls", "B3"],
                     ["verify", "counts", "A3"], ["suite", "default"]):
            assert main(argv + ["--cap", cap]) == 2, argv
            assert capsys.readouterr().err == \
                "error: cap must be at least 1, got %s\n" % cap


def test_cli_build_and_walls_skip_large_rank_before_parsing(monkeypatch,
                                                           capsys):
    # |G| >= 2^rank: the rank is read from the text, so no vertex of
    # G(2,1,200000) is built before the cap exit
    def no_parse(text):
        raise AssertionError("symbol parsed")

    monkeypatch.setattr(mfc.verify, "parse_symbol", no_parse)
    monkeypatch.setattr(mfc.cli, "parse_symbol", no_parse)
    for command in ("build", "walls"):
        assert main([command, "G(2,1,200000)"]) == 3
        assert capsys.readouterr().err == "cap exceeded: group order at " \
            "least 2^200000 exceeds cap 200000\n"


def test_cli_walls_class_out_of_range_exit_2(capsys):
    # B3 has two reflection classes, 0 and 1
    for klass in ("7", "-1", "2"):
        assert main(["walls", "B3", "--class", klass]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: --class must be at least 0 and below 2, the "
                       "number of reflection classes, got %s\n" % klass)
    assert main(["walls", "B3", "--class", "1"]) == 0


def test_cli_export_unwritable_exit_2(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "a3.cx"
    assert main(["build", "A3", "--export", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot export: ") and err.count("\n") == 1
    assert not path.exists()


def test_cli_suite_out_is_a_file_exit_2(tmp_path, monkeypatch, capsys):
    # the report directory is made before any entry runs
    def no_run(*args, **kwargs):
        raise AssertionError("entry run before --out was made")

    monkeypatch.setattr(mfc.verify, "_run_entry", no_run)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["suite", "default", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create the report directory: ")
    assert err.count("\n") == 1 and taken.read_text() == ""


def test_unknown_check_rejected_before_any_entry_runs(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("entry run before validation")

    monkeypatch.setattr(mfc.verify, "_run_entry", no_run)
    for bad in ({"symbol": "A3", "checks": ["Z"]},
                {"symbol": "A3", "checks": ["monomial"]},
                {"monomial": [2, 2], "checks": ["A"]}):
        spec = {"mfc_suite": 1,
                "entries": [{"symbol": "E6", "checks": ["A"]}, bad]}
        with pytest.raises(SuiteError, match="unknown check"):
            run_suite(spec)
        with pytest.raises(SuiteError, match="unknown check"):
            run_suite(spec, jobs=2)


def test_suite_value_types_rejected_before_any_entry_runs(monkeypatch):
    # JSON true is not the integer 1, and the string "false" is not false
    def no_run(*args, **kwargs):
        raise AssertionError("entry run before validation")

    monkeypatch.setattr(mfc.verify, "_run_entry", no_run)
    entries = [{"symbol": "A3", "checks": ["counts"]}]
    for bad, match in (
            ({"mfc_suite": 1, "allow_skip": "false", "entries": entries},
             "allow_skip"),
            ({"mfc_suite": 1, "allow_skip": 0, "entries": entries},
             "allow_skip"),
            ({"mfc_suite": True, "entries": entries}, "mfc_suite"),
            ({"mfc_suite": 1.0, "entries": entries}, "mfc_suite"),
            ({"mfc_suite": 1, "entries": entries + [{"monomial": [2, True]}]},
             "m >= 2, n >= 1"),
            ({"mfc_suite": 1, "entries": entries + [{"monomial": [2.0, 2]}]},
             "m >= 2, n >= 1"),
            ({"mfc_suite": 1,
              "entries": entries + [{"symbol": "A3", "monomial": [2, 2],
                                     "checks": ["monomial"]}]},
             "names both")):
        with pytest.raises(SuiteError, match=match):
            run_suite(bad)


def test_unknown_keys_rejected_before_any_entry_runs(monkeypatch):
    # a misspelled "allow_skip" or "checks" used to be ignored: the E7
    # entry then ran the default checks and the suite exited 0
    def no_run(*args, **kwargs):
        raise AssertionError("entry run before validation")

    monkeypatch.setattr(mfc.verify, "_run_entry", no_run)
    entries = [{"symbol": "A3", "checks": ["counts"]}]
    for bad, match in (
            ({"mfc_suite": 1, "allow_skp": False,
              "entries": [{"symbol": "E7", "check": ["orlik"]}]},
             "suite file: unknown key \"allow_skp\""),
            ({"mfc_suite": 1,
              "entries": entries + [{"symbol": "E7", "check": ["orlik"]}]},
             "unknown key \"check\""),
            ({"mfc_suite": 1,
              "entries": entries + [{"symbol": "A2", "monomail": [2, 2]}]},
             "unknown key \"monomail\"")):
        with pytest.raises(SuiteError, match=match):
            run_suite(bad)


def test_suite_symbols_checked_before_any_entry_runs(tmp_path, monkeypatch,
                                                     capsys):
    # a symbol that names no table row or cannot be read stops the suite
    # before its first entry runs, with an error naming the entry
    runs = []
    monkeypatch.setattr(mfc.verify, "_run_entry",
                        lambda *args: runs.append(args) or [])
    path, out = tmp_path / "suite.json", tmp_path / "out"
    for bad in ("5[5]5", "x17"):
        path.write_text(json.dumps({"mfc_suite": 1, "entries": [
            {"symbol": "A3", "checks": ["counts"]}, {"symbol": bad}]}))
        assert main(["suite", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: suite entry {\"symbol\": \"%s\"}: "
                              % bad), err
    assert runs == [] and not out.exists()
    # a symbol over the rank cap is left unparsed and runs, to be skipped
    big = {"symbol": "5" + "[5]5" * 29}
    assert run_suite({"mfc_suite": 1, "entries": [big]})[0] == 0
    assert runs == [(big, DEFAULT_CAP, False, None)]


def test_cli_suite_unknown_key_exit_2(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(
        {"mfc_suite": 1, "entries": [{"symbol": "A2", "monomail": [2, 2]}]}))
    assert main(["suite", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: suite entry {\"symbol\": \"A2\", \"monomail\": " \
        "[2, 2]}: unknown key \"monomail\" (known: symbol, monomial, " \
        "checks)\n"


def test_cli_suite_allow_skip_string_exit_2(tmp_path, capsys):
    # "false" used to count as true: a skipped E7 entry then exited 0
    path = tmp_path / "suite.json"
    spec = {"mfc_suite": 1, "allow_skip": False,
            "entries": [{"symbol": "E7", "checks": ["counts"]}]}
    path.write_text(json.dumps(spec))
    assert main(["suite", str(path)]) == 3
    capsys.readouterr()
    spec["allow_skip"] = "false"
    path.write_text(json.dumps(spec))
    assert main(["suite", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: \"allow_skip\" must be true or false, got " \
        "\"false\"\n"


def test_fixed_subcomplexes_built_once(monkeypatch):
    # counts, A and B build the walls; orlik reuses them for the
    # reflection classes and adds the other classes.  Classes that fix
    # the same vertices share one build, and the classes that fix none
    # (several) are read off the exact counts, with no wall built
    built = []
    real = mfc.verify.fixed_subcomplex

    def counting(chambers, fixed):
        built.append(fixed)
        return real(chambers, fixed)

    monkeypatch.setattr(mfc.verify, "fixed_subcomplex", counting)
    ctx = context("B3")
    for check in (verify_counts, verify_theorem_A, verify_theorem_B,
                  verify_orlik):
        assert check(ctx).status == "agree"
    walls = {ctx.chambers.fixed_vertices(g) for g in ctx.classes.reps[1:]}
    assert len(walls) < ctx.classes.n_classes - 1 and () in walls
    assert len(built) == len(set(built)) and set(built) == walls - {()}
    rep = ctx.refl_classes[0]
    assert ctx.certificate_of(rep).verdict is ctx.verdict_of(rep)


def test_counts_and_walls_never_build_the_complex(monkeypatch):
    # the f-vector and every wall come from the chambers; only the
    # recognition models (walls' own binding) build a complex
    def no_complex(*args, **kwargs):
        raise AssertionError("full complex built")

    monkeypatch.setattr(mfc.verify, "milnor_fiber_complex", no_complex)
    for sym in ("H3", "G26"):
        ctx = context(sym)
        reports = [check(ctx) for check in (verify_counts, verify_theorem_A,
                                            verify_theorem_B)]
        assert [r.status for r in reports] == \
            ["agree", "agree", "disagree" if sym == "G26" else "agree"]
        assert "complex" not in vars(ctx)


# Delta of rank 1 and 2: points, a cycle, graphs with torsion-free b_1,
# and a union
RANK2_FIXTURES = ("Z5", "I2(7)", "I2(8)", "G(4,1,2)", "G5", "2 + 3")


def _assert_delta_betti_is_the_complex_homology(d):
    ctx = GroupContext(d)
    want = reduced_betti(milnor_fiber_complex(ctx.table)[0])
    got = ctx.delta_betti
    assert (got.betti, got.invariant_factors) == \
        (want.betti, want.invariant_factors), diagram_name(d)


@pytest.mark.parametrize("sym", RANK2_FIXTURES)
def test_delta_betti_off_the_chambers(sym):
    _assert_delta_betti_is_the_complex_homology(parse_symbol(sym))


@settings(max_examples=60, deadline=None)
@given(admissible_unions(max_rank=2))
def test_delta_betti_off_the_chambers_on_random_unions(d):
    _assert_delta_betti_is_the_complex_homology(d)


def test_rank2_orlik_builds_no_complex(monkeypatch):
    # at rank <= 2, Delta's homology is read off the chambers
    def no_complex(*args, **kwargs):
        raise AssertionError("full complex built")

    monkeypatch.setattr(mfc.verify, "milnor_fiber_complex", no_complex)
    for sym in RANK2_FIXTURES:
        ctx = context(sym)
        assert verify_orlik(ctx).status == "agree", sym
        assert "complex" not in vars(ctx), sym


def test_out_of_memory_is_a_skip(monkeypatch):
    # a MemoryError in a check skips that check, and one in the context
    # build every check of the entry, as a cap does
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(mfc.verify, "verify_orlik", no_memory)
    reports = run_entry({"symbol": "A3", "checks": ["counts", "orlik", "A"]},
                        DEFAULT_CAP)
    assert [(r.theorem, r.status) for r in reports] == \
        [("counts", "agree"), ("orlik", "skipped"), ("A", "agree")]
    assert reports[1].details == {"memory": "out of memory"}
    monkeypatch.setattr(mfc.verify, "GroupContext", no_memory)
    reports = run_entry({"symbol": "A3", "checks": ["counts", "A"]},
                        DEFAULT_CAP)
    assert [(r.status, r.details) for r in reports] == \
        [("skipped", {"memory": "out of memory"})] * 2


# an address-space limit, set in a child process only, under which
# Python and mfc load (about 20 MB) but D7's table (322,560 elements)
# does not fit
MEMORY_LIMIT = 80 * 2 ** 20


def _run_limited(args):
    """Run the mfc command line with these arguments in a child process
    whose address space is limited to MEMORY_LIMIT bytes."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    src = os.path.dirname(os.path.dirname(mfc.__file__))
    return subprocess.run([sys.executable, "-m", "mfc.cli", *args],
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=limit,
                          env={**os.environ, "PYTHONPATH": src})


def test_cli_out_of_memory_exits_3():
    proc = _run_limited(["verify", "counts", "D7", "--cap", "1000000"])
    assert (proc.returncode, proc.stderr) == (3, "")
    assert proc.stdout == \
        "counts D7: predicted=None computed=None -> skipped\n"


def test_suite_out_of_memory_still_writes_its_report(tmp_path):
    # H3's verdict is kept, and D7's counts is skipped
    spec = tmp_path / "suite.json"
    spec.write_text(json.dumps({"mfc_suite": 1, "entries": [
        {"symbol": "H3", "checks": ["A"]},
        {"symbol": "D7", "checks": ["counts"]}]}))
    proc = _run_limited(["suite", str(spec), "--cap", "1000000",
                         "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "mfc-report.json").read_text())
    assert [(r["symbol"], r["theorem"], r["status"], r["details"].get(
        "memory")) for r in report["entries"]] == \
        [("H3", "A", "agree", None), ("D7", "counts", "skipped",
                                      "out of memory")]


def test_wall_checks_build_no_parabolic_data(monkeypatch):
    # A, B, monomial and join read only the conjugacy classes: the walk
    # of every proper parabolic is left to counts and orlik
    def no_pdata(*args):
        raise AssertionError("ParabolicData built")

    monkeypatch.setattr(mfc.verify, "ParabolicData", no_pdata)
    entries = [{"symbol": sym, "checks": ["A", "B"]}
               for sym in ("H3", "G25", "G(3,1,3)")]
    entries += [{"monomial": [3, 2], "checks": ["monomial"]},
                {"symbol": "2[3]2 + 3", "checks": ["join"]}]
    for entry in entries:
        for rep in run_entry(entry, DEFAULT_CAP):
            assert rep.status == "agree", (rep.symbol, rep.theorem)


def test_walls_recognized_once(monkeypatch):
    # A recognizes every distinct wall once; B's search takes that verdict
    # for the family that generates the whole wall instead of recognizing
    # it again
    seen = []
    real = mfc.walls.recognize_milnor_fiber

    def counting(s, rank, **kwargs):
        seen.append(s.by_dim)
        return real(s, rank, **kwargs)

    monkeypatch.setattr(mfc.verify, "recognize_milnor_fiber", counting)
    monkeypatch.setattr(mfc.walls, "recognize_milnor_fiber", counting)
    for sym in ("B3", "G25"):
        seen.clear()
        ctx = context(sym)
        verify_theorem_A(ctx)
        verify_theorem_B(ctx)
        # G25's two reflection classes fix the same vertices
        walls = {ctx.chambers.fixed_vertices(rep):
                 ctx.fixed_of(rep).by_dim for rep in ctx.refl_classes}
        assert len(walls) == (1 if sym == "G25" else 2)
        for w in walls.values():
            assert seen.count(w) == list(walls.values()).count(w), sym


def test_rank1_entry_translates_nothing(monkeypatch):
    # a cyclic group's classes, reflections and walls are known without
    # any left translation
    calls = []
    translate = mfc.group.GroupTable.left_translation

    def counted(self, g):
        calls.append(g)
        return translate(self, g)

    monkeypatch.setattr(mfc.group.GroupTable, "left_translation", counted)
    reports = run_entry({"symbol": "Z7",
                         "checks": ["counts", "orlik", "A", "B"]},
                        DEFAULT_CAP)
    assert [r.status for r in reports] == ["agree"] * 4
    assert calls == []


def test_fixed_vertices_translate_once_per_cyclic_subgroup(monkeypatch):
    # the union reflections of 200 + 2 are Z200's 199 non-identity
    # elements and Z2's one: a wall name is read once per cyclic
    # subgroup they generate, one per divisor of 200 but 1, and Z2's
    calls = []
    translate = mfc.group.GroupTable.left_translation

    def counted(self, g):
        calls.append(g)
        return translate(self, g)

    monkeypatch.setattr(mfc.group.GroupTable, "left_translation", counted)
    reports = run_entry({"symbol": "200 + 2", "checks": ["join", "A", "B"]},
                        DEFAULT_CAP)
    assert [r.status for r in reports] == ["agree"] * 3
    assert len(calls) == 12


def test_only_counts_and_orlik_build_every_class(monkeypatch, capsys):
    # A, B, monomial, join and `mfc walls` walk the reflection classes
    # alone; an entry with counts builds the conjugacy classes once, and
    # its A and B read the reflection classes off them
    calls = []
    build = mfc.group.conjugacy_classes
    walks = []
    reflections = mfc.verify.reflection_classes

    def counted(t):
        calls.append(t.order)
        return build(t)

    def counted_reflections(t, classes):
        walks.append(classes is None)
        return reflections(t, classes)

    monkeypatch.setattr(mfc.group, "conjugacy_classes", counted)
    monkeypatch.setattr(mfc.verify, "conjugacy_classes", counted)
    monkeypatch.setattr(mfc.verify, "reflection_classes",
                        counted_reflections)
    for entry in ({"symbol": "G26", "checks": ["A", "B"]},
                  {"symbol": "B3", "checks": ["A", "B"]},
                  {"monomial": [3, 2], "checks": ["monomial"]},
                  {"symbol": "3 + 2[4]3", "checks": ["join"]}):
        reports = run_entry(entry, DEFAULT_CAP)
        assert all(r.status != "skipped" for r in reports), entry
    assert main(["walls", "G26"]) == 0
    capsys.readouterr()
    assert calls == []
    assert walks and all(walks)
    walks.clear()
    reports = run_entry({"symbol": "B3", "checks": ["counts", "A", "B"]},
                        DEFAULT_CAP)
    assert [r.status for r in reports] == ["agree"] * 3
    assert calls == [48]
    assert walks == [False]


@pytest.mark.parametrize("sym", ["G25", "G26", "G(5,1,3)"])
def test_walls_keyed_by_fixed_vertices(monkeypatch, sym):
    # a reflection and its powers lie in different classes but fix the
    # same vertices: their wall is built, recognized and searched once.
    calls = {}

    def counting(name, arg):
        real = getattr(mfc.verify, name)

        def counted(*args):
            calls.setdefault(name, []).append(args[arg])
            return real(*args)
        monkeypatch.setattr(mfc.verify, name, counted)

    counting("fixed_subcomplex", 1)         # (chambers, fixed): the key
    counting("recognize_milnor_fiber", 0)   # (wall, rank)
    counting("milnor_wall_search", 0)       # (wall, n, verdict)
    ctx = context(sym)
    reports = [verify_theorem_A(ctx), verify_theorem_B(ctx)]
    walls = {ctx.chambers.fixed_vertices(rep) for rep in ctx.refl_classes}
    assert (len(ctx.refl_classes), len(walls)) == \
        {"G25": (2, 1), "G26": (3, 2), "G(5,1,3)": (5, 2)}[sym]
    # a wall is named by the key of the reflection whose wall it is
    key_of = [(ctx.fixed_of(rep), ctx.chambers.fixed_vertices(rep))
              for rep in ctx.refl_classes]

    def key(wall):
        return next(k for w, k in key_of if w is wall)

    assert sorted(calls["fixed_subcomplex"]) == sorted(walls)
    for name in ("recognize_milnor_fiber", "milnor_wall_search"):
        assert sorted(map(key, calls[name])) == sorted(walls), name
    rows = reports[1].details["classes"]
    assert [row["rep"] for row in rows] == ctx.refl_classes
    for row in rows:
        if row["certificate"] is not None:
            assert row["certificate"]["reflection"] == row["rep"]
    assert any(row["certificate"] for row in rows)


def test_join_union_walls_recognized_once(monkeypatch):
    # the 199 reflections of Z200 fix the same vertices of the union
    # 200 + 2, and of the factor: with Z2's reflection, four walls in all,
    # each recognized once (one per reflection class made 400)
    seen = []
    real = mfc.verify.recognize_milnor_fiber

    def counting(s, rank):
        seen.append(rank)
        return real(s, rank)

    monkeypatch.setattr(mfc.verify, "recognize_milnor_fiber", counting)
    (rep,) = run_entry({"symbol": "200 + 2", "checks": ["join"]}, DEFAULT_CAP)
    assert rep.status == "agree" and len(rep.details["milnor"]) == 200
    assert sorted(seen) == [0, 0, 1, 1]


def test_join_entry_reuses_its_context(monkeypatch):
    built = []

    class CountingContext(GroupContext):
        def __init__(self, d, cap=200_000):
            built.append(d)
            super().__init__(d, cap)

    monkeypatch.setattr(mfc.verify, "GroupContext", CountingContext)
    (rep,) = run_entry({"symbol": "2[3]2 + 3", "checks": ["join"]}, 200_000)
    assert rep.status == "agree"
    # the union once, then each of its two factors
    assert [d.rank for d in built] == [3, 2, 1]


def test_three_factor_joins_agree(monkeypatch):
    # all factors are joined at once, so factor i's type t is tagged
    # (i, t) in the type map; every wall of every factor is checked, by
    # its transported map: the entry makes one search, for the whole join
    real = mfc.verify.find_isomorphism
    searches = []

    def counted(*args):
        searches.append(args)
        return real(*args)

    monkeypatch.setattr(mfc.verify, "find_isomorphism", counted)
    for sym, n_walls in (("2 + 3 + 4", 1 + 2 + 3), ("A2 + B2 + 3", 1 + 2 + 2)):
        searches.clear()
        (rep,) = run_entry({"symbol": sym, "checks": ["join"]}, DEFAULT_CAP)
        assert len(searches) == 1, sym
        assert rep.status == "agree", sym
        assert rep.details["join_isomorphism"] is True, sym
        walls = rep.details["walls"]
        assert len(walls) == n_walls, sym
        assert all(row["isomorphic"] for row in walls), sym


def test_joins_with_thick_rank2_factors_agree():
    # an untyped search can stall on relabelled models of G17 and G21;
    # the join check's one search is typed and anchored, and its walls
    # need none, so these finish in well under a second each
    for sym in ("2[6]5 + 2", "2[10]3 + 3"):
        (rep,) = run_entry({"symbol": sym, "checks": ["join"]}, DEFAULT_CAP)
        assert rep.status == "agree", sym
        assert rep.details["join_isomorphism"] is True, sym


# sha256 of the reports below, as produced before the parabolic and
# fixed-subcomplex constructions were rewritten; a change in any verdict,
# count, certificate or detail row changes it
PINNED_ENTRIES = [{"symbol": s, "checks": ["counts", "orlik", "A", "B"]}
                  for s in ("B3", "H3", "G25", "G(3,1,2)")]
PINNED_SHA256 = \
    "0852da41e6d11ed89b7b24d11f75926b6e6709b0da10b6fc0389ec67605142ff"


def test_report_bytes_pinned():
    reports = [r.to_jsonable() for e in PINNED_ENTRIES
               for r in run_entry(e, 200_000)]
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256


# sha256 of the counts and orlik reports of rank <= 2 groups, as produced
# before the per-class fixed counts became a sparse per-group map: Z7 and
# I2(7) run the explicit Orlik rows, I2(301) and G(20,1,2) read them off the
# counts, Z600 has more than 512 classes (no holding class rows), and G8 is
# an exceptional rank-2 group
PINNED_RANK2_ENTRIES = [{"symbol": s, "checks": ["counts", "orlik"]}
                        for s in ("Z7", "I2(7)", "I2(301)", "G(20,1,2)",
                                  "Z600", "G8")]
PINNED_RANK2_SHA256 = \
    "7666731610193050e99831e66eb34e6b538ceeea6c0a9ef8f9573bd4bb9f7a92"


def test_rank2_report_bytes_pinned():
    reports = [r.to_jsonable() for e in PINNED_RANK2_ENTRIES
               for r in run_entry(e, 200_000)]
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_RANK2_SHA256


# sha256 of the A and B reports of rank <= 2 groups at cap 200,000, as
# produced while every fixed subcomplex was still read off all the
# chambers: Z7 is cyclic, the reflections of I2(7), I2(17) and G8 fix a
# vertex of each type, I2(301) has many walls, and G(20,1,2) and G(31,1,2)
# are monomial
PINNED_RANK2_WALL_ENTRIES = [{"symbol": s, "checks": ["A", "B"]}
                             for s in ("Z7", "I2(7)", "I2(17)", "I2(301)",
                                       "G(20,1,2)", "G(31,1,2)", "G8")]
PINNED_RANK2_WALL_SHA256 = \
    "5591f8e0108e5f14b1b951bcc88f9960cbfcb3fd44790d85804cfd17eab9a835"


def test_rank2_wall_report_bytes_pinned():
    reports = [r.to_jsonable() for e in PINNED_RANK2_WALL_ENTRIES
               for r in run_entry(e, 200_000)]
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_RANK2_WALL_SHA256


# sha256 of the B report of each group below at cap 1,000,000, as produced
# while the wall search still closed and united every type family and
# pruned it by its Euler characteristic; D7 contains D4, so none of its
# families is a Milnor fiber complex
PINNED_RANK67_B_SHA256 = {
    "E6": "46f84578fc529418639c151b32a9c5a6e6d473580105cadee818111d9144f4ff",
    "A7": "7cfced7169a55e2285c0ae811afcda141e2887cbfd455e0d8f2c78b4a58b5fc8",
    "B6": "0fb441fd23a91cba7bd2bb803009ed8bbc098e2ffa5b4fb701948fa833f874c1",
    "D7": "ec93412677007616c89917b2a8ad32051f6154d315526df45480a3f94238360f",
}


@pytest.mark.deep
def test_rank67_b_reports_pinned():
    for sym, digest in PINNED_RANK67_B_SHA256.items():
        reports = [r.to_jsonable() for r in
                   run_entry({"symbol": sym, "checks": ["B"]}, 1_000_000)]
        blob = json.dumps(reports, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest, sym
