import hashlib
import json

import numpy as np
import pytest

from ringlab import core, predicates
from ringlab.constructions import hst_ring, make_zn, upper_triangular_ring
from ringlab.core import (
    CharacterizationMismatch, bool_from_mask, clear_shared_cache, is_central, mask_elems,
    mask_from_bool, units_mask)
from ringlab.ideals import zhou_radical_mask
from ringlab.predicates import evaluate_predicate
from ringlab.suite import (
    CorpusMember, HuntQuery, _shape_mask, build_corpus, default_corpus,
    hunt_counterexample, run_theorem_suite)


def _case(report, cid):
    return next(c for c in report.cases if c.id == cid)


def test_corpus_single_expression():
    spec, members = build_corpus("Zn(4)")
    assert len(members) == 1
    assert members[0].ring.order == 4


def test_corpus_expression_list():
    spec, members = build_corpus("Zn(4); M(2,Zn(2))")
    assert [m.ring.order for m in members] == [4, 16]


def test_corpus_at_file(tmp_path):
    f = tmp_path / "corpus.txt"
    f.write_text("Zn(4)\n# comment\n  # indented comment\nT(2,Zn(2))\n")
    spec, members = build_corpus(f"@{f}")
    assert [m.ring.order for m in members] == [4, 8]


def test_default_corpus_deterministic_and_sized(default_corpus):
    spec, members = default_corpus
    assert "default" in spec
    # exact member count is certified at build time and frozen here
    assert len(members) == 700
    names = [m.name for m in members]
    assert names[:9] == [f"Z{k}" for k in range(1, 10)]
    assert "M2(Z3)" in names and "K0(Z4)" in names and "Z2xZ4" in names
    assert "L(3,3)(Z4)" in names and "Morita(Z3,Z3)" in names
    # hst members over Z4 range over the central units {1, 3} squared
    hst4 = [m for m in members if m.kind == "hst" and m.bases[0].order == 4]
    assert [(m.params["s"], m.params["t"]) for m in hst4] == \
        [(1, 1), (1, 3), (3, 1), (3, 3)]
    # rebuilt corpus has the same names in the same order
    again = default_corpus_names_cached()
    assert names == again


def default_corpus_names_cached():
    return [m.name for m in default_corpus_build()]


_cached = None


def default_corpus_build():
    global _cached
    if _cached is None:
        _cached = default_corpus()
    return _cached


def test_suite_passes_all_genuinely_proved_cases(suite_report):
    report = suite_report
    ok = {c.id: c.verdict for c in report.cases}
    for cid in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10",
                "T11", "T12", "T13", "T14", "T15", "T16", "T17", "T18", "T19",
                "T20", "T21", "T22", "F-product", "F-matrix", "F-triangular",
                "F-h-shape", "F-blocks"):
        assert ok[cid] == "PASS", f"{cid}: {ok[cid]}"


def test_suite_records_known_shape_lemma_failures(suite_report):
    # the corner, L-shape and K0-shape equalities fail on semisimple bases;
    # the suite must report them as counterexample data, not crash
    for cid in ("F-corner", "F-l-shape", "F-k0-shape", "T23"):
        c = _case(suite_report, cid)
        assert c.verdict == "FAIL"
        assert c.counterexample is not None
        assert "ring" in c.counterexample


def test_t19_converse_observation(suite_report):
    c = _case(suite_report, "T19")
    assert c.observation is not None
    assert c.observation["verdict"] in ("PASS", "FAIL")


def test_t20_exhibits_matrix_failure(suite_report):
    c = _case(suite_report, "T20")
    assert c.verdict == "PASS"
    assert "M2(Z4)" in c.observation["exhibits"]


def test_m2z3_separation_recorded(default_corpus):
    spec, members = default_corpus
    m = next(m for m in members if m.name == "M2(Z3)")
    assert evaluate_predicate(m.ring, "delta-reversible").verdict
    assert not evaluate_predicate(m.ring, "j-reversible").verdict


def test_hunt_delta_not_j(default_corpus):
    spec, members = default_corpus
    found = hunt_counterexample(HuntQuery("delta-reversible", "j-reversible"), members)
    assert found
    f = found[0]
    assert f.ring in ("M2(Z2)", "M2(Z3)")
    # witness re-verifies standalone
    ring = next(m.ring for m in members if m.name == f.ring)
    a, b = f.witness
    from ringlab.ideals import jacobson_radical_mask
    assert ring.np_mul[a, b] == ring.zero
    assert not (jacobson_radical_mask(ring) >> int(ring.np_mul[b, a])) & 1


def test_hunt_non_delta_reversible(default_corpus):
    spec, members = default_corpus
    found = hunt_counterexample(HuntQuery("true", "delta-reversible"), members)
    assert found
    f = found[0]
    assert "M2(Z4)" in f.ring
    ring = next(m.ring for m in members if m.name == f.ring)
    a, b = f.witness
    from ringlab.ideals import zhou_radical_mask
    assert ring.np_mul[a, b] == ring.zero
    assert not (zhou_radical_mask(ring) >> int(ring.np_mul[b, a])) & 1


def test_hunt_tautology_finds_nothing(default_corpus):
    spec, members = default_corpus
    assert hunt_counterexample(HuntQuery("reversible", "reversible"), members) == []


def test_hunt_collect_all(default_corpus):
    spec, members = default_corpus
    found = hunt_counterexample(HuntQuery("true", "delta-reversible", stop_at_first=False),
                                members)
    assert len(found) >= 1
    assert all(not evaluate_predicate(
        next(m.ring for m in members if m.name == f.ring), "delta-reversible").verdict
        for f in found)


def test_report_json_and_markdown_mirror(suite_report):
    d = suite_report.to_json_dict()
    assert d["corpus_size"] == 700
    assert d["tool_version"] and d["corpus_version"]
    assert set(d["caps"]) == {"lattice_cap", "quantifier_cap", "armendariz_cap"}
    md = suite_report.to_markdown()
    for c in d["cases"]:
        assert f"| {c['id']} |" in md
        assert c["statement"] in md
    for name in d["members"]:
        assert f"- {name}" in md
    # round-trip through json text
    assert json.loads(suite_report.to_json()) == d


def test_report_bytes_locked(suite_report):
    # the bytes of perfbench/golden/suite-default.json and its markdown twin
    assert hashlib.sha256(suite_report.to_json().encode()).hexdigest() == \
        "6fb92938617524153b7ddfcf651a26dca69715a4e82f4a10ae47a65a77caac0f"
    assert hashlib.sha256(suite_report.to_markdown().encode()).hexdigest() == \
        "9c376ef1c9589f42bb4ec58379ced2bb49861e768ca1cfa7fbaba0ca2d8ff1d4"


def test_suite_deterministic_across_jobs(default_corpus):
    spec, members = default_corpus
    r1 = run_theorem_suite(members, spec)
    clear_shared_cache()    # the second run computes everything afresh, on cold caches
    r2 = run_theorem_suite(members, spec)
    assert r1.to_json() == r2.to_json()
    assert r1.to_markdown() == r2.to_markdown()


def test_every_fail_reverifies_standalone(suite_report, default_corpus):
    spec, members = default_corpus
    by_name = {m.name: m for m in members}
    for c in suite_report.cases:
        if c.verdict != "FAIL" or c.counterexample is None:
            continue
        m = by_name.get(c.counterexample["ring"])
        if m is None:
            continue
        shape = _shape_mask(m)
        if shape is None:
            continue
        want, relation = shape
        got = zhou_radical_mask(m.ring)
        ok = (got == want) if relation == "eq" else ((got | want) == want)
        assert not ok


def _hst_shape_oracle(H) -> int:
    """The H_(s,t) branch that _shape_mask had before hst_ring recorded its
    shape as delta_digits: free digits (c, d, e), with the entries a = d + sc,
    d and f = d - te in delta."""
    B, s, t = H.meta["bases"][0], H.meta["s"], H.meta["t"]
    c, d, e = np.unravel_index(np.arange(H.order), H.meta["dims"])
    A, M, neg = B.np_add, B.np_mul, B.neg
    in_d = bool_from_mask(zhou_radical_mask(B), B.order)
    return mask_from_bool(in_d[A[d, M[s][c]]] & in_d[d] & in_d[A[d, neg[M[t][e]]]])


def test_hst_shape_data_matches_the_former_formula():
    # every H_(s,t)(B) of order <= 512 over these bases
    checked = 0
    for B in [make_zn(k) for k in range(2, 9)] + [upper_triangular_ring(2, make_zn(2))]:
        central_units = [u for u in mask_elems(units_mask(B)) if is_central(B, u)]
        for s in central_units:
            for t in central_units:
                H = hst_ring(B, s, t)
                member = CorpusMember(H.name, H, "hst", (B,))
                assert _shape_mask(member) == (_hst_shape_oracle(H), "eq")
                checked += 1
    assert checked == 82


def _shape_holds(member) -> bool:
    want, relation = _shape_mask(member)
    got = zhou_radical_mask(member.ring)
    return got == want if relation == "eq" else (got | want) == want


@pytest.mark.parametrize("expr, case_id", [
    ("Prod(Zn(2),Zn(4))", "F-product"),
    ("M(2,Zn(2))", "F-matrix"),
    ("T(2,Zn(2))", "F-triangular"),
    ("K0(Zn(2))", "F-k0-shape"),
    ("Hst(Zn(2),s=1,t=1)", "F-h-shape"),
    ("Lst(Zn(2),s=1,t=1)", "F-l-shape"),
    ("Corner(T(2,Zn(2)),e=3)", "F-corner"),
    ("Tri(Zn(2),Zn(2))", "F-blocks"),
    ("Morita(Zn(2),Zn(2))", "F-blocks"),
])
def test_expression_corpus_gets_family_shape_check(expr, case_id, default_corpus):
    spec, members = build_corpus(expr)
    report = run_theorem_suite(members, spec)
    case = _case(report, case_id)
    assert case.checked == 1
    m = members[0]
    twin = next(d for d in default_corpus[1]
                if d.ring.digest == m.ring.digest and d.kind == m.kind)
    assert case.verdict == ("PASS" if _shape_holds(twin) else "FAIL")


def test_characterization_mismatch_is_a_t8_fail(monkeypatch):
    honest = predicates.PREDICATES["delta-reversible"]

    def flaky(R, **kw):
        if R.order == 6:
            raise CharacterizationMismatch(f"delta-reversible({R.name}): routes disagree")
        return honest(R, **kw)

    monkeypatch.setattr(core, "_SHARED_CACHE", {})
    monkeypatch.setitem(predicates.PREDICATES, "delta-reversible", flaky)
    spec, members = build_corpus("Zn(4); Zn(6)")
    t8 = _case(run_theorem_suite(members, spec), "T8")
    assert t8.verdict == "FAIL"
    assert t8.counterexample["ring"] == "Z6"
    assert "routes disagree" in t8.counterexample["detail"]
