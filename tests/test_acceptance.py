"""Acceptance criteria, one test per criterion (criterion 3 is split into its
sub-formulas).  Each test prints one ACCEPTANCE line before asserting.

Two sub-assertions are implemented exactly as specified and fail: the corner
formula delta(eRe) = e delta(R) e and the L-over-Z3 radical shape.  Both are
false as stated (machine-verified counterexamples: the corner formula already
fails on T2(Z2) at e = E11, and delta(L(s,t)(Z3)) is the d = 0 slice of order
81, not the 243-element shape set).  See the decisions ledger for the full
analysis; the assertions are deliberately left faithful rather than weakened.
"""
import subprocess
import sys
import time

from ringlab.core import (
    check_ring_axioms, clear_shared_cache, dumps_ring, loads_ring, mask_elems, mask_iter)
from ringlab.constructions import (
    decode_digits, direct_product, encode_digits, enumerate_unital_rings,
    make_zn, matrix_ring, upper_triangular_ring)
from ringlab.ideals import (
    assert_radical_agreement, jacobson_radical_mask, zhou_radical_mask)
from ringlab.predicates import evaluate_predicate
from ringlab.suite import (
    HuntQuery, _shape_mask, hunt_counterexample, run_theorem_suite)


def _report(cid: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    return ok


# -- criterion 1: paper witness reproduction on M2(Z3) ------------------------

def test_criterion_1_witness_reproduction(m2z3):
    t0 = time.time()
    dims = [3] * 4
    A = encode_digits([1, 2, 0, 0], dims)
    B = encode_digits([2, 0, 2, 0], dims)
    BA = encode_digits([2, 1, 2, 1], dims)
    ok = int(m2z3.np_mul[A, B]) == m2z3.zero
    ok &= int(m2z3.np_mul[B, A]) == BA
    j = jacobson_radical_mask(m2z3)
    ok &= j == (1 << m2z3.zero)
    ok &= zhou_radical_mask(m2z3) == m2z3.full_mask()
    ok &= len(list(mask_iter(zhou_radical_mask(m2z3)))) == 81
    ok &= evaluate_predicate(m2z3, "delta-reversible").verdict is True
    jres = evaluate_predicate(m2z3, "j-reversible")
    ok &= jres.verdict is False
    # the named witness pair itself certifies the failure
    ok &= not (j >> int(m2z3.np_mul[B, A])) & 1
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    assert _report("C1-witness-reproduction", ok, f"{elapsed:.2f}s")


# -- criterion 2: radical cross-characterization over the corpus --------------

def test_criterion_2_cross_characterization(default_corpus):
    spec, members = default_corpus
    t0 = time.time()
    mismatches = []
    small_checked = 0
    for m in members:
        try:
            chars = assert_radical_agreement(m.ring)
        except Exception as exc:  # CrossCheckMismatch is the interesting one
            mismatches.append((m.name, str(exc)))
            continue
        if m.ring.order <= 32:
            small_checked += 1
            assert chars["r2"] is not None and chars["r4"] is not None
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 600.0 and small_checked > 0
    assert _report("C2-cross-characterization", ok,
                   f"{len(members)} rings, {small_checked} with R2/R4, {elapsed:.1f}s"), mismatches


# -- criterion 3: radical formula suite ---------------------------------------

def test_criterion_3_product_formula(zn):
    pairs = [(zn[2], zn[4]), (zn[2], zn[3]), (zn[4], zn[6])]
    ok = True
    for A, B in pairs:
        P = direct_product([A, B])
        dims = [A.order, B.order]
        da, db = zhou_radical_mask(A), zhou_radical_mask(B)
        want = 0
        for p in range(P.order):
            i, j = decode_digits(p, dims)
            if (da >> i) & 1 and (db >> j) & 1:
                want |= 1 << p
        ok &= zhou_radical_mask(P) == want
    assert _report("C3-product-formula", ok)


def test_criterion_3_corner_formula(default_corpus):
    """delta(eRe) = e delta(R) e at every idempotent of every corpus ring.

    Implemented exactly as stated.  This is false: already in T2(Z2) at
    e = E11 the corner is a two-element field with delta(eRe) = eRe, while
    e delta(R) e = {0}.  The assertion is kept faithful and fails."""
    spec, members = default_corpus
    failures = []
    for m in members:
        if m.kind != "corner":
            continue
        want, _ = _shape_mask(m)   # e delta(R) e mapped into the corner
        got = zhou_radical_mask(m.ring)
        if got != want:
            failures.append((m.name,
                             f"delta(eRe) = {mask_elems(got)} vs e delta(R) e = {mask_elems(want)}"))
    ok = not failures
    assert _report("C3-corner-formula", ok,
                   f"{len(failures)} failing corners, first: {failures[0] if failures else '-'}"), \
        (f"delta(eRe) = e delta(R) e fails at {len(failures)} corpus corners; "
         f"first counterexample {failures[0]}; see decisions ledger")


def test_criterion_3_matrix_formula(zn):
    ok = True
    for k in (2, 3, 4):
        M = matrix_ring(2, zn[k])
        dims = [k] * 4
        dbase = zhou_radical_mask(zn[k])
        want = 0
        for p in range(M.order):
            if all((dbase >> d) & 1 for d in decode_digits(p, dims)):
                want |= 1 << p
        ok &= zhou_radical_mask(M) == want
    assert _report("C3-matrix-formula", ok)


def test_criterion_3_h_shape(default_corpus):
    spec, members = default_corpus
    ok = True
    for m in members:
        if m.kind == "hst" and m.bases[0].order == 4:
            want, _ = _shape_mask(m)
            ok &= zhou_radical_mask(m.ring) == want
    assert _report("C3-h-shape", ok)


def test_criterion_3_l_shape(default_corpus):
    """delta(L(s,t)(Z3)) matches the a,d,f-in-delta shape.

    Implemented exactly as stated.  This is false: delta(Z3) = Z3 makes the
    shape all 243 elements, but delta(L(s,t)(Z3)) is the 81-element d = 0
    slice (the only essential maximal right ideal).  Kept faithful; fails."""
    spec, members = default_corpus
    checked, ok, detail = 0, True, ""
    for m in members:
        if m.kind == "lst" and m.bases[0].order == 3:
            checked += 1
            want, _ = _shape_mask(m)
            got = zhou_radical_mask(m.ring)
            if got != want:
                ok = False
                detail = f"{m.name}: |delta| = {got.bit_count()}, |shape| = {want.bit_count()}"
    assert checked == 4
    assert _report("C3-l-shape", ok, detail), \
        f"delta(L(s,t)(Z3)) does not equal the claimed shape: {detail}; see decisions ledger"


def test_criterion_3_k0_shape(zn, k0z4):
    dims = [4] * 4
    dbase = zhou_radical_mask(zn[4])
    want = 0
    for p in range(k0z4.order):
        digs = decode_digits(p, dims)
        if (dbase >> digs[0]) & 1 and (dbase >> digs[3]) & 1:
            want |= 1 << p
    ok = zhou_radical_mask(k0z4) == want
    assert _report("C3-k0-shape", ok)


def test_criterion_3_t2_containment(zn):
    T = upper_triangular_ring(2, zn[4])
    dims = [4] * 3
    dbase = zhou_radical_mask(zn[4])
    shape = 0
    for p in range(T.order):
        a, b, d = decode_digits(p, dims)
        if (dbase >> a) & 1 and (dbase >> d) & 1:
            shape |= 1 << p
    got = zhou_radical_mask(T)
    ok = (got | shape) == shape
    assert _report("C3-t2-containment", ok)


# -- criterion 4: theorem suite ------------------------------------------------

def test_criterion_4_theorem_suite(suite_report):
    """Every T-case whose statement is proved must pass with zero
    counterexamples.  T23 bundles the K_0 radical-shape claim, which is false
    for semisimple bases (K0(Z2): delta is the 4-element off-diagonal part,
    not the 16-element shape), so this criterion fails honestly on T23."""
    tcases = {c.id: c for c in suite_report.cases if c.id.startswith("T")}
    assert len(tcases) == 23
    t19 = tcases["T19"]
    assert t19.observation is not None and t19.observation["verdict"] in ("PASS", "FAIL")
    failing = sorted(cid for cid, c in tcases.items()
                     if c.kind == "proved" and c.verdict == "FAIL")
    ok = not failing
    assert _report("C4-theorem-suite", ok,
                   f"failing proved cases: {failing or 'none'}; "
                   f"T19 converse observed {t19.observation['verdict']}"), \
        (f"proved suite cases fail: "
         f"{[(cid, tcases[cid].counterexample) for cid in failing]}; see decisions ledger")


def test_criterion_4_runtime(tmp_path):
    # cold end-to-end wall clock: fresh process, corpus build plus full suite
    out = tmp_path / "report.json"
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "ringlab.cli", "suite", "--out", str(out), "--jobs", "4"],
        capture_output=True, text=True)
    elapsed = time.time() - t0
    # exit code 1 is the CLI faithfully flagging the known shape-lemma failures
    ok = proc.returncode in (0, 1) and out.exists() and elapsed < 900.0
    assert _report("C4-runtime", ok, f"cold suite run in {elapsed:.1f}s, exit {proc.returncode}")


# -- criterion 5: separation findings -------------------------------------------

def test_criterion_5_separations(default_corpus):
    spec, members = default_corpus
    by_name = {m.name: m for m in members}

    found_a = hunt_counterexample(HuntQuery("delta-reversible", "j-reversible"), members)
    ok = bool(found_a) and found_a[0].ring in ("M2(Z2)", "M2(Z3)")
    ring = by_name[found_a[0].ring].ring
    a, b = found_a[0].witness
    ok &= int(ring.np_mul[a, b]) == ring.zero
    ok &= not (jacobson_radical_mask(ring) >> int(ring.np_mul[b, a])) & 1

    found_b = hunt_counterexample(HuntQuery("true", "delta-reversible"), members)
    ok &= bool(found_b)
    ring_b = by_name[found_b[0].ring].ring
    a, b = found_b[0].witness
    ok &= int(ring_b.np_mul[a, b]) == ring_b.zero
    ok &= not (zhou_radical_mask(ring_b) >> int(ring_b.np_mul[b, a])) & 1
    assert _report("C5-separations", ok,
                   f"delta-not-J: {found_a[0].ring}; not-delta-reversible: {found_b[0].ring}")


# -- criterion 6: enumeration sanity --------------------------------------------

def test_criterion_6_enumeration():
    t0 = time.time()
    counts = {k: list(enumerate_unital_rings(k, up_to_iso=True)) for k in (2, 3, 4)}
    ok = len(counts[2]) == 1 and len(counts[3]) == 1 and len(counts[4]) == 4
    for rings in counts.values():
        for R in rings:
            check_ring_axioms(R)  # full re-validation
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    assert _report("C6-enumeration", ok,
                   f"counts 2:{len(counts[2])} 3:{len(counts[3])} 4:{len(counts[4])}, "
                   f"{elapsed:.1f}s")


# -- criterion 7: determinism and round-trip ------------------------------------

def test_criterion_7_round_trip_and_jobs(tmp_path, default_corpus):
    text1 = dumps_ring(matrix_ring(2, make_zn(3)))
    ring = loads_ring(text1)
    text2 = dumps_ring(ring)
    ok = text1 == text2

    spec, members = default_corpus
    r1 = run_theorem_suite(members, spec)
    clear_shared_cache()    # the second run computes everything afresh, on cold caches
    r2 = run_theorem_suite(members, spec)
    ok &= r1.to_json() == r2.to_json()
    ok &= r1.to_markdown() == r2.to_markdown()
    assert _report("C7-determinism", ok)
