import pytest

from ringlab import predicates
from ringlab.core import SizeCap
from ringlab.constructions import encode_digits
from ringlab.ideals import zhou_radical_mask
from ringlab.predicates import (
    PREDICATES, corner_containment, evaluate_predicate, idempotents_lift_mod_delta,
    is_abelian, is_delta_clean, is_delta_linear_armendariz, is_delta_quasipolar,
    is_delta_reversible, is_j_reversible, is_local, is_reduced, is_reversible,
    is_semisimple, property_report, quotient_abelian, quotient_reduced)


def test_reversible_commutative(zn):
    assert is_reversible(zn[6]).verdict


def test_reversible_t2z2_witness(t2z2):
    res = is_reversible(t2z2)
    assert not res.verdict
    a, b = res.witness
    # lex-least witness: a = E22, b = E12 (ab = 0 but ba = E12 != 0)
    assert (a, b) == (1, 2)
    assert t2z2.np_mul[a, b] == t2z2.zero
    assert t2z2.np_mul[b, a] != t2z2.zero


def test_reversible_m2z2_false(m2z2):
    assert not is_reversible(m2z2).verdict


def test_m2z3_delta_but_not_j_reversible(m2z3):
    assert is_delta_reversible(m2z3).verdict
    res = is_j_reversible(m2z3)
    assert not res.verdict
    a, b = res.witness
    assert m2z3.np_mul[a, b] == m2z3.zero
    from ringlab.ideals import jacobson_radical_mask
    assert not (jacobson_radical_mask(m2z3) >> int(m2z3.np_mul[b, a])) & 1


def test_paper_witness_pair_reproduces(m2z3):
    # A = [[1,2],[0,0]], B = [[2,0],[2,0]]: AB = 0 and BA = [[2,1],[2,1]]
    A = encode_digits([1, 2, 0, 0], [3] * 4)
    B = encode_digits([2, 0, 2, 0], [3] * 4)
    BA = encode_digits([2, 1, 2, 1], [3] * 4)
    assert m2z3.np_mul[A, B] == m2z3.zero
    assert m2z3.np_mul[B, A] == BA


def test_commutative_rings_reversible_all_flavors(zn):
    for k in (4, 6, 8, 9):
        assert is_reversible(zn[k]).verdict
        assert is_j_reversible(zn[k]).verdict
        assert is_delta_reversible(zn[k]).verdict


def test_m2z4_not_delta_reversible(m2z4):
    res = is_delta_reversible(m2z4)
    assert not res.verdict
    a, b = res.witness
    assert m2z4.np_mul[a, b] == m2z4.zero
    assert not (zhou_radical_mask(m2z4) >> int(m2z4.np_mul[b, a])) & 1


def test_k0z4_delta_reversible(k0z4):
    # every square-zero element has both diagonal entries in 2Z4, hence in delta
    assert is_delta_reversible(k0z4).verdict


def test_t2z2_delta_reversible(t2z2):
    assert is_delta_reversible(t2z2).verdict
    assert is_j_reversible(t2z2).verdict


def test_abelian(m2z2, zn):
    res = is_abelian(m2z2)
    assert not res.verdict
    e, x = res.witness
    assert m2z2.np_mul[e, e] == e
    assert m2z2.np_mul[e, x] != m2z2.np_mul[x, e]
    assert is_abelian(zn[6]).verdict


def test_reduced(zn):
    assert is_reduced(zn[6]).verdict
    res = is_reduced(zn[4])
    assert not res.verdict and res.witness == (2,)


def test_semisimple(zn, m2z3, t2z2):
    assert is_semisimple(m2z3).verdict
    assert is_semisimple(zn[6]).verdict
    assert not is_semisimple(zn[4]).verdict
    assert not is_semisimple(t2z2).verdict


def test_local(zn):
    assert is_local(zn[4]).verdict
    assert not is_local(zn[6]).verdict
    assert is_local(zn[9]).verdict


def test_delta_clean_examples(zn, m2z3):
    assert is_delta_clean(m2z3).verdict  # semisimple: e = 0, d = x
    # Z4: 0=0+0, 1=1+0, 2=0+2, 3=1+2
    assert is_delta_clean(zn[4]).verdict


def test_delta_quasipolar(zn, m2z3, t2z2):
    assert is_delta_quasipolar(m2z3).verdict  # semisimple: p = 0
    assert is_delta_quasipolar(zn[4]).verdict
    assert is_delta_quasipolar(t2z2).verdict
    assert "as-used" in is_delta_quasipolar(zn[4]).method


def test_delta_quasipolar_implies_delta_reversible_on_sample(zn, t2z2, k0z2, k0z4, m2z2):
    for R in (zn[4], zn[6], t2z2, k0z2, k0z4, m2z2):
        if is_delta_quasipolar(R).verdict:
            assert is_delta_reversible(R).verdict


def test_armendariz(zn, m2z3):
    assert is_delta_linear_armendariz(m2z3).verdict  # delta = R
    assert is_delta_linear_armendariz(zn[4]).verdict


def test_armendariz_cap(m2z4, monkeypatch):
    with pytest.raises(SizeCap, match=r"^M2\(Z4\): order 256 exceeds Armendariz cap 128$"):
        is_delta_linear_armendariz(m2z4)
    # the scan reads the cap when it runs: raised to 256 it scans M2(Z4), which
    # is not delta-reversible and indeed fails, with a witness quadruple that
    # re-verifies
    monkeypatch.setattr(predicates, "ARMENDARIZ_CAP", 256)
    res = is_delta_linear_armendariz(m2z4)
    assert not res.verdict
    a0, a1, b0, b1 = res.witness
    z, add, mul = m2z4.zero, m2z4.np_add.tolist(), m2z4.np_mul.tolist()
    assert mul[a0][b0] == z and mul[a1][b1] == z
    assert add[mul[a0][b1]][mul[a1][b0]] == z
    d = zhou_radical_mask(m2z4)
    assert not ((d >> mul[a0][b1]) & 1 and (d >> mul[a1][b0]) & 1)


def test_delta_reversible_implies_armendariz_on_sample(zn, t2z2, k0z2):
    for R in (zn[4], zn[6], zn[8], t2z2, k0z2):
        if is_delta_reversible(R).verdict:
            assert is_delta_linear_armendariz(R).verdict


def test_lifting(zn, m2z3, t2z2):
    assert idempotents_lift_mod_delta(m2z3).verdict  # semisimple
    assert idempotents_lift_mod_delta(zn[4]).verdict
    assert idempotents_lift_mod_delta(t2z2).verdict


def test_corner_containment(k0z4, m2z4, t2z2):
    # K0(Z4) is delta-reversible, so the containment holds at every idempotent
    assert corner_containment(k0z4).verdict
    assert corner_containment(t2z2).verdict
    res = corner_containment(m2z4)
    assert not res.verdict
    e, x = res.witness
    mul = m2z4.np_mul.tolist()
    assert mul[e][e] == e
    ome = int(m2z4.np_add[m2z4.one, m2z4.neg[e]])
    d = zhou_radical_mask(m2z4)
    exl = mul[mul[e][x]][ome]
    exr = mul[mul[ome][x]][e]
    assert not ((d >> exl) & 1 and (d >> exr) & 1)


def test_quotient_predicates(zn, m2z4, t2z2):
    assert quotient_reduced(zn[4]).verdict
    assert quotient_abelian(t2z2).verdict
    assert not quotient_abelian(m2z4).verdict  # M2(Z4)/delta is M2(Z2)-like


def test_false_witness_always_reverifies(zn, t2z2, m2z2, m2z4):
    # generic re-verification of attached witnesses
    for R in (zn[4], t2z2, m2z2, m2z4):
        for name in ("reversible", "j-reversible", "delta-reversible"):
            res = evaluate_predicate(R, name)
            if not res.verdict:
                a, b = res.witness
                assert R.np_mul[a, b] == R.zero
                assert R.np_mul[b, a] != R.zero or name != "reversible"


def test_property_report_json(m2z3):
    rep = property_report(m2z3, ["delta-reversible", "j-reversible"])
    d = rep.to_json_dict()
    assert d["ring"] == "M2(Z3)"
    assert d["results"]["delta-reversible"]["verdict"] is True
    assert d["results"]["j-reversible"]["verdict"] is False
    assert "witness" in d["results"]["j-reversible"]


def test_unknown_predicate():
    from ringlab.core import UnknownPredicate
    from ringlab.predicates import predicate
    with pytest.raises(UnknownPredicate):
        predicate("nope")


def test_registry_names_complete():
    expected = {"reversible", "j-reversible", "delta-reversible", "abelian",
                "reduced", "semisimple", "local", "delta-clean",
                "delta-quasipolar", "delta-linear-armendariz",
                "idempotents-lift-mod-delta", "corner-containment",
                "quotient-abelian", "quotient-reduced", "true"}
    assert expected <= set(PREDICATES)


def test_reversibility_implication_chain(zn, t2z2, m2z2, m2z3, k0z2, k0z4):
    for R in (zn[4], zn[6], t2z2, m2z2, m2z3, k0z2, k0z4):
        rev = is_reversible(R).verdict
        jrev = is_j_reversible(R).verdict
        drev = is_delta_reversible(R).verdict
        assert (not rev or jrev) and (not jrev or drev)
