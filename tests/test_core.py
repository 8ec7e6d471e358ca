import json

import pytest

from ringlab import core
from ringlab.core import (
    AxiomViolation, DimensionMismatch, SizeCap, clear_shared_cache, commutant,
    double_commutant, dumps_ring, element_set, idempotents, left_annihilator, loads_ring,
    mask_elems, mask_of, nilpotents, right_annihilator, units, unit_inverse,
    validate_ring)


def zn_tables(k):
    add = [[(i + j) % k for j in range(k)] for i in range(k)]
    mul = [[(i * j) % k for j in range(k)] for i in range(k)]
    return add, mul


def test_validate_z4():
    add, mul = zn_tables(4)
    R = validate_ring("Z4", 0, 1, add, mul)
    assert R.order == 4 and R.zero == 0 and R.one == 1


def test_validate_order_one_zero_ring():
    R = validate_ring("0", 0, 0, [[0]], [[0]])
    assert R.order == 1 and R.zero == R.one


def test_tampered_mul_raises_with_witness():
    add, mul = zn_tables(4)
    mul = [list(r) for r in mul]
    mul[2][2] = 1
    with pytest.raises(AxiomViolation) as exc:
        validate_ring("bad", 0, 1, add, mul)
    assert exc.value.axiom in ("multiplicative associativity",
                               "left distributivity", "right distributivity")
    assert len(exc.value.witness) == 3


def test_tampered_add_identity():
    add, mul = zn_tables(3)
    add = [list(r) for r in add]
    add[0][1] = 2
    with pytest.raises(AxiomViolation):
        validate_ring("bad", 0, 1, add, mul)


def test_zero_equals_one_rejected_for_nontrivial():
    add, mul = zn_tables(4)
    with pytest.raises(AxiomViolation):
        validate_ring("bad", 0, 0, add, mul)


def test_ragged_table_rejected():
    with pytest.raises(DimensionMismatch):
        validate_ring("bad", 0, 1, [[0, 1], [1]], [[0, 0], [0, 1]])


def test_out_of_range_entry_rejected():
    with pytest.raises(DimensionMismatch):
        validate_ring("bad", 0, 1, [[0, 1], [1, 5]], [[0, 0], [0, 1]])


def test_size_cap():
    add, mul = zn_tables(6)
    with pytest.raises(SizeCap):
        validate_ring("Z6", 0, 1, add, mul, size_cap=4)


def test_units_z4(zn):
    assert units(zn[4]).elems == (1, 3)


def test_units_z2_field(zn):
    assert units(zn[2]).elems == (1,)


def test_units_m2z2_count(m2z2):
    # |GL2(F2)| = (4 - 1)(4 - 2)
    assert len(units(m2z2)) == 6


def test_unit_inverse(zn):
    assert unit_inverse(zn[4], 3) == 3
    with pytest.raises(Exception):
        unit_inverse(zn[4], 2)


def test_idempotents_z6(zn):
    assert idempotents(zn[6]).elems == (0, 1, 3, 4)


def test_idempotents_z4(zn):
    assert idempotents(zn[4]).elems == (0, 1)


def test_idempotents_field(zn):
    assert idempotents(zn[7]).elems == (0, 1)


def test_left_annihilator_examples(zn):
    Z4 = zn[4]
    assert left_annihilator(Z4, 2).elems == (0, 2)
    assert left_annihilator(Z4, Z4.one).elems == (0,)
    assert left_annihilator(Z4, 0).elems == (0, 1, 2, 3)


def test_right_annihilator_matches_left_for_commutative(zn):
    Z6 = zn[6]
    for a in Z6.elements():
        assert left_annihilator(Z6, a).elems == right_annihilator(Z6, a).elems


def test_commutant_commutative_ring_is_everything(zn):
    Z6 = zn[6]
    for a in Z6.elements():
        assert len(commutant(Z6, a)) == 6


def test_double_commutant_e11_m2z2(m2z2):
    # E11 = entries (1,0,0,0) row-major; comm^2 is the diagonal matrices
    e11 = 8
    dc = double_commutant(m2z2, e11)
    assert dc.elems == (0, 1, 8, 9)


def test_double_commutant_contains_element_and_inside_commutant(m2z2, zn):
    for R in (m2z2, zn[6], zn[4]):
        for a in R.elements():
            c = commutant(R, a).mask
            dc = double_commutant(R, a).mask
            assert dc & ~c == 0
            assert (dc >> a) & 1
            assert (dc >> R.zero) & 1 and (dc >> R.one) & 1


def test_nilpotents(zn):
    assert nilpotents(zn[4]).elems == (0, 2)
    assert nilpotents(zn[6]).elems == (0,)


def test_element_set_validation(zn):
    Z4 = zn[4]
    es = element_set(Z4, [0, 2], kind="two-sided-ideal")
    assert es.mask == mask_of([0, 2])
    with pytest.raises(AxiomViolation):
        element_set(Z4, [0, 1], kind="right-ideal")  # 1 generates everything
    with pytest.raises(AxiomViolation):
        element_set(Z4, [2], kind="right-ideal")  # missing zero


def test_mask_helpers():
    assert mask_elems(mask_of([5, 1, 3])) == (1, 3, 5)


def test_json_round_trip_is_byte_identical(zn):
    Z4 = zn[4]
    text = dumps_ring(Z4)
    again = dumps_ring(loads_ring(text))
    assert text == again
    d = json.loads(text)
    assert list(d) == ["name", "order", "zero", "one", "add", "mul", "labels"]
    assert d["add"][1][3] == 0  # row-major: 1 + 3


def test_json_missing_key_rejected():
    with pytest.raises(DimensionMismatch):
        loads_ring(json.dumps({"name": "x", "order": 1}))


def test_neg_and_sub(zn):
    Z5 = zn[5]
    assert Z5.neg[2] == 3
    assert Z5.sub(1, 3) == 3


def test_distributivity_reassertable_post_hoc(zn, t2z2):
    for R in (zn[6], t2z2):
        for a in R.elements():
            for b in R.elements():
                for c in R.elements():
                    assert R.mul[a][R.add[b][c]] == R.add[R.mul[a][b]][R.mul[a][c]]
                    assert R.mul[R.add[b][c]][a] == R.add[R.mul[b][a]][R.mul[c][a]]


def test_units_form_group(m2z2):
    um = units(m2z2).mask
    for u in mask_elems(um):
        assert (um >> unit_inverse(m2z2, u)) & 1
        for v in mask_elems(um):
            assert (um >> m2z2.mul[u][v]) & 1


def test_clear_shared_cache_empties_dicts_in_place(monkeypatch):
    monkeypatch.setattr(core, "_SHARED_CACHE", {})
    A = validate_ring("A", 0, 1, *zn_tables(6))
    units(A)
    assert A.cache
    clear_shared_cache()
    assert A.cache == {}
    # a later ring with the same tables shares the emptied dict
    assert validate_ring("B", 0, 1, *zn_tables(6)).cache is A.cache
