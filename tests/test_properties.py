"""Structural invariants checked over a pool of small rings with hypothesis."""

import numpy as np
from hypothesis import given, settings, strategies as st

from ringlab.core import (
    commutant_mask, double_commutant_mask, dumps_ring, loads_ring, mask_elems, units_mask)
from ringlab.constructions import (
    direct_product, enumerate_unital_rings, hst_ring, ks_ring, make_zn,
    matrix_ring, quotient_ring, upper_triangular_ring)
from ringlab.ideals import (
    additive_span_mask, all_right_ideal_masks, cyclic_masks, delta_sharp_mask,
    is_delta_small_mask, jacobson_radical_mask, socle, zhou_radical_mask, r5_mask)
from ringlab.predicates import evaluate_predicate


def _pool():
    rings = [make_zn(k) for k in range(1, 10)]
    for order in (4, 6):
        rings.extend(enumerate_unital_rings(order, up_to_iso=True))
    rings.append(upper_triangular_ring(2, make_zn(2)))
    rings.append(matrix_ring(2, make_zn(2)))
    rings.append(ks_ring(make_zn(2), 0))
    rings.append(hst_ring(make_zn(3), 1, 2))
    rings.append(direct_product([make_zn(2), make_zn(3)]))
    return rings


POOL = _pool()
ring_st = st.sampled_from(POOL)


@settings(max_examples=60, deadline=None)
@given(ring_st, st.data())
def test_distributivity_post_hoc(R, data):
    add, mul = R.np_add.tolist(), R.np_mul.tolist()
    a = data.draw(st.integers(0, R.order - 1))
    b = data.draw(st.integers(0, R.order - 1))
    c = data.draw(st.integers(0, R.order - 1))
    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    assert mul[add[b][c]][a] == add[mul[b][a]][mul[c][a]]


@settings(max_examples=30, deadline=None)
@given(ring_st)
def test_units_form_group(R):
    mul = R.np_mul.tolist()
    um = units_mask(R)
    for u in mask_elems(um):
        # u has a two-sided inverse among the units
        assert any(mul[u][v] == mul[v][u] == R.one for v in mask_elems(um))
        for v in mask_elems(um):
            assert (um >> mul[u][v]) & 1


@settings(max_examples=40, deadline=None)
@given(ring_st, st.data())
def test_double_commutant_contains_powers(R, data):
    mul = R.np_mul.tolist()
    a = data.draw(st.integers(0, R.order - 1))
    dc = double_commutant_mask(R, a)
    c = commutant_mask(R, a)
    assert dc & ~c == 0
    p = R.one
    for _ in range(R.order):
        assert (dc >> p) & 1
        p = mul[p][a]


@settings(max_examples=30, deadline=None)
@given(ring_st)
def test_radical_chain_and_semisimple_equivalence(R):
    j = jacobson_radical_mask(R)
    d = zhou_radical_mask(R)
    ds = delta_sharp_mask(R)
    assert j & ~d == 0 and d & ~ds == 0
    assert (d == R.full_mask()) == (j == (1 << R.zero))


@settings(max_examples=30, deadline=None)
@given(ring_st)
def test_socle_and_zhou_are_two_sided(R):
    mul = R.np_mul.tolist()
    for m in (socle(R), zhou_radical_mask(R)):
        for a in mask_elems(m):
            for r in R.elements():
                assert (m >> mul[a][r]) & 1
                assert (m >> mul[r][a]) & 1


@settings(max_examples=30, deadline=None)
@given(ring_st)
def test_reversibility_chain(R):
    rev = evaluate_predicate(R, "reversible").verdict
    jrev = evaluate_predicate(R, "j-reversible").verdict
    drev = evaluate_predicate(R, "delta-reversible").verdict
    assert (not rev or jrev) and (not jrev or drev)


@settings(max_examples=30, deadline=None)
@given(ring_st)
def test_delta_is_delta_small_and_r5_zero(R):
    assert is_delta_small_mask(R, zhou_radical_mask(R))
    assert (r5_mask(R) >> R.zero) & 1


@settings(max_examples=30, deadline=None)
@given(ring_st)
def test_serialization_round_trip(R):
    text = dumps_ring(R)
    S = loads_ring(text)
    assert dumps_ring(S) == text
    assert np.array_equal(S.np_add, R.np_add) and np.array_equal(S.np_mul, R.np_mul)


@settings(max_examples=30, deadline=None)
@given(ring_st, st.data())
def test_right_ideal_generated_is_least(R, data):
    add, mul = R.np_add.tolist(), R.np_mul.tolist()
    k = data.draw(st.integers(0, R.order - 1))
    # the right ideal generated by k: the additive span of kR
    m = additive_span_mask(R, cyclic_masks(R)[k])
    assert (m >> k) & 1
    # right-ideal closure
    for x in mask_elems(m):
        for r in R.elements():
            assert (m >> mul[x][r]) & 1
        for y in mask_elems(m):
            assert (m >> add[x][y]) & 1
    # least: contained in every lattice ideal containing k
    for other in all_right_ideal_masks(R):
        if (other >> k) & 1:
            assert m & ~other == 0


@settings(max_examples=20, deadline=None)
@given(ring_st)
def test_quotient_projection_is_ring_hom(R):
    q = quotient_ring(R, zhou_radical_mask(R))
    proj, Q = q.proj, q.ring
    add, mul = R.np_add.tolist(), R.np_mul.tolist()
    q_add, q_mul = Q.np_add.tolist(), Q.np_mul.tolist()
    for a in R.elements():
        for b in R.elements():
            assert proj[add[a][b]] == q_add[proj[a]][proj[b]]
            assert proj[mul[a][b]] == q_mul[proj[a]][proj[b]]
    assert proj[R.one] == Q.one and proj[R.zero] == Q.zero


@settings(max_examples=25, deadline=None)
@given(ring_st, st.data())
def test_false_witnesses_reverify(R, data):
    mul = R.np_mul.tolist()
    name = data.draw(st.sampled_from(
        ["reversible", "j-reversible", "delta-reversible", "abelian"]))
    res = evaluate_predicate(R, name)
    if res.verdict:
        return
    if name == "abelian":
        e, x = res.witness
        assert mul[e][e] == e and mul[e][x] != mul[x][e]
        return
    a, b = res.witness
    assert mul[a][b] == R.zero
    rad = {"reversible": 1 << R.zero,
           "j-reversible": jacobson_radical_mask(R),
           "delta-reversible": zhou_radical_mask(R)}[name]
    assert not (rad >> mul[b][a]) & 1
