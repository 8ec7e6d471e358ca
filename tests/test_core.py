import itertools
import json
import random

import numpy as np
import pytest

from ringlab import core
from ringlab.constructions import (
    direct_product, enumerate_unital_rings, ks_ring, make_zn, matrix_ring,
    upper_triangular_ring)
from ringlab.core import (
    AxiomViolation, DimensionMismatch, FiniteRing, RinglabError, SizeCap, check_ring_axioms,
    clear_shared_cache, commutant, double_commutant, dumps_ring, element_set, idempotents,
    left_annihilator, loads_ring, mask_elems, mask_of, nilpotents, right_annihilator, units,
    unit_inverse, validate_ring)


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


Z2_JSON = {"name": "Z2", "order": 2, "zero": 0, "one": 1,
           "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}
# (field, row, column, value): one entry, zero or one that is not a plain int
NON_INTEGER_ENTRIES = [("add", 0, 1, 1.5), ("add", 0, 1, "1"), ("add", 0, 1, True),
                       ("mul", 1, 1, 1.0), ("mul", 1, None, 1), ("zero", None, None, 0.0),
                       ("one", None, None, True)]


def with_entry(field, row, col, value):
    d = json.loads(json.dumps(Z2_JSON))
    if row is None:
        d[field] = value
    elif col is None:
        d[field][row] = value
    else:
        d[field][row][col] = value
    return d


@pytest.mark.parametrize("field,row,col,value", NON_INTEGER_ENTRIES)
def test_non_integer_entries_rejected(field, row, col, value):
    with pytest.raises(DimensionMismatch):
        loads_ring(json.dumps(with_entry(field, row, col, value)))


def test_integer_arrays_accepted_and_float_arrays_rejected():
    import numpy as np
    add, mul = zn_tables(4)
    R = validate_ring("Z4", 0, 1, np.array(add), np.array(mul, dtype=np.uint8))
    assert R == validate_ring("Z4", 0, 1, add, mul)
    with pytest.raises(DimensionMismatch):
        validate_ring("Z4", 0, 1, np.array(add, dtype=float), mul)


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


# ---------------------------------------------------------------------------
# generator-based validation against the exhaustive O(n^3) scan

AXIOMS = {
    "zero != one in a nontrivial ring", "additive identity", "additive commutativity",
    "additive inverse", "additive associativity", "left multiplicative identity",
    "right multiplicative identity", "multiplicative associativity", "left distributivity",
    "right distributivity"}


def exhaustive_check(R):
    """The axioms in report order with every cubic law scanned over all triples."""
    A, M = core._small_tables(R)
    core._check_additive_basics(R, A)
    core._scan_laws(R, core._ADDITIVE_LAWS)
    core._check_identities(R, M)
    core._scan_laws(R, core._MULTIPLICATIVE_LAWS)


def verdict(check, R):
    """None when `check` accepts R, else the (axiom, witness) it reports."""
    try:
        check(R)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return None


def assert_same_verdict(R):
    expected = verdict(exhaustive_check, R)
    assert verdict(check_ring_axioms, R) == expected, R.name
    return expected


def test_generator_check_accepts_every_enumerated_ring():
    rings = [R for order in range(1, 9) for R in enumerate_unital_rings(order, up_to_iso=False)]
    assert len(rings) == 92
    for R in rings:
        assert assert_same_verdict(R) is None


def test_generator_check_accepts_every_default_corpus_table(default_corpus):
    _, members = default_corpus
    # L(Z4) (order 1024) is left out: the scan takes ~30 s there, and the
    # default report's hash lock already depends on accepting it
    tables = {m.ring.digest: m.ring for m in members if m.ring.order <= 256}
    assert len(tables) == 77
    for R in tables.values():
        assert assert_same_verdict(R) is None


@pytest.fixture(scope="module")
def tamperings():
    """Verdicts of both checkers on seeded tamperings of small rings: 1200
    single cells of the add or mul table, then 600 pairs add[i][j] =
    add[j][i], which keep + commutative and so reach Light's test beyond the
    first generator."""
    single, symmetric = 1200, 600
    zn = [make_zn(k) for k in range(2, 10)]
    bases = zn + [matrix_ring(2, zn[0]), upper_triangular_ring(2, zn[0]),
                  upper_triangular_ring(2, zn[1]), ks_ring(zn[0], 0),
                  direct_product([zn[0], zn[2]]), direct_product([zn[0]] * 3)]
    bases += list(enumerate_unital_rings(8, up_to_iso=False))
    rng = random.Random(20240)
    out = []
    for k in range(single + symmetric):
        R = rng.choice(bases)
        add, mul = [list(r) for r in R.add], [list(r) for r in R.mul]
        i, j, v = rng.randrange(R.order), rng.randrange(R.order), rng.randrange(R.order)
        if k < single:
            rng.choice((add, mul))[i][j] = v
        else:
            add[i][j] = add[j][i] = v
        T = FiniteRing(f"tampered {R.name}", R.zero, R.one, add, mul)
        out.append((verdict(check_ring_axioms, T), verdict(exhaustive_check, T)))
    return tuple(out)


def test_tamperings_agree_with_exhaustive_scan(tamperings):
    for fast, slow in tamperings:
        assert fast == slow
    assert sum(fast is None for fast, _ in tamperings) < len(tamperings) // 2


def f2_algebra(products):
    """The unital F2-algebra on basis 1, x, y (element c0 + 2 c1 + 4 c2) whose
    products xx, xy, yx, yy are the given elements: biadditive by
    construction, so only multiplicative associativity can fail."""
    basis = [[1, 2, 4], [2, *products[:2]], [4, *products[2:]]]
    add = [[u ^ v for v in range(8)] for u in range(8)]
    mul = [[0] * 8 for _ in range(8)]
    for u, v in itertools.product(range(8), repeat=2):
        for i, j in itertools.product(range(3), repeat=2):
            if u >> i & 1 and v >> j & 1:
                mul[u][v] ^= basis[i][j]
    return FiniteRing(f"F2-algebra{tuple(products)}", 0, 1, add, mul)


def test_biadditive_products_agree_with_exhaustive_scan():
    rng = random.Random(7)
    verdicts = [assert_same_verdict(f2_algebra([rng.randrange(8) for _ in range(4)]))
                for _ in range(600)]
    assert {v and v[0] for v in verdicts} == {None, "multiplicative associativity"}


def test_additive_generators_generate(default_corpus):
    _, members = default_corpus
    rings = [R for order in range(1, 9) for R in enumerate_unital_rings(order)]
    rings += list({m.ring.digest: m.ring for m in members}.values())
    for R in rings:
        S = core.additive_span(core._small_tables(R)[0], R.zero, np.arange(R.order))[0].tolist()
        assert 1 << len(S) <= R.order
        span, frontier = {R.zero}, [R.zero]
        while frontier:
            x = frontier.pop()
            for g in S:
                if R.add[x][g] not in span:
                    span.add(R.add[x][g])
                    frontier.append(R.add[x][g])
        assert len(span) == R.order, R.name


def near_ring_z3(opposite):
    """Maps f: Z3 -> Z3 with f(0) = 0 (element 3 f(1) + f(2)), pointwise +,
    composition as product (b o a when `opposite`) and the identity map as one:
    a zero-symmetric near-ring that is distributive on one side only."""
    maps = [(0, f1, f2) for f1 in range(3) for f2 in range(3)]
    index = {f: i for i, f in enumerate(maps)}
    add = [[index[tuple((f[x] + g[x]) % 3 for x in range(3))] for g in maps] for f in maps]
    comp = [[index[tuple(f[g[x]] for x in range(3))] for g in maps] for f in maps]
    mul = [list(col) for col in zip(*comp)] if opposite else comp
    return FiniteRing("near-ring", 0, index[(0, 1, 2)], add, mul)


def test_every_axiom_is_reported(tamperings):
    add, mul = zn_tables(4)
    extra = [FiniteRing("zero=one", 0, 0, add, mul), near_ring_z3(False), near_ring_z3(True)]
    seen = {assert_same_verdict(R)[0] for R in extra}
    seen |= {fast[0] for fast, _ in tamperings if fast is not None}
    assert seen == AXIOMS
    assert verdict(check_ring_axioms, near_ring_z3(False)) == ("left distributivity", (1, 1, 1))
    assert verdict(check_ring_axioms, near_ring_z3(True)) == ("right distributivity", (1, 1, 1))


def test_unconfirmed_fast_rejection_never_accepts(monkeypatch):
    add, mul = zn_tables(4)
    add[1][1] = 3  # commutative with identity and inverses, but (1+1)+2 != 1+(1+2)
    monkeypatch.setattr(core, "_scan_laws", lambda R, laws: None)
    for bad in (FiniteRing("loop", 0, 1, add, mul), near_ring_z3(False)):
        with pytest.raises(RinglabError) as exc:
            check_ring_axioms(bad)
        assert not isinstance(exc.value, AxiomViolation)
