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
    clear_shared_cache, commutant_mask, double_commutant_mask, dumps_ring, ideal_failure,
    idempotents_mask, loads_ring, mask_elems, mask_of, nilpotents_mask, units_mask,
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


def test_size_cap(monkeypatch):
    add, mul = zn_tables(6)
    assert validate_ring("Z6", 0, 1, add, mul).order == 6
    monkeypatch.setattr(core, "SIZE_CAP", 4)
    with pytest.raises(SizeCap, match=r"^Z6: order 6 exceeds size cap 4$"):
        validate_ring("Z6", 0, 1, add, mul)


def test_size_cap_is_checked_before_the_tables_are_scanned(monkeypatch):
    text = dumps_ring(make_zn(300))

    def scan(*args):
        raise AssertionError("_check_table scanned a table over the size cap")

    monkeypatch.setattr(core, "_check_table", scan)
    monkeypatch.setattr(core, "SIZE_CAP", 100)
    with pytest.raises(SizeCap):
        loads_ring(text)
    # an oversized malformed table is refused by the cap as well
    monkeypatch.setattr(core, "SIZE_CAP", 4)
    with pytest.raises(SizeCap):
        validate_ring("bad", 0, 1, [[0, 1, 2]] * 6, [[0]] * 6)


def test_units_z4(zn):
    assert mask_elems(units_mask(zn[4])) == (1, 3)


def test_units_z2_field(zn):
    assert mask_elems(units_mask(zn[2])) == (1,)


def test_units_m2z2_count(m2z2):
    # |GL2(F2)| = (4 - 1)(4 - 2)
    assert units_mask(m2z2).bit_count() == 6


def test_unit_inverse(zn):
    # 3 is its own inverse in Z4; 2 is no unit
    Z4 = zn[4]
    assert (units_mask(Z4) >> 3) & 1 and Z4.np_mul[3, 3] == Z4.one
    assert not (units_mask(Z4) >> 2) & 1


def test_idempotents_z6(zn):
    assert mask_elems(idempotents_mask(zn[6])) == (0, 1, 3, 4)


def test_idempotents_z4(zn):
    assert mask_elems(idempotents_mask(zn[4])) == (0, 1)


def test_idempotents_field(zn):
    assert mask_elems(idempotents_mask(zn[7])) == (0, 1)


def test_commutant_commutative_ring_is_everything(zn):
    Z6 = zn[6]
    for a in Z6.elements():
        assert commutant_mask(Z6, a) == Z6.full_mask()


def test_double_commutant_e11_m2z2(m2z2):
    # E11 = entries (1,0,0,0) row-major; comm^2 is the diagonal matrices
    e11 = 8
    assert mask_elems(double_commutant_mask(m2z2, e11)) == (0, 1, 8, 9)


def test_double_commutant_contains_element_and_inside_commutant(m2z2, zn):
    for R in (m2z2, zn[6], zn[4]):
        for a in R.elements():
            c = commutant_mask(R, a)
            dc = double_commutant_mask(R, a)
            assert dc & ~c == 0
            assert (dc >> a) & 1
            assert (dc >> R.zero) & 1 and (dc >> R.one) & 1


@pytest.mark.parametrize("element_fn", [
    core.commutant_mask, core.double_commutant_mask, core.is_central])
def test_element_functions_reject_out_of_range_indices(zn, element_fn):
    # a negative index would silently wrap around in a numpy table
    for bad in (-1, zn[4].order):
        with pytest.raises(DimensionMismatch):
            element_fn(zn[4], bad)


def test_nilpotents(zn):
    assert mask_elems(nilpotents_mask(zn[4])) == (0, 2)
    assert mask_elems(nilpotents_mask(zn[6])) == (0,)


def test_ideal_failure_validation(zn):
    Z4 = zn[4]
    assert ideal_failure(Z4, mask_of([0, 2]), two_sided=True) is None
    # 1 generates everything, -1 = 3 included
    assert ideal_failure(Z4, mask_of([0, 1]), two_sided=False) == ("negation closure", (1,))
    # missing zero
    assert ideal_failure(Z4, mask_of([2]), two_sided=False) == ("contains zero", (0,))


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


# labels that are not a list of n strings: a string and an object would be
# iterated into labels and re-dump as a list, changing the bytes
BAD_LABELS = ["ab", {"x": 1, "y": 2}, [1, 2], [None, "a"], None, ["a"], ["a", "b", "c"]]


@pytest.mark.parametrize("labels", BAD_LABELS)
def test_labels_must_be_n_strings(labels):
    with pytest.raises(DimensionMismatch):
        loads_ring(json.dumps(dict(Z2_JSON, labels=labels)))


# names that are not a string: each would reach the report as a JSON value
BAD_NAMES = [[1, {"a": 2}], 2, None, {"n": "Z2"}, True]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_name_must_be_a_string(name):
    with pytest.raises(DimensionMismatch, match="name must be a string"):
        loads_ring(json.dumps(dict(Z2_JSON, name=name)))


def test_string_labels_round_trip():
    text = dumps_ring(loads_ring(json.dumps(dict(Z2_JSON, labels=["z\"0\\", "\u00e9\u00e9n"]))))
    assert json.loads(text)["labels"] == ["z\"0\\", "\u00e9\u00e9n"]
    assert dumps_ring(loads_ring(text)) == text


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
    assert int(Z5.np_add[1, Z5.neg[3]]) == 3


def test_distributivity_reassertable_post_hoc(zn, t2z2):
    for R in (zn[6], t2z2):
        add, mul = R.np_add.tolist(), R.np_mul.tolist()
        for a in R.elements():
            for b in R.elements():
                for c in R.elements():
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
                    assert mul[add[b][c]][a] == add[mul[b][a]][mul[c][a]]


def test_units_form_group(m2z2):
    um = units_mask(m2z2)
    mul = m2z2.np_mul.tolist()
    for u in mask_elems(um):
        # u has a two-sided inverse among the units
        assert any(mul[u][v] == mul[v][u] == m2z2.one for v in mask_elems(um))
        for v in mask_elems(um):
            assert (um >> int(m2z2.np_mul[u, v])) & 1


def test_clear_shared_cache_empties_dicts_in_place(monkeypatch):
    monkeypatch.setattr(core, "_SHARED_CACHE", {})
    A = validate_ring("A", 0, 1, *zn_tables(6))
    units_mask(A)
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
        add, mul = R.np_add.tolist(), R.np_mul.tolist()
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
        add = R.np_add.tolist()
        span, frontier = {R.zero}, [R.zero]
        while frontier:
            x = frontier.pop()
            for g in S:
                if add[x][g] not in span:
                    span.add(add[x][g])
                    frontier.append(add[x][g])
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
