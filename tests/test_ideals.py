import numpy as np
import pytest

from ringlab.core import (
    LATTICE_CAP, DimensionMismatch, LatticeCap, array_from_mask, bool_from_mask, element_set,
    element_set_from_mask, mask_elems, mask_from_bool, mask_of)
from ringlab.constructions import (
    construct, direct_product, enumerate_unital_rings, ks_ring, make_zn, matrix_ring,
    quotient_ring, upper_triangular_ring)
from ringlab.ideals import (
    _jacobson_by_units, all_right_ideal_masks, all_right_ideals, assert_radical_agreement,
    delta_sharp, delta_sharp_mask, is_delta_small, is_direct_summand, is_essential,
    is_semiprime_ideal, jacobson_radical, jacobson_radical_mask, r2_ideal_mask, r3_mask,
    r4_ideal_mask, r5_membership, right_ideal_generated, socle, socle_mask, summand_masks,
    zhou_radical, zhou_radical_mask)
from ringlab.predicates import evaluate_predicate


def test_right_ideal_generated(zn):
    Z4 = zn[4]
    assert right_ideal_generated(Z4, [1]).elems == (0, 1, 2, 3)
    assert right_ideal_generated(Z4, [2]).elems == (0, 2)
    assert right_ideal_generated(Z4, []).elems == (0,)
    for gens in ([-1], [4], [True]):
        with pytest.raises(DimensionMismatch):
            right_ideal_generated(Z4, gens)


def test_all_right_ideals_z4(zn):
    lat = all_right_ideals(zn[4])
    assert [mask_elems(m) for m in lat.masks] == [(0,), (0, 1, 2, 3), (0, 2)]
    assert lat.maximal == (mask_of([0, 2]),)
    assert lat.minimal == (mask_of([0, 2]),)


def test_all_right_ideals_field(zn):
    lat = all_right_ideals(zn[5])
    assert len(lat.masks) == 2


def test_all_right_ideals_z2xz2(zn):
    P = direct_product([zn[2], zn[2]])
    assert len(all_right_ideals(P).masks) == 4


def set_sum(R, a, b):
    """The set {i + j} for subsets given as masks (I + J for subgroups)."""
    return mask_of({R.add[i][j] for i in mask_elems(a) for j in mask_elems(b)})


def test_ideal_lattice_closed_under_sums(t2z2):
    lat = all_right_ideals(t2z2)
    masks = set(lat.masks)
    for a in masks:
        for b in masks:
            assert set_sum(t2z2, a, b) in masks


def test_is_essential(zn):
    Z4 = zn[4]
    assert is_essential(Z4, element_set(Z4, range(4), check=False))
    assert not is_essential(Z4, element_set(Z4, [0], check=False))
    assert is_essential(Z4, element_set(Z4, [0, 2], check=False))


def test_socle_examples(zn, t2z2, m2z3):
    assert socle(zn[4]).elems == (0, 2)
    assert socle(m2z3).is_full()          # semisimple
    # frozen from the minimal-ideal scan: strictly lower triangular part a = 0
    assert socle(t2z2).elems == (0, 1, 2, 3)
    assert socle(t2z2).kind == "two-sided-ideal"


def test_jacobson_examples(zn, m2z3):
    assert jacobson_radical(zn[4]).elems == (0, 2)
    assert jacobson_radical(m2z3).elems == (m2z3.zero,)
    assert jacobson_radical(zn[7]).elems == (0,)


def test_zhou_examples(zn, m2z3):
    assert zhou_radical(zn[4]).elems == (0, 2)
    assert zhou_radical(m2z3).is_full()   # all 81 elements
    assert len(zhou_radical(m2z3)) == 81
    assert zhou_radical(zn[6]).is_full()  # no essential maximal right ideals


def test_zhou_t2z2(t2z2):
    assert zhou_radical(t2z2).elems == (0, 1, 2, 3)


def test_r3_matches_delta_on_z4(zn):
    assert r3_mask(zn[4]) == zhou_radical_mask(zn[4])


def test_r5_zero_always_member(zn, t2z2, k0z2):
    for R in (zn[4], zn[6], t2z2, k0z2):
        assert r5_membership(R, R.zero)


def test_r4_matches_delta_on_z4(zn):
    assert r4_ideal_mask(zn[4]) == zhou_radical_mask(zn[4])


def test_delta_small_examples(zn, t2z2):
    Z4 = zn[4]
    assert is_delta_small(Z4, element_set(Z4, [0], check=False))
    assert is_delta_small(Z4, zhou_radical(Z4))
    # N = R in a non-semisimple ring is not delta-small
    assert not is_delta_small(Z4, element_set(Z4, range(4), check=False))
    assert not is_delta_small(t2z2, element_set(t2z2, range(8), check=False))


def test_delta_is_largest_delta_small(zn, t2z2, k0z2):
    for R in (zn[4], zn[8], t2z2, k0z2):
        d = zhou_radical_mask(R)
        assert r2_ideal_mask(R) == d
        for m in all_right_ideals(R).masks:
            if m | d != d and (m | d) == m:  # strictly contains delta
                assert not is_delta_small(R, element_set(R, mask_elems(m), check=False))


def test_delta_sharp_z4(zn):
    assert delta_sharp(zn[4]).elems == (0, 2)


def test_delta_sharp_separates_on_m2z4(m2z4):
    # E12 squares to zero hence lies in delta-sharp, but not in delta
    d = zhou_radical_mask(m2z4)
    ds = delta_sharp_mask(m2z4)
    e12 = 1 * 4 ** 2  # entries (0,1,0,0)
    assert m2z4.mul[e12][e12] == m2z4.zero
    assert not (d >> e12) & 1
    assert (ds >> e12) & 1
    assert ds & ~d


def test_delta_sharp_equals_delta_on_k0z2(k0z2):
    # the off-diagonal square-zero elements already lie in delta here
    assert delta_sharp_mask(k0z2) == zhou_radical_mask(k0z2)


def test_semiprime_delta(zn, t2z2, m2z3, k0z4):
    for R in (zn[4], zn[6], t2z2, m2z3, k0z4):
        assert is_semiprime_ideal(R, zhou_radical(R))


def test_semiprime_negative(zn):
    # {0} is not semiprime in Z4: 2 Z4 2 = {0} but 2 != 0
    assert not is_semiprime_ideal(zn[4], element_set(zn[4], [0], check=False))


def test_is_direct_summand(zn, t2z2):
    Z4 = zn[4]
    assert is_direct_summand(Z4, element_set(Z4, [0], check=False))
    assert is_direct_summand(Z4, element_set(Z4, range(4), check=False))
    assert not is_direct_summand(Z4, element_set(Z4, [0, 2], check=False))


def test_j_subset_delta_subset_delta_sharp(zn, t2z2, m2z3, m2z4, k0z2):
    from ringlab.ideals import jacobson_radical_mask
    for R in (zn[4], zn[6], zn[8], t2z2, m2z3, m2z4, k0z2):
        j = jacobson_radical_mask(R)
        d = zhou_radical_mask(R)
        ds = delta_sharp_mask(R)
        assert j & ~d == 0 and d & ~ds == 0


def test_delta_full_iff_j_zero(zn, m2z3, t2z2):
    from ringlab.ideals import jacobson_radical_mask
    for R in (zn[4], zn[6], m2z3, t2z2):
        assert (zhou_radical_mask(R) == R.full_mask()) == \
            (jacobson_radical_mask(R) == (1 << R.zero))


def test_full_agreement_on_small_rings(zn, t2z2, m2z2, k0z2):
    rings = [zn[k] for k in (1, 2, 4, 6, 8, 9)] + [t2z2, m2z2, k0z2]
    rings += list(enumerate_unital_rings(8, up_to_iso=True))
    for R in rings:
        chars = assert_radical_agreement(R)
        assert chars["r2"] is not None and chars["r4"] is not None


def test_agreement_gates_quantified_routes(m2z3):
    chars = assert_radical_agreement(m2z3, quantifier_cap=32)
    assert chars["r2"] is None and chars["r4"] is None
    assert chars["r1"] == chars["pullback"] == chars["r3"] == chars["r5"]


def test_maximal_right_ideals_satisfy_definition(zn, t2z2):
    # M maximal iff for all a outside M, M + aR = R
    from ringlab.ideals import cyclic_masks
    for R in (zn[6], zn[8], t2z2):
        lat = all_right_ideals(R)
        full = R.full_mask()
        cyc = cyclic_masks(R)
        for m in lat.masks:
            if m == full:
                continue
            is_max = all(set_sum(R, m, cyc[a]) == full
                         for a in R.elements() if not (m >> a) & 1)
            assert is_max == (m in lat.maximal)


def _outcome(fn, R, cap):
    try:
        return ("value", fn(R, cap))
    except LatticeCap:
        return ("raises", "LatticeCap")


@pytest.mark.parametrize("fn", [
    all_right_ideal_masks, zhou_radical_mask, jacobson_radical_mask, socle_mask,
    delta_sharp_mask,
    lambda R, cap: evaluate_predicate(R, "delta-reversible", cap).verdict,
], ids=["lattice", "zhou", "jacobson", "socle", "delta_sharp", "delta-reversible"])
@pytest.mark.parametrize("cap", [2, 8])
def test_lattice_cap_same_cold_and_warm(fn, cap):
    # F2 x F2 x F2 has exactly 8 right ideals: cap 2 must raise, cap 8 must not
    R = construct("Prod(Zn(2),Zn(2),Zn(2))")
    R.cache.clear()
    cold = _outcome(fn, R, cap)
    fn(R, LATTICE_CAP)
    assert _outcome(fn, R, cap) == cold
    assert cold[0] == ("raises" if cap < 8 else "value")


def brute_force_right_ideals(R):
    """Every subset of R (as an int mask) that holds zero, is closed under +
    and satisfies aR inside it for each of its elements a."""
    n = R.order
    subsets = np.arange(1 << n, dtype=np.int64)
    member = [(subsets >> x) & 1 == 1 for x in range(n)]
    ok = member[R.zero].copy()
    for a in range(n):
        row = sum(1 << y for y in set(R.mul[a]))
        ok &= ~member[a] | (subsets & row == row)
        for b in range(a, n):
            ok &= ~(member[a] & member[b]) | member[R.add[a][b]]
    return {int(m) for m in subsets[ok]}


def test_lattice_matches_brute_force_on_small_corpus_tables(default_corpus):
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members if m.ring.order <= 16}
    assert len(tables) == 56
    for R in tables.values():
        assert set(all_right_ideal_masks(R)) == brute_force_right_ideals(R), R.name
        # a maximal right ideal is either essential or a direct summand
        lat = all_right_ideals(R)
        assert set(lat.essential_maximal) == set(lat.maximal) - summand_masks(R), R.name


def pairwise_lattice(R):
    """Right ideals by a search over (ideal, cyclic ideal) pairs from {0},
    each sum I + C formed as the |I| x |C| set {i + c}; a sum of subgroups
    depends only on their union, which keys the cache of sums."""
    n = R.order
    zero_bit = 1 << R.zero
    cyclics = sorted({mask_of(set(row)) for row in R.mul})
    ideals, frontier, sums = {zero_bit}, [zero_bit], {}
    while frontier:
        I = frontier.pop()
        for C in cyclics:
            U = I | C
            if U == I:
                continue
            if U not in sums:
                vals = R.np_add[np.ix_(array_from_mask(I, n), array_from_mask(C, n))]
                sums[U] = mask_from_bool(np.bincount(vals.ravel(), minlength=n) > 0)
            if sums[U] not in ideals:
                ideals.add(sums[U])
                frontier.append(sums[U])
    return ideals


def test_lattice_matches_pairwise_search_on_every_corpus_table(default_corpus):
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members}
    assert len(tables) == 78
    for R in tables.values():
        assert set(all_right_ideal_masks(R)) == pairwise_lattice(R), R.name


def lattice_free_delta(R):
    """delta(R) without the right-ideal lattice.  A finite ring is semilocal,
    so Soc(R_R) = {x : x J(R) = 0} (Anderson-Fuller, section 15), and delta(R)
    is the preimage of J(R / Soc(R_R)) (Zhou 2000); both J's come from the
    unit characterization."""
    J = array_from_mask(_jacobson_by_units(R), R.order)
    soc = mask_from_bool((R.np_mul[:, J] == R.zero).all(axis=1))
    q = quotient_ring(R, element_set_from_mask(R, soc, "two-sided-ideal"))
    jq = bool_from_mask(_jacobson_by_units(q.ring), q.ring.order)
    return mask_from_bool(jq[list(q.proj)])


def test_delta_matches_lattice_free_route(default_corpus):
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members}
    for order in range(1, 9):
        for R in enumerate_unital_rings(order, up_to_iso=False):
            tables.setdefault(R.digest, R)
    assert len(tables) == 149
    for R in tables.values():
        assert zhou_radical_mask(R) == lattice_free_delta(R), R.name
