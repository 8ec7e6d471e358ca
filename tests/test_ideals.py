import random

import numpy as np
import pytest

from ringlab import core, ideals
from ringlab.core import (
    QUANTIFIER_CAP, CrossCheckMismatch, DimensionMismatch, FiniteRing, LatticeCap,
    array_from_mask, bool_from_mask, element_set, element_set_from_mask, mask_elems,
    mask_from_bool, mask_of, units_mask)
from ringlab.constructions import (
    construct, direct_product, enumerate_unital_rings, ks_ring, make_zn, matrix_ring,
    quotient_ring, upper_triangular_ring)
from ringlab.ideals import (
    _jacobson_by_lattice, _socle_by_lattice, _zhou_by_essential, _zhou_by_socle_quotient,
    all_right_ideal_masks, all_right_ideals, assert_radical_agreement, delta_sharp,
    delta_sharp_mask, is_delta_small_mask, is_direct_summand, is_essential,
    is_semiprime_ideal, jacobson_radical, jacobson_radical_mask, r2_ideal_mask, r3_mask,
    r4_ideal_mask, r5_mask, radical_characterizations, right_ideal_generated, socle,
    socle_mask, summand_masks, zhou_radical, zhou_radical_mask)
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
    add = R.np_add.tolist()
    return mask_of({add[i][j] for i in mask_elems(a) for j in mask_elems(b)})


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
        assert (r5_mask(R) >> R.zero) & 1


def test_r4_matches_delta_on_z4(zn):
    assert r4_ideal_mask(zn[4]) == zhou_radical_mask(zn[4])


def test_delta_small_examples(zn, t2z2):
    Z4 = zn[4]
    assert is_delta_small_mask(Z4, mask_of([0]))
    assert is_delta_small_mask(Z4, zhou_radical_mask(Z4))
    # N = R in a non-semisimple ring is not delta-small
    assert not is_delta_small_mask(Z4, Z4.full_mask())
    assert not is_delta_small_mask(t2z2, t2z2.full_mask())


def test_delta_is_largest_delta_small(zn, t2z2, k0z2):
    for R in (zn[4], zn[8], t2z2, k0z2):
        d = zhou_radical_mask(R)
        assert r2_ideal_mask(R) == d
        for m in all_right_ideals(R).masks:
            if m | d != d and (m | d) == m:  # strictly contains delta
                assert not is_delta_small_mask(R, m)


def test_delta_sharp_z4(zn):
    assert delta_sharp(zn[4]).elems == (0, 2)


def test_delta_sharp_separates_on_m2z4(m2z4):
    # E12 squares to zero hence lies in delta-sharp, but not in delta
    d = zhou_radical_mask(m2z4)
    ds = delta_sharp_mask(m2z4)
    e12 = 1 * 4 ** 2  # entries (0,1,0,0)
    assert m2z4.np_mul[e12, e12] == m2z4.zero
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
    assert m2z3.order > QUANTIFIER_CAP
    chars = assert_radical_agreement(m2z3)
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


def _outcome(fn, R):
    try:
        return ("value", fn(R))
    except LatticeCap:
        return ("raises", "LatticeCap")


# Calls that build the right-ideal lattice, which the cap bounds.
LATTICE_BACKED = {
    "lattice": all_right_ideal_masks,
    "r3": r3_mask,
    "r5": r5_mask,
    "characterizations": radical_characterizations,
    "local": lambda R: evaluate_predicate(R, "local").verdict,
}
# Calls that never build it: the cap does not reach them.
LATTICE_FREE = {
    "zhou": zhou_radical_mask,
    "jacobson": jacobson_radical_mask,
    "socle": socle_mask,
    "delta_sharp": delta_sharp_mask,
    "delta-reversible": lambda R: evaluate_predicate(R, "delta-reversible").verdict,
}


@pytest.mark.parametrize("name", [*LATTICE_BACKED, *LATTICE_FREE])
@pytest.mark.parametrize("cap", [2, 8])
def test_lattice_cap_same_cold_and_warm(name, cap, monkeypatch):
    # F2 x F2 x F2 has exactly 8 right ideals: on a cold cache a lattice-backed
    # call raises at cap 2 and returns its warm value at cap 8; a lattice-free
    # call returns its warm value at both
    fn = LATTICE_BACKED.get(name) or LATTICE_FREE[name]
    R = construct("Prod(Zn(2),Zn(2),Zn(2))")
    warm = ("value", fn(R))
    R.cache.clear()
    monkeypatch.setattr(ideals, "LATTICE_CAP", cap)
    cold = _outcome(fn, R)
    if name in LATTICE_BACKED and cap < 8:
        assert cold == ("raises", "LatticeCap")
    else:
        assert cold == warm


def brute_force_right_ideals(R):
    """Every subset of R (as an int mask) that holds zero, is closed under +
    and satisfies aR inside it for each of its elements a."""
    n = R.order
    subsets = np.arange(1 << n, dtype=np.int64)
    member = [(subsets >> x) & 1 == 1 for x in range(n)]
    add, mul = R.np_add.tolist(), R.np_mul.tolist()
    ok = member[R.zero].copy()
    for a in range(n):
        row = sum(1 << y for y in set(mul[a]))
        ok &= ~member[a] | (subsets & row == row)
        for b in range(a, n):
            ok &= ~(member[a] & member[b]) | member[add[a][b]]
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
    cyclics = sorted({mask_of(set(row)) for row in R.np_mul.tolist()})
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


def jacobson_by_units_loop(R):
    """J(R) = {x : 1 - xy is a unit for every y}, one element x at a time."""
    n = R.order
    A, M = R.np_add, R.np_mul
    one_row = A[R.one]
    ub = bool_from_mask(units_mask(R), n)
    ok = np.empty(n, dtype=bool)
    for x in range(n):
        ok[x] = bool(ub[one_row[R.neg[M[x]]]].all())
    return mask_from_bool(ok)


def lattice_free_delta(R):
    """delta(R) without the right-ideal lattice.  A finite ring is semilocal,
    so Soc(R_R) = {x : x J(R) = 0} (Anderson-Fuller, section 15), and delta(R)
    is the preimage of J(R / Soc(R_R)) (Zhou 2000); both J's come from the
    per-element unit loop."""
    J = array_from_mask(jacobson_by_units_loop(R), R.order)
    soc = mask_from_bool((R.np_mul[:, J] == R.zero).all(axis=1))
    q = quotient_ring(R, element_set_from_mask(R, soc, "two-sided-ideal"))
    jq = bool_from_mask(jacobson_by_units_loop(q.ring), q.ring.order)
    return mask_from_bool(jq[list(q.proj)])


def test_delta_matches_lattice_free_route(default_corpus):
    # production J, Soc and delta against the lattice routes and the unit loop
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members}
    for order in range(1, 9):
        for R in enumerate_unital_rings(order, up_to_iso=False):
            tables.setdefault(R.digest, R)
    assert len(tables) == 149
    for R in tables.values():
        J = jacobson_radical_mask(R)
        assert J == _jacobson_by_lattice(R) == jacobson_by_units_loop(R), R.name
        assert socle_mask(R) == _socle_by_lattice(R), R.name
        d = zhou_radical_mask(R)
        assert d == _zhou_by_essential(R), R.name
        assert d == _zhou_by_socle_quotient(R) == lattice_free_delta(R), R.name


@pytest.mark.parametrize("which", ["jacobson_radical_mask", "socle_mask", "zhou_radical_mask"])
def test_characterizations_compare_production_radicals(zn, monkeypatch, which):
    R = zn[4]
    assert radical_characterizations(R)["r1"] == mask_of([0, 2])
    monkeypatch.setattr(ideals, which, lambda R: R.full_mask())
    with pytest.raises(CrossCheckMismatch, match="lattice route"):
        radical_characterizations(R)


def test_delta_checked_against_units_mod_socle(zn, monkeypatch):
    # a wrong J(R/Soc) makes the pullback disagree with the in-R unit test
    real = ideals.jacobson_radical_mask
    monkeypatch.setattr(ideals, "jacobson_radical_mask", lambda R: R.full_mask()
                        if R.meta.get("kind") == "quotient" else real(R))
    R = zn[8]
    R.cache.clear()
    with pytest.raises(CrossCheckMismatch, match="units modulo Soc"):
        zhou_radical_mask(R)
    R.cache.clear()


def test_lattice_routes_call_no_production_radical(zn, t2z2, k0z2, monkeypatch):
    # T1 compares the lattice routes with the production radicals, so the
    # routes must not compute through them
    rings = [zn[4], zn[6], t2z2, k0z2]
    want = [radical_characterizations(R) for R in rings]
    soc = [socle_mask(R) for R in rings]

    def refuse(R):
        raise AssertionError("production radical called")
    for name in ("jacobson_radical_mask", "socle_mask", "zhou_radical_mask", "units_mask"):
        monkeypatch.setattr(ideals, name, refuse)
    for R, chars, s in zip(rings, want, soc):
        R.cache.clear()
        got = {"r1": _zhou_by_essential(R),
               "pullback": _zhou_by_socle_quotient(R),
               "r3": r3_mask(R), "r5": r5_mask(R), "r2": r2_ideal_mask(R),
               "r4": r4_ideal_mask(R)}
        assert got == chars and _socle_by_lattice(R) == s, R.name
        R.cache.clear()


def test_jacobson_left_form_checked_on_every_call(t2z2, monkeypatch):
    # with a stand-in unit set, the right form {x : 1 - xy in U for all y}
    # and the left form {y : 1 - xy in U for all x} can differ; J raises then
    rng = random.Random(29)
    R = t2z2
    outcomes = set()
    for _ in range(200):
        U = mask_of(x for x in R.elements() if rng.random() < 0.8)
        quasi = bool_from_mask(U, R.order)[R.np_add[R.one][R.neg]][R.np_mul]
        right, left = quasi.all(axis=1), quasi.all(axis=0)
        monkeypatch.setattr(ideals, "units_mask", lambda _, U=U: U)
        R.cache.clear()
        if np.array_equal(right, left):
            assert jacobson_radical_mask(R) == mask_from_bool(right)
            outcomes.add("value")
        else:
            with pytest.raises(CrossCheckMismatch, match="left unit form"):
                jacobson_radical_mask(R)
            outcomes.add("raises")
    R.cache.clear()
    assert outcomes == {"value", "raises"}


def test_delta_check_does_not_read_the_quotient_units(default_corpus, monkeypatch):
    # a fault in the units of R/Soc reaches the pullback of J(R/Soc) but not
    # the check read in R, so delta either raises or stays right
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members}
    want = {d: zhou_radical_mask(R) for d, R in tables.items()}

    def faulty_units(R):
        m = units_mask(R)
        if R.meta.get("kind") == "quotient":
            m &= ~(1 << (m.bit_length() - 1))      # drop the largest unit
        return m

    monkeypatch.setattr(ideals, "units_mask", faulty_units)
    raised = 0
    for d, R in tables.items():
        monkeypatch.setattr(core, "_SHARED_CACHE", {})
        fresh = FiniteRing(R.name, R.zero, R.one, R.np_add, R.np_mul, R.labels, R.meta)
        try:
            got = zhou_radical_mask(fresh)
        except CrossCheckMismatch:
            raised += 1
            continue
        assert got == want[d], R.name
    assert raised > 0


def literal_r4(R):
    """r4 as the definition reads: for each proper two-sided ideal P, build
    Q = R/P and its lattice, and keep P when some maximal right ideal Mq of Q
    has Q/Mq faithful over Q and its preimage Mr has R/Mr singular."""
    from ringlab.constructions import is_two_sided_mask
    from ringlab.ideals import _bound_mask, _singular_quotient
    out = R.full_mask()
    for P in all_right_ideal_masks(R):
        if P == R.full_mask() or not is_two_sided_mask(R, P):
            continue
        q = quotient_ring(R, element_set_from_mask(R, P, "two-sided-ideal"))
        Q = q.ring
        for Mq in all_right_ideals(Q).maximal:
            if _bound_mask(Q, Mq) != 1 << Q.zero:
                continue                  # Q/Mq is not faithful over Q
            if _singular_quotient(R, mask_from_bool(bool_from_mask(Mq, Q.order)[list(q.proj)])):
                out &= P
                break
    return out


def test_r4_matches_literal_definition(default_corpus):
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members if m.ring.order <= 32}
    for order in range(1, 9):
        for R in enumerate_unital_rings(order, up_to_iso=False):
            tables.setdefault(R.digest, R)
    assert len(tables) == 135
    for R in tables.values():
        assert r4_ideal_mask(R) == literal_r4(R), R.name
