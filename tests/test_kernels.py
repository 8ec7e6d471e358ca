"""Differential tests: the vectorized table kernels against the scalar loops
they replaced, kept here as oracles.

Most oracles read the tables element by element, as nested lists (`tables`:
a table entry read as a numpy scalar must not reach a bitmask shift); the
additive-span oracles are the pairwise-sum fixpoints that `core.additive_span`
replaced (greedy generators, `additive_span_mask`, the two-sided closure of
`two_sided_ideal_generated`); the row-major annihilator route of
delta-reversibility, T9 and the blocked delta-linear-Armendariz scan are
checked against the per-element, column-gather and per-zero-pair loops they
replaced, fed random subsets in place of delta(R),
and `dumps_ring` against the indenting JSON encoder.  They run
on every enumerated ring of order <= 8 and on every distinct default-corpus
table of order <= 256; the tables of order > 64 (M2(Z3)'s corner, L(Z3),
K0(Z4), M2(Z4), Morita(Z3,Z3)) have masks past bit 63, where a table entry
left as a numpy scalar in a shift would give a wrong mask or raise.
"""
import functools
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from ringlab import core, predicates
from ringlab.constructions import (
    corner_ring, enumerate_unital_rings, is_two_sided_mask, quotient_ring,
    two_sided_ideal_generated)
from ringlab.core import (
    ARMENDARIZ_CAP, CharacterizationMismatch, array_from_mask, bool_from_mask,
    double_commutant_mask, idempotents_mask, mask_elems, mask_from_bool, mask_of,
    nilpotents_mask, units_mask)
from ringlab.ideals import (
    _bound_mask, additive_span_mask, all_right_ideal_masks, cyclic_masks,
    delta_sharp_mask, is_semiprime_ideal, jacobson_radical_mask, socle_mask,
    zhou_radical_mask)
from ringlab.predicates import (
    idempotents_lift_mod_delta, is_delta_clean, is_delta_linear_armendariz, is_delta_reversible)
from ringlab.suite import Failure, _ideal_products

SMALL = 64   # above this order the per-mask and per-element oracles sample


@pytest.fixture(scope="module")
def rings(default_corpus):
    _, members = default_corpus
    tables = {m.ring.digest: m.ring for m in members if m.ring.order <= 256}
    assert len(tables) == 77
    enumerated = [R for order in range(1, 9)
                  for R in enumerate_unital_rings(order, up_to_iso=False)]
    assert len(enumerated) == 92
    return enumerated + list(tables.values())


# ---------------------------------------------------------------------------
# scalar oracles

@functools.cache
def tables(R):
    """R's addition and multiplication tables as lists of lists of ints."""
    return R.np_add.tolist(), R.np_mul.tolist()


def neg_oracle(R):
    add, _ = tables(R)
    return tuple(row.index(R.zero) for row in add)


def units_oracle(R):
    _, mul = tables(R)
    m = 0
    for u in R.elements():
        row = mul[u]
        for v in R.elements():
            if row[v] == R.one and mul[v][u] == R.one:
                m |= 1 << u
                break
    return m


def idempotents_oracle(R):
    _, mul = tables(R)
    return mask_of(x for x in R.elements() if mul[x][x] == x)


def powers_reach(R, target_mask):
    """{x : some power x^k, 1 <= k <= n, lies in the target mask}."""
    _, mul = tables(R)
    out = 0
    for x in R.elements():
        p = x
        for _ in range(R.order):
            if (target_mask >> p) & 1:
                out |= 1 << x
                break
            p = mul[p][x]
    return out


def cyclic_oracle(R):
    _, mul = tables(R)
    return tuple(mask_of(row) for row in mul)


def double_commutant_oracle(R, a):
    M = R.np_mul
    comm = np.flatnonzero(M[:, a] == M[a, :])
    idx = np.arange(R.order)
    eq = M[np.ix_(idx, comm)] == M[np.ix_(comm, idx)].T
    return mask_of(np.flatnonzero(eq.all(axis=1)).tolist())


def closure_oracle(R, neg, m, two_sided):
    """First broken closure law and witness, in the report order of the
    scalar element-set check."""
    add, mul = tables(R)
    if not (m >> R.zero) & 1:
        return "contains zero", (R.zero,)
    elems = mask_elems(m)
    for a in elems:
        if not (m >> neg[a]) & 1:
            return "negation closure", (a,)
        for b in elems:
            if not (m >> add[a][b]) & 1:
                return "addition closure", (a, b)
        for r in R.elements():
            if not (m >> mul[a][r]) & 1:
                return "right multiplication closure", (a, r)
    if two_sided:
        for a in elems:
            for r in R.elements():
                if not (m >> mul[r][a]) & 1:
                    return "left multiplication closure", (r, a)
    return None


def corner_oracle(R, e):
    add_r, mul_r = tables(R)
    row_e = mul_r[e]
    elems = sorted({mul_r[row_e[x]][e] for x in R.elements()})
    index = {p: i for i, p in enumerate(elems)}
    add = [[index[add_r[a][b]] for b in elems] for a in elems]
    mul = [[index[mul_r[a][b]] for b in elems] for a in elems]
    return tuple(elems), add, mul, index[R.zero], index[e]


def quotient_oracle(R, ideal):
    add_r, mul_r = tables(R)
    proj = [-1] * R.order
    reps = []
    for x in R.elements():
        if proj[x] >= 0:
            continue
        c = len(reps)
        reps.append(x)
        for i in ideal:
            proj[add_r[x][i]] = c
    add = [[proj[add_r[a][b]] for b in reps] for a in reps]
    mul = [[proj[mul_r[a][b]] for b in reps] for a in reps]
    return tuple(proj), add, mul, proj[R.zero], proj[R.one]


def bound_oracle(R, m):
    _, mul = tables(R)
    return mask_of(r for r in mask_elems(m)
                   if all((m >> mul[s][r]) & 1 for s in R.elements()))


def semiprime_oracle(R, m):
    _, mul = tables(R)
    for a in R.elements():
        if (m >> a) & 1:
            continue
        if all((m >> mul[mul[a][r]][a]) & 1 for r in R.elements()):
            return False
    return True


def delta_clean_witness(R, d, neg):
    add, _ = tables(R)
    idem = mask_elems(idempotents_oracle(R))
    return next(((x,) for x in R.elements()
                 if not any((d >> add[x][neg[e]]) & 1 for e in idem)), None)


def lift_witness(R, d, neg):
    add, mul = tables(R)
    idem = mask_elems(idempotents_oracle(R))
    for f in R.elements():
        ff = mul[f][f]
        if (d >> add[ff][neg[f]]) & 1 and not any((d >> add[e][neg[f]]) & 1 for e in idem):
            return (f,)
    return None


def span_fixpoint_oracle(R, m):
    """The additive span of the masked set as a fixpoint of pairwise sums."""
    n = R.order
    cur = m | (1 << R.zero)
    while True:
        arr = array_from_mask(cur, n)
        hit = np.zeros(n, dtype=bool)
        hit[R.np_add[np.ix_(arr, arr)].ravel()] = True
        grown = mask_from_bool(hit)
        if grown == cur:
            return cur
        cur = grown


def greedy_span_oracle(R, candidates):
    """Greedy generators of the span of `candidates` (ascending): each
    candidate outside the span so far joins, and the span is closed again."""
    gens, span = [], 1 << R.zero
    for x in candidates:
        if not (span >> x) & 1:
            gens.append(x)
            span = span_fixpoint_oracle(R, span | 1 << x)
    return gens, span


def two_sided_closure_oracle(R, gens):
    """Smallest two-sided ideal containing gens, as a fixpoint of sums,
    negatives and products by every element on either side."""
    A, M = R.np_add, R.np_mul
    cur = set(gens) | {R.zero}
    while True:
        arr = np.fromiter(sorted(cur), dtype=np.int64)
        grown = set(np.unique(A[np.ix_(arr, arr)]).tolist())
        grown |= set(np.unique(M[arr, :]).tolist())
        grown |= set(np.unique(M[:, arr]).tolist())
        grown |= {int(R.neg[x]) for x in cur}
        if grown == cur:
            return mask_of(cur)
        cur = grown


def annihilator_route_oracle(R, in_d):
    """a l(a) and r(a) a inside the set, element by element."""
    M = R.np_mul
    for a in R.elements():
        lann = np.flatnonzero(M[:, a] == R.zero)
        if not bool(in_d[M[a, lann]].all()):
            return False
        rann = np.flatnonzero(M[a] == R.zero)
        if not bool(in_d[M[rann, a]].all()):
            return False
    return True


def armendariz_oracle(R, in_d):
    """The per-zero-pair loop of delta-linear-Armendariz: verdict and the
    first witness (a0, a1, b0, b1)."""
    A, M = R.np_add, R.np_mul
    zp = np.argwhere(M == R.zero)
    za, zb = zp[:, 0], zp[:, 1]
    for a0, b0 in zp:
        cross1 = M[a0, zb]
        cross2 = M[za, b0]
        bad = (A[cross1, cross2] == R.zero) & (~in_d[cross1] | ~in_d[cross2])
        if bool(bad.any()):
            i = int(np.flatnonzero(bad)[0])
            return False, (int(a0), int(za[i]), int(b0), int(zb[i]))
    return True, None


def ideal_products_oracle(R, d):
    """T9 over column gathers and np.ix_ blocks."""
    in_d = bool_from_mask(d, R.order)
    M = R.np_mul
    checked = 0
    for I in all_right_ideal_masks(R):
        arr = array_from_mask(I, R.order)
        in_I = bool_from_mask(I, R.order)
        if not in_I[M[:, arr]].all():
            continue
        checked += 1
        sub = M[np.ix_(arr, arr)]
        bad = (sub == R.zero) & ~(in_d[sub.T] & in_I[sub.T])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return checked, Failure("product escapes I intersect delta", (arr[i], arr[j]))
    return checked, None


# ---------------------------------------------------------------------------
# inputs

def sample(rng, items, k):
    items = list(items)
    return items if len(items) <= k else rng.sample(items, k)


def candidate_masks(R, rng):
    """Right ideals, each with one element added and one removed, plus random
    subsets with and without zero: closed sets and sets that break each law."""
    ideals = sample(rng, all_right_ideal_masks(R), 12 if R.order <= SMALL else 6)
    out = set(ideals)
    for m in ideals:
        out.add(m | 1 << rng.randrange(R.order))
        removable = [x for x in mask_elems(m) if x != R.zero]
        if removable:
            out.add(m & ~(1 << rng.choice(removable)))
    for _ in range(4):
        sub = mask_of(x for x in R.elements() if rng.random() < 0.5)
        out |= {sub | 1 << R.zero, sub & ~(1 << R.zero)}
    return sorted(out)


def radical_stand_ins(R, rng):
    """delta(R), delta(R) plus random elements, and random subsets with and
    without zero: sets on which each route can pass or fail."""
    d = zhou_radical_mask(R)
    out = {d, d | mask_of(x for x in R.elements() if rng.random() < 0.5)}
    for p in (0.3, 0.9, 0.99):
        sub = mask_of(x for x in R.elements() if rng.random() < p)
        out |= {sub | 1 << R.zero, sub & ~(1 << R.zero)}
    return sorted(out)


def two_sided_ideals(R, rng):
    if R.order <= SMALL:
        return [m for m in all_right_ideal_masks(R) if is_two_sided_mask(R, m)]
    return sorted({1 << R.zero, R.full_mask(), zhou_radical_mask(R),
                   jacobson_radical_mask(R), socle_mask(R)})


def plain_ints(values):
    return all(type(v) is int for v in values)


# ---------------------------------------------------------------------------
# tests

def test_element_kernels_match_scalar_loops(rings):
    for R in rings:
        assert tuple(R.neg.tolist()) == neg_oracle(R), R.name
        masks = (units_mask(R), idempotents_mask(R), nilpotents_mask(R))
        assert plain_ints(masks)
        assert masks == (units_oracle(R), idempotents_oracle(R),
                         powers_reach(R, 1 << R.zero)), R.name
        assert plain_ints(cyclic_masks(R))
        assert cyclic_masks(R) == cyclic_oracle(R), R.name


def test_delta_sharp_matches_power_scan(rings):
    for R in rings:
        got = delta_sharp_mask(R)
        assert type(got) is int
        assert got == powers_reach(R, zhou_radical_mask(R)), R.name


def test_double_commutant_matches_pairwise_scan(rings):
    rng = random.Random(3)
    for R in rings:
        for a in sample(rng, R.elements(), R.order if R.order <= SMALL else 24):
            got = double_commutant_mask(R, a)
            assert type(got) is int
            assert got == double_commutant_oracle(R, a), (R.name, a)


def test_closure_kernel_matches_scalar_check_and_witness(rings):
    rng = random.Random(5)
    failures = set()
    for R in rings:
        neg = neg_oracle(R)
        for m in candidate_masks(R, rng):
            for two_sided in (False, True):
                want = closure_oracle(R, neg, m, two_sided)
                got = core.ideal_failure(R, m, two_sided)
                assert got == want, (R.name, m, two_sided)
                if two_sided:
                    assert is_two_sided_mask(R, m) == (want is None)
                if want is not None:
                    failures.add(want[0])
                    assert plain_ints(got[1])
    assert failures == {"contains zero", "negation closure", "addition closure",
                        "right multiplication closure", "left multiplication closure"}


def test_corner_tables_match_dict_lookup(rings):
    for R in rings:
        for e in mask_elems(idempotents_mask(R)):
            embed, add, mul, zero, one = corner_oracle(R, e)
            c = corner_ring(R, e)
            assert c.embed == embed and plain_ints(c.embed), (R.name, e)
            assert (c.ring.np_add.tolist(), c.ring.np_mul.tolist()) == (add, mul), (R.name, e)
            assert (c.ring.zero, c.ring.one) == (zero, one) and plain_ints((zero, one))
            assert c.ring.meta["embed"] == list(embed)


def test_quotient_tables_match_coset_walk(rings):
    rng = random.Random(7)
    for R in rings:
        for m in two_sided_ideals(R, rng):
            proj, add, mul, zero, one = quotient_oracle(R, mask_elems(m))
            q = quotient_ring(R, m)
            assert q.proj == proj and plain_ints(q.proj), (R.name, m)
            assert (q.ring.np_add.tolist(), q.ring.np_mul.tolist()) == (add, mul), (R.name, m)
            assert (q.ring.zero, q.ring.one) == (zero, one)
            assert plain_ints((q.ring.zero, q.ring.one)) and q.ring.meta["proj"] == list(proj)


def test_ideal_tests_match_scalar_loops(rings):
    rng = random.Random(11)
    for R in rings:
        for m in two_sided_ideals(R, rng):
            assert is_semiprime_ideal(R, m) == semiprime_oracle(R, m), (R.name, m)
        for m in sample(rng, all_right_ideal_masks(R), 8):
            assert _bound_mask(R, m) == bound_oracle(R, m), (R.name, m)


def test_decomposition_witnesses_match_scalar_scans(rings):
    for R in rings:
        d, neg = zhou_radical_mask(R), neg_oracle(R)
        assert is_delta_clean(R).witness == delta_clean_witness(R, d, neg), R.name
        assert idempotents_lift_mod_delta(R).witness == lift_witness(R, d, neg), R.name


def test_span_kernels_match_fixpoint_oracles(rings):
    rng = random.Random(13)
    for R in rings:
        subsets = [0, R.full_mask()] + sample(rng, cyclic_masks(R), 3)
        subsets += [mask_of(x for x in R.elements() if rng.random() < p) for p in (0.02, 0.2)]
        for m in subsets:
            cand = np.array(mask_elems(m), dtype=np.intp)
            gens, reached = core.additive_span(R.np_add, R.zero, cand)
            assert (gens.tolist(), mask_from_bool(reached)) == greedy_span_oracle(R, cand.tolist())
            assert additive_span_mask(R, m) == span_fixpoint_oracle(R, m), (R.name, m)
        add, _ = tables(R)
        for m in sample(rng, all_right_ideal_masks(R), 2):
            least = [min(add[x][i] for i in mask_elems(m)) for x in R.elements()]
            assert core.coset_labels(R, m).tolist() == least, (R.name, m)
        for gens in ([], [rng.randrange(R.order)], sample(rng, R.elements(), 2)):
            got = two_sided_ideal_generated(R, gens)
            assert type(got) is int
            assert got == two_sided_closure_oracle(R, gens), (R.name, gens)


def test_row_masks_pack_any_layout(rings):
    for R in rings:
        zero_divisors = R.np_mul == R.zero
        for arr in (zero_divisors, zero_divisors.T, np.asfortranarray(R.np_add == R.one),
                    zero_divisors[::2, 1::3], R.np_mul % 3):
            got = core.row_masks(arr)
            assert plain_ints(got)
            assert got == tuple(mask_from_bool(row) for row in arr), R.name


def test_delta_reversible_annihilator_route_matches_loop(rings, monkeypatch):
    rng = random.Random(17)
    seen = set()
    for R in rings:
        M = R.np_mul
        for d in radical_stand_ins(R, rng):
            in_d = bool_from_mask(d, R.order)
            bad = np.argwhere((M == R.zero) & ~in_d[M.T])
            witness = tuple(int(v) for v in bad[0]) if len(bad) else None
            squares_ok = bool(in_d[M.diagonal() == R.zero].all())
            routes = (witness is None, squares_ok, annihilator_route_oracle(R, in_d))
            seen.add(routes)
            monkeypatch.setattr(predicates, "zhou_radical_mask", lambda *_, d=d: d)
            if len(set(routes)) == 1:
                res = is_delta_reversible(R)
                assert (res.verdict, res.witness) == (routes[0], witness), (R.name, d)
                continue
            with pytest.raises(CharacterizationMismatch) as exc:
                is_delta_reversible(R)
            assert str(exc.value).endswith("definition={} square-zero={} annihilator={}"
                                           .format(*routes)), (R.name, d)
    assert {(True, True, True), (False, False, False)} < seen


@pytest.mark.parametrize("block", [7, predicates._QUAD_BLOCK])
def test_armendariz_blocks_match_pair_loop(rings, monkeypatch, block):
    rng = random.Random(31)
    monkeypatch.setattr(predicates, "_QUAD_BLOCK", block)
    seen = set()
    for R in rings:
        if R.order > ARMENDARIZ_CAP:
            continue
        for d in radical_stand_ins(R, rng):
            monkeypatch.setattr(predicates, "zhou_radical_mask", lambda *_, d=d: d)
            res = is_delta_linear_armendariz(R)
            assert plain_ints(res.witness or ())
            want = armendariz_oracle(R, bool_from_mask(d, R.order))
            assert (res.verdict, res.witness) == want, (R.name, d)
            seen.add(want[0])
    assert seen == {True, False}


def test_ideal_products_match_column_loop(rings):
    rng = random.Random(23)
    seen = set()
    for R in rings:
        for d in radical_stand_ins(R, rng):
            ctx = SimpleNamespace(delta=lambda _, d=d: d)
            got = _ideal_products(ctx, R)
            assert got == ideal_products_oracle(R, d), (R.name, d)
            seen.add(got[1] is None)
    assert seen == {True, False}


def test_dumps_ring_matches_indenting_encoder(rings):
    odd = core.validate_ring('Z2 "q\\ \u00f1', 0, 1, [[0, 1], [1, 0]], [[0, 0], [0, 1]],
                             labels=['"0\\', "\u00fcn\u00efcode"])
    assert any(R.order == 1 for R in rings) and any(R.labels is None for R in rings)
    for R in rings + [odd]:
        assert core.dumps_ring(R) == json.dumps(core.ring_to_json_dict(R), indent=1) + "\n"
    assert core.loads_ring(core.dumps_ring(odd)).labels == odd.labels
