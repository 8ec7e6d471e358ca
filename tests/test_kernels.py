"""Differential tests: the vectorized table kernels against the scalar loops
they replaced, kept here as oracles.

Most oracles read the tuple views R.add / R.mul element by element; the
additive-span oracles are the pairwise-sum fixpoints that `core.additive_span`
replaced (greedy generators, `additive_span_mask`, the two-sided closure of
`two_sided_ideal_generated`).  They run
on every enumerated ring of order <= 8 and on every distinct default-corpus
table of order <= 256; the tables of order > 64 (M2(Z3)'s corner, L(Z3),
K0(Z4), M2(Z4), Morita(Z3,Z3)) have masks past bit 63, where a table entry
left as a numpy scalar in a shift would give a wrong mask or raise.
"""
import random

import numpy as np
import pytest

from ringlab import core
from ringlab.constructions import (
    corner_ring, enumerate_unital_rings, is_right_ideal_mask, is_two_sided_mask,
    quotient_ring, two_sided_ideal_generated)
from ringlab.core import (
    AxiomViolation, array_from_mask, double_commutant_mask, element_set,
    element_set_from_mask, idempotents_mask, mask_elems, mask_from_bool, mask_of,
    nilpotents_mask, units_mask)
from ringlab.ideals import (
    _bound_mask, additive_span_mask, all_right_ideal_masks, cyclic_masks,
    delta_sharp_mask, is_semiprime_ideal, jacobson_radical_mask, socle_mask,
    zhou_radical_mask)
from ringlab.predicates import idempotents_lift_mod_delta, is_delta_clean

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

def neg_oracle(R):
    return tuple(row.index(R.zero) for row in R.add)


def units_oracle(R):
    m = 0
    for u in R.elements():
        row = R.mul[u]
        for v in R.elements():
            if row[v] == R.one and R.mul[v][u] == R.one:
                m |= 1 << u
                break
    return m


def idempotents_oracle(R):
    return mask_of(x for x in R.elements() if R.mul[x][x] == x)


def powers_reach(R, target_mask):
    """{x : some power x^k, 1 <= k <= n, lies in the target mask}."""
    out = 0
    for x in R.elements():
        p = x
        for _ in range(R.order):
            if (target_mask >> p) & 1:
                out |= 1 << x
                break
            p = R.mul[p][x]
    return out


def cyclic_oracle(R):
    return tuple(mask_of(row) for row in R.mul)


def double_commutant_oracle(R, a):
    M = np.asarray(R.mul)
    comm = np.flatnonzero(M[:, a] == M[a, :])
    idx = np.arange(R.order)
    eq = M[np.ix_(idx, comm)] == M[np.ix_(comm, idx)].T
    return mask_of(np.flatnonzero(eq.all(axis=1)).tolist())


def closure_oracle(R, neg, m, two_sided):
    """First broken closure law and witness, in the report order of the
    scalar element-set check."""
    if not (m >> R.zero) & 1:
        return "contains zero", (R.zero,)
    elems = mask_elems(m)
    for a in elems:
        if not (m >> neg[a]) & 1:
            return "negation closure", (a,)
        for b in elems:
            if not (m >> R.add[a][b]) & 1:
                return "addition closure", (a, b)
        for r in R.elements():
            if not (m >> R.mul[a][r]) & 1:
                return "right multiplication closure", (a, r)
    if two_sided:
        for a in elems:
            for r in R.elements():
                if not (m >> R.mul[r][a]) & 1:
                    return "left multiplication closure", (r, a)
    return None


def corner_oracle(R, e):
    row_e = R.mul[e]
    elems = sorted({R.mul[row_e[x]][e] for x in R.elements()})
    index = {p: i for i, p in enumerate(elems)}
    add = tuple(tuple(index[R.add[a][b]] for b in elems) for a in elems)
    mul = tuple(tuple(index[R.mul[a][b]] for b in elems) for a in elems)
    return tuple(elems), add, mul, index[R.zero], index[e]


def quotient_oracle(R, ideal):
    proj = [-1] * R.order
    reps = []
    for x in R.elements():
        if proj[x] >= 0:
            continue
        c = len(reps)
        reps.append(x)
        for i in ideal:
            proj[R.add[x][i]] = c
    add = tuple(tuple(proj[R.add[a][b]] for b in reps) for a in reps)
    mul = tuple(tuple(proj[R.mul[a][b]] for b in reps) for a in reps)
    return tuple(proj), add, mul, proj[R.zero], proj[R.one]


def bound_oracle(R, m):
    return mask_of(r for r in mask_elems(m)
                   if all((m >> R.mul[s][r]) & 1 for s in R.elements()))


def semiprime_oracle(R, m):
    for a in R.elements():
        if (m >> a) & 1:
            continue
        if all((m >> R.mul[R.mul[a][r]][a]) & 1 for r in R.elements()):
            return False
    return True


def delta_clean_witness(R, d, neg):
    idem = mask_elems(idempotents_oracle(R))
    return next(((x,) for x in R.elements()
                 if not any((d >> R.add[x][neg[e]]) & 1 for e in idem)), None)


def lift_witness(R, d, neg):
    idem = mask_elems(idempotents_oracle(R))
    for f in R.elements():
        ff = R.mul[f][f]
        if (d >> R.add[ff][neg[f]]) & 1 and not any((d >> R.add[e][neg[f]]) & 1 for e in idem):
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


def test_element_set_takes_table_entries(rings):
    # numpy scalars, as read from a table, past bit 63
    R = max(rings, key=lambda R: R.order)
    entries = np.unique(R.np_mul[R.order - 1])
    es = element_set(R, entries)
    assert es.elems == tuple(entries.tolist()) and plain_ints(es.elems)
    assert es.mask == mask_of(entries.tolist())


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
            for kind, two_sided in (("right-ideal", False), ("two-sided-ideal", True)):
                want = closure_oracle(R, neg, m, two_sided)
                assert core.ideal_failure(R, m, two_sided) == want, (R.name, m, kind)
                test = is_two_sided_mask if two_sided else is_right_ideal_mask
                assert test(R, m) == (want is None)
                if want is None:
                    element_set_from_mask(R, m, kind)
                    continue
                failures.add(want[0])
                with pytest.raises(AxiomViolation) as exc:
                    element_set_from_mask(R, m, kind)
                assert exc.value.axiom == f"{kind} {want[0]}"
                assert exc.value.witness == want[1] and plain_ints(exc.value.witness)
    assert failures == {"contains zero", "negation closure", "addition closure",
                        "right multiplication closure", "left multiplication closure"}


def test_corner_tables_match_dict_lookup(rings):
    for R in rings:
        for e in mask_elems(idempotents_mask(R)):
            embed, add, mul, zero, one = corner_oracle(R, e)
            c = corner_ring(R, e)
            assert c.embed == embed and plain_ints(c.embed), (R.name, e)
            assert (c.ring.add, c.ring.mul) == (add, mul), (R.name, e)
            assert (c.ring.zero, c.ring.one) == (zero, one) and plain_ints((zero, one))
            assert c.ring.meta["embed"] == list(embed)


def test_quotient_tables_match_coset_walk(rings):
    rng = random.Random(7)
    for R in rings:
        for m in two_sided_ideals(R, rng):
            proj, add, mul, zero, one = quotient_oracle(R, mask_elems(m))
            q = quotient_ring(R, element_set_from_mask(R, m, "two-sided-ideal"))
            assert q.proj == proj and plain_ints(q.proj), (R.name, m)
            assert (q.ring.add, q.ring.mul) == (add, mul), (R.name, m)
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
        for m in sample(rng, all_right_ideal_masks(R), 2):
            least = [min(R.add[x][i] for i in mask_elems(m)) for x in R.elements()]
            assert core.coset_labels(R, m).tolist() == least, (R.name, m)
        for gens in ([], [rng.randrange(R.order)], sample(rng, R.elements(), 2)):
            got = two_sided_ideal_generated(R, gens)
            assert got.mask == two_sided_closure_oracle(R, gens), (R.name, gens)
            assert plain_ints(got.elems)
