"""Differential test: the term tables of the extension rings against the
per-family product callbacks they replaced, kept here as the oracle together
with the callback-taking slot builder they ran on.

Direct products are built over every pair and triple of bases; every other
family over every base of order <= 4 and over the noncommutative
T(2,Zn(2)), with every valid s and t, wherever the ring has order <= FIT;
formal triangular rings and Morita contexts also over valid, perturbed and
random bimodules.  The one exception is L_(s,t) over a base of order 4
(order 1024, ~0.25 s a pair): neither version reads s or t outside the
labels, so one pair, with s != t where there is one, stands for the rest.
Name, tables, zero, one, labels and meta must agree, and a build that raises
must raise the same error with the same message.
"""
import itertools
import math

import numpy as np
import pytest

from ringlab import constructions
from ringlab.constructions import (
    _digit_grids, _encode_slots, _pair, _validated, construct, direct_product,
    encode_digits, enumerate_unital_rings, formal_triangular, hst_ring, ks_ring, lst_ring,
    matrix_ring, trivial_morita, upper_triangular_ring, validate_bimodule)
from ringlab.core import (
    AxiomViolation, BimoduleAxiomViolation, NotCentralUnit, RinglabError, check_size,
    is_central, units_mask)
from ringlab.suite import central_unit_pairs

from test_bimodules import _Pool, _draw

FIT = 1024


# ---------------------------------------------------------------------------
# the oracle: each family's own product callback, on the slot builder that
# took one

class ClosureViolation(RinglabError):
    """An H_(s,t) product left the family."""


def _slot_ring(name, slots, mul_slots, one, label, meta):
    """The ring on mixed-radix tuples of slots; `mul_slots(*digits)`, given
    the digit vector of every slot over all elements, yields the product's
    slot tables."""
    dims = [len(A) for A, _ in slots]
    check_size(name, math.prod(dims))
    digs = _digit_grids(dims)
    add = _encode_slots((_pair(A, d, d) for (A, _), d in zip(slots, digs)), dims)
    mul = _encode_slots(mul_slots(*digs), dims)
    labels = (label(*d) for d in itertools.product(*map(range, dims)))
    return _validated(name, encode_digits([z for _, z in slots], dims), encode_digits(one, dims),
                      add, mul, labels, {**meta, "dims": dims})


def old_direct_product(parts):
    return _slot_ring(
        "x".join(R.name for R in parts), [(R.np_add, R.zero) for R in parts],
        lambda *digs: (_pair(R.np_mul, d, d) for R, d in zip(parts, digs)),
        [R.one for R in parts],
        lambda *ds: "(" + ",".join(R.label(d) for R, d in zip(parts, ds)) + ")",
        {"kind": "product", "bases": tuple(parts),
         "delta_digits": tuple(range(len(parts))), "delta_relation": "eq"})


def _sum_of_products(A, M, pairs):
    acc = None
    for u, v in pairs:
        term = _pair(M, u, v)
        acc = term if acc is None else A[acc, term]
    return acc


def _matrix_label(entries, base, n):
    rows = []
    for i in range(n):
        rows.append("[" + ",".join(base.label(entries[i * n + j]) for j in range(n)) + "]")
    return "[" + ",".join(rows) + "]"


def old_matrix_ring(n, R):
    if n == 1:
        return R
    A, M = R.np_add, R.np_mul
    return _slot_ring(
        f"M{n}({R.name})", [(A, R.zero)] * (n * n),
        lambda *digs: (_sum_of_products(A, M, ((digs[i * n + t], digs[t * n + j])
                                               for t in range(n)))
                       for i in range(n) for j in range(n)),
        [R.one if i == j else R.zero for i in range(n) for j in range(n)],
        lambda *entries: _matrix_label(entries, R, n),
        {"kind": "matrix", "n": n, "bases": (R,),
         "delta_digits": (0,) * (n * n), "delta_relation": "eq"})


def old_upper_triangular_ring(n, R):
    if n == 1:
        return R
    positions = [(i, j) for i in range(n) for j in range(n) if i <= j]
    slot = {pos: s for s, pos in enumerate(positions)}
    A, M = R.np_add, R.np_mul

    def tri_label(*d):
        return _matrix_label([d[slot[(i, j)]] if i <= j else R.zero
                              for i in range(n) for j in range(n)], R, n)

    return _slot_ring(
        f"T{n}({R.name})", [(A, R.zero)] * len(positions),
        lambda *digs: (_sum_of_products(A, M, ((digs[slot[(i, t)]], digs[slot[(t, j)]])
                                               for t in range(i, j + 1)))
                       for (i, j) in positions),
        [R.one if i == j else R.zero for (i, j) in positions], tri_label,
        {"kind": "triangular", "n": n, "bases": (R,),
         "delta_digits": tuple(0 if i == j else None for i, j in positions),
         "delta_relation": "subset"})


def old_hst_ring(R, s, t):
    A, M, NEG = R.np_add, R.np_mul, R.neg

    def h_mul(c, d, e):
        a_of = A[d, M[s][c]]
        f_of = A[d, NEG[M[t][e]]]
        c3 = A[_pair(M, c, a_of), _pair(M, d, c)]
        d3 = _pair(M, d, d)
        e3 = A[_pair(M, d, e), _pair(M, e, f_of)]
        if (not np.array_equal(_pair(M, a_of, a_of), A[d3, M[s][c3]])
                or not np.array_equal(_pair(M, f_of, f_of), A[d3, NEG[M[t][e3]]])):
            raise ClosureViolation(f"H(s,t) product left the family for {R.name}")
        return [c3, d3, e3]

    add, mul_s, mul_t, neg = A.tolist(), M[s].tolist(), M[t].tolist(), NEG.tolist()

    def h_label(ci, di, ei):
        ai = add[di][mul_s[ci]]
        fi = add[di][neg[mul_t[ei]]]
        z = R.label(R.zero)
        return (f"[[{R.label(ai)},{z},{z}],[{R.label(ci)},{R.label(di)},{R.label(ei)}],"
                f"[{z},{z},{R.label(fi)}]]")

    return _slot_ring(f"H({s},{t})({R.name})", [(A, R.zero)] * 3, h_mul,
                      [R.zero, R.one, R.zero], h_label,
                      {"kind": "hst", "s": s, "t": t, "bases": (R,),
                       "delta_digits": (0, 0, 0), "delta_relation": "eq"})


def old_lst_ring(R, s, t):
    A, M = R.np_add, R.np_mul

    def l_mul(a, c, d, e, f):
        yield _pair(M, a, a)
        yield A[_pair(M, c, a), _pair(M, d, c)]
        yield _pair(M, d, d)
        yield A[_pair(M, d, e), _pair(M, e, f)]
        yield _pair(M, f, f)

    mul_s, mul_t = M[s].tolist(), M[t].tolist()

    def l_label(ai, ci, di, ei, fi):
        z = R.label(R.zero)
        sc = R.label(mul_s[ci])
        te = R.label(mul_t[ei])
        return (f"[[{R.label(ai)},{z},{z}],[{sc},{R.label(di)},{te}],"
                f"[{z},{z},{R.label(fi)}]]")

    return _slot_ring(f"L({s},{t})({R.name})", [(A, R.zero)] * 5, l_mul,
                      [R.one, R.zero, R.one, R.zero, R.one], l_label,
                      {"kind": "lst", "s": s, "t": t, "bases": (R,),
                       "delta_digits": (0, None, 0, None, 0), "delta_relation": "eq"})


def old_ks_ring(R, s):
    A, M = R.np_add, R.np_mul

    def k_mul(a, x, y, b):
        yield A[_pair(M, a, a), M[s][_pair(M, x, y)]]
        yield A[_pair(M, a, x), _pair(M, x, b)]
        yield A[_pair(M, y, a), _pair(M, b, y)]
        yield A[M[s][_pair(M, y, x)], _pair(M, b, b)]

    meta = {"kind": "ks", "s": s, "bases": (R,)}
    if s == R.zero:
        meta.update(delta_digits=(0, None, None, 0), delta_relation="eq")
    sname = "0" if s == R.zero else str(s)
    return _slot_ring(f"K{sname}({R.name})", [(A, R.zero)] * 4, k_mul,
                      [R.one, R.zero, R.zero, R.one],
                      lambda a, x, y, b: _matrix_label((a, x, y, b), R, 2), meta)


def _old_bimodule_ring(name, *args):
    try:
        return _slot_ring(name, *args)
    except AxiomViolation as exc:
        raise BimoduleAxiomViolation(f"{name}: the bimodule laws fail ({exc})") from exc


def old_formal_triangular(S, T, M):
    G, L, Rt = validate_bimodule(S, T, M)

    def tri_mul(s, m, t):
        yield _pair(S.np_mul, s, s)
        yield G[L[s[:, None], m[None, :]], Rt[m[:, None], t[None, :]]]
        yield _pair(T.np_mul, t, t)

    return _old_bimodule_ring(f"Tri({S.name},{T.name})",
                              [(S.np_add, S.zero), (G, M.zero), (T.np_add, T.zero)], tri_mul,
                              [S.one, M.zero, T.one],
                              lambda si, mi, ti: f"[[{S.label(si)},m{mi}],[0,{T.label(ti)}]]",
                              {"kind": "formal_triangular", "bases": (S, T),
                               "delta_digits": (0, None, 1), "delta_relation": "subset"})


def old_trivial_morita(A, B, M, N):
    GM, LM, RM = validate_bimodule(A, B, M)
    GN, LN, RN = validate_bimodule(B, A, N)

    def morita_mul(a, m, n, b):
        yield _pair(A.np_mul, a, a)
        yield GM[LM[a[:, None], m[None, :]], RM[m[:, None], b[None, :]]]
        yield GN[RN[n[:, None], a[None, :]], LN[b[:, None], n[None, :]]]
        yield _pair(B.np_mul, b, b)

    return _old_bimodule_ring(f"Morita({A.name},{B.name})",
                              [(A.np_add, A.zero), (GM, M.zero), (GN, N.zero),
                               (B.np_add, B.zero)],
                              morita_mul, [A.one, M.zero, N.zero, B.one],
                              lambda ai, mi, ni, bi:
                                  f"[[{A.label(ai)},m{mi}],[n{ni},{B.label(bi)}]]",
                              {"kind": "trivial_morita", "bases": (A, B),
                               "delta_digits": (0, None, None, 1), "delta_relation": "subset"})


# ---------------------------------------------------------------------------
# the comparison

def _outcome(build):
    """What a build gives: the ring's every observable field, or its error."""
    try:
        R = build()
    except RinglabError as exc:
        return type(exc), str(exc)
    return (R.name, R.order, R.zero, R.one, R.labels, R.meta,
            R.np_add.tobytes(), R.np_mul.tobytes())


def _agree(new, old):
    got, want = _outcome(new), _outcome(old)
    assert got == want, (got[:2], want[:2])
    return got


@pytest.fixture(scope="module")
def bases():
    """Every unital ring of order <= 4, and T(2,Zn(2))."""
    return [R for k in range(1, 5) for R in enumerate_unital_rings(k)] + [
        construct("T(2,Zn(2))")]


def test_direct_products_match_the_oracle(bases):
    built = 0
    for k in (2, 3):
        for parts in itertools.product(bases, repeat=k):
            if math.prod(R.order for R in parts) <= FIT:
                _agree(lambda: direct_product(parts), lambda: old_direct_product(parts))
                built += 1
    assert built == 64 + 512


def test_matrix_and_triangular_rings_match_the_oracle(bases):
    built = 0
    for R in bases:
        for n in (1, 2, 3):
            if R.order ** (n * n) <= FIT:
                _agree(lambda: matrix_ring(n, R), lambda: old_matrix_ring(n, R))
                built += 1
            if R.order ** (n * (n + 1) // 2) <= FIT:
                _agree(lambda: upper_triangular_ring(n, R),
                       lambda: old_upper_triangular_ring(n, R))
                built += 1
    assert built == 36


def test_h_l_and_k_rings_match_the_oracle_for_every_s_and_t(bases):
    built = 0
    for R in bases:
        pairs = central_unit_pairs(R)
        for s, t in pairs:
            _agree(lambda: hst_ring(R, s, t), lambda: old_hst_ring(R, s, t))
            built += 1
        if R.order ** 5 <= FIT:
            for s, t in pairs if R.order < 4 else [max(pairs, key=lambda p: (p[0] != p[1], p))]:
                _agree(lambda: lst_ring(R, s, t), lambda: old_lst_ring(R, s, t))
                built += 1
        for s in range(R.order):
            if is_central(R, s) and R.order ** 4 <= FIT:
                _agree(lambda: ks_ring(R, s), lambda: old_ks_ring(R, s))
                built += 1
    assert built == 57


def _run_bimodule_cases(new, old, draws):
    verdicts = {True: 0, False: 0}
    for args in draws:
        got = _agree(lambda: new(*args), lambda: old(*args))
        verdicts[not isinstance(got[0], type)] += 1
    return verdicts


def test_formal_triangular_rings_match_the_oracle(bases):
    rng = np.random.default_rng(2026)
    pool = _Pool()
    draws = [(S, S, constructions.self_bimodule(S)) for S in bases if S.order ** 3 <= FIT]
    for S_i, T_i in pool.pairs(rng, 400):
        draws.append((pool.rings[S_i], pool.rings[T_i], _draw(rng, pool, S_i, T_i)))
    verdicts = _run_bimodule_cases(formal_triangular, old_formal_triangular, draws)
    assert min(verdicts.values()) >= 100, verdicts


def test_morita_contexts_match_the_oracle(bases):
    rng = np.random.default_rng(2027)
    pool = _Pool()
    draws = [(A, A, constructions.self_bimodule(A), constructions.self_bimodule(A))
             for A in bases if A.order ** 4 <= FIT]
    weights = np.array([1, 8, 5, 1, 1, 1, 1, 0]) / 18
    for k, (A_i, B_i) in enumerate(pool.pairs(rng, 200, weights)):
        M, N = pool.valid(rng, A_i, B_i), pool.valid(rng, B_i, A_i)
        if k % 3 == 1:
            M = _draw(rng, pool, A_i, B_i)
        elif k % 3 == 2:
            N = _draw(rng, pool, B_i, A_i)
        draws.append((pool.rings[A_i], pool.rings[B_i], M, N))
    verdicts = _run_bimodule_cases(trivial_morita, old_trivial_morita, draws)
    assert min(verdicts.values()) >= 40, verdicts


def test_hst_refuses_a_non_central_unit():
    """The unit [[1,1],[0,1]] of T(2,Zn(2)) is not central: refused as s and
    as t."""
    R = construct("T(2,Zn(2))")
    u = 7                          # digits (1, 1, 1): [[1,1],[0,1]]
    assert (units_mask(R) >> u) & 1 and not is_central(R, u)
    with pytest.raises(NotCentralUnit, match="s=7 is not central"):
        hst_ring(R, u, R.one)
    with pytest.raises(NotCentralUnit, match="t=7 is not central"):
        hst_ring(R, R.one, u)
