"""Bimodules of formal triangular rings and trivial Morita contexts.

`validate_bimodule` checks only shapes, ranges and s0 = 0 = 0t; the bimodule
laws are decided by validating the assembled ring.  The former element-loop
validator is kept here as the oracle of that split.
"""
import itertools

import numpy as np
import pytest

from ringlab import core
from ringlab.core import AxiomViolation, BimoduleAxiomViolation, FiniteRing, SizeCap, units_mask
from ringlab.constructions import (
    BimoduleSpec, corner_ring, direct_product, enumerate_unital_rings, formal_triangular, make_zn,
    trivial_morita, upper_triangular_ring)


def old_validate_bimodule(S, T, M):
    """The former validator: every bimodule law checked on the tables."""
    m = M.size
    G = np.asarray(M.add, dtype=np.int64)
    L = np.asarray(M.left, dtype=np.int64)
    Rt = np.asarray(M.right, dtype=np.int64)
    if L.shape != (S.order, m) or Rt.shape != (m, T.order):
        raise BimoduleAxiomViolation("action table dimensions do not match the rings")
    idx = np.arange(m)
    if not np.array_equal(G, G.T) or not np.array_equal(G[M.zero], idx):
        raise BimoduleAxiomViolation("bimodule addition is not an abelian group with the given zero")
    for i in range(m):
        if not np.array_equal(G[G[i]], G[i][G]):
            raise BimoduleAxiomViolation(f"bimodule addition associativity fails at {i}")
        if M.zero not in set(G[i].tolist()):
            raise BimoduleAxiomViolation(f"bimodule element {i} has no additive inverse")
    if not np.array_equal(L[S.one], idx):
        raise BimoduleAxiomViolation("left action is not unital")
    if not np.array_equal(Rt[:, T.one], idx):
        raise BimoduleAxiomViolation("right action is not unital")
    for s in range(S.order):
        # s(m1+m2) = sm1 + sm2 and (s1 s2)m = s1(s2 m)
        if not np.array_equal(L[s][G], G[np.ix_(L[s], L[s])]):
            raise BimoduleAxiomViolation(f"left action of {s} is not additive")
        if not np.array_equal(L[S.np_mul[s]], L[s][L]):
            raise BimoduleAxiomViolation(f"left action associativity fails at s={s}")
        # (s+s')m = sm + s'm
        for s2 in range(S.order):
            if not np.array_equal(L[S.np_add[s, s2]], G[L[s], L[s2]]):
                raise BimoduleAxiomViolation(f"left action biadditivity fails at ({s},{s2})")
    for t in range(T.order):
        if not np.array_equal(Rt[G[:, :], t].reshape(m, m), G[np.ix_(Rt[:, t], Rt[:, t])]):
            raise BimoduleAxiomViolation(f"right action of {t} is not additive")
        for t2 in range(T.order):
            if not np.array_equal(Rt[:, T.np_mul[t, t2]], Rt[Rt[:, t], t2]):
                raise BimoduleAxiomViolation(f"right action associativity fails at ({t},{t2})")
            if not np.array_equal(Rt[:, T.np_add[t, t2]], G[Rt[:, t], Rt[:, t2]]):
                raise BimoduleAxiomViolation(f"right action biadditivity fails at ({t},{t2})")
    for s in range(S.order):
        for t in range(T.order):
            if not np.array_equal(Rt[L[s], t], L[s][Rt[:, t]]):
                raise BimoduleAxiomViolation(f"actions do not commute at (s={s},t={t})")


def _spec(add, zero, left, right):
    rows = lambda a: tuple(map(tuple, np.asarray(a).tolist()))
    return BimoduleSpec(rows(add), int(zero), rows(left), rows(right))


def _zero_module(S, T):
    return BimoduleSpec(((0,),), 0, ((0,),) * S.order, ((0,) * T.order,))


def _accepts(build):
    try:
        build()
    except BimoduleAxiomViolation:
        return False
    return True


# ---------------------------------------------------------------------------
# hand-made bimodules, each wrong in one way

def _case(name):
    Z2, Z3 = make_zn(2), make_zn(3)
    if name == "sm+1, mt+1":
        # its assembled ring is valid: only the zero check rejects it
        return Z2, Z2, _spec(Z2.np_add, 0, [[(s * m + 1) % 2 for m in range(2)] for s in range(2)],
                             [[(m * t + 1) % 2 for t in range(2)] for m in range(2)])
    if name == "non-additive":
        # 2(1 + 1) = 2.2 = 1, but 2.1 + 2.1 = 2
        return Z3, Z3, _spec(Z3.np_add, 0, [[0, 0, 0], [0, 1, 2], [0, 1, 1]], Z3.np_mul)
    if name == "non-unital":
        return Z2, Z2, _spec(Z2.np_add, 0, [[0, 0], [0, 0]], Z2.np_mul)
    if name == "non-associative":
        # s.m = lambda(s) m for an additive lambda: F4 -> Z2 with lambda(1) = 1;
        # F4 has no ring map onto Z2, so (s s')m = s(s'm) fails
        F4 = next(R for R in enumerate_unital_rings(4) if bin(units_mask(R)).count("1") == 3)
        w = next(x for x in F4.elements() if x not in (F4.zero, F4.one))
        lam = {F4.zero: 0, F4.one: 1, w: 0, int(F4.np_add[F4.one, w]): 1}
        return F4, Z2, _spec(Z2.np_add, 0, [[lam[s] * m for m in range(2)] for s in range(4)],
                             Z2.np_mul)
    if name == "non-commuting":
        # Z2 x Z2 acts on (x1, x2) by diag(a, b) on the left, and through the
        # idempotents P = [[1,1],[0,0]] and I - P on the right
        P = direct_product([Z2, Z2])
        vecs = [(x >> 1, x & 1) for x in range(4)]       # (x1, x2) at index 2 x1 + x2
        index = {v: 2 * v[0] + v[1] for v in vecs}
        coords = [(s >> 1, s & 1) for s in range(4)]
        left = [[index[(a * x1, b * x2)] for x1, x2 in vecs] for a, b in coords]
        right = [[index[(c * x1 % 2, (c * x1 + d * (x1 + x2)) % 2)] for c, d in coords]
                 for x1, x2 in vecs]
        klein = [[index[((u1 + v1) % 2, (u2 + v2) % 2)] for v1, v2 in vecs] for u1, u2 in vecs]
        return P, P, _spec(klein, 0, left, right)
    if name == "wrong shape":
        return Z2, Z2, _spec(Z2.np_add, 0, [[0, 0], [0, 1], [0, 1]], Z2.np_mul)
    if name == "ragged table":
        return Z2, Z2, BimoduleSpec(((0, 1), (1,)), 0, Z2.np_mul, Z2.np_mul)
    if name == "entry out of range":
        return Z2, Z2, _spec(Z2.np_add, 0, [[0, 0], [0, 2]], Z2.np_mul)
    if name == "negative entry":
        return Z2, Z2, _spec(Z2.np_add, 0, Z2.np_mul, [[0, 0], [-1, 1]])
    if name == "zero out of range":
        return Z2, Z2, _spec(Z2.np_add, 2, Z2.np_mul, Z2.np_mul)
    # entries that an int64 conversion would truncate into the default Tri(Z2, Z2)
    if name == "float entry":
        return Z2, Z2, BimoduleSpec(((0, 1), (1, 0)), 0, ((0, 0), (0, 1.7)), ((0, 0), (0, 1)))
    if name == "bool entry":
        return Z2, Z2, BimoduleSpec(((0, 1), (1, 0)), 0, ((0, 0), (0, True)), ((0, 0), (0, 1)))
    if name == "float64 array":
        return Z2, Z2, BimoduleSpec(Z2.np_add, 0, Z2.np_mul, Z2.np_mul.astype(np.float64))
    if name == "float zero":
        return Z2, Z2, BimoduleSpec(Z2.np_add, 0.0, Z2.np_mul, Z2.np_mul)
    if name == "bool zero":
        return Z2, Z2, BimoduleSpec(Z2.np_add, False, Z2.np_mul, Z2.np_mul)
    raise KeyError(name)


LAW_CASES = ["non-additive", "non-unital", "non-associative", "non-commuting"]
TABLE_CASES = ["sm+1, mt+1", "wrong shape", "ragged table", "entry out of range",
               "negative entry", "zero out of range", "float entry", "bool entry",
               "float64 array", "float zero", "bool zero"]


def _place(where, S, T, spec):
    """Build the ring that carries spec: [[S, M],[0, T]], or a Morita
    context with spec as M (over (S, T)) or as N (over (T, S))."""
    if where == "tri":
        return formal_triangular(S, T, spec)
    if where == "morita-M":
        return trivial_morita(S, T, spec, _zero_module(T, S))
    return trivial_morita(T, S, _zero_module(T, S), spec)


PLACES = ["tri", "morita-M", "morita-N"]


@pytest.mark.parametrize("where", PLACES)
@pytest.mark.parametrize("name", LAW_CASES)
def test_bimodule_law_failures_come_from_the_assembled_ring(name, where, monkeypatch):
    S, T, spec = _case(name)
    labelled = []
    monkeypatch.setattr(FiniteRing, "label", lambda R, i: labelled.append(i) or str(i))
    with pytest.raises(BimoduleAxiomViolation) as exc:
        _place(where, S, T, spec)
    assert isinstance(exc.value.__cause__, AxiomViolation)
    assert labelled == []         # element labels are built only once validation passes
    assert not _accepts(lambda: old_validate_bimodule(S, T, spec))


@pytest.mark.parametrize("where", PLACES)
@pytest.mark.parametrize("name", TABLE_CASES)
def test_bimodule_table_failures_are_caught_before_assembly(name, where):
    S, T, spec = _case(name)
    with pytest.raises(BimoduleAxiomViolation) as exc:
        _place(where, S, T, spec)
    assert not isinstance(exc.value.__cause__, AxiomViolation)


def test_sm_plus_one_is_rejected_by_the_oracle_too():
    S, T, spec = _case("sm+1, mt+1")
    assert not _accepts(lambda: old_validate_bimodule(S, T, spec))


def test_default_bimodule_needs_equal_tables_not_equal_names():
    Z2 = make_zn(2)
    corner = corner_ring(Z2, 1).ring
    assert corner.name != Z2.name
    for build in (formal_triangular, trivial_morita):
        assert build(Z2, corner) == build(Z2, Z2)
        with pytest.raises(BimoduleAxiomViolation):
            build(make_zn(4), direct_product([Z2, Z2]))


def test_bimodule_spec_takes_nested_lists_or_arrays():
    Z3 = make_zn(3)
    arrays = BimoduleSpec(Z3.np_add, Z3.zero, Z3.np_mul, Z3.np_mul)
    lists = BimoduleSpec(Z3.np_add.tolist(), Z3.zero, Z3.np_mul.tolist(), Z3.np_mul.tolist())
    assert formal_triangular(Z3, Z3, arrays) == formal_triangular(Z3, Z3, lists)
    assert trivial_morita(Z3, Z3, arrays, arrays) == trivial_morita(Z3, Z3, lists, lists)


def test_oversized_context_raises_size_cap_before_bimodule_laws(monkeypatch):
    S, T, spec = _case("non-unital")
    monkeypatch.setattr(core, "SIZE_CAP", 4)
    for where in PLACES:
        with pytest.raises(SizeCap):
            _place(where, S, T, spec)


# ---------------------------------------------------------------------------
# differential test against the former validator

def _homs(S, E):
    """Every unital ring map S -> E, as index arrays (brute force)."""
    out = []
    for images in itertools.product(range(E.order), repeat=S.order):
        f = np.array(images)
        if (f[S.one] == E.one and np.array_equal(E.np_add[f[:, None], f], f[S.np_add])
                and np.array_equal(E.np_mul[f[:, None], f], f[S.np_mul])):
            out.append(f)
    return out


class _Pool:
    """Valid bimodules E over (S, T) through ring maps S -> E <- T into small
    commutative rings E: s.x = phi(s) x and x.t = x psi(t)."""

    def __init__(self):
        Z = {k: make_zn(k) for k in (1, 2, 3)}
        commutative = [Z[1], Z[2], Z[3]] + list(enumerate_unital_rings(4))
        self.rings = commutative + [upper_triangular_ring(2, Z[2])]
        self.modules = commutative
        # draw weights, favouring small rings: a context's order is the
        # product of its slots' orders, and the zero ring forces m = 1
        self.weights = np.array([1, 8, 5, 2, 2, 2, 2, 1]) / 23
        self.maps = {(i, j): _homs(S, E) for i, S in enumerate(self.rings)
                     for j, E in enumerate(self.modules) if E.order ** S.order <= 256}

    def pairs(self, rng, count, weights=None):
        w = self.weights if weights is None else weights
        return rng.choice(len(self.rings), size=(count, 2), p=w)

    def valid(self, rng, S_i, T_i):
        """A random valid spec over (rings[S_i], rings[T_i]), relabeled; the
        zero module only when no other E takes maps from both."""
        choices = [j for j in range(len(self.modules))
                   if self.maps.get((S_i, j)) and self.maps.get((T_i, j))]
        choices = [j for j in choices if self.modules[j].order > 1] or choices
        j = choices[rng.integers(len(choices))]
        E = self.modules[j]
        phi = self.maps[(S_i, j)][rng.integers(len(self.maps[(S_i, j)]))]
        psi = self.maps[(T_i, j)][rng.integers(len(self.maps[(T_i, j)]))]
        EM = E.np_mul
        return _relabel(rng, E.np_add, E.zero, EM[phi], EM[:, psi])


def _relabel(rng, G, zero, L, Rt):
    perm = rng.permutation(len(G))
    G2 = np.empty_like(G)
    G2[np.ix_(perm, perm)] = perm[G]
    L2 = np.empty_like(L)
    L2[:, perm] = perm[L]
    R2 = np.empty_like(Rt)
    R2[perm] = perm[Rt]
    return _spec(G2, perm[zero], L2, R2)


def _perturbed(rng, spec):
    """One entry of one table (or the zero) moved to another in-range value."""
    m = spec.size
    if m == 1:
        return spec
    tables = [np.array(spec.add), np.array(spec.left), np.array(spec.right)]
    which = rng.integers(4)
    if which == 3:
        return _spec(*tables[:1], (spec.zero + 1 + rng.integers(m - 1)) % m, *tables[1:])
    t = tables[which]
    pos = tuple(rng.integers(d) for d in t.shape)
    t[pos] = (t[pos] + 1 + rng.integers(m - 1)) % m
    return _spec(tables[0], spec.zero, tables[1], tables[2])


def _random(rng, pool, S, T):
    """Random in-range actions on a valid group (or a random table), forced
    to fix the zero half of the time."""
    E = pool.modules[1 + rng.integers(len(pool.modules) - 1)]   # not the zero module
    m = E.order
    if rng.random() < 0.8:
        base = _relabel(rng, E.np_add, E.zero, np.zeros((S.order, m), int),
                        np.zeros((m, T.order), int))
        G, zero = np.array(base.add), base.zero
    else:
        G, zero = rng.integers(m, size=(m, m)), rng.integers(m)
    L = rng.integers(m, size=(S.order, m))
    Rt = rng.integers(m, size=(m, T.order))
    if rng.random() < 0.5:
        L[:, zero] = zero
        Rt[zero] = zero
    return _spec(G, zero, L, Rt)


def _draw(rng, pool, S_i, T_i):
    S, T = pool.rings[S_i], pool.rings[T_i]
    u = rng.random()
    if u < 0.45:
        return pool.valid(rng, S_i, T_i)
    if u < 0.8:
        return _perturbed(rng, pool.valid(rng, S_i, T_i))
    return _random(rng, pool, S, T)


def test_formal_triangular_verdicts_match_the_former_validator():
    rng = np.random.default_rng(20261018)
    pool = _Pool()
    verdicts = {True: 0, False: 0}
    for S_i, T_i in pool.pairs(rng, 10_000):
        S, T = pool.rings[S_i], pool.rings[T_i]
        spec = _draw(rng, pool, S_i, T_i)
        want = _accepts(lambda: old_validate_bimodule(S, T, spec))
        assert _accepts(lambda: formal_triangular(S, T, spec)) == want, (S.name, T.name, spec)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 2000, verdicts


def test_morita_verdicts_match_the_former_validator():
    rng = np.random.default_rng(1018)
    pool = _Pool()
    # two bimodule slots: keep the rings smaller still, and T2(Z2) out
    weights = np.array([1, 8, 5, 1, 1, 1, 1, 0]) / 18
    verdicts = {True: 0, False: 0}
    for k, (A_i, B_i) in enumerate(pool.pairs(rng, 2_000, weights)):
        A, B = pool.rings[A_i], pool.rings[B_i]
        M, N = pool.valid(rng, A_i, B_i), pool.valid(rng, B_i, A_i)
        if k % 3 == 1:
            M = _draw(rng, pool, A_i, B_i)
        elif k % 3 == 2:
            N = _draw(rng, pool, B_i, A_i)
        want = (_accepts(lambda: old_validate_bimodule(A, B, M))
                and _accepts(lambda: old_validate_bimodule(B, A, N)))
        assert _accepts(lambda: trivial_morita(A, B, M, N)) == want, (A.name, B.name, M, N)
        verdicts[want] += 1
    assert min(verdicts.values()) >= 400, verdicts
