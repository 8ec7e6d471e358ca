"""Differential test: `ring_isomorphic` against the dict-based backtracking
it replaced, kept here as the oracle.

The pairs are every same-order pair of the enumerated rings of orders 4 and 8
(`up_to_iso=False`) and of a set of order-16 expression rings with a relabelled
copy of each (relabelled, a ring with a Z4 or Z8 summand can meet a generator
whose double lies in the span so far, where only the sum check keeps the map
additive).  Each pair runs
twice: through the fingerprint gate, and with `ring_fingerprint` patched so
that the gate always passes, which makes the search itself reject (within
enumeration, every pair that passes the gate is isomorphic).  Both functions
must give the same verdict, and every map returned must be an isomorphism.
"""
import numpy as np
import pytest

from ringlab import constructions, core
from ringlab.constructions import (
    construct, corner_ring, decode_digits, encode_digits, enumerate_unital_rings,
    ring_isomorphic)
from ringlab.core import FiniteRing

ORDER_16 = ("M(2,Zn(2))", "Ks(Zn(2),s=1)", "K0(Zn(2))", "Morita(Zn(2),Zn(2))",
            "Prod(T(2,Zn(2)),Zn(2))", "Prod(Zn(2),T(2,Zn(2)))", "Prod(Hst(Zn(2),s=1,t=1),Zn(2))",
            "Quot(T(2,Zn(4)),gens=[2])", "Prod(Zn(4),Zn(4))", "Zn(16)", "Quot(Zn(32),gens=[16])",
            "Prod(Zn(2),Zn(8))", "Prod(Zn(8),Zn(2))", "Prod(Zn(2),Zn(2),Zn(4))",
            "Prod(Zn(2),Zn(2),Zn(2),Zn(2))")


def permutation(R, seed):
    """The seeded permutation p of R's elements that `relabelled` applies."""
    return np.random.default_rng(seed).permutation(R.order)


def relabelled(R, seed):
    """A copy of R whose element x is p[x], for p = permutation(R, seed)."""
    p = permutation(R, seed)
    add, mul = np.empty_like(R.np_add), np.empty_like(R.np_mul)
    add[p[:, None], p] = p[R.np_add]
    mul[p[:, None], p] = p[R.np_mul]
    return FiniteRing(R.name + "'", int(p[R.zero]), int(p[R.one]), add, mul)


def assert_isomorphism(R, S, phi):
    assert phi is not None, (R.name, S.name)
    phi = np.array(phi)
    assert sorted(phi) == list(range(R.order)), (R.name, S.name)
    assert np.array_equal(phi[R.np_add], S.np_add[phi[:, None], phi]), (R.name, S.name)
    assert np.array_equal(phi[R.np_mul], S.np_mul[phi[:, None], phi]), (R.name, S.name)


def oracle_isomorphic(R, S):
    """The dict-based backtracking that `ring_isomorphic` replaced."""
    if R.order != S.order:
        return None
    fpR, rowsR = constructions.ring_fingerprint(R)
    fpS, rowsS = constructions.ring_fingerprint(S)
    if fpR != fpS:
        return None
    n = R.order
    # plain lists for the scalar loops: numpy scalars index and hash slower
    r_add, r_mul, s_add, s_mul = (t.tolist() for t in (R.np_add, R.np_mul, S.np_add, S.np_mul))
    invR = list(map(tuple, rowsR.tolist()))
    ordR = rowsR[:, 0].tolist()
    invS_pool: dict = {}
    for y, row in enumerate(map(tuple, rowsS.tolist())):
        invS_pool.setdefault(row, []).append(y)

    gens = core.additive_span(R.np_add, R.zero, np.arange(n))[0].tolist()

    def extend(mapping, g, h):
        new_map = dict(mapping)
        cur_g, cur_h = g, h
        base = list(mapping.items())
        for _ in range(ordR[g]):
            for x, y in base:
                xs = r_add[x][cur_g]
                ys = s_add[y][cur_h]
                if xs in new_map:
                    if new_map[xs] != ys:
                        return None
                else:
                    new_map[xs] = ys
            cur_g = r_add[cur_g][g]
            cur_h = s_add[cur_h][h]
        if len(set(new_map.values())) != len(new_map):
            return None
        return new_map

    def dfs(gi, mapping):
        if gi == len(gens):
            if len(mapping) != n or mapping[R.one] != S.one:
                return None
            for x, y in mapping.items():
                for x2, y2 in mapping.items():
                    if mapping[r_mul[x][x2]] != s_mul[y][y2]:
                        return None
            return mapping
        g = gens[gi]
        for h in invS_pool.get(invR[g], []):
            if h in mapping.values():
                continue
            grown = extend(mapping, g, h)
            if grown is None:
                continue
            # partial multiplicative consistency on the mapped subring
            ok = True
            for x, y in grown.items():
                if not ok:
                    break
                for x2, y2 in grown.items():
                    p = r_mul[x][x2]
                    if p in grown and grown[p] != s_mul[y][y2]:
                        ok = False
                        break
            if not ok:
                continue
            res = dfs(gi + 1, grown)
            if res is not None:
                return res
        return None

    mapping = dfs(0, {R.zero: S.zero})
    if mapping is None:
        return None
    return tuple(mapping[x] for x in range(n))


@pytest.fixture(scope="module")
def same_order_pairs():
    rings = [list(enumerate_unital_rings(order, up_to_iso=False)) for order in (4, 8)]
    order_16 = [construct(text) for text in ORDER_16]
    rings.append(order_16 + [relabelled(R, seed) for seed, R in enumerate(order_16)])
    return [(R, S) for group in rings for R in group for S in group]


@pytest.mark.parametrize("gated", [True, False])
def test_ring_isomorphic_matches_oracle(same_order_pairs, monkeypatch, gated):
    assert len(same_order_pairs) >= 6000
    if not gated:
        fingerprint = constructions.ring_fingerprint
        monkeypatch.setattr(constructions, "ring_fingerprint", lambda R: (None, fingerprint(R)[1]))
    found = 0
    for R, S in same_order_pairs:
        phi, want = ring_isomorphic(R, S), oracle_isomorphic(R, S)
        assert (phi is None) == (want is None), (R.name, S.name)
        if phi is not None:
            found += 1
            assert_isomorphism(R, S, phi)
            assert_isomorphism(R, S, want)
    assert 0 < found < len(same_order_pairs)


@pytest.mark.parametrize("text", ["T(2,Zn(4))", "M(2,Zn(3))", "K0(Zn(4))", "Hst(Zn(4),s=1,t=3)",
                                  "Prod(Zn(2),Zn(2),Zn(2),Zn(2),Zn(2),Zn(2))"])
def test_relabelled_large_rings_are_found(text):
    R = construct(text)
    S = relabelled(R, R.order)
    assert_isomorphism(R, S, ring_isomorphic(R, S))


def test_corner_at_the_first_matrix_unit_is_the_base(default_corpus):
    # eEe = R for e = E11: the lemma that carries T11's corner half to the
    # "base not delta-reversible" halves of T19 and T21-T23
    _, members = default_corpus
    extensions = [m.ring for m in members if m.kind in
                  ("matrix", "triangular", "ks", "formal_triangular", "trivial_morita")]
    assert len(extensions) == 13 and len({R.digest for R in extensions}) == 9
    for R in extensions:
        dims, base = R.meta["dims"], R.meta["bases"][0]
        digits = list(decode_digits(R.zero, dims))
        digits[0] = base.one                         # slot 0 is the (1,1) entry
        corner = corner_ring(R, encode_digits(digits, dims)).ring
        assert_isomorphism(corner, base, ring_isomorphic(corner, base))
