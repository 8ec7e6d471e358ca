import hashlib
import itertools
import math

import numpy as np
import pytest

from ringlab import constructions, core
from ringlab.core import (
    DimensionMismatch, FiniteRing, NotCentralUnit, NotIdempotent, NotTwoSidedIdeal,
    ParseError, SizeCap, clear_shared_cache, dumps_ring, ideal_failure, idempotents_mask,
    loads_ring, mask_elems, mask_of, units_mask)
from ringlab.constructions import (
    BimoduleSpec, abelian_group_factorizations, construct, corner_ring, decode_digits,
    direct_product, encode_digits, enumerate_unital_rings, formal_triangular, hst_ring,
    is_two_sided_mask, ks_ring, lst_ring, make_zn, matrix_ring, mixed_radix_strides,
    parse_ring_expr, quotient_ring, ring_fingerprint, ring_isomorphic, self_bimodule,
    trivial_morita, two_sided_ideal_generated, upper_triangular_ring)
from ringlab.ideals import is_semiprime_ideal


def same_tables(R, S):
    return np.array_equal(R.np_add, S.np_add) and np.array_equal(R.np_mul, S.np_mul)


def test_make_zn_edge_cases():
    assert make_zn(1).order == 1
    assert mask_elems(units_mask(make_zn(4))) == (1, 3)
    Z3 = make_zn(3)
    assert mask_elems(units_mask(Z3)) == (1, 2)  # field


def test_make_zn_matches_list_built_tables():
    for k in range(1, 65):
        add = [[(i + j) % k for j in range(k)] for i in range(k)]
        mul = [[(i * j) % k for j in range(k)] for i in range(k)]
        want = FiniteRing(f"Z{k}", 0, 1 % k, add, mul, [str(i) for i in range(k)])
        R = make_zn(k)
        assert same_tables(R, want) and R.labels == want.labels and R.digest == want.digest


def test_make_zn_checks_the_size_cap_before_building(monkeypatch):
    monkeypatch.setattr(constructions, "_validated", None)   # never reached
    with pytest.raises(SizeCap, match=r"^Z4097: order 4097 exceeds size cap 4096$"):
        make_zn(core.SIZE_CAP + 1)
    monkeypatch.setattr(core, "SIZE_CAP", 100)
    for build in (lambda: make_zn(300), lambda: construct("Zn(300)")):
        with pytest.raises(SizeCap, match=r"^Z300: order 300 exceeds size cap 100$"):
            build()


def test_the_size_cap_binds_whether_or_not_a_cache_is_warm(monkeypatch):
    R = construct("M(2,Zn(3))")                 # order 81, its digest now validated
    text = dumps_ring(R)
    monkeypatch.setattr(core, "SIZE_CAP", 64)
    with pytest.raises(SizeCap, match=r"^M2\(Z3\): order 81 exceeds size cap 64$"):
        construct("M(2,Zn(3))")
    with pytest.raises(SizeCap):
        loads_ring(text)


def test_expression_builders_call_the_module_level_constructors(monkeypatch):
    # a tracer rebinds module attributes; a builder holding the function
    # object itself would bypass it
    called = []
    for name in ("matrix_ring", "make_zn"):
        original = getattr(constructions, name)
        monkeypatch.setattr(constructions, name,
                            lambda *a, _f=original, _n=name: called.append(_n) or _f(*a))
    construct("M(2,Zn(2))")
    assert called == ["make_zn", "matrix_ring"]


def test_direct_product_isomorphic_z6(zn):
    P = direct_product([zn[2], zn[3]])
    assert P.order == 6
    assert ring_isomorphic(P, zn[6]) is not None


def test_direct_product_single_factor_identity(zn):
    assert direct_product([zn[5]]) is zn[5]


def test_direct_product_z2z2_idempotents(zn):
    P = direct_product([zn[2], zn[2]])
    assert idempotents_mask(P).bit_count() == 4


def test_direct_product_size_cap(zn, monkeypatch):
    monkeypatch.setattr(core, "SIZE_CAP", 16)
    with pytest.raises(SizeCap, match=r"^Z9xZ9: order 81 exceeds size cap 16$"):
        direct_product([zn[9], zn[9]])


def test_matrix_ring_m2z3_order(m2z3):
    assert m2z3.order == 81


def test_matrix_ring_m1_identity(zn):
    assert matrix_ring(1, zn[4]) is zn[4]


def test_matrix_ring_m2z2_units(m2z2):
    assert m2z2.order == 16
    assert units_mask(m2z2).bit_count() == 6


def test_matrix_product_against_plain_matmul(m2z3, zn):
    # independent oracle: multiply 2x2 integer matrices mod 3
    Z3 = zn[3]
    dims = [3] * 4
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q = rng.integers(0, 81, size=2)
        a = np.array(decode_digits(int(p), dims)).reshape(2, 2)
        b = np.array(decode_digits(int(q), dims)).reshape(2, 2)
        c = (a @ b) % 3
        assert m2z3.np_mul[p, q] == encode_digits(c.ravel().tolist(), dims)


def test_triangular_t2z2(t2z2):
    assert t2z2.order == 8


def test_triangular_t1_identity(zn):
    assert upper_triangular_ring(1, zn[9]) is zn[9]


def test_triangular_t2z4_noncommutative(zn):
    T = upper_triangular_ring(2, zn[4])
    assert T.order == 64
    assert any(T.np_mul[a, b] != T.np_mul[b, a]
               for a in range(T.order) for b in range(T.order))


def test_corner_at_one_is_same_tables(t2z2):
    c = corner_ring(t2z2, t2z2.one)
    assert same_tables(c.ring, t2z2)
    assert c.embed == tuple(range(8))


def test_corner_at_zero_is_zero_ring(t2z2):
    c = corner_ring(t2z2, t2z2.zero)
    assert c.ring.order == 1


def test_corner_e11_m2z3_isomorphic_z3(m2z3, zn):
    e11 = 27  # entries (1,0,0,0)
    c = corner_ring(m2z3, e11)
    assert c.ring.order == 3
    assert ring_isomorphic(c.ring, zn[3]) is not None


def test_corner_embedding_is_homomorphism(m2z3):
    e = 27
    c = corner_ring(m2z3, e)
    emb = c.embed
    for a in c.ring.elements():
        for b in c.ring.elements():
            assert emb[c.ring.np_mul[a, b]] == m2z3.np_mul[emb[a], emb[b]]
            assert emb[c.ring.np_add[a, b]] == m2z3.np_add[emb[a], emb[b]]
    assert emb[c.ring.one] == e


def test_corner_requires_idempotent(zn):
    with pytest.raises(NotIdempotent):
        corner_ring(zn[4], 2)


OUT_OF_RANGE_EXPRS = [
    "Quot(Zn(4),gens=[-1])", "Quot(Zn(4),gens=[7])", "Quot(Zn(4),gens=[2,4])",
    "Ks(Zn(3),s=-1)", "Ks(Zn(3),s=3)", "Hst(Zn(4),s=-1,t=1)", "Hst(Zn(4),s=1,t=4)",
    "Lst(Zn(4),s=-3,t=1)", "Lst(Zn(4),s=1,t=-1)", "Corner(Zn(4),e=-1)", "Corner(Zn(4),e=4)",
]


@pytest.mark.parametrize("expr", OUT_OF_RANGE_EXPRS)
def test_out_of_range_element_parameter_rejected(expr):
    # numpy would read -1 as the last element and raise IndexError past it
    with pytest.raises(DimensionMismatch, match="is not an element of"):
        construct(expr)


def test_out_of_range_element_arguments_rejected(zn):
    Z3, Z4 = zn[3], zn[4]
    for build in (lambda: two_sided_ideal_generated(Z4, [-1]),
                  lambda: two_sided_ideal_generated(Z4, [1.0]),
                  lambda: corner_ring(Z4, -3),
                  lambda: ks_ring(Z3, -1),
                  lambda: hst_ring(Z4, 1, -1),
                  lambda: lst_ring(Z4, 4, 1)):
        with pytest.raises(DimensionMismatch):
            build()
    assert mask_elems(two_sided_ideal_generated(Z4, [np.int32(2)])) == (0, 2)


def test_quotient_by_zero_is_identity_tables(zn):
    Z4 = zn[4]
    q = quotient_ring(Z4, mask_of([0]))
    assert same_tables(q.ring, Z4)


def test_quotient_z4_mod_2_is_z2(zn):
    Z4 = zn[4]
    I = two_sided_ideal_generated(Z4, [2])
    q = quotient_ring(Z4, I)
    assert q.ring.order == 2
    assert ring_isomorphic(q.ring, zn[2]) is not None
    assert q.proj == (0, 1, 0, 1)


def test_quotient_by_whole_ring_is_zero_ring(zn):
    Z4 = zn[4]
    I = two_sided_ideal_generated(Z4, [1])
    assert quotient_ring(Z4, I).ring.order == 1


def test_quotient_requires_two_sided(t2z2):
    # {0, e12+e22} is a right ideal but not two-sided
    m = mask_of([0, 3])
    assert ideal_failure(t2z2, m, two_sided=False) is None
    with pytest.raises(NotTwoSidedIdeal):
        quotient_ring(t2z2, m)


@pytest.mark.parametrize("read", [is_two_sided_mask, is_semiprime_ideal, quotient_ring],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("m", [0b1000001, (1 << 8) | 1, -1])
def test_mask_readers_reject_masks_outside_the_ring(zn, read, m):
    # bit 6 of Z5's mask is past element 4 but inside the mask's byte, so an
    # unchecked read would drop it and read {0}; bit 8 does not fit the one
    # byte, nor does a negative mask fit any, so they would raise a bare
    # OverflowError
    with pytest.raises(DimensionMismatch,
                       match=rf"^ideal mask {m:#x} is not a subset of Z5 \(0\.\.4\)$"):
        read(zn[5], m)


def test_hst_order_and_identity(zn):
    H = hst_ring(zn[2], 1, 1)
    assert H.order == 8
    H4 = hst_ring(zn[4], 1, 3)
    assert H4.order == 64


def test_hst_requires_central_unit(zn):
    with pytest.raises(NotCentralUnit):
        hst_ring(zn[4], 2, 1)


def test_hst_diagonal_slice_embeds_base(zn):
    # c = e = 0 forces a = d = f: a copy of the base ring on the diagonal
    Z4 = zn[4]
    H = hst_ring(Z4, 1, 3)
    dims = [4, 4, 4]
    for x in range(4):
        for y in range(4):
            p = encode_digits([0, x, 0], dims)
            q = encode_digits([0, y, 0], dims)
            assert H.np_mul[p, q] == encode_digits([0, Z4.np_mul[x, y], 0], dims)
            assert H.np_add[p, q] == encode_digits([0, Z4.np_add[x, y], 0], dims)


def _m3_embed_h(R, s, t, p):
    add, mul = R.np_add.tolist(), R.np_mul.tolist()
    c, d, e = decode_digits(p, [R.order] * 3)
    a = add[d][mul[s][c]]
    f = int(R.np_add[d, R.neg[mul[t][e]]])
    z = R.zero
    return [[a, z, z], [c, d, e], [z, z, f]]


def _m3_embed_l(R, s, t, p):
    mul = R.np_mul.tolist()
    a, c, d, e, f = decode_digits(p, [R.order] * 5)
    z = R.zero
    return [[a, z, z], [mul[s][c], d, mul[t][e]], [z, z, f]]


def _m3_mul(R, X, Y):
    add, mul = R.np_add.tolist(), R.np_mul.tolist()
    out = [[R.zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = R.zero
            for k in range(3):
                acc = add[acc][mul[X[i][k]][Y[k][j]]]
            out[i][j] = acc
    return out


@pytest.mark.parametrize("k,s,t", [(2, 1, 1), (3, 1, 2), (4, 1, 3), (4, 3, 3)])
def test_hst_multiplication_matches_m3_oracle(k, s, t):
    R = make_zn(k)
    H = hst_ring(R, s, t)
    dims = [k] * 3
    for p in range(H.order):
        for q in range(H.order):
            prod = _m3_mul(R, _m3_embed_h(R, s, t, p), _m3_embed_h(R, s, t, q))
            assert _m3_embed_h(R, s, t, int(H.np_mul[p, q])) == prod


@pytest.mark.parametrize("k,s,t", [(2, 1, 1), (3, 2, 2)])
def test_lst_multiplication_matches_m3_oracle(k, s, t):
    R = make_zn(k)
    L = lst_ring(R, s, t)
    for p in range(L.order):
        for q in range(L.order):
            prod = _m3_mul(R, _m3_embed_l(R, s, t, p), _m3_embed_l(R, s, t, q))
            assert _m3_embed_l(R, s, t, int(L.np_mul[p, q])) == prod


def test_lst_z4_oracle_on_all_pairs_vectorized(zn):
    # all 1024^2 pairs against a full 3x3 matrix-product oracle
    R = zn[4]
    s, t = 1, 3
    L = lst_ring(R, s, t)
    assert L.order == 1024
    A, M = R.np_add, R.np_mul
    emb = np.array([np.array(_m3_embed_l(R, s, t, p)).ravel() for p in range(L.order)])
    P = L.np_mul
    for i in range(3):
        for j in range(3):
            acc = None
            for k3 in range(3):
                term = M[emb[:, 3 * i + k3][:, None], emb[:, 3 * k3 + j][None, :]]
                acc = term if acc is None else A[acc, term]
            assert np.array_equal(emb[P][:, :, 3 * i + j], acc)


def test_lst_order_and_diagonal_slice(zn):
    L = lst_ring(zn[2], 1, 1)
    assert L.order == 32
    dims = [2] * 5
    # diagonal slice c = e = 0 is a copy of Z2^3
    for xs in range(2):
        p = encode_digits([xs, 0, xs, 0, xs], dims)
        assert L.np_mul[p, p] == p  # idempotent diagonal over Z2


def test_lst_size_cap(zn, monkeypatch):
    monkeypatch.setattr(core, "SIZE_CAP", 512)
    with pytest.raises(SizeCap, match=r"order 1024 exceeds size cap 512"):
        lst_ring(zn[4], 1, 1)


def test_k1_isomorphic_to_m2(zn, m2z2):
    K1 = ks_ring(zn[2], 1)
    assert ring_isomorphic(K1, m2z2) is not None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_k1_tables_equal_m2_tables(k):
    # with s = 1 the twisted product formula is the 2x2 matrix product, and
    # the (a, x, y, b) encoding is exactly row-major, so tables coincide
    R = make_zn(k)
    K1 = ks_ring(R, 1)
    M2 = matrix_ring(2, R)
    assert same_tables(K1, M2)
    assert K1.zero == M2.zero and K1.one == M2.one


def test_k0_cross_term_vanishes(k0z2):
    # [[0,1],[0,0]] . [[0,0],[1,0]] = 0 when s = 0
    dims = [2] * 4
    p = encode_digits([0, 1, 0, 0], dims)
    q = encode_digits([0, 0, 1, 0], dims)
    assert k0z2.np_mul[p, q] == k0z2.zero


def test_k0_z4_order(k0z4):
    assert k0z4.order == 256


def test_formal_triangular_default_equals_t2(zn, t2z2):
    FT = formal_triangular(zn[2], zn[2])
    assert same_tables(FT, t2z2)


def test_trivial_morita_off_diagonal_squares_to_zero(zn):
    TM = trivial_morita(zn[2], zn[2])
    dims = TM.meta["dims"]
    for m in range(2):
        for n in range(2):
            p = encode_digits([0, m, n, 0], dims)
            assert TM.np_mul[p, p] == TM.zero


def test_trivial_morita_with_zero_bimodules_is_product(zn):
    zero_mod = BimoduleSpec(((0,),), 0, tuple((0,) for _ in range(2)),
                            ((0, 0),))
    TM = trivial_morita(zn[2], zn[2], zero_mod, zero_mod)
    P = direct_product([zn[2], zn[2]])
    assert ring_isomorphic(TM, P) is not None


def _zero_bimodule_morita():
    Z2, Z3 = make_zn(2), make_zn(3)
    M = BimoduleSpec(((0,),), 0, ((0,),) * 2, ((0,) * 3,))
    N = BimoduleSpec(((0,),), 0, ((0,),) * 3, ((0,) * 2,))
    return trivial_morita(Z2, Z3, M, N)


# sha256 of dumps_ring for one small ring of each extension family: locks the
# element order, both tables and the labels
FAMILY_DUMPS = [
    ("Prod(Zn(2),Zn(3),Zn(2))", "14975b40d94e3b79662cf00250487ade0f98512a4abdba2096f705ac3c75db7d"),
    ("M(2,Zn(2))", "8de78ab0c8f4c91376294ea85e2bd8113c05e9ef24ca01d30918a80ba6589fa9"),
    ("T(3,Zn(2))", "992fda33b54a0e7e0b474ffbd883a71c2d98617b664b413a188aa5e08dd17627"),
    ("Hst(Zn(3),s=1,t=2)", "c145f76287c1f97267b986053f7c55debf39dce2ee9e9e0beefaebd427ae78cd"),
    ("Lst(Zn(3),s=2,t=1)", "21f4833fb5b08a48e4b149589eb01d86f68890d9862279ebee1c85fa675b3928"),
    ("Ks(Zn(3),s=2)", "70974c8a5249cfa3adec37dd315710d256d083215545ffd6d9f55430175fddfd"),
    ("K0(Zn(2))", "2de5ca48e0d6fb6c4537cde663e6d8247bdff603b4b6e95d3bd979cb67bdb317"),
    ("Tri(Zn(2),Zn(2))", "0dfca65cbcfa2ff471b2e930ac06c572e6612cd98178c43b4880f48ea46f596e"),
    ("Morita(Zn(2),Zn(2))", "10621bb0efd0e8114f61f674b062ecf9de4479e0ea5dc1da4c130d381d8a6748"),
    ("zero-bimodule Morita(Z2,Z3)",
     "ec03ed8f1e82202854b14d4e0e11d2f238b1e430a86f0f75014b35d64fc4d954"),
]


@pytest.mark.parametrize("what,digest", FAMILY_DUMPS, ids=[w for w, _ in FAMILY_DUMPS])
def test_family_dump_bytes_locked(what, digest):
    R = _zero_bimodule_morita() if what.startswith("zero-bimodule") else construct(what)
    assert hashlib.sha256(dumps_ring(R).encode()).hexdigest() == digest


def test_self_bimodule_validates(zn):
    spec = self_bimodule(zn[4])
    assert spec.size == 4


@pytest.mark.parametrize("order,count", [(1, 1), (2, 1), (3, 1), (4, 4),
                                         (5, 1), (6, 1), (7, 1)])
def test_enumeration_counts(order, count):
    rings = list(enumerate_unital_rings(order, up_to_iso=True))
    assert len(rings) == count


def test_enumeration_order4_profiles(zn):
    rings = list(enumerate_unital_rings(4, up_to_iso=True))
    # Z4, Z2[x]/(x^2), F4, Z2 x Z2 distinguished by unit/idempotent counts
    profiles = sorted((units_mask(R).bit_count(), idempotents_mask(R).bit_count())
                      for R in rings)
    assert profiles == [(1, 4), (2, 2), (2, 2), (3, 2)]
    assert any(ring_isomorphic(R, zn[4]) for R in rings)


def test_enumeration_pairwise_non_isomorphic():
    rings = list(enumerate_unital_rings(8, up_to_iso=True))
    for i, a in enumerate(rings):
        for b in rings[i + 1:]:
            assert ring_isomorphic(a, b) is None


def test_enumeration_order8_contains_t2z2(t2z2):
    rings = list(enumerate_unital_rings(8, up_to_iso=True))
    assert any(ring_isomorphic(R, t2z2) is not None for R in rings)


def test_enumeration_cap():
    with pytest.raises(SizeCap):
        list(enumerate_unital_rings(9))


def test_ring_isomorphic_negative(zn):
    rings = list(enumerate_unital_rings(4, up_to_iso=True))
    others = [R for R in rings if ring_isomorphic(R, zn[4]) is None]
    assert len(others) == 3


def test_enumeration_errors_are_raised_on_iteration():
    for order, error in ((9, SizeCap), (0, DimensionMismatch)):
        rings = enumerate_unital_rings(order)
        with pytest.raises(error):
            next(rings)


def _prime_power_factorizations(order):
    """The former enumeration of invariant-factor chains, through the prime
    factorization and the partitions of each exponent; kept as the oracle."""
    if order == 1:
        return [(1,)]
    factors = {}
    rem = order
    p = 2
    while p * p <= rem:
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
        p += 1
    if rem > 1:
        factors[rem] = factors.get(rem, 0) + 1

    def partitions(k, maxpart):
        if k == 0:
            return [()]
        return [(first,) + rest for first in range(min(k, maxpart), 0, -1)
                for rest in partitions(k - first, first)]

    primes = sorted(factors)
    groups = []
    for combo in itertools.product(*(partitions(factors[p], factors[p]) for p in primes)):
        depth = max(len(lam) for lam in combo)
        groups.append(tuple(math.prod(p ** lam[i] for p, lam in zip(primes, combo) if i < len(lam))
                            for i in range(depth)))
    return sorted(groups, reverse=True)


def test_abelian_group_factorizations_match_prime_power_oracle():
    for order in range(1, 400):
        assert abelian_group_factorizations(order) == _prime_power_factorizations(order), order
    assert abelian_group_factorizations(1) == [(1,)]
    assert abelian_group_factorizations(16) == [(16,), (8, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2)]


# ---------------------------------------------------------------------------
# the scalar enumeration, kept as the oracle of the batched bilinear build

def _group_tables(dims):
    n = math.prod(dims)
    strides = mixed_radix_strides(dims)
    add = [[0] * n for _ in range(n)]
    for i in range(n):
        di = decode_digits(i, dims)
        for j in range(n):
            dj = decode_digits(j, dims)
            add[i][j] = sum(((a + b) % d) * s for a, b, d, s in zip(di, dj, dims, strides))
    return add


def _scalar_multiples(add, n, exponent):
    # smul[c][x] = c.x in the additive group, for 0 <= c <= exponent
    smul = [[0] * n]
    for c in range(1, exponent + 1):
        prev = smul[-1]
        smul.append([add[prev[x]][x] for x in range(n)])
    return smul


def _scalar_enumeration(order):
    """(name, zero, one, add, mul) of every candidate that passes the
    generator-triple test, built one bilinear product at a time."""
    if order == 1:
        return [("R1_0", 0, 0, [[0]], [[0]])]
    out = []
    for dims in abelian_group_factorizations(order):
        n = math.prod(dims)
        add = _group_tables(dims)
        exponent = dims[0]
        smul = _scalar_multiples(add, n, exponent)
        addorder = [next(c for c in range(1, exponent + 1) if smul[c][x] == 0)
                    for x in range(n)]
        gens = mixed_radix_strides(dims)
        m = len(gens)
        digits = [decode_digits(x, dims) for x in range(n)]
        free = [(i, j) for i in range(1, m) for j in range(1, m)]
        cand = {(i, j): [x for x in range(n) if math.gcd(dims[i], dims[j]) % addorder[x] == 0]
                for (i, j) in free}

        def bilinear(prods, x, y):
            acc = 0
            for i in range(m):
                for j in range(m):
                    if digits[x][i] and digits[y][j]:
                        p = prods[i][j]
                        acc = add[acc][smul[(digits[x][i] * digits[y][j]) % addorder[p]][p]]
            return acc

        for values in itertools.product(*(cand[f] for f in free)):
            assign = dict(zip(free, values))
            prods = [[gens[j] if i == 0 else gens[i] if j == 0 else assign[(i, j)]
                      for j in range(m)] for i in range(m)]
            if any(bilinear(prods, prods[i][j], gens[k]) != bilinear(prods, gens[i], prods[j][k])
                   for i in range(m) for j in range(m) for k in range(m)):
                continue
            mul = [[bilinear(prods, x, y) for y in range(n)] for x in range(n)]
            out.append((f"R{order}_{len(out)}", 0, gens[0], add, mul))
    return out


def _brute_isomorphic(R, S):
    """Whether some bijection with 0 -> 0 and 1 -> 1 carries both tables of
    R onto those of S, by trying all of them."""
    rest = [x for x in R.elements() if x not in (R.zero, R.one)]
    images = [y for y in S.elements() if y not in (S.zero, S.one)]
    phi = np.empty((math.factorial(len(rest)), R.order), dtype=np.intp)
    phi[:, R.zero], phi[:, R.one] = S.zero, S.one
    phi[:, rest] = list(itertools.permutations(images))
    rows, cols = phi[:, :, None], phi[:, None, :]
    return bool(((phi[:, R.np_add] == S.np_add[rows, cols])
                 & (phi[:, R.np_mul] == S.np_mul[rows, cols])).all(axis=(1, 2)).any())


@pytest.mark.parametrize("order", range(1, 9))
def test_enumeration_matches_scalar_oracle(order):
    want = _scalar_enumeration(order)
    got = list(enumerate_unital_rings(order, up_to_iso=False))
    assert [(R.name, R.zero, R.one, R.np_add.tolist(), R.np_mul.tolist()) for R in got] == want
    kept = []
    for R in got:
        if not any(_brute_isomorphic(R, S) for S in kept):
            kept.append(R)
    assert [R.name for R in enumerate_unital_rings(order)] == [R.name for R in kept]


def test_relabelled_order8_rings_match_their_originals():
    rng = np.random.default_rng(8)
    for R in enumerate_unital_rings(8, up_to_iso=False):
        p = rng.permutation(R.order)             # element x of R is p[x] of S
        add, mul = np.empty_like(R.np_add), np.empty_like(R.np_mul)
        add[p[:, None], p] = p[R.np_add]
        mul[p[:, None], p] = p[R.np_mul]
        S = FiniteRing(R.name + "'", int(p[R.zero]), int(p[R.one]), add, mul)
        assert ring_fingerprint(S)[0] == ring_fingerprint(R)[0], R.name
        phi = np.array(ring_isomorphic(R, S))
        assert sorted(phi) == list(R.elements()) and phi[R.one] == S.one, R.name
        assert np.array_equal(phi[R.np_add], S.np_add[phi[:, None], phi]), R.name
        assert np.array_equal(phi[R.np_mul], S.np_mul[phi[:, None], phi]), R.name


def test_enumeration_fingerprints_each_table_once(monkeypatch):
    monkeypatch.setattr(core, "_SHARED_CACHE", {})
    computed = []
    rows_of = constructions._invariant_rows
    monkeypatch.setattr(constructions, "_invariant_rows",
                        lambda R: computed.append(R.digest) or rows_of(R))
    list(enumerate_unital_rings(8))
    tables = {R.digest for R in enumerate_unital_rings(8, up_to_iso=False)}
    assert sorted(computed) == sorted(tables)


def test_validation_runs_once_per_digest_until_cache_cleared(monkeypatch):
    monkeypatch.setattr(core, "_SHARED_CACHE", {})
    checked = []
    check = constructions.check_ring_axioms
    monkeypatch.setattr(constructions, "check_ring_axioms",
                        lambda R: checked.append(R.name) or check(R))
    make_zn(6)
    make_zn(6)
    assert checked == ["Z6"]
    clear_shared_cache()
    make_zn(6)
    assert checked == ["Z6", "Z6"]


def test_parser_whitespace_insensitive():
    a = parse_ring_expr("M(2,Zn(3))")
    b = parse_ring_expr("  M ( 2 , Zn ( 3 ) ) ")
    assert a.unparse() == b.unparse()


def test_parser_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_ring_expr("M(2,")
    assert exc.value.position >= 0
    with pytest.raises(ParseError):
        parse_ring_expr("Zn(4) trailing")
    with pytest.raises(ParseError):
        construct("Wat(3)")
    with pytest.raises(ParseError):
        construct("Corner(Zn(4))")  # missing e=


def test_construct_expressions(zn, m2z3):
    assert construct("Zn(1)").order == 1
    assert construct("M(2,Zn(3))").order == 81
    assert construct("Hst(Zn(4),s=1,t=3)").order == 64
    assert construct("T(2,Zn(4))").order == 64
    assert construct("Prod(Zn(2),Zn(3))").order == 6
    assert construct("K0(Zn(4))").order == 256
    assert construct("Ks(Zn(2),s=1)").order == 16
    assert construct("Tri(Zn(2),Zn(2))").order == 8
    corner = construct("Corner(M(2,Zn(3)),e=27)")
    assert corner.order == 3
    quot = construct("Quot(Zn(4),gens=[2])")
    assert quot.order == 2


def test_construct_file_round_trip(tmp_path, zn):
    from ringlab.core import dumps_ring
    path = tmp_path / "r.json"
    path.write_text(dumps_ring(zn[6]))
    R = construct(f'File("{path}")')
    assert R.order == 6 and np.array_equal(R.np_add, zn[6].np_add)
