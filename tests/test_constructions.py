import numpy as np
import pytest

from ringlab.core import (
    DimensionMismatch, NotCentralUnit, NotIdempotent, NotTwoSidedIdeal, ParseError,
    SizeCap, idempotents, units, element_set)
from ringlab.constructions import (
    BimoduleSpec, construct, corner_ring, decode_digits, direct_product,
    encode_digits, enumerate_unital_rings, formal_triangular, hst_ring,
    ks_ring, lst_ring, make_zn, matrix_ring, parse_ring_expr, quotient_ring,
    ring_isomorphic, self_bimodule, trivial_morita, two_sided_ideal_generated,
    upper_triangular_ring)


def test_make_zn_edge_cases():
    assert make_zn(1).order == 1
    assert units(make_zn(4)).elems == (1, 3)
    Z3 = make_zn(3)
    assert units(Z3).elems == (1, 2)  # field


def test_direct_product_isomorphic_z6(zn):
    P = direct_product([zn[2], zn[3]])
    assert P.order == 6
    assert ring_isomorphic(P, zn[6]) is not None


def test_direct_product_single_factor_identity(zn):
    assert direct_product([zn[5]]) is zn[5]


def test_direct_product_z2z2_idempotents(zn):
    P = direct_product([zn[2], zn[2]])
    assert len(idempotents(P)) == 4


def test_direct_product_size_cap(zn):
    with pytest.raises(SizeCap):
        direct_product([zn[9], zn[9]], size_cap=16)


def test_matrix_ring_m2z3_order(m2z3):
    assert m2z3.order == 81


def test_matrix_ring_m1_identity(zn):
    assert matrix_ring(1, zn[4]) is zn[4]


def test_matrix_ring_m2z2_units(m2z2):
    assert m2z2.order == 16
    assert len(units(m2z2)) == 6


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
        assert m2z3.mul[p][q] == encode_digits(c.ravel().tolist(), dims)


def test_triangular_t2z2(t2z2):
    assert t2z2.order == 8


def test_triangular_t1_identity(zn):
    assert upper_triangular_ring(1, zn[9]) is zn[9]


def test_triangular_t2z4_noncommutative(zn):
    T = upper_triangular_ring(2, zn[4])
    assert T.order == 64
    assert any(T.mul[a][b] != T.mul[b][a]
               for a in range(T.order) for b in range(T.order))


def test_corner_at_one_is_same_tables(t2z2):
    c = corner_ring(t2z2, t2z2.one)
    assert c.ring.add == t2z2.add and c.ring.mul == t2z2.mul
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
            assert emb[c.ring.mul[a][b]] == m2z3.mul[emb[a]][emb[b]]
            assert emb[c.ring.add[a][b]] == m2z3.add[emb[a]][emb[b]]
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
    assert two_sided_ideal_generated(Z4, [np.int32(2)]).elems == (0, 2)


def test_quotient_by_zero_is_identity_tables(zn):
    Z4 = zn[4]
    q = quotient_ring(Z4, element_set(Z4, [0], kind="two-sided-ideal"))
    assert q.ring.add == Z4.add and q.ring.mul == Z4.mul


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
    with pytest.raises(NotTwoSidedIdeal):
        quotient_ring(t2z2, element_set(t2z2, [0, 3], kind="right-ideal"))


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
            assert H.mul[p][q] == encode_digits([0, Z4.mul[x][y], 0], dims)
            assert H.add[p][q] == encode_digits([0, Z4.add[x][y], 0], dims)


def _m3_embed_h(R, s, t, p):
    c, d, e = decode_digits(p, [R.order] * 3)
    a = R.add[d][R.mul[s][c]]
    f = R.sub(d, R.mul[t][e])
    z = R.zero
    return [[a, z, z], [c, d, e], [z, z, f]]


def _m3_embed_l(R, s, t, p):
    a, c, d, e, f = decode_digits(p, [R.order] * 5)
    z = R.zero
    return [[a, z, z], [R.mul[s][c], d, R.mul[t][e]], [z, z, f]]


def _m3_mul(R, X, Y):
    out = [[R.zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = R.zero
            for k in range(3):
                acc = R.add[acc][R.mul[X[i][k]][Y[k][j]]]
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
            assert _m3_embed_h(R, s, t, H.mul[p][q]) == prod


@pytest.mark.parametrize("k,s,t", [(2, 1, 1), (3, 2, 2)])
def test_lst_multiplication_matches_m3_oracle(k, s, t):
    R = make_zn(k)
    L = lst_ring(R, s, t)
    for p in range(L.order):
        for q in range(L.order):
            prod = _m3_mul(R, _m3_embed_l(R, s, t, p), _m3_embed_l(R, s, t, q))
            assert _m3_embed_l(R, s, t, L.mul[p][q]) == prod


def test_lst_z4_oracle_on_all_pairs_vectorized(zn):
    # all 1024^2 pairs against a full 3x3 matrix-product oracle
    R = zn[4]
    s, t = 1, 3
    L = lst_ring(R, s, t)
    assert L.order == 1024
    A, M = R.np_add, R.np_mul
    emb = np.array([np.array(_m3_embed_l(R, s, t, p)).ravel() for p in range(L.order)])
    P = np.asarray(L.mul)
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
        assert L.mul[p][p] == p  # idempotent diagonal over Z2


def test_lst_size_cap(zn):
    with pytest.raises(SizeCap):
        lst_ring(zn[4], 1, 1, size_cap=512)


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
    assert K1.add == M2.add and K1.mul == M2.mul
    assert K1.zero == M2.zero and K1.one == M2.one


def test_k0_cross_term_vanishes(k0z2):
    # [[0,1],[0,0]] . [[0,0],[1,0]] = 0 when s = 0
    dims = [2] * 4
    p = encode_digits([0, 1, 0, 0], dims)
    q = encode_digits([0, 0, 1, 0], dims)
    assert k0z2.mul[p][q] == k0z2.zero


def test_k0_z4_order(k0z4):
    assert k0z4.order == 256


def test_formal_triangular_default_equals_t2(zn, t2z2):
    FT = formal_triangular(zn[2], zn[2])
    assert FT.add == t2z2.add and FT.mul == t2z2.mul


def test_trivial_morita_off_diagonal_squares_to_zero(zn):
    TM = trivial_morita(zn[2], zn[2])
    dims = TM.meta["dims"]
    for m in range(2):
        for n in range(2):
            p = encode_digits([0, m, n, 0], dims)
            assert TM.mul[p][p] == TM.zero


def test_trivial_morita_with_zero_bimodules_is_product(zn):
    zero_mod = BimoduleSpec(((0,),), 0, tuple((0,) for _ in range(2)),
                            ((0, 0),))
    TM = trivial_morita(zn[2], zn[2], zero_mod, zero_mod)
    P = direct_product([zn[2], zn[2]])
    assert ring_isomorphic(TM, P) is not None


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
    profiles = sorted((len(units(R)), len(idempotents(R))) for R in rings)
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
    assert R.order == 6 and R.add == zn[6].add
