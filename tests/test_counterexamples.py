"""The three false claims behind the by-design failures, derived by hand.

Each expected set is read off the elements' matrix labels, not computed by
ringlab's radical functions; `zhou_radical_mask` must equal it.  Over these
rings delta(R) is the intersection of the essential maximal right ideals, and
a maximal right ideal is essential iff it contains the socle.
"""
import json

from ringlab.core import mask_elems
from ringlab.constructions import corner_ring, ks_ring, lst_ring, make_zn, upper_triangular_ring
from ringlab.ideals import zhou_radical_mask


def _mask(R, keep):
    """The elements whose label, read as a matrix of ints, satisfies keep."""
    return sum(1 << x for x in R.elements() if keep(json.loads(R.label(x))))


def test_t2_z2_delta_is_the_zero_first_column_block():
    # T2(Z2) = [[a,b],[0,c]].  The minimal right ideals are E12 R = [[0,b],[0,0]]
    # and E22 R = [[0,0],[0,c]], so Soc = {a = 0}.  The maximal right ideals are
    # {a = 0} (the socle, essential) and {c = 0} (misses E22 R), so
    # delta = {a = 0}: the 4 elements [[0,b],[0,c]].
    T = upper_triangular_ring(2, make_zn(2))
    delta = _mask(T, lambda m: m[0][0] == 0)
    assert delta.bit_count() == 4
    assert zhou_radical_mask(T) == delta


def test_t2_z2_corner_at_e11_breaks_the_corner_formula():
    # e = E11: eRe = [[a,0],[0,0]] is a copy of the field Z2, so delta(eRe) is
    # all of it; e [[0,b],[0,c]] e = 0, so e delta(R) e = {0}.
    T = upper_triangular_ring(2, make_zn(2))
    [e] = [x for x in T.elements() if json.loads(T.label(x)) == [[1, 0], [0, 0]]]
    corner = corner_ring(T, e).ring
    assert corner.order == 2
    assert zhou_radical_mask(corner) == corner.full_mask()
    delta = mask_elems(_mask(T, lambda m: m[0][0] == 0))
    assert {int(T.np_mul[T.np_mul[e, x], e]) for x in delta} == {T.zero}


def test_l_shape_over_z3_delta_is_the_d_zero_slice():
    # L_(1,1)(Z3) = [[a,0,0],[c,d,e],[0,0,f]].  The minimal right ideals are the
    # a-, c-, e- and f-slots (E22 R holds the c- and e-slots too), so
    # Soc = {d = 0}.  The maximal right ideals are {a = 0}, {d = 0}, {f = 0};
    # only {d = 0} contains the socle, so delta is the 81-element d = 0 slice.
    # The claimed shape (a, d, f in delta(Z3) = Z3) is all 243 elements.
    L = lst_ring(make_zn(3), 1, 1)
    delta = _mask(L, lambda m: m[1][1] == 0)
    shape = _mask(L, lambda m: True)
    assert (delta.bit_count(), shape.bit_count()) == (81, 243)
    assert zhou_radical_mask(L) == delta


def test_k0_z2_delta_is_the_zero_diagonal():
    # K0(Z2) = [[a,x],[y,b]] with xy = yx = 0.  The minimal right ideals are
    # the x- and y-slots (E11 R and E22 R hold one of them), so
    # Soc = {a = b = 0}.  Both maximal right ideals {a = 0} and {b = 0} contain
    # it, so delta is the 4 zero-diagonal elements.  The claimed shape
    # (a, b in delta(Z2) = Z2) is all 16 elements.
    K = ks_ring(make_zn(2), 0)
    delta = _mask(K, lambda m: m[0][0] == m[1][1] == 0)
    shape = _mask(K, lambda m: True)
    assert (delta.bit_count(), shape.bit_count()) == (4, 16)
    assert zhou_radical_mask(K) == delta
