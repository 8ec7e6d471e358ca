"""Constructors for every ring extension used by the suite.

Composite elements are encoded mixed-radix over component indices, most
significant digit first, so encodings are stable across runs and documented
by the labels.  Tables are built with vectorized gathers; every constructor
ends in exact axiom validation.

Extensions record their base rings in `meta["bases"]`.  Those whose radical
has a claimed digit-wise shape also record `dims`, `delta_digits` (digit s
must lie in delta of `bases[delta_digits[s]]`; None leaves it free) and
`delta_relation`: "eq" when delta is claimed to equal that set, "subset" when
it is claimed to lie inside it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    SIZE_CAP, BimoduleAxiomViolation, ClosureViolation, DimensionMismatch,
    ElementSet, FiniteRing, NotCentral, NotCentralUnit, NotIdempotent,
    NotTwoSidedIdeal, ParseError, SizeCap, additive_span, check_ring_axioms,
    coset_labels, element_indices, element_set_from_mask, ideal_failure,
    is_central, loads_ring, mask_from_bool, nilpotents_mask, idempotents_mask,
    units_mask,
)

_VALIDATED: set[str] = set()


def _validated(name, zero, one, add, mul, labels=None, meta=None,
               size_cap: int = SIZE_CAP) -> FiniteRing:
    """Axiom validation with a digest shortcut for tables already proven valid.

    add and mul may be integer arrays; FiniteRing stores them as int32."""
    if len(add) > size_cap:
        raise SizeCap(f"order {len(add)} exceeds size cap {size_cap}")
    R = FiniteRing(name, zero, one, add, mul, labels, meta)
    if R.digest not in _VALIDATED:
        check_ring_axioms(R)
        _VALIDATED.add(R.digest)
    return R


# ---------------------------------------------------------------------------
# mixed-radix encoding helpers

def mixed_radix_strides(dims: Sequence[int]) -> list[int]:
    strides = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    return strides


def encode_digits(digits: Sequence[int], dims: Sequence[int]) -> int:
    strides = mixed_radix_strides(dims)
    return sum(d * s for d, s in zip(digits, strides))


def decode_digits(idx: int, dims: Sequence[int]) -> tuple[int, ...]:
    out = []
    for s in mixed_radix_strides(dims):
        out.append(idx // s)
        idx %= s
    return tuple(out)


def _digit_grids(dims: Sequence[int]) -> tuple[int, list[np.ndarray]]:
    """Per-slot digit vectors for all N mixed-radix indices."""
    N = math.prod(dims)
    rem = np.arange(N, dtype=np.int64)
    digs = []
    for s in mixed_radix_strides(dims):
        digs.append(rem // s)
        rem = rem % s
    return N, digs


def _pair(table: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outer gather: result[p, q] = table[u[p], v[q]]."""
    return table[u].take(v, axis=1)   # two 1-d gathers, C-ordered, beat one 2-d gather


def _encode_slots(slot_tables: Iterable[np.ndarray], dims: Sequence[int]) -> np.ndarray:
    """The mixed-radix table of per-slot digit tables, taken one at a time:
    given a generator, only one slot table is alive at once."""
    N = math.prod(dims)
    acc = np.zeros((N, N), dtype=np.int32)  # the table dtype of FiniteRing
    for t, s in zip(slot_tables, mixed_radix_strides(dims)):
        acc += t * s
    return acc


def _sum_of_products(A: np.ndarray, M: np.ndarray, pairs) -> np.ndarray:
    """Slot table of sum_t u_t v_t over digit-vector pairs (u_t, v_t)."""
    acc = None
    for u, v in pairs:
        term = _pair(M, u, v)
        acc = term if acc is None else A[acc, term]
    return acc


def _check_size(order: int, size_cap: int, what: str) -> None:
    if order > size_cap:
        raise SizeCap(f"{what} would have order {order} > size cap {size_cap}")


# ---------------------------------------------------------------------------
# basic constructions

def make_zn(k: int) -> FiniteRing:
    """The ring of integers modulo k (the zero ring for k = 1)."""
    if k < 1:
        raise DimensionMismatch("k must be >= 1")
    add = [[(i + j) % k for j in range(k)] for i in range(k)]
    mul = [[(i * j) % k for j in range(k)] for i in range(k)]
    one = 1 % k
    return _validated(f"Z{k}", 0, one, add, mul,
                      labels=[str(i) for i in range(k)],
                      meta={"kind": "zn", "k": k})


def direct_product(parts: Sequence[FiniteRing], size_cap: int = SIZE_CAP) -> FiniteRing:
    """Componentwise product; element index encodes the component tuple."""
    if not parts:
        raise DimensionMismatch("need at least one factor")
    if len(parts) == 1:
        return parts[0]
    dims = [R.order for R in parts]
    order = math.prod(dims)
    _check_size(order, size_cap, "direct product")
    N, digs = _digit_grids(dims)
    add = _encode_slots((_pair(R.np_add, d, d) for R, d in zip(parts, digs)), dims)
    mul = _encode_slots((_pair(R.np_mul, d, d) for R, d in zip(parts, digs)), dims)
    zero = encode_digits([R.zero for R in parts], dims)
    one = encode_digits([R.one for R in parts], dims)
    labels = ["(" + ",".join(R.label(d) for R, d in zip(parts, combo)) + ")"
              for combo in (decode_digits(i, dims) for i in range(order))]
    name = "x".join(R.name for R in parts)
    return _validated(name, zero, one, add, mul, labels,
                      meta={"kind": "product", "bases": tuple(parts), "dims": dims,
                            "delta_digits": tuple(range(len(parts))), "delta_relation": "eq"},
                      size_cap=size_cap)


def _matrix_label(entries, base: FiniteRing, n: int) -> str:
    rows = []
    for i in range(n):
        rows.append("[" + ",".join(base.label(entries[i * n + j]) for j in range(n)) + "]")
    return "[" + ",".join(rows) + "]"


def matrix_ring(n: int, R: FiniteRing, size_cap: int = SIZE_CAP) -> FiniteRing:
    """Full n x n matrix ring; entries are encoded row-major."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    if n == 1:
        return R
    k = R.order
    order = k ** (n * n)
    _check_size(order, size_cap, f"M{n}({R.name})")
    dims = [k] * (n * n)
    N, digs = _digit_grids(dims)
    A, M = R.np_add, R.np_mul
    add = _encode_slots((_pair(A, d, d) for d in digs), dims)
    mul = _encode_slots((_sum_of_products(A, M, ((digs[i * n + t], digs[t * n + j])
                                                 for t in range(n)))
                         for i in range(n) for j in range(n)), dims)
    zero = encode_digits([R.zero] * (n * n), dims)
    one = encode_digits([R.one if i == j else R.zero for i in range(n) for j in range(n)], dims)
    labels = [_matrix_label(decode_digits(p, dims), R, n) for p in range(order)]
    return _validated(f"M{n}({R.name})", zero, one, add, mul, labels,
                      meta={"kind": "matrix", "n": n, "bases": (R,), "dims": dims,
                            "delta_digits": (0,) * (n * n), "delta_relation": "eq"},
                      size_cap=size_cap)


def upper_triangular_ring(n: int, R: FiniteRing, size_cap: int = SIZE_CAP) -> FiniteRing:
    """Upper triangular n x n matrices; free slots are (i, j) with i <= j, row-major."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    if n == 1:
        return R
    k = R.order
    positions = [(i, j) for i in range(n) for j in range(n) if i <= j]
    order = k ** len(positions)
    _check_size(order, size_cap, f"T{n}({R.name})")
    dims = [k] * len(positions)
    slot = {pos: s for s, pos in enumerate(positions)}
    N, digs = _digit_grids(dims)
    A, M = R.np_add, R.np_mul
    add = _encode_slots((_pair(A, d, d) for d in digs), dims)
    mul = _encode_slots((_sum_of_products(A, M, ((digs[slot[(i, t)]], digs[slot[(t, j)]])
                                                 for t in range(i, j + 1)))
                         for (i, j) in positions), dims)
    zero = encode_digits([R.zero] * len(positions), dims)
    one = encode_digits([R.one if i == j else R.zero for (i, j) in positions], dims)

    def tri_label(p):
        d = decode_digits(p, dims)
        full = [[R.label(d[slot[(i, j)]]) if i <= j else R.label(R.zero)
                 for j in range(n)] for i in range(n)]
        return "[" + ",".join("[" + ",".join(row) + "]" for row in full) + "]"

    labels = [tri_label(p) for p in range(order)]
    return _validated(f"T{n}({R.name})", zero, one, add, mul, labels,
                      meta={"kind": "triangular", "n": n, "bases": (R,), "dims": dims,
                            "delta_digits": tuple(0 if i == j else None for i, j in positions),
                            "delta_relation": "subset"}, size_cap=size_cap)


@dataclass(frozen=True)
class CornerRing:
    ring: FiniteRing
    embed: tuple[int, ...]  # corner index -> parent element


def _subtables(R: FiniteRing, elems: np.ndarray, index: np.ndarray):
    """R's tables restricted to the rows and columns `elems`, with every
    entry renamed by `index` (parent element -> new element)."""
    grid = np.ix_(elems, elems)
    return index[R.np_add[grid]], index[R.np_mul[grid]]


def corner_ring(R: FiniteRing, e: int, size_cap: int = SIZE_CAP) -> CornerRing:
    """The corner eRe with identity e, plus the embedding back into R."""
    [e] = element_indices(R, [e], "e")
    M = R.np_mul
    if M[e, e] != e:
        raise NotIdempotent(f"element {e} of {R.name} is not idempotent")
    elems = np.unique(M[M[e], e])          # e x e over all x, sorted
    index = np.full(R.order, -1, dtype=np.int64)
    index[elems] = np.arange(len(elems))
    add, mul = _subtables(R, elems, index)
    embed = elems.tolist()
    labels = [R.label(p) for p in embed]
    name = f"e{e}.{R.name}.e{e}"
    ring = _validated(name, int(index[R.zero]), int(index[e]), add, mul, labels,
                      meta={"kind": "corner", "e": e, "embed": embed, "bases": (R,)},
                      size_cap=size_cap)
    return CornerRing(ring, tuple(embed))


@dataclass(frozen=True)
class QuotientRing:
    ring: FiniteRing
    proj: tuple[int, ...]  # parent element -> coset index


def is_right_ideal_mask(R: FiniteRing, m: int) -> bool:
    return ideal_failure(R, m, two_sided=False) is None


def is_two_sided_mask(R: FiniteRing, m: int) -> bool:
    return ideal_failure(R, m, two_sided=True) is None


def quotient_ring(R: FiniteRing, I: ElementSet, size_cap: int = SIZE_CAP) -> QuotientRing:
    """R/I with canonical (smallest-index) coset representatives, numbered in
    increasing order of representative."""
    if I.ring is not R and I.ring != R:
        raise NotTwoSidedIdeal("ideal belongs to a different ring")
    if not is_two_sided_mask(R, I.mask):
        raise NotTwoSidedIdeal(f"{I.elems} is not a two-sided ideal of {R.name}")
    ideal = list(I.elems)
    rep_of = coset_labels(R, I.mask)
    reps = np.unique(rep_of)
    proj = np.searchsorted(reps, rep_of)
    add, mul = _subtables(R, reps, proj)
    labels = [f"{R.label(r)}+I" for r in reps.tolist()]
    proj_list = proj.tolist()
    ring = _validated(f"{R.name}/I{len(ideal)}", proj_list[R.zero], proj_list[R.one],
                      add, mul, labels,
                      meta={"kind": "quotient", "ideal": ideal, "proj": proj_list},
                      size_cap=size_cap)
    return QuotientRing(ring, tuple(proj_list))


def two_sided_ideal_generated(R: FiniteRing, gens: Iterable[int]) -> ElementSet:
    """Smallest two-sided ideal containing gens: the additive span of the
    products r g s (r, s in R), which absorbs products on both sides."""
    M = R.np_mul
    products = np.zeros(R.order, dtype=bool)
    for g in element_indices(R, gens, "generator"):
        products[M[np.unique(M[:, g])]] = True
    _, reached = additive_span(R.np_add, R.zero, np.flatnonzero(products))
    return element_set_from_mask(R, mask_from_bool(reached), "two-sided-ideal", check=False)


# ---------------------------------------------------------------------------
# H_(s,t), L_(s,t) and generalized matrix rings

def _require_central_unit(R: FiniteRing, x: int, role: str) -> None:
    element_indices(R, [x], role)
    if not is_central(R, x):
        raise NotCentralUnit(f"{role}={x} is not central in {R.name}")
    if not (units_mask(R) >> x) & 1:
        raise NotCentralUnit(f"{role}={x} is not a unit of {R.name}")


def hst_ring(R: FiniteRing, s: int, t: int, size_cap: int = SIZE_CAP) -> FiniteRing:
    """Subring of M3(R) on matrices [[a,0,0],[c,d,e],[0,0,f]] with a-d = sc, d-f = te.

    The free parameters are (c, d, e); a and f are determined, so the ring has
    order |R|^3.  Products are computed via the 3x3 matrix formulas and the
    membership constraints are re-verified on the whole multiplication table.
    """
    _require_central_unit(R, s, "s")
    _require_central_unit(R, t, "t")
    k = R.order
    order = k ** 3
    _check_size(order, size_cap, f"H(s={s},t={t})({R.name})")
    dims = [k] * 3
    N, (c, d, e) = _digit_grids(dims)
    A, M = R.np_add, R.np_mul
    NEG = np.asarray(R.neg)
    a_of = A[d, M[s][c]]              # a = d + s c
    f_of = A[d, NEG[M[t][e]]]         # f = d - t e

    a3 = _pair(M, a_of, a_of)
    c3 = A[_pair(M, c, a_of), _pair(M, d, c)]
    d3 = _pair(M, d, d)
    e3 = A[_pair(M, d, e), _pair(M, e, f_of)]
    f3 = _pair(M, f_of, f_of)
    # closure guard: products must satisfy the defining linear constraints
    if not np.array_equal(a3, A[d3, M[s][c3]]) or not np.array_equal(f3, A[d3, NEG[M[t][e3]]]):
        raise ClosureViolation(f"H(s,t) product left the family for {R.name}")

    add = _encode_slots([_pair(A, c, c), _pair(A, d, d), _pair(A, e, e)], dims)
    mul = _encode_slots([c3, d3, e3], dims)
    zero = encode_digits([R.zero] * 3, dims)
    one = encode_digits([R.zero, R.one, R.zero], dims)

    def h_label(p):
        ci, di, ei = decode_digits(p, dims)
        ai = R.add[di][R.mul[s][ci]]
        fi = R.sub(di, R.mul[t][ei])
        z = R.label(R.zero)
        return (f"[[{R.label(ai)},{z},{z}],[{R.label(ci)},{R.label(di)},{R.label(ei)}],"
                f"[{z},{z},{R.label(fi)}]]")

    labels = [h_label(p) for p in range(order)]
    return _validated(f"H({s},{t})({R.name})", zero, one, add, mul, labels,
                      meta={"kind": "hst", "s": s, "t": t, "bases": (R,)},
                      size_cap=size_cap)


def lst_ring(R: FiniteRing, s: int, t: int, size_cap: int = SIZE_CAP) -> FiniteRing:
    """Subring of M3(R) on matrices [[a,0,0],[sc,d,te],[0,0,f]], all five slots free.

    s and t are central units, so they cancel from both tables: every (s, t)
    gives the same add and mul tables (and digest), and s and t reach only
    the labels.
    """
    _require_central_unit(R, s, "s")
    _require_central_unit(R, t, "t")
    k = R.order
    order = k ** 5
    _check_size(order, size_cap, f"L(s={s},t={t})({R.name})")
    dims = [k] * 5
    N, (a, c, d, e, f) = _digit_grids(dims)
    A, M = R.np_add, R.np_mul
    a3 = _pair(M, a, a)
    c3 = A[_pair(M, c, a), _pair(M, d, c)]     # s cancels: central unit
    d3 = _pair(M, d, d)
    e3 = A[_pair(M, d, e), _pair(M, e, f)]     # t cancels likewise
    f3 = _pair(M, f, f)
    add = _encode_slots((_pair(A, x, x) for x in (a, c, d, e, f)), dims)
    mul = _encode_slots([a3, c3, d3, e3, f3], dims)
    zero = encode_digits([R.zero] * 5, dims)
    one = encode_digits([R.one, R.zero, R.one, R.zero, R.one], dims)

    def l_label(p):
        ai, ci, di, ei, fi = decode_digits(p, dims)
        z = R.label(R.zero)
        sc = R.label(R.mul[s][ci])
        te = R.label(R.mul[t][ei])
        return (f"[[{R.label(ai)},{z},{z}],[{sc},{R.label(di)},{te}],"
                f"[{z},{z},{R.label(fi)}]]")

    labels = [l_label(p) for p in range(order)]
    return _validated(f"L({s},{t})({R.name})", zero, one, add, mul, labels,
                      meta={"kind": "lst", "s": s, "t": t, "bases": (R,), "dims": dims,
                            "delta_digits": (0, None, 0, None, 0), "delta_relation": "eq"},
                      size_cap=size_cap)


def ks_ring(R: FiniteRing, s: int, size_cap: int = SIZE_CAP) -> FiniteRing:
    """Generalized 2x2 matrix ring K_s(R): cross products scaled by central s."""
    element_indices(R, [s], "s")
    if not is_central(R, s):
        raise NotCentral(f"s={s} is not central in {R.name}")
    k = R.order
    order = k ** 4
    _check_size(order, size_cap, f"K{s}({R.name})")
    dims = [k] * 4
    N, (a, x, y, b) = _digit_grids(dims)
    A, M = R.np_add, R.np_mul
    a3 = A[_pair(M, a, a), M[s][_pair(M, x, y)]]
    x3 = A[_pair(M, a, x), _pair(M, x, b)]
    y3 = A[_pair(M, y, a), _pair(M, b, y)]
    b3 = A[M[s][_pair(M, y, x)], _pair(M, b, b)]
    add = _encode_slots((_pair(A, v, v) for v in (a, x, y, b)), dims)
    mul = _encode_slots([a3, x3, y3, b3], dims)
    zero = encode_digits([R.zero] * 4, dims)
    one = encode_digits([R.one, R.zero, R.zero, R.one], dims)
    labels = []
    for p in range(order):
        ai, xi, yi, bi = decode_digits(p, dims)
        labels.append(f"[[{R.label(ai)},{R.label(xi)}],[{R.label(yi)},{R.label(bi)}]]")
    meta = {"kind": "ks", "s": s, "bases": (R,), "dims": dims}
    if s == R.zero:
        meta.update(delta_digits=(0, None, None, 0), delta_relation="eq")
    sname = "0" if s == R.zero else str(s)
    return _validated(f"K{sname}({R.name})", zero, one, add, mul, labels, meta,
                      size_cap=size_cap)


# ---------------------------------------------------------------------------
# bimodules, formal triangular rings and trivial Morita contexts

@dataclass(frozen=True)
class BimoduleSpec:
    """A finite abelian group with a left action by S and a right action by T.

    add is an m x m group table, left is |S| x m, right is m x |T|.
    """
    add: tuple[tuple[int, ...], ...]
    zero: int
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.add)


def self_bimodule(R: FiniteRing) -> BimoduleSpec:
    """The additive group of R with both actions given by ring multiplication."""
    return BimoduleSpec(R.add, R.zero, R.mul, R.mul)


def validate_bimodule(S: FiniteRing, T: FiniteRing, M: BimoduleSpec) -> None:
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
        if M.zero not in set(M.add[i]):
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
            if not np.array_equal(L[S.add[s][s2]], G[L[s], L[s2]]):
                raise BimoduleAxiomViolation(f"left action biadditivity fails at ({s},{s2})")
    for t in range(T.order):
        if not np.array_equal(Rt[G[:, :], t].reshape(m, m), G[np.ix_(Rt[:, t], Rt[:, t])]):
            raise BimoduleAxiomViolation(f"right action of {t} is not additive")
        for t2 in range(T.order):
            if not np.array_equal(Rt[:, T.mul[t][t2]], Rt[Rt[:, t], t2]):
                raise BimoduleAxiomViolation(f"right action associativity fails at ({t},{t2})")
            if not np.array_equal(Rt[:, T.add[t][t2]], G[Rt[:, t], Rt[:, t2]]):
                raise BimoduleAxiomViolation(f"right action biadditivity fails at ({t},{t2})")
    for s in range(S.order):
        for t in range(T.order):
            if not np.array_equal(Rt[L[s], t], L[s][Rt[:, t]]):
                raise BimoduleAxiomViolation(f"actions do not commute at (s={s},t={t})")


def formal_triangular(S: FiniteRing, T: FiniteRing,
                      M: Optional[BimoduleSpec] = None,
                      size_cap: int = SIZE_CAP) -> FiniteRing:
    """The formal triangular matrix ring [[S, M],[0, T]]."""
    if M is None:
        if S.add != T.add or S.mul != T.mul:
            raise BimoduleAxiomViolation(
                "default self-action bimodule needs identical component rings")
        M = self_bimodule(S)
    validate_bimodule(S, T, M)
    dims = [S.order, M.size, T.order]
    order = math.prod(dims)
    _check_size(order, size_cap, "formal triangular ring")
    N, (s, m, t) = _digit_grids(dims)
    G = np.asarray(M.add, dtype=np.int64)
    L = np.asarray(M.left, dtype=np.int64)
    Rt = np.asarray(M.right, dtype=np.int64)
    s3 = _pair(S.np_mul, s, s)
    m3 = G[L[s[:, None], m[None, :]], Rt[m[:, None], t[None, :]]]
    t3 = _pair(T.np_mul, t, t)
    add = _encode_slots([_pair(S.np_add, s, s), _pair(G, m, m), _pair(T.np_add, t, t)],
                        dims)
    mul = _encode_slots([s3, m3, t3], dims)
    zero = encode_digits([S.zero, M.zero, T.zero], dims)
    one = encode_digits([S.one, M.zero, T.one], dims)
    labels = []
    for p in range(order):
        si, mi, ti = decode_digits(p, dims)
        labels.append(f"[[{S.label(si)},m{mi}],[0,{T.label(ti)}]]")
    return _validated(f"Tri({S.name},{T.name})", zero, one, add, mul, labels,
                      meta={"kind": "formal_triangular", "bases": (S, T), "dims": dims,
                            "delta_digits": (0, None, 1), "delta_relation": "subset"},
                      size_cap=size_cap)


def trivial_morita(A: FiniteRing, B: FiniteRing,
                   M: Optional[BimoduleSpec] = None,
                   N: Optional[BimoduleSpec] = None,
                   size_cap: int = SIZE_CAP) -> FiniteRing:
    """The trivial Morita context [[A, M],[N, B]] with both context products zero."""
    if M is None or N is None:
        if A.add != B.add or A.mul != B.mul:
            raise BimoduleAxiomViolation(
                "default self-action bimodules need identical component rings")
        M = M or self_bimodule(A)
        N = N or self_bimodule(B)
    validate_bimodule(A, B, M)
    validate_bimodule(B, A, N)
    dims = [A.order, M.size, N.size, B.order]
    order = math.prod(dims)
    _check_size(order, size_cap, "trivial Morita context")
    _, (a, m, n, b) = _digit_grids(dims)
    GM = np.asarray(M.add, dtype=np.int64)
    LM = np.asarray(M.left, dtype=np.int64)
    RM = np.asarray(M.right, dtype=np.int64)
    GN = np.asarray(N.add, dtype=np.int64)
    LN = np.asarray(N.left, dtype=np.int64)
    RN = np.asarray(N.right, dtype=np.int64)
    a3 = _pair(A.np_mul, a, a)                                   # MN = 0
    m3 = GM[LM[a[:, None], m[None, :]], RM[m[:, None], b[None, :]]]
    n3 = GN[RN[n[:, None], a[None, :]], LN[b[:, None], n[None, :]]]
    b3 = _pair(B.np_mul, b, b)                                   # NM = 0
    add = _encode_slots([_pair(A.np_add, a, a), _pair(GM, m, m),
                         _pair(GN, n, n), _pair(B.np_add, b, b)], dims)
    mul = _encode_slots([a3, m3, n3, b3], dims)
    zero = encode_digits([A.zero, M.zero, N.zero, B.zero], dims)
    one = encode_digits([A.one, M.zero, N.zero, B.one], dims)
    labels = []
    for p in range(order):
        ai, mi, ni, bi = decode_digits(p, dims)
        labels.append(f"[[{A.label(ai)},m{mi}],[n{ni},{B.label(bi)}]]")
    return _validated(f"Morita({A.name},{B.name})", zero, one, add, mul, labels,
                      meta={"kind": "trivial_morita", "bases": (A, B), "dims": dims,
                            "delta_digits": (0, None, None, 1), "delta_relation": "subset"},
                      size_cap=size_cap)


# ---------------------------------------------------------------------------
# enumeration of small unital rings, with isomorphism dedup

def abelian_group_factorizations(order: int) -> list[tuple[int, ...]]:
    """Invariant-factor chains (d1 >= d2 >= ..., d_{i+1} | d_i) for each
    abelian group of the given order, largest exponent first."""
    if order == 1:
        return [(1,)]
    factors: dict[int, int] = {}
    rem = order
    p = 2
    while p * p <= rem:
        while rem % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rem //= p
        p += 1
    if rem > 1:
        factors[rem] = factors.get(rem, 0) + 1

    def partitions(k: int, maxpart: int) -> list[tuple[int, ...]]:
        if k == 0:
            return [()]
        out = []
        for first in range(min(k, maxpart), 0, -1):
            for rest in partitions(k - first, first):
                out.append((first,) + rest)
        return out

    per_prime = {p: partitions(e, e) for p, e in factors.items()}
    combos = [()]
    for p in sorted(per_prime):
        combos = [c + (lam,) for c in combos for lam in per_prime[p]]
    groups = []
    primes = sorted(per_prime)
    for combo in combos:
        depth = max(len(lam) for lam in combo)
        dims = []
        for i in range(depth):
            d = 1
            for p, lam in zip(primes, combo):
                if i < len(lam):
                    d *= p ** lam[i]
            dims.append(d)
        groups.append(tuple(dims))
    return sorted(groups, reverse=True)


def _group_tables(dims: Sequence[int]):
    n = math.prod(dims)
    strides = mixed_radix_strides(dims)
    add = [[0] * n for _ in range(n)]
    for i in range(n):
        di = decode_digits(i, dims)
        for j in range(n):
            dj = decode_digits(j, dims)
            add[i][j] = sum(((a + b) % d) * s for a, b, d, s in zip(di, dj, dims, strides))
    return add


def _scalar_multiples(add, n: int, exponent: int):
    # smul[c][x] = c.x in the additive group, for 0 <= c <= exponent
    smul = [[0] * n]
    for c in range(1, exponent + 1):
        prev = smul[-1]
        smul.append([add[prev[x]][x] for x in range(n)])
    return smul


def enumerate_unital_rings(order: int, up_to_iso: bool = True):
    """All unital rings of the given order, one abelian group at a time.

    The multiplicative identity can be taken to be the standard generator of a
    largest cyclic factor (it must have maximal additive order, and any element
    of maximal order generates a direct summand, so an additive automorphism
    moves it there).  Only the pairwise products of the remaining generators
    are free; candidates are pruned by additive-order constraints, then by
    associativity on generator triples (which, with bilinearity, decides
    associativity everywhere), and survivors are validated in full.
    """
    if order > 8:
        raise SizeCap(f"enumeration is capped at order 8, got {order}")
    if order < 1:
        raise DimensionMismatch("order must be >= 1")
    if order == 1:
        yield _validated("R1_0", 0, 0, [[0]], [[0]], meta={"kind": "enumerated", "dims": [1]})
        return
    found: list[FiniteRing] = []
    serial = 0
    for dims in abelian_group_factorizations(order):
        n = math.prod(dims)
        strides = mixed_radix_strides(dims)
        add = _group_tables(dims)
        exponent = dims[0]
        smul = _scalar_multiples(add, n, exponent)
        addorder = [next(c for c in range(1, exponent + 1) if smul[c][x] == 0)
                    for x in range(n)]
        gens = list(strides)  # unit digit vectors; gens[0] plays the identity
        m = len(gens)
        one = gens[0]
        digits = [decode_digits(x, dims) for x in range(n)]
        free = [(i, j) for i in range(1, m) for j in range(1, m)]
        cand = {}
        for (i, j) in free:
            g = math.gcd(dims[i], dims[j])
            cand[(i, j)] = [x for x in range(n) if g % addorder[x] == 0]

        def bilinear(prods, x, y):
            dx, dy = digits[x], digits[y]
            acc = 0
            for i in range(m):
                if dx[i] == 0:
                    continue
                row = prods[i]
                for j in range(m):
                    if dy[j] == 0:
                        continue
                    p = row[j]
                    acc = add[acc][smul[(dx[i] * dy[j]) % addorder[p]][p]]
            return acc

        for values in itertools.product(*(cand[f] for f in free)):
            assign = dict(zip(free, values))
            prods = [[gens[j] if i == 0 else gens[i] if j == 0 else assign[(i, j)]
                      for j in range(m)] for i in range(m)]
            if any(bilinear(prods, prods[i][j], gens[k]) != bilinear(prods, gens[i], prods[j][k])
                   for i in range(m) for j in range(m) for k in range(m)):
                continue
            mul = [[bilinear(prods, x, y) for y in range(n)] for x in range(n)]
            ring = _validated(f"R{order}_{serial}", 0, one, add, mul,
                              meta={"kind": "enumerated", "dims": list(dims)})
            serial += 1
            found.append(ring)
    if not up_to_iso:
        yield from found
        return
    kept: list[FiniteRing] = []
    for ring in found:
        if any(ring_isomorphic(ring, other) is not None for other in kept):
            continue
        kept.append(ring)
    yield from kept


# ---------------------------------------------------------------------------
# exact ring isomorphism (desk scale)

def _element_invariant(R: FiniteRing, addorder, x: int):
    um, im, nm = units_mask(R), idempotents_mask(R), nilpotents_mask(R)
    z, mul = R.zero, R.mul
    rann = mul[x].count(z)
    lann = sum(row[x] == z for row in mul)
    return (addorder[x], (um >> x) & 1, (im >> x) & 1, (nm >> x) & 1, rann, lann)


def ring_fingerprint(R: FiniteRing):
    exponent = R.order
    smul = _scalar_multiples(R.add, R.order, exponent)
    addorder = [next(c for c in range(1, exponent + 1) if smul[c][x] == R.zero)
                for x in R.elements()]
    profile = sorted(_element_invariant(R, addorder, x) for x in R.elements())
    return (R.order, addorder[R.one], tuple(profile)), addorder


def ring_isomorphic(R: FiniteRing, S: FiniteRing) -> Optional[tuple[int, ...]]:
    """An explicit isomorphism R -> S as an index tuple, or None.

    Backtracking over images of a greedy additive generating sequence, seeded
    by element invariants; meant for order <= 16.
    """
    if R.order != S.order:
        return None
    fpR, ordR = ring_fingerprint(R)
    fpS, ordS = ring_fingerprint(S)
    if fpR != fpS:
        return None
    n = R.order
    r_add, r_mul, s_add, s_mul = R.add, R.mul, S.add, S.mul   # locals for the scalar loops
    invR = {x: _element_invariant(R, ordR, x) for x in range(n)}
    invS_pool: dict = {}
    for y in range(n):
        invS_pool.setdefault(_element_invariant(S, ordS, y), []).append(y)

    gens = additive_span(R.np_add, R.zero, np.arange(n))[0].tolist()

    def extend(mapping: dict, g: int, h: int) -> Optional[dict]:
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

    def dfs(gi: int, mapping: dict) -> Optional[dict]:
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


# ---------------------------------------------------------------------------
# RingExpr concrete grammar

_TOKEN_CHARS = set("(),=[]")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, i))
            i += 1
        elif ch == '"' or ch == "'":
            j = text.find(ch, i + 1)
            if j < 0:
                raise ParseError("unterminated string", i)
            tokens.append(("STR:" + text[i + 1:j], i))
            i = j + 1
        elif ch.isdigit() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT:" + text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME:" + text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", len(text)))
    return tokens


@dataclass
class RingExpr:
    head: str
    args: list
    kwargs: dict
    pos: int

    def unparse(self) -> str:
        parts = [a.unparse() if isinstance(a, RingExpr) else repr(a) if isinstance(a, str) else str(a)
                 for a in self.args]
        for k, v in self.kwargs.items():
            parts.append(f"{k}={v}")
        return f"{self.head}({','.join(parts)})"


def parse_ring_expr(text: str) -> RingExpr:
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(expect: Optional[str] = None):
        tok, at = tokens[pos[0]]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}", at)
        pos[0] += 1
        return tok, at

    def parse_value(at: int):
        tok, vat = take()
        if tok.startswith("INT:"):
            return int(tok[4:])
        if tok == "[":
            vals = []
            if peek()[0] != "]":
                while True:
                    t2, a2 = take()
                    if not t2.startswith("INT:"):
                        raise ParseError("expected integer in list", a2)
                    vals.append(int(t2[4:]))
                    if peek()[0] == ",":
                        take(",")
                    else:
                        break
            take("]")
            return vals
        raise ParseError("expected integer or [list]", vat)

    def parse_expr() -> RingExpr:
        tok, at = take()
        if not tok.startswith("NAME:"):
            raise ParseError("expected a constructor name", at)
        head = tok[5:]
        take("(")
        args: list = []
        kwargs: dict = {}
        if peek()[0] != ")":
            while True:
                t, a = peek()
                if t.startswith("NAME:") and tokens[pos[0] + 1][0] == "=":
                    take()
                    take("=")
                    kwargs[t[5:]] = parse_value(a)
                elif t.startswith("NAME:"):
                    args.append(parse_expr())
                elif t.startswith("INT:"):
                    take()
                    args.append(int(t[4:]))
                elif t.startswith("STR:"):
                    take()
                    args.append(t[4:])
                else:
                    raise ParseError(f"unexpected token {t!r}", a)
                if peek()[0] == ",":
                    take(",")
                else:
                    break
        take(")")
        return RingExpr(head, args, kwargs, at)

    expr = parse_expr()
    tok, at = peek()
    if tok != "EOF":
        raise ParseError(f"trailing input {tok!r}", at)
    return expr


def build_ring_expr(expr: RingExpr, size_cap: int = SIZE_CAP) -> FiniteRing:
    """Evaluate a parsed RingExpr into a validated FiniteRing."""
    def as_ring(v, what: str) -> FiniteRing:
        if isinstance(v, FiniteRing):
            return v
        raise ParseError(f"{what} expects a ring argument", expr.pos)

    head = expr.head
    args = [build_ring_expr(a, size_cap) if isinstance(a, RingExpr) else a
            for a in expr.args]
    kw = expr.kwargs
    try:
        if head == "Zn":
            return make_zn(int(args[0]))
        if head == "M":
            return matrix_ring(int(args[0]), as_ring(args[1], "M"), size_cap)
        if head == "T":
            return upper_triangular_ring(int(args[0]), as_ring(args[1], "T"), size_cap)
        if head == "Prod":
            return direct_product([as_ring(a, "Prod") for a in args], size_cap)
        if head == "Corner":
            return corner_ring(as_ring(args[0], "Corner"), int(kw["e"]), size_cap).ring
        if head == "Quot":
            base = as_ring(args[0], "Quot")
            ideal = two_sided_ideal_generated(base, kw.get("gens", []))
            return quotient_ring(base, ideal, size_cap).ring
        if head == "Hst":
            return hst_ring(as_ring(args[0], "Hst"), int(kw["s"]), int(kw["t"]), size_cap)
        if head == "Lst":
            return lst_ring(as_ring(args[0], "Lst"), int(kw["s"]), int(kw["t"]), size_cap)
        if head == "K0":
            base = as_ring(args[0], "K0")
            return ks_ring(base, base.zero, size_cap)
        if head == "Ks":
            return ks_ring(as_ring(args[0], "Ks"), int(kw["s"]), size_cap)
        if head == "Tri":
            return formal_triangular(as_ring(args[0], "Tri"), as_ring(args[1], "Tri"),
                                     size_cap=size_cap)
        if head == "Morita":
            return trivial_morita(as_ring(args[0], "Morita"), as_ring(args[1], "Morita"),
                                  size_cap=size_cap)
        if head == "File":
            with open(args[0], "r", encoding="utf-8") as fh:
                return loads_ring(fh.read(), size_cap=size_cap)
    except KeyError as exc:
        raise ParseError(f"{head} is missing required argument {exc}", expr.pos) from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise ParseError(f"bad arguments for {head}: {exc}", expr.pos) from exc
    raise ParseError(f"unknown constructor {head!r}", expr.pos)


def construct(text: str, size_cap: int = SIZE_CAP) -> FiniteRing:
    return build_ring_expr(parse_ring_expr(text), size_cap=size_cap)
