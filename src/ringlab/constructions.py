"""Constructors for every ring extension used by the suite.

Composite elements are encoded mixed-radix over component indices, most
significant digit first, so encodings are stable across runs and documented
by the labels.  Every extension ring is built by one slot builder,
`_slot_ring`, from vectorized gathers; every constructor ends in exact axiom
validation.  Each extension's product is data, one term table keyed by
(left slot, right slot, target slot): a direct product is the terms
(k, k, k); a matrix ring over a position set (M_n, T_n, L_(s,t), K_s) has
one slot per position and the terms of `_closed_terms`, K_s with its two
cross terms scaled by s; formal triangular rings and Morita contexts list
their ring and action terms; H_(s,t) has seven terms on its slots (c, d, e).

Extensions record their base rings in `meta["bases"]`.  Those whose radical
has a claimed digit-wise shape also record `dims`, `delta_digits` (digit s
must lie in delta of `bases[delta_digits[s]]`; None leaves it free) and
`delta_relation`: "eq" when delta is claimed to equal that set, "subset" when
it is claimed to lie inside it.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    AxiomViolation, BimoduleAxiomViolation, DimensionMismatch,
    FiniteRing, NotCentral, NotCentralUnit, NotIdempotent, NotTwoSidedIdeal,
    ParseError, SizeCap, _cached, _check_table, _is_int, additive_span, bool_from_mask,
    check_mask, check_ring_axioms, check_size, coset_labels, element_indices, ideal_failure,
    is_central, loads_ring, mask_elems, mask_from_bool, nilpotents_mask,
    idempotents_mask, units_mask,
)


def _validated(name, zero, one, add, mul, labels=None, meta=None) -> FiniteRing:
    """Axiom validation, run once per table digest: the per-digest cache
    remembers that a table was proven valid.

    add and mul may be integer arrays; FiniteRing stores them as int32.
    labels may be any iterable; it is read only once validation passes.  The
    size is the caller's: `make_zn` and `_slot_ring` check it, and corners,
    quotients and enumerated rings are no larger than a ring that passed."""
    R = FiniteRing(name, zero, one, add, mul, None, meta)
    _cached(R, "validated", lambda: check_ring_axioms(R))
    if labels is not None:
        R.labels = tuple(labels)
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


def _digit_grids(dims: Sequence[int]) -> list[np.ndarray]:
    """Per-slot digit vectors for all mixed-radix indices."""
    rem = np.arange(math.prod(dims), dtype=np.int64)
    digs = []
    for s in mixed_radix_strides(dims):
        digs.append(rem // s)
        rem = rem % s
    return digs


def _pair(table: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Outer gather: result[..., p, q] = table[..., u[p], v[q]]."""
    return table[..., u, :].take(v, axis=-1)   # two 1-d gathers, C-ordered, beat one 2-d gather


def _encode_slots(slot_tables: Iterable[np.ndarray], dims: Sequence[int]) -> np.ndarray:
    """The mixed-radix table of per-slot digit tables, taken one at a time:
    given a generator, only one slot table is alive at once."""
    N = math.prod(dims)
    acc = np.zeros((N, N), dtype=np.int32)  # the table dtype of FiniteRing
    for t, s in zip(slot_tables, mixed_radix_strides(dims)):
        acc += t * s
    return acc


def _closed_terms(positions, table) -> dict:
    """The terms of square matrices supported on `positions`, one slot per
    position: entry (i, t) times entry (t, j) into entry (i, j), through
    `table`, for every such triple inside `positions`.  Each target's terms
    come in ascending t."""
    slot = {p: k for k, p in enumerate(positions)}
    return {(slot[i, t], slot[t, j], slot[i, j]): table
            for i, t in positions for u, j in positions if u == t and (i, j) in slot}


def _slot_ring(name, slots, terms, one, label, meta) -> FiniteRing:
    """The ring on mixed-radix tuples of slots, most significant first.

    `slots` holds one (additive table, zero) pair per slot, and addition is
    slot-wise.  `terms` maps (u, v, w) to a table: slot w of a product xy
    is the sum, in slot w's additive table and in the order of `terms`, of
    table[x_u, y_v] over the terms that target w; every slot is some term's
    target.  `one` is the identity's digit tuple and `label(*digits)` names
    one element.  `check_size` runs before any table is allocated; `dims`
    joins meta.
    """
    dims = [len(A) for A, _ in slots]
    check_size(name, math.prod(dims))
    digs = _digit_grids(dims)

    def products():
        for w, (A, _) in enumerate(slots):
            acc = None
            for (u, v, target), table in terms.items():
                if target == w:
                    term = _pair(table, digs[u], digs[v])
                    acc = term if acc is None else A[acc, term]
            yield acc

    add = _encode_slots((_pair(A, d, d) for (A, _), d in zip(slots, digs)), dims)
    mul = _encode_slots(products(), dims)
    labels = (label(*d) for d in itertools.product(*map(range, dims)))
    return _validated(name, encode_digits([z for _, z in slots], dims), encode_digits(one, dims),
                      add, mul, labels, {**meta, "dims": dims})


# ---------------------------------------------------------------------------
# basic constructions

def make_zn(k: int) -> FiniteRing:
    """The ring of integers modulo k (the zero ring for k = 1)."""
    if k < 1:
        raise DimensionMismatch("k must be >= 1")
    check_size(f"Z{k}", k)
    x = np.arange(k)
    return _validated(f"Z{k}", 0, 1 % k, (x[:, None] + x) % k, (x[:, None] * x) % k,
                      map(str, range(k)), {"kind": "zn", "k": k})


def direct_product(parts: Sequence[FiniteRing]) -> FiniteRing:
    """Componentwise product; element index encodes the component tuple."""
    if not parts:
        raise DimensionMismatch("need at least one factor")
    if len(parts) == 1:
        return parts[0]
    return _slot_ring(
        "x".join(R.name for R in parts), [(R.np_add, R.zero) for R in parts],
        {(k, k, k): R.np_mul for k, R in enumerate(parts)},
        [R.one for R in parts],
        lambda *ds: "(" + ",".join(R.label(d) for R, d in zip(parts, ds)) + ")",
        {"kind": "product", "bases": tuple(parts),
         "delta_digits": tuple(range(len(parts))), "delta_relation": "eq"})


def _matrix_label(R: FiniteRing, positions):
    """The labeller of square matrices over R with entries at `positions`
    and R's zero elsewhere: label(*entries) fills one template."""
    n = 1 + max(map(max, positions))
    slot = {p: "{%d}" % k for k, p in enumerate(positions)}
    zero = R.label(R.zero).replace("{", "{{").replace("}", "}}")
    template = "[" + ",".join("[" + ",".join(slot.get((i, j), zero) for j in range(n)) + "]"
                              for i in range(n)) + "]"
    return lambda *entries: template.format(*map(R.label, entries))


def _matrix_family(name, R, positions, meta, terms=None, label=None):
    """The ring of square matrices over R supported on `positions` (row-major),
    by default with every term through R's product (`_closed_terms`).  The
    identity is R's one down the diagonal."""
    return _slot_ring(
        name, [(R.np_add, R.zero)] * len(positions),
        terms or _closed_terms(positions, R.np_mul),
        [R.one if i == j else R.zero for i, j in positions],
        label or _matrix_label(R, positions), meta)


def matrix_ring(n: int, R: FiniteRing) -> FiniteRing:
    """Full n x n matrix ring; entries are encoded row-major."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    if n == 1:
        return R
    return _matrix_family(f"M{n}({R.name})", R, [(i, j) for i in range(n) for j in range(n)],
                          {"kind": "matrix", "n": n, "bases": (R,),
                           "delta_digits": (0,) * (n * n), "delta_relation": "eq"})


def upper_triangular_ring(n: int, R: FiniteRing) -> FiniteRing:
    """Upper triangular n x n matrices; free slots are (i, j) with i <= j, row-major."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    if n == 1:
        return R
    positions = [(i, j) for i in range(n) for j in range(n) if i <= j]
    return _matrix_family(f"T{n}({R.name})", R, positions,
                          {"kind": "triangular", "n": n, "bases": (R,),
                           "delta_digits": tuple(0 if i == j else None for i, j in positions),
                           "delta_relation": "subset"})


@dataclass(frozen=True)
class CornerRing:
    ring: FiniteRing
    embed: tuple[int, ...]  # corner index -> parent element


def _subtables(R: FiniteRing, elems: np.ndarray, index: np.ndarray):
    """R's tables restricted to the rows and columns `elems`, with every
    entry renamed by `index` (parent element -> new element)."""
    return index[_pair(R.np_add, elems, elems)], index[_pair(R.np_mul, elems, elems)]


def corner_ring(R: FiniteRing, e: int) -> CornerRing:
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
                      meta={"kind": "corner", "e": e, "embed": embed, "bases": (R,)})
    return CornerRing(ring, tuple(embed))


@dataclass(frozen=True)
class QuotientRing:
    ring: FiniteRing
    proj: tuple[int, ...]  # parent element -> coset index


def is_two_sided_mask(R: FiniteRing, m: int) -> bool:
    return ideal_failure(R, m, two_sided=True) is None


def quotient_ring(R: FiniteRing, m: int) -> QuotientRing:
    """R/I for the two-sided ideal I given as the mask m, with canonical
    (smallest-index) coset representatives, numbered in increasing order of
    representative."""
    check_mask(R, m)
    ideal = mask_elems(m)
    if not is_two_sided_mask(R, m):
        raise NotTwoSidedIdeal(f"{ideal} is not a two-sided ideal of {R.name}")
    rep_of = coset_labels(R, m)
    reps = np.unique(rep_of)
    proj = np.searchsorted(reps, rep_of)
    add, mul = _subtables(R, reps, proj)
    labels = [f"{R.label(r)}+I" for r in reps.tolist()]
    proj_list = proj.tolist()
    ring = _validated(f"{R.name}/I{len(ideal)}", proj_list[R.zero], proj_list[R.one],
                      add, mul, labels,
                      meta={"kind": "quotient", "ideal": list(ideal), "proj": proj_list})
    return QuotientRing(ring, tuple(proj_list))


def two_sided_ideal_generated(R: FiniteRing, gens: Iterable[int]) -> int:
    """Smallest two-sided ideal containing gens: the additive span of the
    products r g s (r, s in R), which absorbs products on both sides."""
    M = R.np_mul
    products = np.zeros(R.order, dtype=bool)
    for g in element_indices(R, gens, "generator"):
        products[M[np.unique(M[:, g])]] = True
    _, reached = additive_span(R.np_add, R.zero, np.flatnonzero(products))
    return mask_from_bool(reached)


# ---------------------------------------------------------------------------
# H_(s,t), L_(s,t) and generalized matrix rings

def _require_central_unit(R: FiniteRing, x: int, role: str) -> None:
    element_indices(R, [x], role)
    if not is_central(R, x):
        raise NotCentralUnit(f"{role}={x} is not central in {R.name}")
    if not (units_mask(R) >> x) & 1:
        raise NotCentralUnit(f"{role}={x} is not a unit of {R.name}")


# L_(s,t)'s positions in M3: [[a,0,0],[c,d,e],[0,0,f]]
_L_POSITIONS = ((0, 0), (1, 0), (1, 1), (1, 2), (2, 2))


def hst_ring(R: FiniteRing, s: int, t: int) -> FiniteRing:
    """Subring of M3(R) on matrices [[a,0,0],[c,d,e],[0,0,f]] with a-d = sc, d-f = te.

    The free parameters are (c, d, e); a and f are determined, so the ring has
    order |R|^3.  Substituting a = d + sc and f = d - te into L_(s,t)'s
    product gives, for central s and t, c'' = cd' + s(cc') + dc', d'' = dd'
    and e'' = de' + ed' - t(ee').
    """
    _require_central_unit(R, s, "s")
    _require_central_unit(R, t, "t")
    A, M, NEG = R.np_add, R.np_mul, R.neg
    terms = {(0, 1, 0): M, (0, 0, 0): M[s][M], (1, 0, 0): M, (1, 1, 1): M,
             (1, 2, 2): M, (2, 1, 2): M, (2, 2, 2): M[NEG[t]][M]}
    add, mul_s, mul_t, neg = A.tolist(), M[s].tolist(), M[t].tolist(), NEG.tolist()
    matrix = _matrix_label(R, _L_POSITIONS)

    def h_label(c, d, e):
        return matrix(add[d][mul_s[c]], c, d, e, add[d][neg[mul_t[e]]])

    # d in delta: a = d + sc in delta iff c is, f = d - te iff e is (s, t units; delta an ideal)
    return _slot_ring(f"H({s},{t})({R.name})", [(A, R.zero)] * 3, terms,
                      [R.zero, R.one, R.zero], h_label,
                      {"kind": "hst", "s": s, "t": t, "bases": (R,),
                       "delta_digits": (0, 0, 0), "delta_relation": "eq"})


def lst_ring(R: FiniteRing, s: int, t: int) -> FiniteRing:
    """Subring of M3(R) on matrices [[a,0,0],[sc,d,te],[0,0,f]], all five slots free.

    s and t are central units, so they cancel from both tables: every (s, t)
    gives the same add and mul tables (and digest), and s and t reach only
    the labels.
    """
    _require_central_unit(R, s, "s")
    _require_central_unit(R, t, "t")
    mul_s, mul_t = R.np_mul[s].tolist(), R.np_mul[t].tolist()
    matrix = _matrix_label(R, _L_POSITIONS)
    return _matrix_family(
        f"L({s},{t})({R.name})", R, _L_POSITIONS,
        {"kind": "lst", "s": s, "t": t, "bases": (R,),
         "delta_digits": (0, None, 0, None, 0), "delta_relation": "eq"},
        label=lambda a, c, d, e, f: matrix(a, mul_s[c], d, mul_t[e], f))


def ks_ring(R: FiniteRing, s: int) -> FiniteRing:
    """Generalized 2x2 matrix ring K_s(R): cross products scaled by central s."""
    element_indices(R, [s], "s")
    if not is_central(R, s):
        raise NotCentral(f"s={s} is not central in {R.name}")
    positions = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # [[a,x],[y,b]]: x y' into a and y x' into b, scaled by s
    terms = _closed_terms(positions, R.np_mul) | dict.fromkeys([(1, 2, 0), (2, 1, 3)],
                                                                R.np_mul[s][R.np_mul])
    meta = {"kind": "ks", "s": s, "bases": (R,)}
    if s == R.zero:
        meta.update(delta_digits=(0, None, None, 0), delta_relation="eq")
    sname = "0" if s == R.zero else str(s)
    return _matrix_family(f"K{sname}({R.name})", R, positions, meta, terms)


# ---------------------------------------------------------------------------
# bimodules, formal triangular rings and trivial Morita contexts

@dataclass(frozen=True, eq=False)
class BimoduleSpec:
    """A finite abelian group with a left action by S and a right action by T.

    add is an m x m group table, left is |S| x m, right is m x |T|: nested
    lists or integer arrays, so specs compare by identity.
    """
    add: Sequence[Sequence[int]]
    zero: int
    left: Sequence[Sequence[int]]
    right: Sequence[Sequence[int]]

    @property
    def size(self) -> int:
        return len(self.add)


def self_bimodule(R: FiniteRing) -> BimoduleSpec:
    """The additive group of R with both actions given by ring multiplication."""
    return BimoduleSpec(R.np_add, R.zero, R.np_mul, R.np_mul)


def validate_bimodule(S: FiniteRing, T: FiniteRing, M: BimoduleSpec):
    """The bimodule checks an assembled ring cannot make: the table shapes,
    every entry and `zero` a plain int in 0..m-1 (`core._check_table`, as
    for ring tables), and s0 = 0 = 0t.  Returns the addition, left
    and right tables as int64 arrays.

    Given these, every bimodule law is a ring law on elements with one
    nonzero slot (sm is [s,0;0,0][0,m;0,0]), so the exact validation of the
    formal triangular ring or Morita context decides the rest: see
    `_bimodule_ring`.
    """
    m = M.size
    try:
        for rows, shape, tname in ((M.add, (m, m), "bimodule add"),
                                   (M.left, (S.order, m), "left action"),
                                   (M.right, (m, T.order), "right action")):
            _check_table(rows, shape, m, tname)
    except DimensionMismatch as exc:
        raise BimoduleAxiomViolation(str(exc)) from exc
    if not (_is_int(M.zero) and 0 <= M.zero < m):
        raise BimoduleAxiomViolation(f"bimodule zero {M.zero!r} is not an index in 0..{m - 1}")
    G, L, Rt = (np.array(x, dtype=np.int64) for x in (M.add, M.left, M.right))
    if (L[:, M.zero] != M.zero).any() or (Rt[M.zero] != M.zero).any():
        raise BimoduleAxiomViolation("an action does not send the bimodule zero to zero")
    return G, L, Rt


def _bimodule_ring(name, *args) -> FiniteRing:
    """`_slot_ring` for a ring assembled from bimodules that passed
    `validate_bimodule`: the component rings are valid, so an axiom the
    assembled ring fails is a bimodule law that fails."""
    try:
        return _slot_ring(name, *args)
    except AxiomViolation as exc:
        raise BimoduleAxiomViolation(f"{name}: the bimodule laws fail ({exc})") from exc


def formal_triangular(S: FiniteRing, T: FiniteRing,
                      M: Optional[BimoduleSpec] = None) -> FiniteRing:
    """The formal triangular matrix ring [[S, M],[0, T]]."""
    if M is None:
        if S != T:
            raise BimoduleAxiomViolation(
                "default self-action bimodule needs identical component rings")
        M = self_bimodule(S)
    G, L, Rt = validate_bimodule(S, T, M)

    # slots (s, m, t) of [[s,m],[0,t]]: S.S, S.M (left action), M.T (right action), T.T
    terms = {(0, 0, 0): S.np_mul, (0, 1, 1): L, (1, 2, 1): Rt, (2, 2, 2): T.np_mul}
    return _bimodule_ring(f"Tri({S.name},{T.name})",
                          [(S.np_add, S.zero), (G, M.zero), (T.np_add, T.zero)],
                          terms, [S.one, M.zero, T.one],
                          lambda si, mi, ti: f"[[{S.label(si)},m{mi}],[0,{T.label(ti)}]]",
                          {"kind": "formal_triangular", "bases": (S, T),
                           "delta_digits": (0, None, 1), "delta_relation": "subset"})


def trivial_morita(A: FiniteRing, B: FiniteRing,
                   M: Optional[BimoduleSpec] = None,
                   N: Optional[BimoduleSpec] = None) -> FiniteRing:
    """The trivial Morita context [[A, M],[N, B]] with both context products zero."""
    if M is None or N is None:
        if A != B:
            raise BimoduleAxiomViolation(
                "default self-action bimodules need identical component rings")
        M = M or self_bimodule(A)
        N = N or self_bimodule(B)
    GM, LM, RM = validate_bimodule(A, B, M)
    GN, LN, RN = validate_bimodule(B, A, N)

    # slots (a, m, n, b) of [[a,m],[n,b]]: as Tri, plus N.A and B.N; no M.N or
    # N.M term, so MN = 0 = NM
    terms = {(0, 0, 0): A.np_mul, (0, 1, 1): LM, (1, 3, 1): RM,
             (2, 0, 2): RN, (3, 2, 2): LN, (3, 3, 3): B.np_mul}
    return _bimodule_ring(f"Morita({A.name},{B.name})",
                          [(A.np_add, A.zero), (GM, M.zero), (GN, N.zero), (B.np_add, B.zero)],
                          terms, [A.one, M.zero, N.zero, B.one],
                          lambda ai, mi, ni, bi: f"[[{A.label(ai)},m{mi}],[n{ni},{B.label(bi)}]]",
                          {"kind": "trivial_morita", "bases": (A, B),
                           "delta_digits": (0, None, None, 1), "delta_relation": "subset"})


# ---------------------------------------------------------------------------
# enumeration of small unital rings, with isomorphism dedup

def abelian_group_factorizations(order: int) -> list[tuple[int, ...]]:
    """Invariant-factor chains (d1, d2, ... with d_{i+1} | d_i and product
    `order`), one per abelian group of that order, in decreasing
    lexicographic order; order 1 gives [(1,)]."""
    def chains(rest: int, bound: int) -> list[tuple[int, ...]]:
        # the chains of factors > 1 with product rest, each dividing bound
        if rest == 1:
            return [()]
        return [(d,) + c for d in range(min(rest, bound), 1, -1)
                if rest % d == 0 and bound % d == 0 for c in chains(rest // d, d)]
    return [c or (1,) for c in chains(order, order)]


def _additive_orders(A: np.ndarray, zero: int) -> np.ndarray:
    """order[x] = the least c >= 1 with c.x = 0, for every x at once."""
    idx = np.arange(len(A))
    order = np.zeros(len(A), dtype=np.int64)
    multiple, c = idx, 1
    while not order.all():
        order[(multiple == zero) & (order == 0)] = c
        multiple, c = A[multiple, idx], c + 1
    return order


def enumerate_unital_rings(order: int, up_to_iso: bool = True):
    """All unital rings of the given order, one abelian group at a time.

    The multiplicative identity can be taken to be the standard generator of a
    largest cyclic factor (it must have maximal additive order, and any element
    of maximal order generates a direct summand, so an additive automorphism
    moves it there).  Only the products g_i g_j of the remaining generators
    are free, each an element whose additive order divides
    gcd(dims[i], dims[j]).  A candidate multiplies by the bilinear form
    digit_s(x y) = sum_ij x_i y_j digit_s(g_i g_j) mod dims[s].  All
    candidates of a group are tested together for associativity on
    generator triples (which, with bilinearity, decides it everywhere); the
    survivors' tables are built from the form in one batch and validated in
    full.  Up to isomorphism, a survivor is dropped when `ring_isomorphic`
    maps it onto one kept earlier.
    """
    if order > 8:
        raise SizeCap(f"enumeration is capped at order 8, got {order}")
    if order < 1:
        raise DimensionMismatch("order must be >= 1")
    if order == 1:
        yield _validated("R1_0", 0, 0, [[0]], [[0]], meta={"kind": "enumerated", "dims": [1]})
        return
    found: list[FiniteRing] = []
    for dims in abelian_group_factorizations(order):
        digs = _digit_grids(dims)
        add = _encode_slots(((d[:, None] + d) % k for d, k in zip(digs, dims)), dims)
        # element -> digit vector, in int16 (kept small: a batch holds 4096
        # candidates); order <= 8 bounds each digit by 7 and each sum below by 9 * 7^3
        digits = np.stack(digs, axis=1).astype(np.int16)
        radix = np.array(dims, dtype=np.int16)
        gens = np.array(mixed_radix_strides(dims))      # unit digit vectors; gens[0] is one
        m = len(gens)
        addorder = _additive_orders(add, 0)
        free = [np.flatnonzero(math.gcd(dims[i], dims[j]) % addorder == 0)
                for i in range(1, m) for j in range(1, m)]
        values = np.array(list(itertools.product(*free)), dtype=np.intp)
        C = len(values)
        prods = np.empty((C, m, m), dtype=np.intp)    # prods[c, i, j] = g_i g_j
        prods[:, 0], prods[:, :, 0] = gens, gens
        prods[:, 1:, 1:] = values.reshape(C, m - 1, m - 1)
        P = digits[prods]                              # P[c, i, j, s] = digit_s(g_i g_j)
        # the bilinear form on generator triples, digit by digit
        left = np.einsum("cija,caks->cijks", P, P) % radix    # (g_i g_j) g_k
        right = np.einsum("cjkb,cibs->cijks", P, P) % radix   # g_i (g_j g_k)
        P = P[(left == right).all(axis=(1, 2, 3, 4))]
        # mul[c, x, y]: digit_s(x y) = sum_ij x_i y_j digit_s(g_i g_j) mod dims[s]
        mul = (np.einsum("xi,yj,cijs->cxys", digits, digits, P, optimize=True) % radix) @ gens
        found += [_validated(f"R{order}_{len(found) + t}", 0, gens[0], add, table,
                             meta={"kind": "enumerated", "dims": list(dims)})
                  for t, table in enumerate(mul)]
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

def _invariant_rows(R: FiniteRing) -> np.ndarray:
    """Row x: the additive order of x; whether x is a unit, an idempotent,
    a nilpotent; |r(x)| and |l(x)|.  An isomorphism maps each element to
    one with the same row."""
    is_zero = R.np_mul == R.zero
    return np.column_stack(
        [_additive_orders(R.np_add, R.zero)]
        + [bool_from_mask(f(R), R.order) for f in (units_mask, idempotents_mask, nilpotents_mask)]
        + [is_zero.sum(axis=1), is_zero.sum(axis=0)])


def ring_fingerprint(R: FiniteRing):
    """(fingerprint, invariant rows) of R, computed once per table and
    cached with it.  The fingerprint (order, additive order of one, the
    sorted rows) is equal on isomorphic rings; `ring_isomorphic` seeds its
    search with the rows."""
    def compute():
        rows = _invariant_rows(R)
        rows.setflags(write=False)      # shared by every ring with this table
        return (R.order, int(rows[R.one, 0]), tuple(sorted(map(tuple, rows.tolist())))), rows
    return _cached(R, "fingerprint", compute)


def ring_isomorphic(R: FiniteRing, S: FiniteRing) -> Optional[tuple[int, ...]]:
    """An explicit isomorphism R -> S as an index tuple, or None.

    Depth-first search over images of R's greedy additive generators
    (`additive_span`), each drawn from the elements of S with its invariant
    row.  Choosing g -> h extends the partial map phi, defined on the
    subgroup H spanned so far, along the span's doubling translations
    x + 2^j g -> phi(x) + 2^j h onto H + <g>.  The result survives if it is
    injective and preserves every sum and every product it has mapped.  An
    isomorphism that agrees with phi on H and sends g to h agrees with the
    result on H + <g>, so the search misses none.
    """
    if R.order != S.order:
        return None
    fpR, rowsR = ring_fingerprint(R)
    fpS, rowsS = ring_fingerprint(S)
    if fpR != fpS:
        return None
    gens = additive_span(R.np_add, R.zero, np.arange(R.order))[0]
    pools = [match.nonzero()[0] for match in (rowsR[gens, None] == rowsS).all(axis=2)]
    TR, TS = np.stack([R.np_add, R.np_mul]), np.stack([S.np_add, S.np_mul])

    def search(phi: np.ndarray, dom: np.ndarray, i: int) -> Optional[tuple[int, ...]]:
        if i == len(gens):
            return tuple(phi.tolist())
        for h in pools[i]:
            grown, mapped, x, y = phi.copy(), dom, gens[i], h
            while grown[x] < 0:
                grown[R.np_add[x][mapped]] = S.np_add[y][grown[mapped]]   # + commutes
                mapped, x, y = (grown >= 0).nonzero()[0], R.np_add[x, x], S.np_add[y, y]
            img = grown[mapped]
            if np.count_nonzero(img == S.zero) > 1:     # an additive map's kernel
                continue
            # every sum in the subgroup is mapped; a product may not be yet (-1)
            P = grown[_pair(TR, mapped, mapped)]
            if ((P == _pair(TS, img, img)) | (P < 0)).all():
                found = search(grown, mapped, i + 1)
                if found is not None:
                    return found
        return None

    phi = np.full(R.order, -1, dtype=np.int32)     # the table dtype
    phi[R.zero] = S.zero
    return search(phi, np.array([R.zero]), 0)


# ---------------------------------------------------------------------------
# RingExpr concrete grammar

# After optional whitespace: ASCII integer | name | quoted string | punctuation | stray character
_TOKEN = re.compile(r"""\s*(?:(-?[0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|("[^"]*"|'[^']*')"""
                    r"""|([(),=\[\]])|(\S))""")


def _tokenize(text: str) -> list[tuple]:
    """(kind, value, position) triples, strings unquoted, then ("end", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        value, at = m.group(group), m.start(group)
        if group == 5:
            raise ParseError("unterminated string" if value in "'\""
                             else f"unexpected character {value!r}", at)
        kind = ("integer", "name", "string", value)[group - 1]
        value = int(value) if group == 1 else value[1:-1] if group == 3 else value
        tokens.append((kind, value, at))
    return tokens + [("end", "", len(text))]


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
    """expr := name "(" [item {"," item}] ")";  item := name "=" value | expr |
    integer | string;  value := integer | "[" [integer {"," integer}] "]"."""
    tokens, i = _tokenize(text), 0

    def take(*kinds):
        nonlocal i
        kind, value, at = tokens[i]
        if kinds and kind not in kinds:
            raise ParseError(f"expected {' or '.join(kinds)}", at)
        i += 1
        return value

    def listed(item, brackets: str) -> list:
        take(brackets[0])
        out = [] if tokens[i][0] == brackets[1] else [item()]
        while tokens[i][0] == ",":
            take(",")
            out.append(item())
        take(brackets[1])
        return out

    def item():
        at = tokens[i][2]
        if tokens[i][0] == "name" and tokens[i + 1][0] == "=":
            key = take()
            take("=")
            return key, (listed(lambda: take("integer"), "[]") if tokens[i][0] == "["
                         else take("integer")), at
        return None, (expr() if tokens[i][0] == "name" else take("integer", "string")), at

    def expr() -> RingExpr:
        at = tokens[i][2]
        head = take("name")
        args, kwargs = [], {}
        for key, value, key_at in listed(item, "()"):
            if key in kwargs:
                raise ParseError(f"repeated keyword {key!r}", key_at)
            if key is None:
                args.append(value)
            else:
                kwargs[key] = value
        return RingExpr(head, args, kwargs, at)

    tree = expr()
    take("end")
    return tree


# head: (builder, positional kinds, keyword kinds).  A builder takes the
# positional arguments and the keywords by name, and looks its constructor up
# by module-level name when called, so it calls a rebound (say, traced) one.
# "ring" is a nested expression; Prod's "..." repeats its ring.  Every keyword
# is required but Quot's gens, which defaults to no generators.
_CONSTRUCTORS = {
    "Zn": (lambda k: make_zn(k), ("int",), {}),
    "M": (lambda n, R: matrix_ring(n, R), ("int", "ring"), {}),
    "T": (lambda n, R: upper_triangular_ring(n, R), ("int", "ring"), {}),
    "Prod": (lambda *parts: direct_product(parts), ("ring", "..."), {}),
    "Corner": (lambda R, e: corner_ring(R, e).ring, ("ring",), {"e": "int"}),
    "Quot": (lambda R, gens=(): quotient_ring(R, two_sided_ideal_generated(R, gens)).ring,
             ("ring",), {"gens": "list"}),
    "Hst": (lambda R, s, t: hst_ring(R, s, t), ("ring",), {"s": "int", "t": "int"}),
    "Lst": (lambda R, s, t: lst_ring(R, s, t), ("ring",), {"s": "int", "t": "int"}),
    "K0": (lambda R: ks_ring(R, R.zero), ("ring",), {}),
    "Ks": (lambda R, s: ks_ring(R, s), ("ring",), {"s": "int"}),
    "Tri": (lambda S, T: formal_triangular(S, T), ("ring", "ring"), {}),
    "Morita": (lambda A, B: trivial_morita(A, B), ("ring", "ring"), {}),
    "File": (lambda path: loads_ring(Path(path).read_text(encoding="utf-8")), ("str",), {}),
}


def _kind(value) -> str:
    return "ring" if isinstance(value, RingExpr) else type(value).__name__


def build_ring_expr(expr: RingExpr) -> FiniteRing:
    """Evaluate a parsed RingExpr into a validated FiniteRing.  ParseError at
    the expression unless its arguments fit the head's `_CONSTRUCTORS` entry:
    no surplus or missing argument, no wrong kind, no unknown keyword."""
    if expr.head not in _CONSTRUCTORS:
        raise ParseError(f"unknown constructor {expr.head!r}", expr.pos)
    build, kinds, keywords = _CONSTRUCTORS[expr.head]
    given = tuple(map(_kind, expr.args))
    fits = given == kinds or (kinds[-1] == "..." and given and set(given) == {kinds[0]})
    if (not fits or set(keywords) - {"gens"} - set(expr.kwargs)
            or any(keywords.get(k) != _kind(v) for k, v in expr.kwargs.items())):
        want = ", ".join(kinds + tuple(f"{k}={v}" for k, v in keywords.items()))
        got = ", ".join(given + tuple(f"{k}={_kind(v)}" for k, v in expr.kwargs.items()))
        raise ParseError(f"{expr.head} takes ({want}), got ({got})", expr.pos)
    args = [build_ring_expr(a) if isinstance(a, RingExpr) else a for a in expr.args]
    try:
        return build(*args, **expr.kwargs)
    except ValueError as exc:       # File: malformed JSON or UTF-8, a NUL in the path
        raise ParseError(f"bad arguments for {expr.head}: {exc}", expr.pos) from exc


def construct(text: str) -> FiniteRing:
    return build_ring_expr(parse_ring_expr(text))
