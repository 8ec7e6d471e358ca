"""Finite unital rings as explicit operation tables.

Elements are opaque indices 0..n-1; all semantics live in the addition and
multiplication tables, stored once each as a read-only C-ordered int32 numpy
array (`np_add`, `np_mul`).  The tuple-of-tuples views `add`/`mul` are built
lazily on first read, for scalar code on small rings.  Validation is exact
and happens at construction time, so everything downstream may assume the
ring axioms hold.  Subsets of a ring are carried around as int bitmasks
internally (bit i = element i) and as `ElementSet` values at the API surface.
A table entry is a numpy scalar: convert it with int() before it reaches a
bitmask shift, a label or JSON.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# Default size/effort caps.  Every cap is overridable per call; the CLI wires
# them to flags.
SIZE_WARN = 1024
SIZE_CAP = 4096
LATTICE_CAP = 100_000
ARMENDARIZ_CAP = 128
QUANTIFIER_CAP = 32  # order bound for checks that quantify over the full ideal lattice

TOOL_VERSION = "0.1.0"


class RinglabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RinglabError):
    """Tables are ragged, non-square, or contain out-of-range entries."""


class AxiomViolation(RinglabError):
    """A ring axiom fails; carries the axiom name and a witness tuple."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"{axiom} fails at witness {witness}")


class SizeCap(RinglabError):
    """A construction or check would exceed the configured size cap."""


class LatticeCap(RinglabError):
    """The right-ideal lattice exceeded the configured cap."""


class NotIdempotent(RinglabError):
    pass


class NotTwoSidedIdeal(RinglabError):
    pass


class NotCentralUnit(RinglabError):
    pass


class NotCentral(RinglabError):
    pass


class ClosureViolation(RinglabError):
    """A parametrized subring construction produced an element outside the family."""


class BimoduleAxiomViolation(RinglabError):
    pass


class SocleNotTwoSided(RinglabError):
    pass


class CrossCheckMismatch(RinglabError):
    """Two independent algorithms for the same invariant disagree."""


class CharacterizationMismatch(RinglabError):
    """Equivalent predicate characterizations disagree on one ring."""


class UnknownPredicate(RinglabError):
    pass


class ParseError(RinglabError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


# ---------------------------------------------------------------------------
# bitmask helpers

def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def mask_iter(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_elems(mask: int) -> tuple[int, ...]:
    return tuple(mask_iter(mask))


def mask_from_bool(arr: np.ndarray) -> int:
    packed = np.packbits(arr.astype(bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def row_masks(arr: np.ndarray) -> tuple[int, ...]:
    """The bitmask of every row of a 2-d boolean array."""
    packed = np.packbits(arr.astype(bool), axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def bool_from_mask(mask: int, n: int) -> np.ndarray:
    raw = mask.to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits[:n].astype(bool)


def array_from_mask(mask: int, n: int) -> np.ndarray:
    return np.flatnonzero(bool_from_mask(mask, n))


# Per-table-digest cache shared between rings with identical tables, so a
# corner at e = 1 reuses the radicals already computed for its parent.
_SHARED_CACHE: dict[str, dict] = {}


def clear_shared_cache() -> None:
    """Empty every per-digest dict in place, so rings that already hold one
    start cold too, and later rings with the same digest share it again."""
    for entries in _SHARED_CACHE.values():
        entries.clear()


def _frozen_table(rows) -> np.ndarray:
    # a private C-ordered copy, so no caller can write through to the ring
    table = np.array(rows, dtype=np.int32, order="C")
    table.setflags(write=False)
    return table


class FiniteRing:
    """An order-n unital ring given by n*n addition and multiplication tables.

    The tables are stored once, as read-only C-ordered int32 arrays `np_add`
    and `np_mul`; `add`/`mul` are tuple-of-tuples views of them, built on
    first read and cached.  Instances are immutable after construction and
    safe to share across threads.  Construct through `validate_ring` (or a
    constructor in `ringlab.constructions`), which checks every axiom exactly.
    """

    __slots__ = ("name", "order", "zero", "one", "np_add", "np_mul", "labels", "meta",
                 "_add", "_mul", "_neg", "_digest", "_cache_ref", "__weakref__")

    def __init__(self, name: str, zero: int, one: int, add, mul,
                 labels: Optional[Sequence[str]] = None,
                 meta: Optional[dict] = None):
        self.name = name
        self.np_add = _frozen_table(add)
        self.np_mul = _frozen_table(mul)
        self.order = len(self.np_add)
        self.zero = operator.index(zero)
        self.one = operator.index(one)
        self.labels = tuple(labels) if labels is not None else None
        self.meta = dict(meta) if meta else {}
        self._add = None
        self._mul = None
        self._neg = None
        self._digest = None
        self._cache_ref = None

    # -- identity / hashing -------------------------------------------------

    @property
    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha1()
            h.update(f"{self.order}:{self.zero}:{self.one}:".encode())
            h.update(self.np_add.tobytes())
            h.update(self.np_mul.tobytes())
            self._digest = h.hexdigest()
        return self._digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteRing):
            return NotImplemented
        return (self.order == other.order and self.zero == other.zero
                and self.one == other.one and np.array_equal(self.np_add, other.np_add)
                and np.array_equal(self.np_mul, other.np_mul))

    def __hash__(self) -> int:
        return hash(self.digest)

    def __repr__(self) -> str:
        return f"FiniteRing({self.name!r}, order={self.order})"

    @property
    def cache(self) -> dict:
        """Mutable scratch space shared by all rings with identical tables."""
        if self._cache_ref is None:
            self._cache_ref = _SHARED_CACHE.setdefault(self.digest, {})
        return self._cache_ref

    # -- tuple views, for scalar code on small rings ---------------------------

    @property
    def add(self) -> tuple[tuple[int, ...], ...]:
        if self._add is None:
            self._add = tuple(map(tuple, self.np_add.tolist()))
        return self._add

    @property
    def mul(self) -> tuple[tuple[int, ...], ...]:
        if self._mul is None:
            self._mul = tuple(map(tuple, self.np_mul.tolist()))
        return self._mul

    # -- element arithmetic --------------------------------------------------

    @property
    def neg(self) -> np.ndarray:
        """neg[a] = -a, as a read-only int array."""
        if self._neg is None:
            neg = np.argmax(self.np_add == self.zero, axis=1)
            neg.setflags(write=False)
            self._neg = neg
        return self._neg

    def sub(self, a: int, b: int) -> int:
        return int(self.np_add[a, self.neg[b]])

    def power(self, a: int, k: int) -> int:
        acc = self.one
        for _ in range(k):
            acc = self.np_mul[acc, a]
        return int(acc)

    def elements(self) -> range:
        return range(self.order)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(int(i))

    def full_mask(self) -> int:
        return (1 << self.order) - 1


@dataclass(frozen=True)
class ElementSet:
    """A subset of a ring's elements with a role tag.

    kind is one of "subset", "right-ideal", "two-sided-ideal"; the factory
    `element_set` verifies the closure properties the tag promises.
    """
    ring: FiniteRing = field(repr=False)
    elems: tuple[int, ...]
    kind: str = "subset"

    @cached_property
    def mask(self) -> int:
        return mask_of(self.elems)

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> x) & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def is_full(self) -> bool:
        return len(self.elems) == self.ring.order

    def labels(self) -> tuple[str, ...]:
        return tuple(self.ring.label(i) for i in self.elems)


def element_indices(R: FiniteRing, xs: Iterable, role: str) -> list[int]:
    """xs as plain ints; DimensionMismatch unless each one indexes an element
    of R (a negative index would silently wrap around in a numpy table)."""
    out = []
    for x in xs:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) \
                or not 0 <= x < R.order:
            raise DimensionMismatch(
                f"{role} {x!r} is not an element of {R.name} (0..{R.order - 1})")
        out.append(int(x))
    return out


def element_set(R: FiniteRing, elems: Iterable[int], kind: str = "subset",
                check: bool = True) -> ElementSet:
    es = ElementSet(R, tuple(sorted({int(x) for x in elems})), kind)
    if check:
        _check_element_set(es)
    return es


def element_set_from_mask(R: FiniteRing, mask: int, kind: str = "subset",
                          check: bool = True) -> ElementSet:
    es = ElementSet(R, mask_elems(mask), kind)
    if check:
        _check_element_set(es)
    return es


def ideal_failure(R: FiniteRing, m: int, two_sided: bool) -> Optional[tuple[str, tuple]]:
    """The first closure law the masked set breaks as a right (or two-sided)
    ideal, with its witness, or None if it is one.

    Laws in report order: contains zero; then for each member a ascending,
    -a, a + b (b in the set ascending) and a r (r ascending); then, for a
    two-sided ideal, r a for each member a ascending and r ascending.
    """
    n = R.order
    in_m = bool_from_mask(m, n)
    if not in_m[R.zero]:
        return "contains zero", (R.zero,)
    elems = np.flatnonzero(in_m)
    ok_neg = in_m[R.neg[elems]]
    ok_add = in_m[R.np_add[np.ix_(elems, elems)]]
    ok_mul = in_m[R.np_mul[elems]]
    row_ok = ok_neg & ok_add.all(axis=1) & ok_mul.all(axis=1)
    if not row_ok.all():
        i = int(np.argmin(row_ok))
        a = int(elems[i])
        if not ok_neg[i]:
            return "negation closure", (a,)
        if not ok_add[i].all():
            return "addition closure", (a, int(elems[np.argmin(ok_add[i])]))
        return "right multiplication closure", (a, int(np.argmin(ok_mul[i])))
    if two_sided:
        ok_left = in_m[R.np_mul[:, elems]]
        col_ok = ok_left.all(axis=0)
        if not col_ok.all():
            i = int(np.argmin(col_ok))
            return "left multiplication closure", (int(np.argmin(ok_left[:, i])), int(elems[i]))
    return None


def _check_element_set(es: ElementSet) -> None:
    R, kind = es.ring, es.kind
    if kind not in ("subset", "right-ideal", "two-sided-ideal"):
        raise ValueError(f"unknown ElementSet kind {kind!r}")
    if es.elems and (es.elems[0] < 0 or es.elems[-1] >= R.order):
        raise DimensionMismatch("element index out of range")
    if kind == "subset":
        return
    failure = ideal_failure(R, es.mask, kind == "two-sided-ideal")
    if failure is not None:
        law, witness = failure
        raise AxiomViolation(f"{kind} {law}", witness)


# ---------------------------------------------------------------------------
# additive subgroups

def additive_span(A: np.ndarray, zero: int,
                  candidates: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Greedy generators S of the additive subgroup spanned by `candidates`
    (ascending indices), and that subgroup as a boolean array.

    The least candidate g not yet reached joins S, and the reached set H
    grows to H + <g>: add the translates H + 2^j g until 2^j g falls inside,
    which is the closure of zero under x -> x + g (g in S) in a group.  Each
    new generator of a group at least doubles H, so a group needs
    2^|S| <= n; None when S outgrows that (+ is then not associative, given
    identity and inverses).  Every reached element is a sum of members of S.
    """
    n = len(A)
    reached = np.zeros(n, dtype=bool)
    reached[zero] = True
    gens: list[int] = []
    while True:
        left = candidates[~reached[candidates]]
        if not left.size:
            return np.array(gens, dtype=np.intp), reached
        gens.append(int(left[0]))
        if 1 << len(gens) > n:
            return None
        x = gens[-1]
        while not reached[x]:
            reached[A[np.flatnonzero(reached), x]] = True
            x = A[x, x]


def coset_labels(R: FiniteRing, m: int) -> np.ndarray:
    """label[x] = the least element of x + I, for the additive subgroup I
    given as a mask: x and y lie in one coset iff their labels agree."""
    return R.np_add[:, array_from_mask(m, R.order)].min(axis=1)


# ---------------------------------------------------------------------------
# validation

def _small_tables(R: FiniteRing) -> tuple[np.ndarray, np.ndarray]:
    # int16 gathers keep the tables cache-resident
    A = R.np_add.astype(np.int16) if R.order < 2 ** 15 else np.asarray(R.np_add)
    return A, R.np_mul.astype(A.dtype)


def _check_additive_basics(R: FiniteRing, A: np.ndarray) -> None:
    """The O(n^2) laws checked first: zero != one, then identity,
    commutativity and inverses of +."""
    n, zero = R.order, R.zero
    if n > 1 and zero == R.one:
        raise AxiomViolation("zero != one in a nontrivial ring", (zero,))
    idx = np.arange(n, dtype=A.dtype)
    if not np.array_equal(A[zero], idx):
        i = int(np.flatnonzero(A[zero] != idx)[0])
        raise AxiomViolation("additive identity", (zero, i))
    if not np.array_equal(A, A.T):
        bad = np.argwhere(A != A.T)
        raise AxiomViolation("additive commutativity", tuple(int(v) for v in bad[0]))
    has_inverse = (A == zero).any(axis=1)
    if not has_inverse.all():
        raise AxiomViolation("additive inverse", (int(np.argmin(has_inverse)),))


def _check_identities(R: FiniteRing, M: np.ndarray) -> None:
    one = R.one
    idx = np.arange(R.order, dtype=M.dtype)
    if not np.array_equal(M[one], idx):
        i = int(np.flatnonzero(M[one] != idx)[0])
        raise AxiomViolation("left multiplicative identity", (one, i))
    if not np.array_equal(M[:, one], idx):
        i = int(np.flatnonzero(M[:, one] != idx)[0])
        raise AxiomViolation("right multiplicative identity", (i, one))


# The cubic laws in report order: additive associativity comes before the
# multiplicative identities, the other three after them.
_ADDITIVE_LAWS = ("additive associativity",)
_MULTIPLICATIVE_LAWS = ("multiplicative associativity", "left distributivity",
                        "right distributivity")


def _law_slices(law: str, A: np.ndarray, M: np.ndarray):
    """The two n*n slices over (j, k), as functions of the first index i,
    that agree everywhere iff `law` holds."""
    if law == "additive associativity":      # (i+j)+k == i+(j+k)
        return lambda i: A[A[i]], lambda i: A[i][A]
    if law == "multiplicative associativity":  # (ij)k == i(jk)
        return lambda i: M[M[i]], lambda i: M[i][M]
    if law == "left distributivity":          # a(b+c) == ab + ac
        return lambda a: M[a][A], lambda a: A[np.ix_(M[a], M[a])]
    MT = np.ascontiguousarray(M.T)            # (b+c)a == ba + ca
    return lambda a: MT[a][A], lambda a: A[np.ix_(MT[a], MT[a])]


def _first_mismatch_3d(lhs_of_i, rhs_of_i, n: int) -> Optional[tuple[int, int, int]]:
    """Scan i = 0..n-1 for the first (i, j, k) where the two n*n slices differ."""
    for i in range(n):
        L = lhs_of_i(i)
        Rs = rhs_of_i(i)
        if not np.array_equal(L, Rs):
            bad = np.argwhere(L != Rs)
            j, k = (int(v) for v in bad[0])
            return (i, j, k)
    return None


def _scan_laws(R: FiniteRing, laws: Sequence[str]) -> None:
    """Exhaustive O(n^3) scan of `laws` in order; raises AxiomViolation at the
    lex-least witness of the first law that fails."""
    A, M = _small_tables(R)
    for law in laws:
        w = _first_mismatch_3d(*_law_slices(law, A, M), R.order)
        if w is not None:
            raise AxiomViolation(law, w)


def _distributive_on(A: np.ndarray, M: np.ndarray, S: np.ndarray) -> bool:
    # Given (R,+) an abelian group, {y : a(x+y) = ax + ay for all a, x} is
    # closed under +, so holding on S it holds on R; likewise on the right.
    for g in S:
        if not np.array_equal(M[:, A[:, g]], A[M, M[:, g, None]]):
            return False
        if not np.array_equal(M[A[:, g]], A[M, M[None, g]]):
            return False
    return True


def _associative_on(M: np.ndarray, S: np.ndarray) -> bool:
    # Under biadditivity the associator is additive in each argument, so it
    # vanishes everywhere once it vanishes on generator triples.
    MS = M[np.ix_(S, S)]
    return bool(np.array_equal(M[MS[:, :, None], S[None, None, :]],
                               M[S[:, None, None], MS[None, :, :]]))


def check_ring_axioms(R: FiniteRing) -> None:
    """Exactly verify every ring axiom on R's tables in O(n^2 log n).

    The O(n^2) laws are checked directly.  The cubic laws are checked from
    greedy additive generators S (|S| <= log2 n for a group): additive
    associativity by Light's test on S, both distributive laws for y in S,
    and multiplicative associativity on S^3, which together decide them on
    all of R.  When a generator check fails, the exhaustive O(n^3) scan of
    the same laws runs in report order, so AxiomViolation carries the same
    axiom and lex-least witness as a full scan would.
    """
    A, M = _small_tables(R)
    _check_additive_basics(R, A)
    # Light's test: {g : (x+g)+y = x+(g+y) for all x, y} is closed under +
    span = additive_span(A, R.zero, np.arange(R.order))
    if span is None or any(not np.array_equal(A[A[:, g]], A[:, A[g]]) for g in span[0]):
        _scan_laws(R, _ADDITIVE_LAWS)
        raise RinglabError(f"{R.name}: additive generator check failed but the "
                           "exhaustive scan found no violation")
    S = span[0]
    _check_identities(R, M)
    if not (_distributive_on(A, M, S) and _associative_on(M, S)):
        _scan_laws(R, _MULTIPLICATIVE_LAWS)
        raise RinglabError(f"{R.name}: multiplicative generator check failed but "
                           "the exhaustive scan found no violation")


def _is_int(v) -> bool:
    # bool is an int subclass, but true/false in a table is a malformed entry
    return type(v) is int


def _check_table(rows, n: int, tname: str) -> None:
    """DimensionMismatch unless rows is n rows of n plain ints in 0..n-1."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()       # int arrays pass; float or bool entries do not
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != n:
            length = len(row) if isinstance(row, (list, tuple)) else type(row).__name__
            raise DimensionMismatch(f"{tname} row {i} has length {length}, expected {n}")
    cells = itertools.chain.from_iterable
    if not (set(map(type, cells(rows))) <= {int}
            and min(cells(rows)) >= 0 and max(cells(rows)) < n):
        for i, row in enumerate(rows):
            for v in row:
                if not _is_int(v):
                    raise DimensionMismatch(f"{tname}[{i}] entry {v!r} is not an integer")
                if not 0 <= v < n:
                    raise DimensionMismatch(f"{tname}[{i}] entry {v} out of range 0..{n - 1}")


def validate_ring(name: str, zero: int, one: int,
                  add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                  labels: Optional[Sequence[str]] = None,
                  meta: Optional[dict] = None,
                  size_cap: int = SIZE_CAP, warn_at: int = SIZE_WARN) -> FiniteRing:
    """Build a FiniteRing after exactly checking every axiom (`check_ring_axioms`).

    add and mul are lists of lists of plain ints (bool is refused) or integer
    arrays.  Raises DimensionMismatch for structural problems and
    AxiomViolation (with the first failing witness) for algebraic ones.
    """
    n = len(add)
    if n == 0 or len(mul) != n:
        raise DimensionMismatch(f"need two n x n tables, got add:{len(add)} mul:{len(mul)}")
    for t, tname in ((add, "add"), (mul, "mul")):
        _check_table(t, n, tname)
    if not (_is_int(zero) and _is_int(one)):
        raise DimensionMismatch(f"zero/one must be integers, got {zero!r}/{one!r}")
    if not (0 <= zero < n and 0 <= one < n):
        raise DimensionMismatch("zero/one index out of range")
    if labels is not None and len(labels) != n:
        raise DimensionMismatch(f"labels has length {len(labels)}, expected {n}")
    if n > size_cap:
        raise SizeCap(f"order {n} exceeds size cap {size_cap}")
    if n > warn_at:
        warnings.warn(f"ring {name!r} has order {n} > {warn_at}; its right-ideal lattice "
                      "and predicates will be slow", stacklevel=2)
    R = FiniteRing(name, zero, one, add, mul, labels, meta)
    check_ring_axioms(R)
    return R


# ---------------------------------------------------------------------------
# ring JSON (bit-exact contract shared by the CLI and the test fixtures)

def ring_to_json_dict(R: FiniteRing) -> dict:
    d = {
        "name": R.name,
        "order": R.order,
        "zero": R.zero,
        "one": R.one,
        "add": R.np_add.tolist(),
        "mul": R.np_mul.tolist(),
    }
    if R.labels is not None:
        d["labels"] = list(R.labels)
    return d


def dumps_ring(R: FiniteRing) -> str:
    return json.dumps(ring_to_json_dict(R), indent=1) + "\n"


def ring_from_json_dict(d: dict, size_cap: int = SIZE_CAP) -> FiniteRing:
    if not isinstance(d, dict):
        raise DimensionMismatch("ring JSON must be an object")
    for key in ("name", "order", "zero", "one", "add", "mul"):
        if key not in d:
            raise DimensionMismatch(f"ring JSON missing key {key!r}")
    if not isinstance(d["add"], list) or not isinstance(d["mul"], list):
        raise DimensionMismatch("ring JSON add and mul must be lists of rows")
    if not _is_int(d["order"]) or d["order"] != len(d["add"]):
        raise DimensionMismatch("declared order does not match table size")
    return validate_ring(d["name"], d["zero"], d["one"], d["add"], d["mul"],
                         labels=d.get("labels"), size_cap=size_cap)


def loads_ring(text: str, size_cap: int = SIZE_CAP) -> FiniteRing:
    return ring_from_json_dict(json.loads(text), size_cap=size_cap)


# ---------------------------------------------------------------------------
# element-level machinery

def _cached(R: FiniteRing, key, compute):
    # Entries derived from the right-ideal lattice carry lattice_cap in their
    # key, so a warm entry never bypasses the cap check in the lattice search.
    cache = R.cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def units_mask(R: FiniteRing) -> int:
    def compute():
        is_one = R.np_mul == R.one
        # u is a unit iff some v has uv = 1 and vu = 1
        return mask_from_bool((is_one & is_one.T).any(axis=1))
    return _cached(R, "units_mask", compute)


def units(R: FiniteRing) -> ElementSet:
    """Elements u with a two-sided inverse: uv = vu = 1."""
    return element_set_from_mask(R, units_mask(R), "subset", check=False)


def unit_inverse(R: FiniteRing, u: int) -> int:
    M = R.np_mul
    inverses = np.flatnonzero((M[u] == R.one) & (M[:, u] == R.one))
    if inverses.size == 0:
        raise RinglabError(f"element {u} is not a unit")
    return int(inverses[0])


def idempotents_mask(R: FiniteRing) -> int:
    def compute():
        return mask_from_bool(R.np_mul.diagonal() == np.arange(R.order))
    return _cached(R, "idempotents_mask", compute)


def idempotents(R: FiniteRing) -> ElementSet:
    """All e with e*e = e; always contains zero and one."""
    return element_set_from_mask(R, idempotents_mask(R), "subset", check=False)


def high_powers(R: FiniteRing) -> np.ndarray:
    """x^(2^k) for every x, with 2^k >= order(R).

    The powers of x take at most order(R) distinct values, so some power of
    x lies in a two-sided ideal I iff this one does (I absorbs products).
    """
    def compute():
        M = R.np_mul
        p = np.arange(R.order)
        for _ in range((R.order - 1).bit_length()):
            p = M[p, p]
        p.setflags(write=False)
        return p
    return _cached(R, "high_powers", compute)


def nilpotents_mask(R: FiniteRing) -> int:
    def compute():
        return mask_from_bool(high_powers(R) == R.zero)
    return _cached(R, "nilpotents_mask", compute)


def nilpotents(R: FiniteRing) -> ElementSet:
    return element_set_from_mask(R, nilpotents_mask(R), "subset", check=False)


def left_annihilator(R: FiniteRing, a: int) -> ElementSet:
    """l_R(a) = {x : x a = 0}, returned as a plain subset (it is a left ideal)."""
    return element_set_from_mask(R, mask_from_bool(R.np_mul[:, a] == R.zero), "subset",
                                 check=False)


def right_annihilator(R: FiniteRing, a: int) -> ElementSet:
    """r_R(a) = {x : a x = 0}."""
    return element_set_from_mask(R, mask_from_bool(R.np_mul[a] == R.zero), "subset",
                                 check=False)


def _commute_masks(R: FiniteRing) -> tuple[int, ...]:
    # row a is comm(a); the relation is symmetric, so it is also column a
    M = R.np_mul
    return _cached(R, "commute_masks", lambda: row_masks(M == M.T))


def commutant_mask(R: FiniteRing, a: int) -> int:
    return _commute_masks(R)[a]


def commutant(R: FiniteRing, a: int) -> ElementSet:
    """comm(a) = {x : x a = a x}."""
    return element_set_from_mask(R, commutant_mask(R, a), "subset", check=False)


def double_commutant_mask(R: FiniteRing, a: int) -> int:
    # x is in comm^2(a) iff x commutes with every member of comm(a)
    comm = _commute_masks(R)
    m = R.full_mask()
    for y in mask_iter(comm[a]):
        m &= comm[y]
    return m


def double_commutant(R: FiniteRing, a: int) -> ElementSet:
    return element_set_from_mask(R, double_commutant_mask(R, a), "subset", check=False)


def is_central(R: FiniteRing, a: int) -> bool:
    M = R.np_mul
    return bool(np.array_equal(M[:, a], M[a, :]))
