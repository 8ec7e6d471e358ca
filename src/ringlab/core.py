"""Finite unital rings as explicit operation tables.

Elements are opaque indices 0..n-1; all semantics live in the addition and
multiplication tables.  Validation is exhaustive and happens at construction
time, so everything downstream may assume the ring axioms hold.  Subsets of a
ring are carried around as int bitmasks internally (bit i = element i) and as
`ElementSet` values at the API surface.
"""
from __future__ import annotations

import hashlib
import json
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


def _intern_table(rows: Sequence[Sequence[int]], pool: list[int]) -> tuple[tuple[int, ...], ...]:
    # route every cell through one int pool so a 1024^2 table shares 1024 objects
    return tuple(tuple(pool[v] for v in row) for row in rows)


class FiniteRing:
    """An order-n unital ring given by n*n addition and multiplication tables.

    Instances are immutable after construction and safe to share across
    threads.  Construct through `validate_ring` (or a constructor in
    `ringlab.constructions`), which checks every axiom exhaustively.
    """

    __slots__ = ("name", "order", "zero", "one", "add", "mul", "labels", "meta",
                 "_neg", "_np_add", "_np_mul", "_digest", "_cache_ref", "__weakref__")

    def __init__(self, name: str, zero: int, one: int,
                 add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                 labels: Optional[Sequence[str]] = None,
                 meta: Optional[dict] = None):
        n = len(add)
        pool = list(range(n))
        self.name = name
        self.order = n
        self.zero = zero
        self.one = one
        self.add = _intern_table(add, pool)
        self.mul = _intern_table(mul, pool)
        self.labels = tuple(labels) if labels is not None else None
        self.meta = dict(meta) if meta else {}
        self._neg = None
        self._np_add = None
        self._np_mul = None
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
                and self.one == other.one and self.add == other.add
                and self.mul == other.mul)

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

    # -- numpy mirrors -------------------------------------------------------

    @property
    def np_add(self) -> np.ndarray:
        if self._np_add is None:
            a = np.asarray(self.add, dtype=np.int32)
            a.setflags(write=False)
            self._np_add = a
        return self._np_add

    @property
    def np_mul(self) -> np.ndarray:
        if self._np_mul is None:
            m = np.asarray(self.mul, dtype=np.int32)
            m.setflags(write=False)
            self._np_mul = m
        return self._np_mul

    # -- element arithmetic --------------------------------------------------

    @property
    def neg(self) -> tuple[int, ...]:
        if self._neg is None:
            z = self.zero
            neg = [0] * self.order
            for i, row in enumerate(self.add):
                neg[i] = row.index(z)
            self._neg = tuple(neg)
        return self._neg

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def power(self, a: int, k: int) -> int:
        acc = self.one
        for _ in range(k):
            acc = self.mul[acc][a]
        return acc

    def elements(self) -> range:
        return range(self.order)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

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


def element_set(R: FiniteRing, elems: Iterable[int], kind: str = "subset",
                check: bool = True) -> ElementSet:
    es = ElementSet(R, tuple(sorted(set(elems))), kind)
    if check:
        _check_element_set(es)
    return es


def element_set_from_mask(R: FiniteRing, mask: int, kind: str = "subset",
                          check: bool = True) -> ElementSet:
    es = ElementSet(R, mask_elems(mask), kind)
    if check:
        _check_element_set(es)
    return es


def _check_element_set(es: ElementSet) -> None:
    R, kind = es.ring, es.kind
    if kind not in ("subset", "right-ideal", "two-sided-ideal"):
        raise ValueError(f"unknown ElementSet kind {kind!r}")
    if es.elems and (es.elems[0] < 0 or es.elems[-1] >= R.order):
        raise DimensionMismatch("element index out of range")
    if kind == "subset":
        return
    m = es.mask
    if not (m >> R.zero) & 1:
        raise AxiomViolation(f"{kind} contains zero", (R.zero,))
    for a in es.elems:
        row_add = R.add[a]
        if not (m >> R.neg[a]) & 1:
            raise AxiomViolation(f"{kind} negation closure", (a,))
        for b in es.elems:
            if not (m >> row_add[b]) & 1:
                raise AxiomViolation(f"{kind} addition closure", (a, b))
        row_mul = R.mul[a]
        for r in R.elements():
            if not (m >> row_mul[r]) & 1:
                raise AxiomViolation(f"{kind} right multiplication closure", (a, r))
    if kind == "two-sided-ideal":
        for a in es.elems:
            for r in R.elements():
                if not (m >> R.mul[r][a]) & 1:
                    raise AxiomViolation("two-sided-ideal left multiplication closure", (r, a))


# ---------------------------------------------------------------------------
# validation

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


def check_ring_axioms(R: FiniteRing) -> None:
    """Exhaustively verify every ring axiom on R's tables (O(n^3)).

    Raises AxiomViolation with the first failing witness.  The cubic laws run
    per row with int16 gathers to keep the tables cache-resident.
    """
    n, zero, one = R.order, R.zero, R.one
    if n > 1 and zero == one:
        raise AxiomViolation("zero != one in a nontrivial ring", (zero,))
    A = R.np_add.astype(np.int16) if n < 2 ** 15 else np.asarray(R.np_add)
    M = R.np_mul.astype(A.dtype)
    MT = np.ascontiguousarray(M.T)
    idx = np.arange(n, dtype=A.dtype)

    if not np.array_equal(A[zero], idx):
        i = int(np.flatnonzero(A[zero] != idx)[0])
        raise AxiomViolation("additive identity", (zero, i))
    if not np.array_equal(A, A.T):
        bad = np.argwhere(A != A.T)
        raise AxiomViolation("additive commutativity", tuple(int(v) for v in bad[0]))
    for i in range(n):
        if not (mask_of(R.add[i]) >> zero) & 1:
            raise AxiomViolation("additive inverse", (i,))
    w = _first_mismatch_3d(lambda i: A[A[i]], lambda i: A[i][A], n)
    if w is not None:
        raise AxiomViolation("additive associativity", w)

    if not np.array_equal(M[one], idx):
        i = int(np.flatnonzero(M[one] != idx)[0])
        raise AxiomViolation("left multiplicative identity", (one, i))
    if not np.array_equal(MT[one], idx):
        i = int(np.flatnonzero(MT[one] != idx)[0])
        raise AxiomViolation("right multiplicative identity", (i, one))
    w = _first_mismatch_3d(lambda i: M[M[i]], lambda i: M[i][M], n)
    if w is not None:
        raise AxiomViolation("multiplicative associativity", w)

    # a(b+c) == ab + ac, checked per a over the full (b, c) grid
    w = _first_mismatch_3d(lambda a: M[a][A], lambda a: A[np.ix_(M[a], M[a])], n)
    if w is not None:
        raise AxiomViolation("left distributivity", w)
    # (b+c)a == ba + ca
    w = _first_mismatch_3d(lambda a: MT[a][A], lambda a: A[np.ix_(MT[a], MT[a])], n)
    if w is not None:
        raise AxiomViolation("right distributivity", w)


def validate_ring(name: str, zero: int, one: int,
                  add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                  labels: Optional[Sequence[str]] = None,
                  meta: Optional[dict] = None,
                  size_cap: int = SIZE_CAP, warn_at: int = SIZE_WARN) -> FiniteRing:
    """Build a FiniteRing after exhaustively checking every axiom.

    Raises DimensionMismatch for structural problems and AxiomViolation (with
    the first failing witness) for algebraic ones.
    """
    n = len(add)
    if n == 0 or len(mul) != n:
        raise DimensionMismatch(f"need two n x n tables, got add:{len(add)} mul:{len(mul)}")
    for t, tname in ((add, "add"), (mul, "mul")):
        for i, row in enumerate(t):
            if len(row) != n:
                raise DimensionMismatch(f"{tname} row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not (0 <= v < n):
                    raise DimensionMismatch(f"{tname}[{i}] entry {v} out of range 0..{n - 1}")
    if not (0 <= zero < n and 0 <= one < n):
        raise DimensionMismatch("zero/one index out of range")
    if labels is not None and len(labels) != n:
        raise DimensionMismatch(f"labels has length {len(labels)}, expected {n}")
    if n > size_cap:
        raise SizeCap(f"order {n} exceeds size cap {size_cap}")
    if n > warn_at:
        warnings.warn(f"ring {name!r} has order {n} > {warn_at}; O(n^3) validation will be slow",
                      stacklevel=2)
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
        "add": [list(row) for row in R.add],
        "mul": [list(row) for row in R.mul],
    }
    if R.labels is not None:
        d["labels"] = list(R.labels)
    return d


def dumps_ring(R: FiniteRing) -> str:
    return json.dumps(ring_to_json_dict(R), indent=1) + "\n"


def ring_from_json_dict(d: dict, size_cap: int = SIZE_CAP) -> FiniteRing:
    for key in ("name", "order", "zero", "one", "add", "mul"):
        if key not in d:
            raise DimensionMismatch(f"ring JSON missing key {key!r}")
    if d["order"] != len(d["add"]):
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
        one = R.one
        m = 0
        for u in R.elements():
            row = R.mul[u]
            for v in R.elements():
                if row[v] == one and R.mul[v][u] == one:
                    m |= 1 << u
                    break
        return m
    return _cached(R, "units_mask", compute)


def units(R: FiniteRing) -> ElementSet:
    """Elements u with a two-sided inverse: uv = vu = 1."""
    return element_set_from_mask(R, units_mask(R), "subset", check=False)


def unit_inverse(R: FiniteRing, u: int) -> int:
    one = R.one
    row = R.mul[u]
    for v in R.elements():
        if row[v] == one and R.mul[v][u] == one:
            return v
    raise RinglabError(f"element {u} is not a unit")


def idempotents_mask(R: FiniteRing) -> int:
    def compute():
        return mask_of(x for x in R.elements() if R.mul[x][x] == x)
    return _cached(R, "idempotents_mask", compute)


def idempotents(R: FiniteRing) -> ElementSet:
    """All e with e*e = e; always contains zero and one."""
    return element_set_from_mask(R, idempotents_mask(R), "subset", check=False)


def nilpotents_mask(R: FiniteRing) -> int:
    # powers of x cycle within order(R) steps, so the exponent bound n suffices
    def compute():
        z = R.zero
        m = 0
        for x in R.elements():
            p = x
            for _ in range(R.order):
                if p == z:
                    m |= 1 << x
                    break
                p = R.mul[p][x]
        return m
    return _cached(R, "nilpotents_mask", compute)


def nilpotents(R: FiniteRing) -> ElementSet:
    return element_set_from_mask(R, nilpotents_mask(R), "subset", check=False)


def left_annihilator(R: FiniteRing, a: int) -> ElementSet:
    """l_R(a) = {x : x a = 0}, returned as a plain subset (it is a left ideal)."""
    z = R.zero
    return element_set(R, (x for x in R.elements() if R.mul[x][a] == z), "subset", check=False)


def right_annihilator(R: FiniteRing, a: int) -> ElementSet:
    """r_R(a) = {x : a x = 0}."""
    z = R.zero
    row = R.mul[a]
    return element_set(R, (x for x in R.elements() if row[x] == z), "subset", check=False)


def commutant_mask(R: FiniteRing, a: int) -> int:
    M = R.np_mul
    return mask_from_bool(M[:, a] == M[a, :])


def commutant(R: FiniteRing, a: int) -> ElementSet:
    """comm(a) = {x : x a = a x}."""
    return element_set_from_mask(R, commutant_mask(R, a), "subset", check=False)


def double_commutant_mask(R: FiniteRing, a: int) -> int:
    M = R.np_mul
    comm = array_from_mask(commutant_mask(R, a), R.order)
    # x is in comm^2(a) iff x commutes with every member of comm(a)
    eq = M[np.ix_(np.arange(R.order), comm)] == M[np.ix_(comm, np.arange(R.order))].T
    return mask_from_bool(eq.all(axis=1))


def double_commutant(R: FiniteRing, a: int) -> ElementSet:
    return element_set_from_mask(R, double_commutant_mask(R, a), "subset", check=False)


def is_central(R: FiniteRing, a: int) -> bool:
    M = R.np_mul
    return bool(np.array_equal(M[:, a], M[a, :]))
