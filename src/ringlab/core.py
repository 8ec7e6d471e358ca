"""Finite unital rings as explicit operation tables.

Elements are opaque indices 0..n-1; all semantics live in the addition and
multiplication tables, stored once each as a read-only C-ordered int32 numpy
array (`np_add`, `np_mul`); scalar code reads `tolist()` copies.
Validation is exact and happens at construction time, so everything
downstream may assume the ring axioms hold.  A subset of a ring, an ideal
or a radical included, is an int bitmask (bit i = element i) everywhere,
the API included; `mask_elems` lists its members.  A table entry is a numpy
scalar: convert it with int() before it reaches a bitmask shift, a label or
JSON.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import operator
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# Size and effort caps, all fixed.  The module that checks a cap reads its
# own binding when the check runs, so a test patches the cap there; SIZE_CAP
# is read by `check_size`, before any table of that order is built or scanned.
SIZE_CAP = 4096  # largest ring order
LATTICE_CAP = 100_000  # right ideals one lattice search may find
ARMENDARIZ_CAP = 128  # largest order the delta-linear Armendariz scan accepts
QUANTIFIER_CAP = 32  # largest order at which the r2 and r4 routes to delta run

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
    """A ring would exceed SIZE_CAP, or an enumeration or a scan its own cap."""


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
    if mask < 0:        # its low bits never run out
        raise DimensionMismatch(f"mask {mask} is negative")
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
    """The bitmask of every row of a 2-d boolean array.  Rows are packed
    from a C-ordered copy: packbits along the rows of a column-major view
    costs some 30 times more."""
    packed = np.packbits(np.ascontiguousarray(arr, dtype=bool), axis=1, bitorder="little")
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
    and `np_mul`; everything derived from them lives in the per-digest
    `cache`.  Instances are immutable after construction and safe to share
    across threads.  Construct through `validate_ring` (or a constructor in
    `ringlab.constructions`), which checks every axiom exactly.
    """

    __slots__ = ("name", "order", "zero", "one", "np_add", "np_mul", "labels", "meta",
                 "_digest", "_cache_ref", "__weakref__")

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

    # -- element arithmetic --------------------------------------------------

    @property
    def neg(self) -> np.ndarray:
        """neg[a] = -a, as a read-only int array."""
        def compute():
            neg = np.argmax(self.np_add == self.zero, axis=1)
            neg.setflags(write=False)
            return neg
        return _cached(self, "neg", compute)

    def elements(self) -> range:
        return range(self.order)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(int(i))

    def full_mask(self) -> int:
        return (1 << self.order) - 1


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


def check_mask(R: FiniteRing, m: int) -> None:
    """DimensionMismatch unless the mask m is a subset of R: bits past the
    order would be dropped or overflow when the mask is read."""
    if not 0 <= m <= R.full_mask():
        raise DimensionMismatch(f"ideal mask {m:#x} is not a subset of {R.name} "
                                f"(0..{R.order - 1})")


def ideal_failure(R: FiniteRing, m: int, two_sided: bool) -> Optional[tuple[str, tuple]]:
    """The first closure law the masked set breaks as a right (or two-sided)
    ideal, with its witness, or None if it is one.

    Laws in report order: contains zero; then for each member a ascending,
    -a, a + b (b in the set ascending) and a r (r ascending); then, for a
    two-sided ideal, r a for each member a ascending and r ascending.
    """
    check_mask(R, m)
    in_m = bool_from_mask(m, R.order)
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
    given as a mask: x and y lie in one coset iff their labels agree.

    Reads the rows i of the addition table for i in I, not its columns:
    validation has proved + commutative, so row i is column i."""
    return R.np_add[array_from_mask(m, R.order)].min(axis=0)


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
    # Row gathers over [a, x]: a(g+x) against ag + ax, then the same on M.T,
    # (g+x)a against ga + xa (+ is commutative by now).
    for P in (M, np.ascontiguousarray(M.T)):
        for g in S:
            if not np.array_equal(P.take(A[g], axis=1),
                                  np.take_along_axis(A[P[:, g]], P, axis=1)):
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


def _check_table(rows, shape: tuple[int, int], bound: int, tname: str) -> None:
    """DimensionMismatch unless rows is shape[0] rows of shape[1] plain ints
    in 0..bound-1 (an integer array passes; float or bool entries do not)."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    if len(rows) != shape[0]:
        raise DimensionMismatch(f"{tname} has {len(rows)} rows, expected {shape[0]}")
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)) or len(row) != shape[1]:
            length = len(row) if isinstance(row, (list, tuple)) else type(row).__name__
            raise DimensionMismatch(f"{tname} row {i} has length {length}, expected {shape[1]}")
    cells = itertools.chain.from_iterable
    if not (set(map(type, cells(rows))) <= {int}
            and min(cells(rows), default=0) >= 0 and max(cells(rows), default=0) < bound):
        for i, row in enumerate(rows):
            for v in row:
                if not _is_int(v):
                    raise DimensionMismatch(f"{tname}[{i}] entry {v!r} is not an integer")
                if not 0 <= v < bound:
                    raise DimensionMismatch(
                        f"{tname}[{i}] entry {v} out of range 0..{bound - 1}")


def check_size(name: str, order: int) -> None:
    """Raise SizeCap if `order` exceeds SIZE_CAP: the one place it is compared."""
    if order > SIZE_CAP:
        raise SizeCap(f"{name}: order {order} exceeds size cap {SIZE_CAP}")


def validate_ring(name: str, zero: int, one: int,
                  add: Sequence[Sequence[int]], mul: Sequence[Sequence[int]],
                  labels: Optional[Sequence[str]] = None,
                  meta: Optional[dict] = None) -> FiniteRing:
    """Build a FiniteRing after exactly checking every axiom (`check_ring_axioms`).

    add and mul are lists of lists of plain ints (bool is refused) or integer
    arrays.  Raises DimensionMismatch for structural problems and
    AxiomViolation (with the first failing witness) for algebraic ones.
    """
    n = len(add)
    if n == 0 or len(mul) != n:
        raise DimensionMismatch(f"need two n x n tables, got add:{len(add)} mul:{len(mul)}")
    check_size(name, n)     # before the tables are scanned
    for t, tname in ((add, "add"), (mul, "mul")):
        _check_table(t, (n, n), n, tname)
    if not (_is_int(zero) and _is_int(one)):
        raise DimensionMismatch(f"zero/one must be integers, got {zero!r}/{one!r}")
    if not (0 <= zero < n and 0 <= one < n):
        raise DimensionMismatch("zero/one index out of range")
    if labels is not None and len(labels) != n:
        raise DimensionMismatch(f"labels has length {len(labels)}, expected {n}")
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


def _nested_json(value) -> str:
    # a value one level down in an indent=1 document: re-indent its lines
    # (an encoded string never holds a raw newline)
    return json.dumps(value, indent=1).replace("\n", "\n ")


def _table_json(table: np.ndarray) -> str:
    rows = ("  [\n   " + ",\n   ".join(map(str, row)) + "\n  ]" for row in table.tolist())
    return "[\n" + ",\n".join(rows) + "\n ]"


def dumps_ring(R: FiniteRing) -> str:
    """The bytes of json.dumps(ring_to_json_dict(R), indent=1) + "\\n", with
    the two tables written directly: the indenting encoder is pure Python."""
    fields = [("name", _nested_json(R.name)), ("order", str(R.order)),
              ("zero", str(R.zero)), ("one", str(R.one)),
              ("add", _table_json(R.np_add)), ("mul", _table_json(R.np_mul))]
    if R.labels is not None:
        fields.append(("labels", _nested_json(list(R.labels))))
    return "{\n" + ",\n".join(f' "{k}": {v}' for k, v in fields) + "\n}\n"


def ring_from_json_dict(d: dict) -> FiniteRing:
    if not isinstance(d, dict):
        raise DimensionMismatch("ring JSON must be an object")
    for key in ("name", "order", "zero", "one", "add", "mul"):
        if key not in d:
            raise DimensionMismatch(f"ring JSON missing key {key!r}")
    if not isinstance(d["name"], str):
        raise DimensionMismatch("ring JSON name must be a string")
    if not isinstance(d["add"], list) or not isinstance(d["mul"], list):
        raise DimensionMismatch("ring JSON add and mul must be lists of rows")
    if not _is_int(d["order"]) or d["order"] != len(d["add"]):
        raise DimensionMismatch("declared order does not match table size")
    labels = d.get("labels")
    if "labels" in d and not (isinstance(labels, list)
                              and all(isinstance(s, str) for s in labels)):
        raise DimensionMismatch("ring JSON labels must be a list of strings")
    return validate_ring(d["name"], d["zero"], d["one"], d["add"], d["mul"],
                         labels=labels)


def loads_ring(text: str) -> FiniteRing:
    return ring_from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# element-level machinery

def _cached(R: FiniteRing, key, compute):
    # A key holds every argument that changes the value, such as a
    # predicate's name; the caps are constants, not key parts.
    cache = R.cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def units_mask(R: FiniteRing) -> int:
    """Elements u with a two-sided inverse: uv = vu = 1."""
    def compute():
        # u is a unit iff some v has uv = 1, rows only: then x -> vx is
        # injective, so onto in a finite ring, vw = 1 for some w, and w = uvw = u
        return mask_from_bool((R.np_mul == R.one).any(axis=1))
    return _cached(R, "units_mask", compute)


def idempotents_mask(R: FiniteRing) -> int:
    """All e with e*e = e; always contains zero and one."""
    def compute():
        return mask_from_bool(R.np_mul.diagonal() == np.arange(R.order))
    return _cached(R, "idempotents_mask", compute)


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


def _commute_masks(R: FiniteRing) -> tuple[int, ...]:
    # row a is comm(a); the relation is symmetric, so it is also column a
    M = R.np_mul
    return _cached(R, "commute_masks", lambda: row_masks(M == M.T))


def commutant_mask(R: FiniteRing, a: int) -> int:
    """comm(a) = {x : x a = a x}."""
    [a] = element_indices(R, [a], "element")
    return _commute_masks(R)[a]


def double_commutant_mask(R: FiniteRing, a: int) -> int:
    # x is in comm^2(a) iff x commutes with every member of comm(a)
    [a] = element_indices(R, [a], "element")
    comm = _commute_masks(R)
    m = R.full_mask()
    for y in mask_iter(comm[a]):
        m &= comm[y]
    return m


def is_central(R: FiniteRing, a: int) -> bool:
    [a] = element_indices(R, [a], "element")
    M = R.np_mul
    return bool(np.array_equal(M[:, a], M[a, :]))
