"""Radical computations and the right-ideal lattice that cross-checks them.

J, Soc and delta are computed without the lattice: J from the units,
Soc(R_R) as {x : xJ = 0}, delta as the preimage of J(R/Soc).  Every call of
J and delta checks its value against a second lattice-free route (the left
unit form of J; for delta, units modulo Soc read in R).  The lattice routes (r1, the
pullback through the lattice socle and J, r2-r5) live in
`radical_characterizations`, which T1 and `radical --all-characterizations`
run, and which compares them with the production J, Soc and delta.  Any
disagreement raises CrossCheckMismatch.  The constant `LATTICE_CAP`, read
when the lattice search runs, bounds only the lattice: only these routes, T9
and `local` build it.

Every subset is an int bitmask, at the API too: each radical, the socle
checked two-sided by `socle`, and the (maximal, minimal, essential maximal)
right ideals of `all_right_ideals`.  Additive subgroups come from two kernels
in `core`: `additive_span` (greedy generators and the subgroup they span;
a sum of subgroups is the span of their union) and `coset_labels`
(label[x] = the least element of x + I).  For a subgroup I and any set C,
x lies in I + C iff label[x] is the label of some member of C, so one
ideal's labels give its sums with every cyclic ideal at once.  For
subgroups I, J, |I + J| = |I| |J| / |I n J| turns "does I + J cover R"
into popcount arithmetic.

The kernels gather rows of the tables, not columns: labels read the rows
i in I of the addition table, which equal its columns because validation
has proved + commutative; the lattice reads its per-cyclic-ideal hits as
C-ordered rows before packing them into masks.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (
    LATTICE_CAP, QUANTIFIER_CAP, CrossCheckMismatch, FiniteRing, LatticeCap,
    SocleNotTwoSided, _cached, additive_span, array_from_mask, bool_from_mask,
    coset_labels, high_powers, idempotents_mask, mask_from_bool, mask_iter,
    row_masks, units_mask)
from .constructions import is_two_sided_mask, quotient_ring


# ---------------------------------------------------------------------------
# cyclic ideals and sums

def cyclic_masks(R: FiniteRing) -> tuple[int, ...]:
    """aR for every a, as bitmasks (row a of the multiplication table)."""
    def compute():
        n = R.order
        member = np.zeros((n, n), dtype=bool)
        member[np.arange(n)[:, None], R.np_mul] = True
        return row_masks(member)
    return _cached(R, "cyc", compute)


def additive_span_mask(R: FiniteRing, m: int) -> int:
    """Smallest additive subgroup containing the masked set."""
    _, reached = additive_span(R.np_add, R.zero, array_from_mask(m, R.order))
    return mask_from_bool(reached)


# ---------------------------------------------------------------------------
# the full right-ideal lattice

def _lex_sorted(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: tuple(mask_iter(m))))


def all_right_ideal_masks(R: FiniteRing) -> tuple[int, ...]:
    """Every right ideal, as the closure of {0} under adding cyclic ideals.

    Complete because a right ideal of a unital ring is the sum of the cyclic
    ideals of its own elements.  Each ideal I found is summed with every
    distinct nonzero cyclic ideal C in one scatter and one gather: x lies in
    I + C iff the label of x + I (`core.coset_labels`) is the label of a
    member of C.  More than `LATTICE_CAP` ideals raise LatticeCap.
    """
    def compute():
        n = R.order
        zero_bit = 1 << R.zero
        reps: dict[int, int] = {}              # one a per distinct nonzero aR
        for a, m in enumerate(cyclic_masks(R)):
            reps.setdefault(m, a)
        del reps[zero_bit]
        member = np.zeros((len(reps), n), dtype=bool)
        member[np.arange(len(reps))[:, None], R.np_mul[list(reps.values())]] = True
        rows, elems = np.nonzero(member)       # c = elems[i] lies in cyclic ideal rows[i]
        ideals = {zero_bit}
        frontier = [zero_bit]
        while frontier:
            label = coset_labels(R, frontier.pop())
            hits = np.zeros_like(member)
            hits[rows, label[elems]] = True
            for S in row_masks(hits.take(label, axis=1)):
                if S not in ideals:
                    if len(ideals) >= LATTICE_CAP:
                        raise LatticeCap(
                            f"{R.name}: more than {LATTICE_CAP} right ideals")
                    ideals.add(S)
                    frontier.append(S)
        return _lex_sorted(ideals)
    return _cached(R, "lattice_masks", compute)


def all_right_ideals(R: FiniteRing) -> tuple[tuple[int, ...], ...]:
    """The (maximal, minimal, essential maximal) right ideals, each a mask
    tuple sorted lexicographically by element lists, as are all mask tuples
    here."""
    def compute():
        masks = all_right_ideal_masks(R)
        full = R.full_mask()
        zero_bit = 1 << R.zero
        proper = [m for m in masks if m != full]
        maximal = [m for m in proper
                   if not any(m != o and (m | o) == o for o in proper)]
        nonzero = [m for m in masks if m != zero_bit]
        minimal = [m for m in nonzero
                   if not any(o != m and (o | m) == m for o in nonzero)]
        ess_max = [m for m in maximal if is_essential_mask(R, m)]
        return _lex_sorted(maximal), _lex_sorted(minimal), _lex_sorted(ess_max)
    return _cached(R, "lattice", compute)


def is_essential_mask(R: FiniteRing, E: int) -> bool:
    # E is essential iff it meets aR nontrivially for every a != 0; sufficient
    # because every nonzero right ideal contains a nonzero cyclic one.
    zero_bit = 1 << R.zero
    cyc = cyclic_masks(R)
    for a in R.elements():
        if a == R.zero:
            continue
        if (E & cyc[a]) == zero_bit:
            return False
    return True


# ---------------------------------------------------------------------------
# production radicals, without the lattice

def _quasi_regular(R: FiniteRing, unit: np.ndarray) -> np.ndarray:
    """quasi[z]: 1 - z lies in the unit set given as a boolean array."""
    return unit[R.np_add[R.one][R.neg]]


def jacobson_radical_mask(R: FiniteRing) -> int:
    """J(R) = {x : 1 - xy is a unit for every y}, read off one gather of
    quasi[xy]; its columns give the left form {y : 1 - xy is a unit for
    every x}, compared on every call."""
    def compute():
        quasi = _quasi_regular(R, bool_from_mask(units_mask(R), R.order))[R.np_mul]
        right, left = quasi.all(axis=1), quasi.all(axis=0)
        if not np.array_equal(right, left):
            raise CrossCheckMismatch(
                f"J({R.name}): right unit form {np.flatnonzero(right).tolist()} "
                f"!= left unit form {np.flatnonzero(left).tolist()}")
        return mask_from_bool(right)
    return _cached(R, "jacobson", compute)


def socle_mask(R: FiniteRing) -> int:
    """Soc(R_R) = l(J(R)) = {x : xJ = 0}, which holds over any semilocal
    ring, finite rings included (Anderson & Fuller, section 15)."""
    def compute():
        J = array_from_mask(jacobson_radical_mask(R), R.order)
        return mask_from_bool((R.np_mul[:, J] == R.zero).all(axis=1))
    return _cached(R, "socle", compute)


def socle(R: FiniteRing) -> int:
    """Sum of all minimal right ideals; verified two-sided."""
    m = socle_mask(R)
    if not is_two_sided_mask(R, m):
        raise SocleNotTwoSided(f"socle of {R.name} fails left closure")
    return m


def zhou_radical_mask(R: FiniteRing) -> int:
    """delta(R) as the preimage of J(R/Soc) (Zhou 2000), checked on every
    call against the same set read in R: x is in delta iff 1 - xy is a unit
    modulo Soc for every y, where z is a unit modulo Soc iff zy - 1 lies in
    Soc for some y (one-sided suffices in a finite ring).  The check reads
    neither R/Soc nor its units.  T1 and `radical --all-characterizations`
    compare delta with the lattice routes of `radical_characterizations`."""
    def compute():
        soc = socle(R)
        q = quotient_ring(R, soc)
        pullback = bool_from_mask(jacobson_radical_mask(q.ring), q.ring.order)[np.asarray(q.proj)]
        in_soc = bool_from_mask(soc, R.order)
        unit_mod_soc = in_soc[R.np_add[:, R.neg[R.one]]][R.np_mul].any(axis=1)
        in_r = _quasi_regular(R, unit_mod_soc)[R.np_mul].all(axis=1)
        if not np.array_equal(pullback, in_r):
            raise CrossCheckMismatch(
                f"delta({R.name}): pullback of J(R/Soc) {np.flatnonzero(pullback).tolist()} "
                f"!= units modulo Soc {np.flatnonzero(in_r).tolist()}")
        return mask_from_bool(pullback)
    return _cached(R, "zhou", compute)


# ---------------------------------------------------------------------------
# lattice routes to J, Soc and delta (the cross-check; no production call)

def _socle_by_lattice(R: FiniteRing) -> int:
    def compute():
        _, minimal, _ = all_right_ideals(R)
        m = 1 << R.zero
        for s in minimal:
            m |= s
        return additive_span_mask(R, m)
    return _cached(R, "socle_lattice", compute)


def _jacobson_by_lattice(R: FiniteRing) -> int:
    maximal, _, _ = all_right_ideals(R)
    m = R.full_mask()
    for M in maximal:
        m &= M
    return m


def _zhou_by_essential(R: FiniteRing) -> int:
    """r1: the intersection of the essential maximal right ideals (empty
    intersection = R, matching the semisimple case)."""
    _, _, essential_maximal = all_right_ideals(R)
    m = R.full_mask()
    for E in essential_maximal:
        m &= E
    return m


def _zhou_by_socle_quotient(R: FiniteRing) -> int:
    """The pullback of the lattice J(R/Soc) through the lattice socle."""
    soc = _socle_by_lattice(R)
    q = quotient_ring(R, soc)
    jq = _jacobson_by_lattice(q.ring)
    return mask_from_bool(bool_from_mask(jq, q.ring.order)[list(q.proj)])


# ---------------------------------------------------------------------------
# the other characterizations of delta

def summand_masks(R: FiniteRing) -> frozenset[int]:
    """Masks of the direct summands of R_R, i.e. the ideals eR for e idempotent."""
    def compute():
        cyc = cyclic_masks(R)
        return frozenset(cyc[e] for e in mask_iter(idempotents_mask(R)))
    return _cached(R, "summands", compute)


def r3_mask(R: FiniteRing) -> int:
    def compute():
        n = R.order
        masks = all_right_ideal_masks(R)
        pops = {m: m.bit_count() for m in masks}
        summands = summand_masks(R)
        non_summands = [(m, pops[m]) for m in masks if m not in summands]
        cyc = cyclic_masks(R)
        out = 0
        for x in R.elements():
            I = cyc[x]
            pI = I.bit_count()
            # xR + K = R  iff  |xR| |K| = n |xR n K|
            if all(pI * pK != n * (I & K).bit_count() for K, pK in non_summands):
                out |= 1 << x
        return out
    return _cached(R, "r3", compute)


def r5_mask(R: FiniteRing) -> int:
    """x such that for every y some semisimple right ideal Y has
    (1 + xy)R directSum Y = R."""
    def compute():
        n = R.order
        soc = _socle_by_lattice(R)
        masks = all_right_ideal_masks(R)
        sem = [(Y, Y.bit_count()) for Y in masks if (Y | soc) == soc]
        cyc = cyclic_masks(R)
        zero_bit = 1 << R.zero
        full = R.full_mask()
        ok = np.zeros(n, dtype=bool)
        for z in R.elements():
            Zr = cyc[z]
            if Zr == full:
                ok[z] = True
                continue
            pZ = Zr.bit_count()
            ok[z] = any((Zr & Y) == zero_bit and pZ * pY == n for Y, pY in sem)
        A, M = R.np_add, R.np_mul
        one_row = A[R.one]
        out = 0
        for x in R.elements():
            z_of_y = one_row[M[x]]
            if bool(ok[z_of_y].all()):
                out |= 1 << x
        return out
    return _cached(R, "r5", compute)


def _bound_mask(R: FiniteRing, M: int) -> int:
    """Largest two-sided ideal inside the right ideal M: {r : R r is in M}."""
    in_m = bool_from_mask(M, R.order)
    return mask_from_bool(in_m & in_m[R.np_mul].all(axis=0))


def r4_ideal_mask(R: FiniteRing) -> int:
    """Intersection of the two-sided ideals P for which R/P has a simple right
    module, faithful over R/P and singular over R.

    The simple modules of R/P are the R/M for maximal right ideals M of R
    containing P (the correspondence theorem), and R/M is faithful over R/P
    exactly when its annihilator, the largest two-sided ideal inside M
    (`_bound_mask`), is P.  So the P that qualify are the bounds of the
    maximal right ideals M of R with R/M singular, read off R's own lattice;
    singularity is checked element by element.

    The bound step cannot change the result: for maximal M, R/M is singular
    iff M is essential, and delta(R), a two-sided ideal inside each such M,
    lies in each bound, so the bounds meet in r1 as the M do.  As a cross-check
    of r1, r4 tests only `_singular_quotient` against `is_essential_mask`.
    """
    def compute():
        maximal, _, _ = all_right_ideals(R)
        out = R.full_mask()
        for M in maximal:
            if _singular_quotient(R, M):
                out &= _bound_mask(R, M)
        return out
    return _cached(R, "r4", compute)


# ---------------------------------------------------------------------------
# delta-smallness and the R2 characterization

def _singular_quotient(R: FiniteRing, L: int) -> bool:
    """Is R/L singular as a right R-module (every element has essential annihilator)?"""
    def compute():
        # row x of the product table, read through L, is the annihilator of x + L
        anns = row_masks(bool_from_mask(L, R.order)[R.np_mul])
        return all(is_essential_mask(R, ann) for ann in anns)
    return _cached(R, ("singular", L), compute)


def is_delta_small_mask(R: FiniteRing, N: int) -> bool:
    """N such that N + L = R with R/L singular forces L = R."""
    n = R.order
    full = R.full_mask()
    pN = N.bit_count()
    for L in all_right_ideal_masks(R):
        if L == full:
            continue
        if pN * L.bit_count() != n * (N & L).bit_count():
            continue  # N + L != R
        if _singular_quotient(R, L):
            return False
    return True


def r2_ideal_mask(R: FiniteRing) -> int:
    """Sum of all delta-small right ideals (the unique largest one)."""
    def compute():
        m = 1 << R.zero
        for N in all_right_ideal_masks(R):
            if is_delta_small_mask(R, N):
                m |= N
        return additive_span_mask(R, m)
    return _cached(R, "r2", compute)


# ---------------------------------------------------------------------------
# delta-sharp and semiprimeness

def delta_sharp_mask(R: FiniteRing) -> int:
    """{x : some power of x lies in delta(R)}, decided on one high power of
    each x (`core.high_powers`), since delta(R) is a two-sided ideal."""
    def compute():
        in_d = bool_from_mask(zhou_radical_mask(R), R.order)
        return mask_from_bool(in_d[high_powers(R)])
    return _cached(R, "delta_sharp", compute)


def is_semiprime_ideal(R: FiniteRing, I: int) -> bool:
    """aRa inside I implies a in I (checked in the contrapositive)."""
    in_m = bool_from_mask(I, R.order)
    M = R.np_mul
    ara = M[M, np.arange(R.order)[:, None]]      # ara[a, r] = (a r) a
    return not bool((~in_m & in_m[ara].all(axis=1)).any())


# ---------------------------------------------------------------------------
# cross-characterization driver

def radical_characterizations(R: FiniteRing) -> dict[str, Optional[int]]:
    """All available characterizations of delta(R) as masks, read off the
    right-ideal lattice.

    The production J, Soc and delta must equal the lattice's maximal-ideal
    intersection, sum of minimal right ideals and r1, or CrossCheckMismatch
    is raised.  r2 quantifies over every pair of right ideals and r4 checks
    the singularity of R/M at each maximal right ideal M; both are gated to
    rings of order <= QUANTIFIER_CAP (None above it).
    """
    r1 = _zhou_by_essential(R)
    for what, lattice, production in (
            ("J", _jacobson_by_lattice(R), jacobson_radical_mask(R)),
            ("Soc", _socle_by_lattice(R), socle_mask(R)),
            ("delta", r1, zhou_radical_mask(R))):
        if lattice != production:
            raise CrossCheckMismatch(
                f"{what}({R.name}): lattice route {sorted(mask_iter(lattice))} "
                f"!= lattice-free value {sorted(mask_iter(production))}")
    out: dict[str, Optional[int]] = {
        "r1": r1,
        "pullback": _zhou_by_socle_quotient(R),
        "r3": r3_mask(R),
        "r5": r5_mask(R),
        "r2": None,
        "r4": None,
    }
    if R.order <= QUANTIFIER_CAP:
        out["r2"] = r2_ideal_mask(R)
        out["r4"] = r4_ideal_mask(R)
    return out


def assert_radical_agreement(R: FiniteRing) -> dict[str, Optional[int]]:
    chars = radical_characterizations(R)
    reference = chars["r1"]
    for name, m in chars.items():
        if m is not None and m != reference:
            raise CrossCheckMismatch(
                f"delta({R.name}): characterization {name} = "
                f"{sorted(mask_iter(m))} differs from R1 = {sorted(mask_iter(reference))}")
    return chars
