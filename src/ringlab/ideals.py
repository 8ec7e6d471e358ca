"""Right-ideal lattice machinery and radical computations.

The Zhou radical is computed by independent characterizations that are
cross-checked against each other; a disagreement raises CrossCheckMismatch
because the whole artifact's value rests on their mutual verification.

Subsets travel as int bitmasks.  Additive subgroups come from two kernels
in `core`: `additive_span` (greedy generators and the subgroup they span;
a sum of subgroups is the span of their union) and `coset_labels`
(label[x] = the least element of x + I).  For a subgroup I and any set C,
x lies in I + C iff label[x] is the label of some member of C, so one
ideal's labels give its sums with every cyclic ideal at once.  For
subgroups I, J, |I + J| = |I| |J| / |I n J| turns "does I + J cover R"
into popcount arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    LATTICE_CAP, QUANTIFIER_CAP, CrossCheckMismatch, ElementSet, FiniteRing,
    LatticeCap, SocleNotTwoSided, _cached, additive_span, array_from_mask,
    bool_from_mask, coset_labels, element_indices, element_set_from_mask,
    high_powers, idempotents_mask, mask_from_bool, mask_iter, row_masks, units_mask)
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


def right_ideal_generated(R: FiniteRing, gens) -> ElementSet:
    """Smallest right ideal containing gens: the additive span of gens.R."""
    if isinstance(gens, ElementSet):
        gens = gens.elems
    cyc = cyclic_masks(R)
    u = 1 << R.zero
    for s in element_indices(R, gens, "generator"):
        u |= cyc[s]
    return element_set_from_mask(R, additive_span_mask(R, u), "right-ideal", check=False)


# ---------------------------------------------------------------------------
# the full right-ideal lattice

@dataclass(frozen=True)
class IdealLattice:
    """All right ideals of a ring, with the maximal/minimal/essential sublists.

    Masks are the working representation; the ElementSet views are sorted
    lexicographically by their element lists, as are all mask tuples here.
    """
    ring: FiniteRing
    masks: tuple[int, ...]
    maximal: tuple[int, ...]
    minimal: tuple[int, ...]
    essential_maximal: tuple[int, ...]

    @property
    def right_ideals(self) -> list[ElementSet]:
        return [element_set_from_mask(self.ring, m, "right-ideal", check=False)
                for m in self.masks]

    def maximal_sets(self) -> list[ElementSet]:
        return [element_set_from_mask(self.ring, m, "right-ideal", check=False)
                for m in self.maximal]

    def minimal_sets(self) -> list[ElementSet]:
        return [element_set_from_mask(self.ring, m, "right-ideal", check=False)
                for m in self.minimal]


def _lex_sorted(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: tuple(mask_iter(m))))


def all_right_ideal_masks(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> tuple[int, ...]:
    """Every right ideal, as the closure of {0} under adding cyclic ideals.

    Complete because a right ideal of a unital ring is the sum of the cyclic
    ideals of its own elements.  Each ideal I found is summed with every
    distinct nonzero cyclic ideal C in one scatter and one gather: x lies in
    I + C iff the label of x + I (`core.coset_labels`) is the label of a
    member of C.
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
            for S in row_masks(hits[:, label]):
                if S not in ideals:
                    if len(ideals) >= lattice_cap:
                        raise LatticeCap(
                            f"{R.name}: more than {lattice_cap} right ideals")
                    ideals.add(S)
                    frontier.append(S)
        return _lex_sorted(ideals)
    return _cached(R, ("lattice_masks", lattice_cap), compute)


def all_right_ideals(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> IdealLattice:
    def compute():
        masks = all_right_ideal_masks(R, lattice_cap)
        full = R.full_mask()
        zero_bit = 1 << R.zero
        proper = [m for m in masks if m != full]
        maximal = [m for m in proper
                   if not any(m != o and (m | o) == o for o in proper)]
        nonzero = [m for m in masks if m != zero_bit]
        minimal = [m for m in nonzero
                   if not any(o != m and (o | m) == m for o in nonzero)]
        ess_max = [m for m in maximal if is_essential_mask(R, m)]
        return IdealLattice(R, masks, _lex_sorted(maximal), _lex_sorted(minimal),
                            _lex_sorted(ess_max))
    return _cached(R, ("lattice", lattice_cap), compute)


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


def is_essential(R: FiniteRing, E: ElementSet) -> bool:
    return is_essential_mask(R, E.mask)


# ---------------------------------------------------------------------------
# socle and Jacobson radical

def socle_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    def compute():
        m = 1 << R.zero
        for s in all_right_ideals(R, lattice_cap).minimal:
            m |= s
        return additive_span_mask(R, m)
    return _cached(R, ("socle", lattice_cap), compute)


def socle(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> ElementSet:
    """Sum of all minimal right ideals; verified two-sided."""
    m = socle_mask(R, lattice_cap)
    if not is_two_sided_mask(R, m):
        raise SocleNotTwoSided(f"socle of {R.name} fails left closure")
    return element_set_from_mask(R, m, "two-sided-ideal", check=False)


def _jacobson_by_lattice(R: FiniteRing, lattice_cap: int) -> int:
    lat = all_right_ideals(R, lattice_cap)
    m = R.full_mask()
    for M in lat.maximal:
        m &= M
    return m


def _jacobson_by_units(R: FiniteRing) -> int:
    # J(R) = {x : 1 - x y is a unit for every y}
    n = R.order
    A, M = R.np_add, R.np_mul
    NEG = np.asarray(R.neg, dtype=np.int64)
    one_row = A[R.one]
    ub = bool_from_mask(units_mask(R), n)
    ok = np.empty(n, dtype=bool)
    for x in range(n):
        t = one_row[NEG[M[x]]]
        ok[x] = bool(ub[t].all())
    return mask_from_bool(ok)


def jacobson_radical_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    def compute():
        by_lattice = _jacobson_by_lattice(R, lattice_cap)
        by_units = _jacobson_by_units(R)
        if by_lattice != by_units:
            raise CrossCheckMismatch(
                f"J({R.name}): maximal-ideal intersection {sorted(mask_iter(by_lattice))} "
                f"!= unit characterization {sorted(mask_iter(by_units))}")
        return by_lattice
    return _cached(R, ("jacobson", lattice_cap), compute)


def jacobson_radical(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> ElementSet:
    """Intersection of all maximal right ideals, cross-checked against
    {x : 1 - xy is a unit for all y}."""
    return element_set_from_mask(R, jacobson_radical_mask(R, lattice_cap),
                                 "two-sided-ideal", check=False)


# ---------------------------------------------------------------------------
# the Zhou radical and its characterizations

def zhou_radical_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    """Primary: intersect the essential maximal right ideals (empty
    intersection = R, matching the semisimple case).  Cross-checked against
    the pullback of J(R/socle) through the quotient projection."""
    def compute():
        primary = _zhou_by_essential(R, lattice_cap)
        pullback = _zhou_by_socle_quotient(R, lattice_cap)
        if primary != pullback:
            raise CrossCheckMismatch(
                f"delta({R.name}): essential-maximal intersection "
                f"{sorted(mask_iter(primary))} != socle-quotient pullback "
                f"{sorted(mask_iter(pullback))}")
        return primary
    return _cached(R, ("zhou", lattice_cap), compute)


def _zhou_by_essential(R: FiniteRing, lattice_cap: int) -> int:
    lat = all_right_ideals(R, lattice_cap)
    m = R.full_mask()
    for E in lat.essential_maximal:
        m &= E
    return m


def _zhou_by_socle_quotient(R: FiniteRing, lattice_cap: int) -> int:
    soc = socle(R, lattice_cap)
    q = quotient_ring(R, soc)
    jq = jacobson_radical_mask(q.ring, lattice_cap)
    return mask_from_bool(bool_from_mask(jq, q.ring.order)[list(q.proj)])


def zhou_radical(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> ElementSet:
    return element_set_from_mask(R, zhou_radical_mask(R, lattice_cap),
                                 "two-sided-ideal", check=False)


def summand_masks(R: FiniteRing) -> frozenset[int]:
    """Masks of the direct summands of R_R, i.e. the ideals eR for e idempotent."""
    def compute():
        cyc = cyclic_masks(R)
        return frozenset(cyc[e] for e in mask_iter(idempotents_mask(R)))
    return _cached(R, "summands", compute)


def is_direct_summand(R: FiniteRing, K: ElementSet | int) -> bool:
    m = K if isinstance(K, int) else K.mask
    return m in summand_masks(R)


def r3_membership(R: FiniteRing, x: int, lattice_cap: int = LATTICE_CAP) -> bool:
    """x such that xR + K = R forces K to be a direct summand of R_R."""
    return bool((r3_mask(R, lattice_cap) >> x) & 1)


def r3_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    def compute():
        n = R.order
        masks = all_right_ideal_masks(R, lattice_cap)
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
    return _cached(R, ("r3", lattice_cap), compute)


def r5_membership(R: FiniteRing, x: int, lattice_cap: int = LATTICE_CAP) -> bool:
    """x such that for every y some semisimple right ideal Y has
    (1 + xy)R directSum Y = R."""
    return bool((r5_mask(R, lattice_cap) >> x) & 1)


def r5_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    def compute():
        n = R.order
        soc = socle_mask(R, lattice_cap)
        masks = all_right_ideal_masks(R, lattice_cap)
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
    return _cached(R, ("r5", lattice_cap), compute)


def r4_ideal(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> ElementSet:
    return element_set_from_mask(R, r4_ideal_mask(R, lattice_cap),
                                 "two-sided-ideal", check=False)


def r2_ideal(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> ElementSet:
    return element_set_from_mask(R, r2_ideal_mask(R, lattice_cap),
                                 "right-ideal", check=False)


def _bound_mask(R: FiniteRing, M: int) -> int:
    """Largest two-sided ideal inside the right ideal M: {r : R r is in M}."""
    in_m = bool_from_mask(M, R.order)
    return mask_from_bool(in_m & in_m[R.np_mul].all(axis=0))


def r4_ideal_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    """Intersection of the two-sided ideals P for which R/P has a simple right
    module, faithful over R/P and singular over R.

    Implemented literally: simple modules of Q = R/P arise as Q/(maximal right
    ideal); faithfulness is checked in Q and singularity elementwise in R.
    """
    def compute():
        n = R.order
        masks = all_right_ideal_masks(R, lattice_cap)
        two_sided = [m for m in masks if is_two_sided_mask(R, m)]
        cyc = cyclic_masks(R)
        out = R.full_mask()
        for P in two_sided:
            if P == R.full_mask():
                continue
            es = element_set_from_mask(R, P, "two-sided-ideal", check=False)
            q = quotient_ring(R, es)
            Q = q.ring
            qlat = all_right_ideals(Q, lattice_cap)
            zero_bit_q = 1 << Q.zero
            found = False
            for Mq in qlat.maximal:
                if _bound_mask(Q, Mq) != zero_bit_q:
                    continue  # Q/Mq is not faithful over Q
                # preimage of Mq in R
                Mr = mask_from_bool(bool_from_mask(Mq, Q.order)[list(q.proj)])
                if _singular_quotient(R, Mr):
                    found = True
                    break
            if found:
                out &= P
        return out
    return _cached(R, ("r4", lattice_cap), compute)


# ---------------------------------------------------------------------------
# delta-smallness and the R2 characterization

def _singular_quotient(R: FiniteRing, L: int) -> bool:
    """Is R/L singular as a right R-module (every element has essential annihilator)?"""
    def compute():
        # row x of the product table, read through L, is the annihilator of x + L
        anns = row_masks(bool_from_mask(L, R.order)[R.np_mul])
        return all(is_essential_mask(R, ann) for ann in anns)
    return _cached(R, ("singular", L), compute)


def is_delta_small_mask(R: FiniteRing, N: int, lattice_cap: int = LATTICE_CAP) -> bool:
    n = R.order
    full = R.full_mask()
    pN = N.bit_count()
    for L in all_right_ideal_masks(R, lattice_cap):
        if L == full:
            continue
        if pN * L.bit_count() != n * (N & L).bit_count():
            continue  # N + L != R
        if _singular_quotient(R, L):
            return False
    return True


def is_delta_small(R: FiniteRing, N: ElementSet, lattice_cap: int = LATTICE_CAP) -> bool:
    """N such that N + L = R with R/L singular forces L = R."""
    return is_delta_small_mask(R, N.mask, lattice_cap)


def r2_ideal_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    """Sum of all delta-small right ideals (the unique largest one)."""
    def compute():
        m = 1 << R.zero
        for N in all_right_ideal_masks(R, lattice_cap):
            if is_delta_small_mask(R, N, lattice_cap):
                m |= N
        return additive_span_mask(R, m)
    return _cached(R, ("r2", lattice_cap), compute)


# ---------------------------------------------------------------------------
# delta-sharp and semiprimeness

def delta_sharp_mask(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> int:
    """{x : some power of x lies in delta(R)}, decided on one high power of
    each x (`core.high_powers`), since delta(R) is a two-sided ideal."""
    def compute():
        in_d = bool_from_mask(zhou_radical_mask(R, lattice_cap), R.order)
        return mask_from_bool(in_d[high_powers(R)])
    return _cached(R, ("delta_sharp", lattice_cap), compute)


def delta_sharp(R: FiniteRing, lattice_cap: int = LATTICE_CAP) -> ElementSet:
    return element_set_from_mask(R, delta_sharp_mask(R, lattice_cap),
                                 "subset", check=False)


def is_semiprime_ideal(R: FiniteRing, I: ElementSet | int) -> bool:
    """aRa inside I implies a in I (checked in the contrapositive)."""
    in_m = bool_from_mask(I if isinstance(I, int) else I.mask, R.order)
    M = R.np_mul
    ara = M[M, np.arange(R.order)[:, None]]      # ara[a, r] = (a r) a
    return not bool((~in_m & in_m[ara].all(axis=1)).any())


# ---------------------------------------------------------------------------
# cross-characterization driver

def radical_characterizations(R: FiniteRing,
                              lattice_cap: int = LATTICE_CAP,
                              quantifier_cap: int = QUANTIFIER_CAP) -> dict[str, Optional[int]]:
    """All available characterizations of delta(R) as masks.

    r2/r4 quantify over the whole lattice and are gated to rings of order
    <= quantifier_cap (None above it).
    """
    out: dict[str, Optional[int]] = {
        "r1": _zhou_by_essential(R, lattice_cap),
        "pullback": _zhou_by_socle_quotient(R, lattice_cap),
        "r3": r3_mask(R, lattice_cap),
        "r5": r5_mask(R, lattice_cap),
        "r2": None,
        "r4": None,
    }
    if R.order <= quantifier_cap:
        out["r2"] = r2_ideal_mask(R, lattice_cap)
        out["r4"] = r4_ideal_mask(R, lattice_cap)
    return out


def assert_radical_agreement(R: FiniteRing,
                             lattice_cap: int = LATTICE_CAP,
                             quantifier_cap: int = QUANTIFIER_CAP) -> dict[str, Optional[int]]:
    chars = radical_characterizations(R, lattice_cap, quantifier_cap)
    reference = chars["r1"]
    for name, m in chars.items():
        if m is not None and m != reference:
            raise CrossCheckMismatch(
                f"delta({R.name}): characterization {name} = "
                f"{sorted(mask_iter(m))} differs from R1 = {sorted(mask_iter(reference))}")
    return chars
