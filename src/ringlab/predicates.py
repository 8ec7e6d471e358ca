"""Ring-level properties, each with a verdict plus witness or certificate.

Every universally quantified predicate scans exhaustively; a false verdict
carries the lexicographically least witness, re-checkable by one evaluation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (
    ARMENDARIZ_CAP, CharacterizationMismatch, CrossCheckMismatch,
    FiniteRing, SizeCap, UnknownPredicate, _cached, array_from_mask, bool_from_mask,
    double_commutant_mask, idempotents_mask, mask_iter, nilpotents_mask,
)
from .constructions import quotient_ring
from .ideals import all_right_ideals, jacobson_radical_mask, zhou_radical_mask


@dataclass(frozen=True)
class PropertyResult:
    verdict: bool
    witness: Optional[tuple[int, ...]] = None
    method: str = ""

    def to_json_dict(self) -> dict:
        d: dict = {"verdict": self.verdict}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        if self.method:
            d["method"] = self.method
        return d


@dataclass
class PropertyReport:
    ring: str
    results: dict[str, PropertyResult] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"ring": self.ring,
                "results": {k: v.to_json_dict() for k, v in self.results.items()}}


def _first_pair(bad: np.ndarray) -> Optional[tuple[int, int]]:
    idx = np.argwhere(bad)
    if idx.size == 0:
        return None
    return int(idx[0][0]), int(idx[0][1])


def _relative_reversible(R: FiniteRing, rad_mask: int, method: str) -> PropertyResult:
    """ab = 0 implies ba in the given ideal; witness is the lex-least (a, b)."""
    M = R.np_mul
    in_rad = bool_from_mask(rad_mask, R.order)
    bad = (M == R.zero) & ~in_rad[M.T]
    w = _first_pair(bad)
    if w is None:
        return PropertyResult(True, None, method)
    return PropertyResult(False, w, method)


def is_reversible(R: FiniteRing) -> PropertyResult:
    """ab = 0 implies ba = 0."""
    return _relative_reversible(R, 1 << R.zero, "exhaustive pair scan")


def is_j_reversible(R: FiniteRing) -> PropertyResult:
    """ab = 0 implies ba in J(R)."""
    return _relative_reversible(R, jacobson_radical_mask(R), "pair scan against J(R)")


def is_delta_reversible(R: FiniteRing) -> PropertyResult:
    """ab = 0 implies ba in delta(R), decided by three routes that must agree:
    the definition, the square-zero criterion, and the annihilator criterion.

    "a l(a) inside delta for all a" and "r(a) a inside delta for all a" each
    restate "uv = 0 forces vu in delta", so the annihilator route guards only
    against a faulty gather: on correct kernels only the square-zero route
    can disagree and raise CharacterizationMismatch."""
    d = zhou_radical_mask(R)
    in_d = bool_from_mask(d, R.order)
    M = R.np_mul
    by_def = _relative_reversible(R, d, "definition + square-zero + annihilator routes")

    squares = M.diagonal()
    sq_bad = (squares == R.zero) & ~in_d[np.arange(R.order)]
    by_square = not bool(sq_bad.any())

    # a l_R(a) and r_R(a) a inside delta for every a, over whole tables:
    # row a of Z.T is l_R(a) and row a of Z is r_R(a); in_dM[x, y] is xy in delta
    Z = M == R.zero
    in_dM = in_d[M]
    by_ann = not (Z.T & ~in_dM).any() and not (Z & ~in_dM.T).any()

    if not (by_def.verdict == by_square == by_ann):
        raise CharacterizationMismatch(
            f"delta-reversibility routes disagree on {R.name}: "
            f"definition={by_def.verdict} square-zero={by_square} annihilator={by_ann}")
    return by_def


def is_abelian(R: FiniteRing) -> PropertyResult:
    """Every idempotent is central; witness is (e, x) with ex != xe."""
    M = R.np_mul
    for e in mask_iter(idempotents_mask(R)):
        diff = M[e, :] != M[:, e]
        if bool(diff.any()):
            x = int(np.flatnonzero(diff)[0])
            return PropertyResult(False, (e, x), "idempotent commutation scan")
    return PropertyResult(True, None, "idempotent commutation scan")


def is_reduced(R: FiniteRing) -> PropertyResult:
    """No nonzero nilpotents; the square-zero and power scans must agree."""
    nil = nilpotents_mask(R) & ~(1 << R.zero)
    squares = R.np_mul.diagonal()
    sq = (squares == R.zero) & (np.arange(R.order) != R.zero)
    sq_witness = int(np.flatnonzero(sq)[0]) if bool(sq.any()) else None
    if (nil == 0) != (sq_witness is None):
        raise CrossCheckMismatch(f"reduced({R.name}): nilpotent vs square-zero scans disagree")
    if nil:
        return PropertyResult(False, (next(mask_iter(nil)),), "nilpotent scan")
    return PropertyResult(True, None, "nilpotent scan")


def is_semisimple(R: FiniteRing) -> PropertyResult:
    """delta(R) = R, cross-checked against J(R) = 0."""
    by_delta = zhou_radical_mask(R) == R.full_mask()
    by_j = jacobson_radical_mask(R) == (1 << R.zero)
    if by_delta != by_j:
        raise CrossCheckMismatch(
            f"semisimple({R.name}): delta=R says {by_delta}, J=0 says {by_j}")
    return PropertyResult(by_delta, None, "delta(R) = R, cross-checked with J(R) = 0")


def is_local(R: FiniteRing) -> PropertyResult:
    """Exactly one maximal right ideal."""
    maximal, _, _ = all_right_ideals(R)
    return PropertyResult(len(maximal) == 1, None, f"{len(maximal)} maximal right ideals")


def is_delta_clean(R: FiniteRing) -> PropertyResult:
    """Every x is idempotent + element of delta(R)."""
    in_d = bool_from_mask(zhou_radical_mask(R), R.order)
    idem = array_from_mask(idempotents_mask(R), R.order)
    clean = in_d[R.np_add[:, R.neg[idem]]].any(axis=1)     # x - e in delta for some e
    if not clean.all():
        return PropertyResult(False, (int(np.argmin(clean)),), "exhaustive decomposition scan")
    return PropertyResult(True, None, "exhaustive decomposition scan")


def is_delta_quasipolar(R: FiniteRing) -> PropertyResult:
    """As-used definition: every a admits p = p^2 in comm^2(a) with a + p in delta(R)."""
    method = "as-used definition: p^2 = p in comm^2(a), a + p in delta(R)"
    d = zhou_radical_mask(R)
    if d == R.full_mask():
        return PropertyResult(True, None, method)
    in_d = bool_from_mask(d, R.order)
    idem = array_from_mask(idempotents_mask(R), R.order)
    near = in_d[R.np_add[:, idem]]                # near[a, i]: a + idem[i] in delta
    M = R.np_mul
    commutative = bool(np.array_equal(M, M.T))
    for a in R.elements():
        cands = idem[near[a]].tolist()
        if cands and not commutative:
            dc = double_commutant_mask(R, a)
            cands = [p for p in cands if (dc >> p) & 1]
        if not cands:
            return PropertyResult(False, (a,), method)
    return PropertyResult(True, None, method)


_QUAD_BLOCK = 1 << 14    # quadruples per block: larger blocks raise peak memory, not speed


def is_delta_linear_armendariz(R: FiniteRing) -> PropertyResult:
    """(a0 + a1 x)(b0 + b1 x) = 0 forces every a_i b_j into delta(R).

    a0 b0 = a1 b1 = 0 land in delta automatically, so only the cross products
    need checking: a0 b1 + a1 b0 = 0 must put both in delta.  The zero pairs
    (a0, b0) are scanned in row blocks of about `_QUAD_BLOCK` quadruples
    against all zero pairs (a1, b1); the witness is the first bad (a0, b0) in
    `argwhere` order, then its first bad (a1, b1).  Rings above
    ARMENDARIZ_CAP, read from this module when the scan runs, raise SizeCap.
    """
    if R.order > ARMENDARIZ_CAP:
        raise SizeCap(f"{R.name}: order {R.order} exceeds Armendariz cap {ARMENDARIZ_CAP}")
    method = "zero-pair quadruple scan"
    M = R.np_mul
    out_d = ~bool_from_mask(zhou_radical_mask(R), R.order)
    za, zb = np.nonzero(M == R.zero)         # pairs (a, b) with ab = 0, in argwhere order
    step = max(1, _QUAD_BLOCK // len(za))
    for s in range(0, len(za), step):
        cross1 = M[za[s:s + step, None], zb]  # a0 b1, one row per (a0, b0) in the block
        cross2 = M[za, zb[s:s + step, None]]  # a1 b0
        bad = (R.neg[cross1] == cross2) & (out_d[cross1] | out_d[cross2])
        rows = bad.any(axis=1)
        if rows.any():
            i = int(np.argmax(rows))
            j = int(np.argmax(bad[i]))
            return PropertyResult(False, (int(za[s + i]), int(za[j]), int(zb[s + i]), int(zb[j])),
                                  method)
    return PropertyResult(True, None, method)


def idempotents_lift_mod_delta(R: FiniteRing) -> PropertyResult:
    """Every f with f^2 - f in delta(R) is within delta(R) of a true idempotent."""
    in_d = bool_from_mask(zhou_radical_mask(R), R.order)
    A, neg = R.np_add, R.neg
    idem = array_from_mask(idempotents_mask(R), R.order)
    near = in_d[A[R.np_mul.diagonal(), neg]]             # f^2 - f in delta
    lifts = in_d[A[idem][:, neg]].any(axis=0)            # e - f in delta for some e
    bad = near & ~lifts
    if bad.any():
        return PropertyResult(False, (int(np.argmax(bad)),), "coset idempotent scan")
    return PropertyResult(True, None, "coset idempotent scan")


def corner_containment(R: FiniteRing) -> PropertyResult:
    """eR(1-e) + (1-e)Re inside delta(R) for every idempotent e."""
    in_d = bool_from_mask(zhou_radical_mask(R), R.order)
    M = R.np_mul
    for e in mask_iter(idempotents_mask(R)):
        ome = R.np_add[R.one, R.neg[e]]
        left = M[M[e], ome]      # e x (1-e) over all x
        right = M[M[ome], e]     # (1-e) x e
        bad = ~in_d[left] | ~in_d[right]
        if bool(bad.any()):
            x = int(np.flatnonzero(bad)[0])
            return PropertyResult(False, (e, x), "idempotent corner scan")
    return PropertyResult(True, None, "idempotent corner scan")


def quotient_abelian(R: FiniteRing) -> PropertyResult:
    """is_abelian evaluated on R/delta(R); witness indices are coset indices."""
    q = quotient_ring(R, zhou_radical_mask(R))
    res = is_abelian(q.ring)
    return PropertyResult(res.verdict, res.witness, "abelian test on R/delta(R)")


def quotient_reduced(R: FiniteRing) -> PropertyResult:
    q = quotient_ring(R, zhou_radical_mask(R))
    res = is_reduced(q.ring)
    return PropertyResult(res.verdict, res.witness, "reduced test on R/delta(R)")


def always_true(R: FiniteRing) -> PropertyResult:
    return PropertyResult(True, None, "constant")


PREDICATES: dict[str, Callable[[FiniteRing], PropertyResult]] = {
    "reversible": is_reversible,
    "j-reversible": is_j_reversible,
    "delta-reversible": is_delta_reversible,
    "abelian": is_abelian,
    "reduced": is_reduced,
    "semisimple": is_semisimple,
    "local": is_local,
    "delta-clean": is_delta_clean,
    "delta-quasipolar": is_delta_quasipolar,
    "delta-linear-armendariz": is_delta_linear_armendariz,
    "idempotents-lift-mod-delta": idempotents_lift_mod_delta,
    "corner-containment": corner_containment,
    "quotient-abelian": quotient_abelian,
    "quotient-reduced": quotient_reduced,
    "true": always_true,
}


def predicate(name: str) -> Callable[[FiniteRing], PropertyResult]:
    try:
        return PREDICATES[name]
    except KeyError:
        raise UnknownPredicate(
            f"unknown predicate {name!r}; known: {', '.join(sorted(PREDICATES))}") from None


def evaluate_predicate(R: FiniteRing, name: str) -> PropertyResult:
    return _cached(R, ("pred", name), lambda: predicate(name)(R))


def property_report(R: FiniteRing, names) -> PropertyReport:
    report = PropertyReport(R.name)
    for name in names:
        report.results[name] = evaluate_predicate(R, name)
    return report
