"""Machine-checkable theorem cases run over a corpus of small rings.

Each case is a record in `CASES`: an implication between registered
predicates, radical formulas, or construction transforms.  One runner checks
it over the corpus and reports PASS or FAIL with the first counterexample.
Failures are data, never exceptions; proved claims that fail are
build-breaking results for the caller to surface.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .core import (
    ARMENDARIZ_CAP, LATTICE_CAP, QUANTIFIER_CAP, TOOL_VERSION,
    CharacterizationMismatch, CrossCheckMismatch, FiniteRing, SizeCap, array_from_mask,
    bool_from_mask, double_commutant_mask, idempotents_mask, is_central, mask_from_bool,
    mask_iter, nilpotents_mask, units_mask)
from .constructions import (
    construct, corner_ring, direct_product, enumerate_unital_rings, formal_triangular,
    hst_ring, ks_ring, lst_ring, make_zn, matrix_ring, quotient_ring, trivial_morita,
    upper_triangular_ring)
from .ideals import (
    all_right_ideal_masks, assert_radical_agreement, delta_sharp_mask, is_semiprime_ideal,
    jacobson_radical_mask, socle, socle_mask, zhou_radical_mask)
from .predicates import PropertyResult, evaluate_predicate

CORPUS_VERSION = "default-v1"
_DR = "delta-reversible"


@dataclass(frozen=True)
class CorpusMember:
    name: str
    ring: FiniteRing
    kind: str
    bases: tuple[FiniteRing, ...] = ()
    params: dict = field(default_factory=dict)


def _member(ring: FiniteRing, **params) -> CorpusMember:
    """A member named after its ring, with kind, bases and construction
    parameters read from ring.meta."""
    meta = ring.meta
    params = {k: meta[k] for k in ("n", "s", "t", "e", "embed") if k in meta} | params
    return CorpusMember(ring.name, ring, meta.get("kind", "expr"),
                        tuple(meta.get("bases", ())), params)


def central_unit_pairs(R: FiniteRing) -> list[tuple[int, int]]:
    cu = [u for u in mask_iter(units_mask(R)) if is_central(R, u)]
    return [(s, t) for s in cu for t in cu]


def default_corpus() -> list[CorpusMember]:
    """The versioned default preset, in deterministic order."""
    zn = {k: make_zn(k) for k in range(1, 10)}
    rings = list(zn.values())
    for order in range(1, 9):
        rings += enumerate_unital_rings(order, up_to_iso=True)
    rings += [matrix_ring(2, zn[k]) for k in (2, 3, 4)]
    rings += [upper_triangular_ring(2, zn[k]) for k in (2, 3, 4)]
    rings += [ks_ring(zn[k], zn[k].zero) for k in (2, 3, 4)]
    for build in (hst_ring, lst_ring):
        rings += [build(zn[k], s, t) for k in (2, 3, 4) for s, t in central_unit_pairs(zn[k])]
    rings.append(direct_product([zn[2], zn[4]]))
    rings += [corner_ring(R, e).ring for R in rings for e in mask_iter(idempotents_mask(R))]
    for k in (2, 3):
        rings.append(formal_triangular(zn[k], zn[k]))
        rings.append(trivial_morita(zn[k], zn[k]))
    return [_member(R) for R in rings]


def build_corpus(spec: str = "default") -> tuple[str, list[CorpusMember]]:
    """Resolve a corpus spec: the 'default' preset, '@file' with one ring
    expression per line, or a semicolon-separated list of ring expressions."""
    if spec == "default":
        return f"default ({CORPUS_VERSION})", default_corpus()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            exprs = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    else:
        exprs = [part.strip() for part in spec.split(";") if part.strip()]
    return spec, [_member(construct(text), expr=text) for text in exprs]


@dataclass
class CaseResult:
    id: str
    statement: str
    kind: str                      # "proved" or "observation"
    verdict: str                   # "PASS" or "FAIL"
    checked: int = 0
    counterexample: Optional[dict] = None
    observation: Optional[dict] = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class Failure:
    """Why a conclusion fails on one subject, with an optional witness."""
    detail: str
    witness: Optional[tuple] = None


def _shape_mask(member: CorpusMember) -> Optional[tuple[int, str]]:
    """The shape of delta that the member's construction claims, read from
    ring.meta, as (mask, relation) where relation is 'eq' or 'subset' (delta
    contained in the shape); None if the construction claims none."""
    R, meta = member.ring, member.ring.meta
    if meta.get("kind") == "corner":
        # e delta(P) e, carried into the corner by the embedding
        P, e = meta["bases"][0], meta["e"]
        M = P.np_mul
        in_side = np.zeros(P.order, dtype=bool)
        in_side[M[M[e, array_from_mask(zhou_radical_mask(P), P.order)], e]] = True
        return mask_from_bool(in_side[meta["embed"]]), "eq"
    if "delta_digits" not in meta:
        return None
    ok = np.ones(R.order, dtype=bool)
    digits = np.unravel_index(np.arange(R.order), meta["dims"])
    for b, digit in zip(meta["delta_digits"], digits):
        if b is not None:
            B = meta["bases"][b]
            ok &= bool_from_mask(zhou_radical_mask(B), B.order)[digit]
    return mask_from_bool(ok), meta["delta_relation"]


@dataclass(frozen=True)
class Case:
    """A suite case as data: `conclusion` must hold for every subject that
    satisfies `hypothesis`.  Without a `scope` the subjects are the corpus
    rings, one evaluation per distinct table; with one they are the members of
    those kinds, whose bases and meta the parts may read.  A part is a
    predicate name or a function of the subject; a conclusion returns a
    bool or PropertyResult (failing with `detail`), a Failure, or a pair
    (instances checked, Failure or None).  `run(members, case)` replaces the
    corpus walk."""
    id: str
    statement: str
    conclusion: Union[str, Callable, None] = None
    hypothesis: Union[str, Callable, None] = None
    scope: tuple[str, ...] = ()
    detail: str = "conclusion fails"
    kind: str = "proved"
    run: Optional[Callable[[list[CorpusMember], "Case"], CaseResult]] = None


def _evaluate(case: Case, subject) -> tuple[int, Optional[Failure]]:
    """(instances checked, failure or None) of one case on one subject."""
    hyp, concl = case.hypothesis, case.conclusion
    try:
        if hyp is not None and not (evaluate_predicate(subject, hyp).verdict
                                    if isinstance(hyp, str) else hyp(subject)):
            return 0, None
        res = evaluate_predicate(subject, concl) if isinstance(concl, str) else concl(subject)
    except SizeCap:
        return 0, None
    except (CharacterizationMismatch, CrossCheckMismatch) as exc:
        # routes to one invariant disagree on this subject: a FAIL, not an abort
        return 1, Failure(str(exc))
    if isinstance(res, tuple):
        return res
    if isinstance(res, PropertyResult):
        res = res.verdict or Failure(case.detail, res.witness)
    if isinstance(res, Failure):
        return 1, res
    return 1, None if res else Failure(case.detail)


def _tally(case: Case, outcomes: Iterable, observation=None) -> CaseResult:
    """Make the CaseResult of every case: sum the instances checked over
    (member, checked, failure) outcomes and stop at the first failure."""
    checked = 0
    for member, n, failure in outcomes:
        checked += n
        if failure is not None:
            counterexample = {"ring": member.name, "detail": failure.detail}
            if failure.witness is not None:
                counterexample["witness"] = [int(w) for w in failure.witness]
            return CaseResult(case.id, case.statement, case.kind, "FAIL", checked,
                              counterexample)
    return CaseResult(case.id, case.statement, case.kind, "PASS", checked, None, observation)


def _run_case(members: list[CorpusMember], case: Case, ring_outcomes: dict) -> CaseResult:
    """Walk the corpus in order; a ring-level case repeats the outcome of each
    member's table, evaluated once by _warm."""
    if case.run is not None:
        return case.run(members, case)
    if not case.scope:
        return _tally(case, ((m, *ring_outcomes[case.id, m.ring.digest]) for m in members))
    return _tally(case, ((m, *_evaluate(case, m)) for m in members if m.kind in case.scope))


def _radicals_agree(R) -> bool:
    # a disagreement raises CrossCheckMismatch, which _evaluate reports
    assert_radical_agreement(R)
    return True


def _sharp_is_delta(R) -> bool:
    return delta_sharp_mask(R) == zhou_radical_mask(R)


def _ideal_products(R):
    """T9, one instance per two-sided ideal I."""
    in_d = bool_from_mask(zhou_radical_mask(R), R.order)
    M = R.np_mul
    MT = np.ascontiguousarray(M.T)      # row a of MT is the column R a
    checked = 0
    for I in all_right_ideal_masks(R):
        arr = array_from_mask(I, R.order)
        in_I = bool_from_mask(I, R.order)
        if not in_I[MT[arr]].all():
            continue                    # not a left ideal
        checked += 1
        sub = M[arr].take(arr, axis=1)
        bad = (sub == R.zero) & ~(in_d[sub.T] & in_I[sub.T])
        if bad.any():
            i, j = np.argwhere(bad)[0]
            return checked, Failure("product escapes I intersect delta", (arr[i], arr[j]))
    return checked, None


def _quasipolar_transfer(R):
    """T17: a quasipolar ring (the counted instance) is delta-reversible, and on
    every ring the spectral idempotent of a nilpotent lies in delta."""
    checked = int(evaluate_predicate(R, "delta-quasipolar").verdict)
    res = evaluate_predicate(R, _DR)
    if checked and not res.verdict:
        return 1, Failure("delta-quasipolar but not delta-reversible", res.witness)
    in_d = bool_from_mask(zhou_radical_mask(R), R.order)
    idem = array_from_mask(idempotents_mask(R), R.order)
    idem = idem[~in_d[idem]]
    for a in mask_iter(nilpotents_mask(R)):
        escaping = idem[in_d[R.np_add[a, idem]]].tolist()
        dc = double_commutant_mask(R, a) if escaping else 0
        p = next((p for p in escaping if (dc >> p) & 1), None)
        if p is not None:
            return checked, Failure("spectral idempotent of nilpotent escapes delta", (a, p))
    return checked, None


def _in_shape(m):
    want, relation = _shape_mask(m)
    got = zhou_radical_mask(m.ring)
    if got == want if relation == "eq" else (got | want) == want:
        return True
    sym = "=" if relation == "eq" else "subset of"
    diff = (got & ~want) or (want & ~got)
    return Failure(f"delta is not {sym} the claimed shape "
                   f"(|delta|={got.bit_count()}, |shape|={want.bit_count()})",
                   sorted(mask_iter(diff))[:4])


def _base_transfer(m):
    want = all(evaluate_predicate(B, _DR).verdict for B in m.bases)
    got = evaluate_predicate(m.ring, _DR).verdict
    return want == got or Failure(f"base delta-reversible={want} but extension={got}")


def _transfer_and_shape(m):
    res = _base_transfer(m)
    return _in_shape(m) if res is True else res


def _is_k0(m) -> bool:
    return m.params["s"] == m.bases[0].zero


def _block_transfer(m):
    want, _ = _shape_mask(m)
    if (zhou_radical_mask(m.ring) | want) != want:
        return Failure("delta escapes the block containment shape")
    return (not evaluate_predicate(m.ring, _DR).verdict
            or all(evaluate_predicate(B, _DR).verdict for B in m.bases)
            or Failure("ring delta-reversible but a component is not"))


def _product_pairs(members: list[CorpusMember], case: Case) -> CaseResult:
    """T10 over the products of two small corpus rings, built here."""
    small = [m.ring for m in members if m.kind in ("zn", "enumerated") and m.ring.order <= 8]
    products = (_member(direct_product([A, B])) for i, A in enumerate(small)
                for B in small[i:] if A.order * B.order <= 64)
    return _tally(case, ((P, *_evaluate(case, P)) for P in products))


def _corner_groups(members: list[CorpusMember], case: Case) -> CaseResult:
    """T11 once per member ring whose corners are members too."""
    groups: dict[str, list[CorpusMember]] = {}
    for m in members:
        if m.kind == "corner":
            groups.setdefault(m.bases[0].name, []).append(m)
    parents = {m.name: m for m in members if m.name in groups}

    def outcome(parent, corners):
        want = evaluate_predicate(parent.ring, _DR).verdict
        got = [evaluate_predicate(c.ring, _DR).verdict for c in corners]
        if want and not all(got):
            return corners[got.index(False)], 1, Failure("parent delta-reversible, corner not")
        if not want and all(got):
            return parent, 1, Failure("all corners delta-reversible, parent not "
                                      "(e = 1 corner included)")
        return parent, 1, None
    # a corner whose parent ring is not a member is skipped
    return _tally(case, (outcome(parents[p], cs) for p, cs in groups.items() if p in parents))


def _triangular_transfer(members: list[CorpusMember], case: Case) -> CaseResult:
    """T19 over the triangular members plus T3(Z2); the converse is an observation."""
    tri = [m for m in members if m.kind == "triangular"]
    tri.append(_member(upper_triangular_ring(3, make_zn(2))))
    outcomes = [(m, *_evaluate(case, m)) for m in tri]
    converse = next((m for m in tri if evaluate_predicate(m.bases[0], _DR).verdict
                     and not evaluate_predicate(m.ring, _DR).verdict), None)
    observation = {"claim": "converse: R delta-reversible implies the triangular ring is",
                   "verdict": "PASS" if converse is None else "FAIL"}
    if converse is not None:
        observation["counterexample"] = {"ring": converse.name,
                                         "detail": "base delta-reversible, triangular ring not"}
    return _tally(case, outcomes, observation)


def _exhibit_matrix_failure(members: list[CorpusMember], case: Case) -> CaseResult:
    """T20 is an existence claim: PASS when some matrix member separates."""
    candidates = [m for m in members if m.kind == "matrix"]
    exhibits = [m.name for m in candidates if evaluate_predicate(m.bases[0], _DR).verdict
                and not evaluate_predicate(m.ring, _DR).verdict]
    if exhibits or not candidates:
        note = {} if exhibits else {"note": "no matrix members in corpus"}
        return _tally(case, [(None, len(exhibits), None)], {"exhibits": exhibits, **note})
    return _tally(case, [(candidates[0], len(candidates),
                          Failure("no separating matrix ring found in corpus"))])


CASES: tuple[Case, ...] = (
    Case("T1", "The five characterizations of delta(R) agree: essential-maximal intersection, "
         "socle-quotient pullback, the summand-forcing set, the complement-in-socle set, and "
         "(on small rings) the largest delta-small right ideal and the "
         "annihilator-of-singular-simple intersection.", _radicals_agree),
    Case("T2", "delta(R) is a semiprime ideal.", lambda R: is_semiprime_ideal(
        R, zhou_radical_mask(R)), detail="aRa inside delta but a outside delta"),
    Case("T3", "Every J-reversible ring is delta-reversible.", _DR, "j-reversible"),
    Case("T4", "If the socle lies in J(R), delta-reversible iff J-reversible.",
         lambda R: (evaluate_predicate(R, _DR).verdict
                    == evaluate_predicate(R, "j-reversible").verdict),
         lambda R: socle_mask(R) & ~jacobson_radical_mask(R) == 0),
    Case("T5", "If R/socle(R) is J-reversible then R is delta-reversible.", _DR,
         lambda R: evaluate_predicate(quotient_ring(R, socle(R)).ring, "j-reversible").verdict,
         detail="quotient J-reversible but R not delta-reversible"),
    Case("T6", "Delta-reversible with idempotents lifting modulo delta(R) forces R/delta(R) "
         "abelian.", "quotient-abelian",
         lambda R: (evaluate_predicate(R, _DR).verdict
                    and evaluate_predicate(R, "idempotents-lift-mod-delta").verdict)),
    Case("T7", "Delta-reversible forces eR(1-e) + (1-e)Re inside delta(R) for every "
         "idempotent e.", "corner-containment", _DR),
    Case("T8", "The three delta-reversibility routes (definition, square-zero, annihilator) "
         "agree on every corpus ring.",
         # the predicate raises CharacterizationMismatch when its routes disagree
         lambda R: evaluate_predicate(R, _DR).verdict in (True, False)),
    Case("T9", "If R is delta-reversible then within every two-sided ideal I, ab = 0 with "
         "a, b in I forces ba into I intersect delta(R).", _ideal_products, _DR),
    Case("T10", "A finite direct product is delta-reversible iff every factor is, and delta "
         "of the product is the product of the deltas.", _transfer_and_shape,
         run=_product_pairs),
    Case("T11", "R is delta-reversible iff eRe is delta-reversible for every idempotent e.",
         run=_corner_groups),
    Case("T12", "In a local ring, delta-sharp(R) = delta(R).", _sharp_is_delta, "local"),
    Case("T13", "delta-sharp(R) = delta(R) forces delta-reversibility.", _DR, _sharp_is_delta),
    Case("T14", "If R/delta(R) is reduced then R is delta-reversible.", _DR, "quotient-reduced"),
    Case("T15", "Every delta-reversible ring is delta-linear Armendariz.",
         "delta-linear-armendariz",
         lambda R: R.order <= ARMENDARIZ_CAP and evaluate_predicate(R, _DR).verdict),
    Case("T16", "Every delta-clean ring is delta-reversible.", _DR, "delta-clean"),
    Case("T17", "Every delta-quasipolar ring (as-used definition) is delta-reversible; for "
         "nilpotent a the associated idempotent lies in delta(R).", _quasipolar_transfer),
    Case("T18", "For trivial Morita contexts and formal triangular rings, delta is contained "
         "in the block shape with delta of the diagonal components, and "
         "delta-reversibility passes to the components.", _block_transfer,
         scope=("trivial_morita", "formal_triangular")),
    Case("T19", "If the upper triangular matrix ring over R is delta-reversible then so is R; "
         "the converse is tested empirically and reported.",
         lambda m: (not evaluate_predicate(m.ring, _DR).verdict
                    or evaluate_predicate(m.bases[0], _DR).verdict),
         detail="triangular ring delta-reversible but base is not", run=_triangular_transfer),
    Case("T20", "Full matrix rings need not inherit delta-reversibility: some corpus matrix "
         "ring has a delta-reversible base but is not delta-reversible.",
         run=_exhibit_matrix_failure),
    Case("T21", "R is delta-reversible iff H_(s,t)(R) is; delta of H_(s,t)(R) is the set "
         "with diagonal entries in delta(R).", _transfer_and_shape, scope=("hst",)),
    Case("T22", "R is delta-reversible iff L_(s,t)(R) is.", _base_transfer, scope=("lst",)),
    Case("T23", "R is delta-reversible iff K_0(R) is; delta of K_0(R) is the set with "
         "diagonal entries in delta(R).", _transfer_and_shape, _is_k0, scope=("ks",)),
    Case("F-product", "delta of a direct product is the product of the component deltas.",
         _in_shape, scope=("product",)),
    Case("F-corner", "delta(eRe) equals e delta(R) e at every idempotent of every corpus "
         "ring.", _in_shape, scope=("corner",)),
    Case("F-matrix", "delta of a full matrix ring is the matrix set over delta of the base.",
         _in_shape, scope=("matrix",)),
    Case("F-triangular", "delta of an upper triangular matrix ring is contained in the "
         "triangular shape with diagonal in delta.", _in_shape, scope=("triangular",)),
    Case("F-h-shape", "delta of H_(s,t)(R) equals the subset with a, d, f in delta(R).",
         _in_shape, scope=("hst",)),
    Case("F-l-shape", "delta of L_(s,t)(R) equals the subset with a, d, f in delta(R).",
         _in_shape, scope=("lst",)),
    Case("F-k0-shape", "delta of K_0(R) equals the subset with both diagonal entries in "
         "delta(R).", _in_shape, _is_k0, scope=("ks",)),
    Case("F-blocks", "delta of trivial Morita contexts and formal triangular rings lies in "
         "the block-diagonal delta shape.", _in_shape,
         scope=("trivial_morita", "formal_triangular")),
)


def run_theorem_suite(members: list[CorpusMember],
                      corpus_spec: str = "default") -> "SuiteReport":
    """Run every case of CASES over the members, in one thread: the work is
    pure Python and numpy under the interpreter lock, so a pool of threads
    only adds overhead."""
    ring_outcomes = _warm(members)
    cases = [_run_case(members, case, ring_outcomes) for case in CASES]
    return SuiteReport(corpus_spec, members, cases,
                       {"lattice_cap": LATTICE_CAP, "quantifier_cap": QUANTIFIER_CAP,
                        "armendariz_cap": ARMENDARIZ_CAP})


def _warm(members: list[CorpusMember]) -> dict:
    """Evaluate every ring-level case once per distinct table; returns the
    outcomes keyed by (case id, digest)."""
    rings: dict[str, FiniteRing] = {}
    for m in members:
        rings.setdefault(m.ring.digest, m.ring)
    ring_cases = [c for c in CASES if not c.scope and c.run is None]
    return {(c.id, R.digest): _evaluate(c, R) for R in rings.values() for c in ring_cases}


@dataclass
class SuiteReport:
    corpus_spec: str
    members: list[CorpusMember]
    cases: list[CaseResult]
    caps: dict

    @property
    def failed_proved(self) -> list[CaseResult]:
        return [c for c in self.cases if c.kind == "proved" and c.verdict == "FAIL"]

    def to_json_dict(self) -> dict:
        return {
            "tool_version": TOOL_VERSION,
            "corpus": self.corpus_spec,
            "corpus_version": CORPUS_VERSION,
            "corpus_size": len(self.members),
            "caps": self.caps,
            "members": [m.name for m in self.members],
            "cases": [c.to_json_dict() for c in self.cases],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1) + "\n"

    def to_markdown(self) -> str:
        d = self.to_json_dict()
        lines = ["# Theorem suite report", "",
                 f"- tool version: {d['tool_version']}", f"- corpus: {d['corpus']}",
                 f"- corpus version: {d['corpus_version']}",
                 f"- corpus size: {d['corpus_size']}", f"- caps: {json.dumps(d['caps'])}", "",
                 "| id | verdict | checked | statement |", "|----|---------|---------|-----------|"]
        lines += [f"| {c['id']} | {c['verdict']} | {c['checked']} | {c['statement']} |"
                  for c in d["cases"]]
        lines.append("")
        lines += [f"- {c['id']} {key}: {json.dumps(c[key])}" for c in d["cases"]
                  for key in ("counterexample", "observation") if key in c]
        lines += ["", "## corpus members", ""] + [f"- {name}" for name in d["members"]]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class HuntQuery:
    antecedent: str
    consequent: str
    stop_at_first: bool = True


@dataclass
class HuntFinding:
    ring: str
    witness: Optional[tuple[int, ...]]
    detail: str

    def to_json_dict(self) -> dict:
        d = {"ring": self.ring, "detail": self.detail}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


def hunt_counterexample(query: HuntQuery, members: list[CorpusMember]) -> list[HuntFinding]:
    """Corpus rings satisfying the antecedent but not the consequent, in corpus order."""
    claim = Case("hunt", "", query.consequent, query.antecedent,
                 detail=f"{query.antecedent} holds but {query.consequent} fails")
    findings: list[HuntFinding] = []
    for m in members:
        _, failure = _evaluate(claim, m.ring)
        if failure is not None:
            findings.append(HuntFinding(m.name, failure.witness, failure.detail))
            if query.stop_at_first:
                break
    return findings
