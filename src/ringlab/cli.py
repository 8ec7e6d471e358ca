"""Command-line front end: construct rings, compute radicals, evaluate
predicates, run the theorem suite, hunt counterexamples, enumerate small rings.

Exit codes: 0 pass / nothing found where nothing was required, 1 assertion
failure or counterexample found, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .core import (
    ARMENDARIZ_CAP, LATTICE_CAP, QUANTIFIER_CAP, SIZE_CAP, TOOL_VERSION,
    CrossCheckMismatch, CharacterizationMismatch, ParseError, RinglabError,
    SizeCap, UnknownPredicate, dumps_ring, mask_elems)
from .constructions import construct, enumerate_unital_rings
from .ideals import (
    delta_sharp_mask, jacobson_radical_mask, radical_characterizations,
    socle_mask, zhou_radical_mask)
from .predicates import PREDICATES, property_report
from .suite import HuntQuery, build_corpus, hunt_counterexample, run_theorem_suite

RADICALS = ("jacobson", "socle", "delta", "delta-sharp")


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_ring(args) -> "FiniteRing":
    return construct(args.ring, size_cap=args.size_cap)


def cmd_construct(args) -> int:
    ring = _load_ring(args)
    text = dumps_ring(ring)
    if args.out:
        _write(text, args.out)
        print(f"{ring.name}: order {ring.order} -> {args.out}")
    else:
        sys.stdout.write(text)
        print(f"{ring.name}: order {ring.order}", file=sys.stderr)
    return 0


def cmd_radical(args) -> int:
    ring = _load_ring(args)
    which = [w.strip() for w in args.which.split(",")] if args.which else list(RADICALS)
    for w in which:
        if w not in RADICALS:
            print(f"unknown radical {w!r}; choose from {', '.join(RADICALS)}", file=sys.stderr)
            return 2
    fns = {
        "jacobson": lambda R: jacobson_radical_mask(R, args.lattice_cap),
        "socle": lambda R: socle_mask(R, args.lattice_cap),
        "delta": lambda R: zhou_radical_mask(R, args.lattice_cap),
        "delta-sharp": lambda R: delta_sharp_mask(R, args.lattice_cap),
    }
    payload: dict = {"tool_version": TOOL_VERSION, "ring": ring.name,
                     "order": ring.order, "radicals": {}, "agreement": "ok"}
    for w in which:
        payload["radicals"][w] = list(mask_elems(fns[w](ring)))
    if args.all_characterizations:
        chars = radical_characterizations(ring, args.lattice_cap, args.quantifier_cap)
        payload["characterizations"] = {
            k: (list(mask_elems(v)) if v is not None else None) for k, v in chars.items()}
        vals = [v for v in chars.values() if v is not None]
        if any(v != vals[0] for v in vals):
            payload["agreement"] = "MISMATCH"
    if args.format == "json":
        _write(json.dumps(payload, indent=1) + "\n", args.out)
    else:
        lines = [f"# {ring.name} (order {ring.order})", ""]
        for w in which:
            lines.append(f"- {w}: {payload['radicals'][w]}")
        if "characterizations" in payload:
            for k, v in payload["characterizations"].items():
                lines.append(f"- characterization {k}: {v}")
        lines.append(f"- agreement: {payload['agreement']}")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if payload["agreement"] == "ok" else 1


def cmd_check(args) -> int:
    ring = _load_ring(args)
    names = [p.strip() for p in args.props.split(",")] if args.props else \
        [n for n in sorted(PREDICATES) if n != "true"]
    for n in names:
        if n not in PREDICATES:
            print(f"unknown predicate {n!r}; known: {', '.join(sorted(PREDICATES))}",
                  file=sys.stderr)
            return 2
    report = property_report(ring, names, args.lattice_cap, args.armendariz_cap)
    d = report.to_json_dict()
    if args.format == "json":
        _write(json.dumps(d, indent=1) + "\n", args.out)
    else:
        lines = [f"# {d['ring']}", "", "| predicate | verdict | witness | method |",
                 "|-----------|---------|---------|--------|"]
        for name, res in d["results"].items():
            lines.append(f"| {name} | {res['verdict']} | {res.get('witness', '')} "
                         f"| {res.get('method', '')} |")
        _write("\n".join(lines) + "\n", args.out)
    return 0 if all(r["verdict"] for r in d["results"].values()) else 1


def cmd_suite(args) -> int:
    spec, members = build_corpus(args.corpus, size_cap=args.size_cap)
    if args.verbose:
        print(f"corpus {spec}: {len(members)} members", file=sys.stderr)
    report = run_theorem_suite(members, spec,
                               lattice_cap=args.lattice_cap,
                               quantifier_cap=args.quantifier_cap,
                               armendariz_cap=args.armendariz_cap)
    _write(report.to_json() if args.format == "json" else report.to_markdown(), args.out)
    if args.verbose:
        for c in report.cases:
            print(f"{c.id}: {c.verdict} (checked {c.checked})", file=sys.stderr)
    failed = report.failed_proved
    if failed:
        for c in failed:
            print(f"FAIL {c.id}: {json.dumps(c.counterexample)}", file=sys.stderr)
        return 1
    return 0


def cmd_hunt(args) -> int:
    parts = args.implies.split("=>")
    if len(parts) != 2:
        print('expected --implies "antecedent => consequent"', file=sys.stderr)
        return 2
    antecedent, consequent = parts[0].strip(), parts[1].strip()
    for n in (antecedent, consequent):
        if n not in PREDICATES:
            print(f"unknown predicate {n!r}", file=sys.stderr)
            return 2
    spec, members = build_corpus(args.corpus, size_cap=args.size_cap)
    findings = hunt_counterexample(HuntQuery(antecedent, consequent,
                                             stop_at_first=not args.all),
                                   members, args.lattice_cap, args.armendariz_cap)
    payload = {"tool_version": TOOL_VERSION, "corpus": spec,
               "implication": f"{antecedent} => {consequent}",
               "counterexamples": [f.to_json_dict() for f in findings]}
    _write(json.dumps(payload, indent=1) + "\n", args.out)
    return 1 if findings else 0


def cmd_enumerate(args) -> int:
    try:
        rings = enumerate_unital_rings(args.order, up_to_iso=args.up_to_iso)
        lines = []
        for ring in rings:
            lines.append(json.dumps(json.loads(dumps_ring(ring))))
        _write("\n".join(lines) + "\n", args.out)
    except SizeCap as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ringlab",
                                description="finite-ring radical and reversibility calculator")
    p.add_argument("--version", action="version", version=f"ringlab {TOOL_VERSION}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, ring_arg=True):
        if ring_arg:
            sp.add_argument("ring", help="ring expression, e.g. 'M(2,Zn(3))' or 'File(\"r.json\")'")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "markdown"), default="json")
        sp.add_argument("-v", "--verbose", action="store_true")
        sp.add_argument("--lattice-cap", type=int, default=LATTICE_CAP, dest="lattice_cap")
        sp.add_argument("--size-cap", type=int, default=SIZE_CAP, dest="size_cap")
        sp.add_argument("--armendariz-cap", type=int, default=ARMENDARIZ_CAP,
                        dest="armendariz_cap")
        sp.add_argument("--quantifier-cap", type=int, default=QUANTIFIER_CAP,
                        dest="quantifier_cap")

    sp = sub.add_parser("construct", help="build a ring and write its JSON")
    common(sp)
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("radical", help="compute radicals of a ring")
    common(sp)
    sp.add_argument("--which", default=None,
                    help="comma list from: " + ", ".join(RADICALS))
    sp.add_argument("--all-characterizations", action="store_true",
                    dest="all_characterizations")
    sp.set_defaults(fn=cmd_radical)

    sp = sub.add_parser("check", help="evaluate predicates on a ring")
    common(sp)
    sp.add_argument("--props", default=None, help="comma list of predicate names")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("suite", help="run the theorem suite over a corpus")
    common(sp, ring_arg=False)
    sp.add_argument("--corpus", default=os.environ.get("RINGLAB_CORPUS", "default"),
                    help="corpus preset, expression list, or @file")
    sp.add_argument("--jobs", type=int, default=1,
                    help="accepted for compatibility and ignored: the suite runs in one thread")
    sp.set_defaults(fn=cmd_suite)

    sp = sub.add_parser("hunt", help="hunt for a counterexample to an implication")
    common(sp, ring_arg=False)
    sp.add_argument("--implies", required=True, help='"antecedent => consequent"')
    sp.add_argument("--corpus", default=os.environ.get("RINGLAB_CORPUS", "default"))
    sp.add_argument("--all", action="store_true", help="collect all counterexamples")
    sp.set_defaults(fn=cmd_hunt)

    sp = sub.add_parser("enumerate", help="enumerate unital rings of a given order")
    common(sp, ring_arg=False)
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--up-to-iso", action="store_true", dest="up_to_iso")
    sp.set_defaults(fn=cmd_enumerate)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UnknownPredicate) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CrossCheckMismatch, CharacterizationMismatch) as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 1
    except RinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
