"""Command-line front end: construct rings, compute radicals, evaluate
predicates, run the theorem suite, hunt counterexamples, enumerate small rings.

Each subcommand accepts exactly the options its cmd_* reads (`_COMMANDS`),
plus `suite --jobs`, kept for old scripts and ignored.

Exit codes: 0 pass / nothing found where nothing was required, 1 assertion
failure or counterexample found, 2 usage error: an unknown option, a ring
expression that does not parse, or any other RinglabError.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (
    TOOL_VERSION, CrossCheckMismatch, CharacterizationMismatch, RinglabError,
    dumps_ring, mask_elems, ring_to_json_dict)
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
    return construct(args.ring)


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
        "jacobson": jacobson_radical_mask,
        "socle": socle_mask,
        "delta": zhou_radical_mask,
        "delta-sharp": delta_sharp_mask,
    }
    payload: dict = {"tool_version": TOOL_VERSION, "ring": ring.name,
                     "order": ring.order, "radicals": {}, "agreement": "ok"}
    for w in which:
        payload["radicals"][w] = list(mask_elems(fns[w](ring)))
    if args.all_characterizations:
        chars = radical_characterizations(ring)
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
    report = property_report(ring, names)
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
    spec, members = build_corpus(args.corpus)
    if args.verbose:
        print(f"corpus {spec}: {len(members)} members", file=sys.stderr)
    report = run_theorem_suite(members, spec)
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
    spec, members = build_corpus(args.corpus)
    findings = hunt_counterexample(HuntQuery(antecedent, consequent,
                                             stop_at_first=not args.all), members)
    payload = {"tool_version": TOOL_VERSION, "corpus": spec,
               "implication": f"{antecedent} => {consequent}",
               "counterexamples": [f.to_json_dict() for f in findings]}
    _write(json.dumps(payload, indent=1) + "\n", args.out)
    return 1 if findings else 0


def cmd_enumerate(args) -> int:
    lines = [json.dumps(ring_to_json_dict(ring))
             for ring in enumerate_unital_rings(args.order, up_to_iso=args.up_to_iso)]
    _write("\n".join(lines) + "\n", args.out)
    return 0


# Every option once, by dest: its flags and add_argument keywords.
_OPTIONS = {
    "ring": (("ring",), dict(help="ring expression, e.g. 'M(2,Zn(3))' or 'File(\"r.json\")'")),
    "out": (("--out",), dict(help="output path (default stdout)")),
    "format": (("--format",), dict(choices=("json", "markdown"), default="json")),
    "verbose": (("-v", "--verbose"), dict(action="store_true")),
    "corpus": (("--corpus",), dict(default="default",
                                   help="corpus preset, expression list, or @file")),
    "jobs": (("--jobs",), dict(type=int, default=1, help="accepted for compatibility and "
                                                         "ignored: the suite runs in one thread")),
    "which": (("--which",), dict(help="comma list from: " + ", ".join(RADICALS))),
    "all_characterizations": (("--all-characterizations",), dict(action="store_true")),
    "props": (("--props",), dict(help="comma list of predicate names")),
    "implies": (("--implies",), dict(required=True, help='"antecedent => consequent"')),
    "all": (("--all",), dict(action="store_true", help="collect all counterexamples")),
    "order": (("--order",), dict(type=int, required=True)),
    "up_to_iso": (("--up-to-iso",), dict(action="store_true")),
}

# Each subcommand: its function, its help, and exactly the options the function reads.
_COMMANDS = {
    "construct": (cmd_construct, "build a ring and write its JSON", "ring out"),
    "radical": (cmd_radical, "compute radicals of a ring",
                "ring out format which all_characterizations"),
    "check": (cmd_check, "evaluate predicates on a ring", "ring out format props"),
    "suite": (cmd_suite, "run the theorem suite over a corpus",
              "out format verbose corpus jobs"),
    "hunt": (cmd_hunt, "hunt for a counterexample to an implication",
             "implies corpus all out"),
    "enumerate": (cmd_enumerate, "enumerate unital rings of a given order",
                  "order up_to_iso out"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(prog="ringlab",
                                description="finite-ring radical and reversibility calculator")
    p.add_argument("--version", action="version", version=f"ringlab {TOOL_VERSION}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, dests) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for dest in dests.split():
            flags, kwargs = _OPTIONS[dest]
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(fn=fn)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CrossCheckMismatch, CharacterizationMismatch) as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return 1
    except RinglabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:    # unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
