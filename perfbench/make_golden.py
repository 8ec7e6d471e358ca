"""Record the golden outputs the correctness gates compare against.

    python3 perfbench/make_golden.py

Run from the root of a ringlab checkout whose outputs are trusted; the
committed files were recorded at the commit that introduced the benchmark.
Re-recording is a change of expected behaviour and belongs in its own commit.
"""
from __future__ import annotations

import json
import os
import sys

from worker import GOLDEN_DIR, call_cli, import_ringlab, mask_list, sha256, write_enum_files
from workloads import QUERY_STRATA, ROUNDTRIP_SET, SUITE_ARGV, query_argvs

MIN_POOL_TABLES = 100


def main() -> int:
    root = os.getcwd()
    ringlab = import_ringlab(root)
    # The suite first, while every cache is cold, as in a measured run.
    rc, report = call_cli(ringlab, SUITE_ARGV)
    write_enum_files(ringlab, root)
    construct = ringlab.constructions.construct

    query, seen = {}, {}
    for lo, hi, exprs in QUERY_STRATA:
        for expr in exprs:
            ring = construct(expr)
            if not lo <= ring.order <= hi:
                raise SystemExit(f"{expr}: order {ring.order} is outside {lo}..{hi}")
            if ring.digest in seen:
                raise SystemExit(f"{expr} has the same table as {seen[ring.digest]}")
            seen[ring.digest] = expr
            radical, check = query_argvs(expr)
            rc_radical, out_radical = call_cli(ringlab, radical)
            rc_check, out_check = call_cli(ringlab, check)
            query[expr] = {"radical": [rc_radical, sha256(out_radical)],
                           "check": [rc_check, sha256(out_check)]}
    if len(seen) < MIN_POOL_TABLES:
        raise SystemExit(f"query pool has {len(seen)} distinct tables, need {MIN_POOL_TABLES}")

    roundtrip = {}
    for expr in ROUNDTRIP_SET:
        _, text = call_cli(ringlab, ["construct", expr])
        ring = ringlab.core.loads_ring(text)
        roundtrip[expr] = {"order": ring.order, "json_sha256": sha256(text),
                           "delta": mask_list(ringlab.ideals.zhou_radical_mask(ring))}

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(os.path.join(GOLDEN_DIR, "suite-default.json"), "w", encoding="utf-8") as fh:
        fh.write(report)
    for name, data in (("query-small", query), ("roundtrip-large", roundtrip)):
        with open(os.path.join(GOLDEN_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"suite exit {rc}; {len(seen)} query tables; {len(roundtrip)} round-trip rings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
