"""One measured session of a workload, in a fresh interpreter.

Run from the root of a ringlab checkout as `python3 perfbench/worker.py
<workload>`.  The worker imports ringlab from ./src and writes the
workload's set-up inputs, then prints {"ready": true}.  It reads one JSON
line, either {"exit": true} or {"inputs": [...], "trace": bool, "spans":
path}, runs those inputs (timing each operation), checks every output
against the golden files and prints one JSON result line.  Right after
set-up, and every REF_EVERY_S seconds inside the untraced operations, it
times a fixed reference kernel (`reference`), so that the runner can express
every time at a fixed machine speed; an exit command is answered with the
samples taken after set-up alone.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import threading
import time
import traceback

import numpy as np

import witness
from spans import Tracer
from workloads import (ENUM_DIR, ENUM_ORDERS, ENUM_RINGS, SUITE_ARGV, SUITE_EXIT_CODE,
                       SUITE_FAIL_IDS, WITNESS_PREDICATES, query_argvs)

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def import_ringlab(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import ringlab
    import ringlab.cli
    if not os.path.abspath(ringlab.__file__).startswith(src + os.sep):
        raise ImportError(f"ringlab resolved to {ringlab.__file__}, not under {src}")
    return ringlab


def write_enum_files(ringlab, root: str) -> None:
    """The File(...) inputs of query-small: enumerated rings as ring JSON."""
    out_dir = os.path.join(root, ENUM_DIR)
    os.makedirs(out_dir, exist_ok=True)
    wanted = set(ENUM_RINGS)
    for order in ENUM_ORDERS:
        for ring in ringlab.constructions.enumerate_unital_rings(order, up_to_iso=True):
            if ring.name in wanted:
                wanted.discard(ring.name)
                with open(os.path.join(out_dir, f"{ring.name}.json"), "w",
                          encoding="utf-8") as fh:
                    fh.write(ringlab.core.dumps_ring(ring))
    if wanted:
        raise RuntimeError(f"enumeration no longer yields {sorted(wanted)}")


def call_cli(ringlab, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ringlab.cli.main(argv)
    return rc, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mask_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def load_golden(workload: str):
    with open(os.path.join(GOLDEN_DIR, f"{workload}.json"), "rb") as fh:
        data = fh.read()
    return data if workload == "suite-default" else json.loads(data)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# machine speed: a shared virtual machine can change speed by tens of
# percent within seconds and between minutes, for every process alike.  A fixed kernel that
# does not touch ringlab, timed in this process while the work runs, measures
# that speed.

REF_SETUP = 4       # samples right after set-up
REF_EVERY_S = 0.25  # one more sample per this much wall time of operations
_REF_TABLE = np.random.default_rng(0).integers(0, 256, (256, 256)).astype(np.int16)
_REF_JSON = json.dumps(_REF_TABLE.tolist())


def reference() -> list[float]:
    """[wall_s, cpu_s] of ~25 ms of the kinds of work ringlab does, in about
    equal parts: int16 table gathers as in axiom validation, JSON parsing, and
    bitmask arithmetic in the interpreter."""
    t0, c0 = time.perf_counter(), time.process_time()
    for i in range(0, 256, 8):
        np.array_equal(_REF_TABLE[_REF_TABLE[i]], _REF_TABLE[i][_REF_TABLE])
    acc = 0
    for row in json.loads(_REF_JSON):
        for v in row:
            acc ^= 1 << (v & 63)
    return [time.perf_counter() - t0, time.process_time() - c0]


class Speed:
    """Reference samples taken inside the operations: a timer interrupts the
    work every REF_EVERY_S seconds and runs the kernel, and `_timed` takes the
    kernel's time off the operation it interrupted."""

    def __init__(self):
        self.samples: list[list[float]] = []
        self.paused = [0.0, 0.0]

    def _sample(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(reference())
        self.paused[0] += time.perf_counter() - t0
        self.paused[1] += time.process_time() - c0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


SPEED = Speed()


# ---------------------------------------------------------------------------
# workloads: each returns (ops, outputs) with ops = [[wall_s, cpu_s], ...]

class Crash(str):
    """The traceback of an operation that raised."""


def _guarded(fn):
    try:
        return fn()
    except Exception:  # a crashing operation is a failed operation, not a crashed run
        return Crash(traceback.format_exc(limit=4))


def _timed(fn):
    p0, p1 = SPEED.paused
    t0, c0 = time.perf_counter(), time.process_time()
    out = _guarded(fn)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return [wall - (SPEED.paused[0] - p0), cpu - (SPEED.paused[1] - p1)], out


def run_suite(ringlab, inputs):
    op, out = _timed(lambda: call_cli(ringlab, SUITE_ARGV))
    return [op], [out]


def run_query(ringlab, exprs):
    ops, outs = [], []
    for expr in exprs:
        radical, check = query_argvs(expr)
        op, out = _timed(lambda: (call_cli(ringlab, radical), call_cli(ringlab, check)))
        ops.append(op)
        outs.append(out)
    return ops, outs


def run_roundtrip(ringlab, exprs):
    core, ideals = ringlab.core, ringlab.ideals

    def one(expr):
        rc, text = call_cli(ringlab, ["construct", expr])
        again = core.loads_ring(text)
        same = core.dumps_ring(again) == text
        return rc, text, same, ideals.zhou_radical_mask(again)

    op, outs = _timed(lambda: [_guarded(lambda: one(expr)) for expr in exprs])
    return [op], outs


# ---------------------------------------------------------------------------
# correctness gates: each returns one (operation, reason) per failed operation,
# and how many witnesses it re-checked without ringlab

def gate_suite(ringlab, inputs, outs):
    out = outs[0]
    if isinstance(out, Crash):
        return [("suite", out)], 0
    rc, text = out
    problems = []
    if rc != SUITE_EXIT_CODE:
        problems.append(f"exit code {rc}, expected {SUITE_EXIT_CODE}")
    try:
        failed_ids = {c["id"] for c in json.loads(text)["cases"] if c["verdict"] == "FAIL"}
    except (ValueError, KeyError, TypeError) as exc:
        failed_ids = {f"unreadable report: {exc!r}"}
    if failed_ids != SUITE_FAIL_IDS:
        problems.append(f"FAIL cases {sorted(failed_ids)}, expected {sorted(SUITE_FAIL_IDS)}")
    if text.encode("utf-8") != load_golden("suite-default"):
        problems.append("report bytes differ from golden/suite-default.json")
    return ([("suite", "; ".join(problems))] if problems else []), 0


def _recheck_witnesses(ringlab, expr, radical_text, check_text):
    """Re-check every false verdict's witness; (number checked, first failure)."""
    rc, ring_text = call_cli(ringlab, ["construct", expr])
    ring = json.loads(ring_text)
    delta = json.loads(radical_text)["radicals"]["delta"]
    results = json.loads(check_text)["results"]
    checked = 0
    for name in WITNESS_PREDICATES:
        res = results[name]
        if not res["verdict"]:
            checked += 1
            reason = witness.recheck(ring, name, res["witness"], delta)
            if reason is not None:
                return checked, f"{name} witness {res['witness']}: {reason}"
    return checked, None


def gate_query(ringlab, exprs, outs):
    golden = load_golden("query-small")
    failures, rechecked, witnesses = [], set(), 0
    for expr, out in zip(exprs, outs):
        if isinstance(out, Crash):
            failures.append((expr, out))
            continue
        (rc1, radical), (rc2, check) = out
        want = golden[expr]
        if [rc1, sha256(radical)] != want["radical"]:
            failures.append((expr, "radical output differs from golden"))
        elif [rc2, sha256(check)] != want["check"]:
            failures.append((expr, "check output differs from golden"))
        elif expr not in rechecked:
            rechecked.add(expr)
            checked, reason = _recheck_witnesses(ringlab, expr, radical, check)
            witnesses += checked
            if reason is not None:
                failures.append((expr, reason))
    return failures, witnesses


def gate_roundtrip(ringlab, exprs, outs):
    golden = load_golden("roundtrip-large")
    failures = []
    for expr, out in zip(exprs, outs):
        if isinstance(out, Crash):
            failures.append((expr, out))
            continue
        rc, text, same, delta = out
        want = golden[expr]
        if rc != 0 or not same:
            failures.append((expr, f"exit code {rc}, re-serialization identical: {same}"))
        elif sha256(text) != want["json_sha256"]:
            failures.append((expr, "ring JSON differs from golden"))
        elif mask_list(delta) != want["delta"]:
            failures.append((expr, "delta differs from golden"))
    return failures, 0


RUNNERS = {
    "suite-default": (run_suite, gate_suite),
    "query-small": (run_query, gate_query),
    "roundtrip-large": (run_roundtrip, gate_roundtrip),
}


def main() -> int:
    workload = sys.argv[1]
    run, gate = RUNNERS[workload]
    root = os.getcwd()
    proto = sys.stdout
    ringlab = import_ringlab(root)
    if workload == "query-small":
        write_enum_files(ringlab, root)
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()

    cmd = json.loads(sys.stdin.readline() or '{"exit": true}')
    setup_refs = [reference() for _ in range(REF_SETUP)]
    if cmd.get("exit"):
        proto.write(json.dumps({"setup_refs": setup_refs}) + "\n")
        proto.flush()
        return 0
    tracer = None
    if cmd["trace"]:
        tracer = Tracer(ringlab)
        tracer.install()
    inputs = cmd["inputs"]
    # Kernel samples inside traced operations would count in the spans.
    with contextlib.nullcontext() if cmd["trace"] else SPEED.sampling():
        ops, outs = run(ringlab, inputs)
    result = {"ops": ops, "setup_refs": setup_refs, "refs": SPEED.samples,
              "rss_mb": peak_rss_mb(), "threads": threading.active_count()}
    if tracer is not None:
        # Snapshot before the gates, whose own ringlab calls are not part of the work.
        layers = tracer.per_layer()
        result["per_layer"] = layers
        result["covered_s"] = tracer.top_covered
        result["self_sum_s"] = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        tracer.write_spans(cmd["spans"])
    failures, result["witnesses"] = gate(ringlab, inputs, outs)
    result["attempted"] = len(outs)
    result["failed"] = len(failures)
    result["errors"] = [f"{op}: {reason}" for op, reason in failures[:5]]
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
