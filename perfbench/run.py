"""ringlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, plain and traced

Run from the root of a ringlab checkout.  Each session of a workload runs in
a fresh single-threaded interpreter (`worker.py`) that imports ringlab from
./src; this process only plans the inputs from the seed, times set-up, and
aggregates.  Times are reported at a fixed machine speed: a session's
operation times are scaled by REF_NOMINAL_S over the median time of the
reference kernel that the worker ran inside its operations, and its set-up
time by the same ratio for the samples taken right after set-up.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The exit code is 0 when
every output passed its correctness gate, 1 when one did not, and 2 when the
benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REQUIRED, TRACED_SESSIONS, WORKLOADS, sessions

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
WORK_DIR = Path(".perfbench")
MIN_SETUPS = 7
# Reference-kernel time that defines the reporting speed; near its median on
# the 2-core 2.0 GHz Xeon VM the benchmark was tuned on.
REF_NOMINAL_S = 0.025
RUN_DEADLINE_S = 175.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Session:
    """One worker process: spawn, wait for set-up, run one batch of inputs."""

    def __init__(self, workload: str, deadline: float):
        self.deadline = deadline
        env = dict(os.environ, **CHILD_ENV)
        t_spawn = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), workload],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)
        try:
            self._read_line()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t_spawn

    def _read_line(self) -> dict:
        remaining = self.deadline - time.perf_counter()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise BenchError("worker did not answer before the run deadline")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with code {self.proc.wait()} before answering")
        return json.loads(line)

    def send(self, command: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.close()
            return self._read_line()
        finally:
            self.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(self.deadline - time.perf_counter(), 1.0))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def p95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def speed_scale(refs: list[list[float]]) -> tuple[float, float]:
    """Factors that turn raw wall and CPU times taken next to these reference
    samples into times at the reporting speed."""
    return (REF_NOMINAL_S / statistics.median(w for w, _ in refs),
            REF_NOMINAL_S / statistics.median(c for _, c in refs))


class Run:
    """All sessions of one workload run, and what they measured: `ops` and
    `setups` raw, `scaled_ops` and `scaled_setups` at the reporting speed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.setups: list[float] = []
        self.scaled_setups: list[float] = []
        self.ops: list[list[float]] = []
        self.scaled_ops: list[list[float]] = []
        self.ref_walls: list[float] = []
        self.rss_mb = 0.0
        self.attempted = self.failed = self.witnesses = 0
        self.errors: list[str] = []

    def _setup(self, setup_s: float, refs: list[list[float]]) -> None:
        self.setups.append(setup_s)
        self.scaled_setups.append(setup_s * speed_scale(refs)[0])

    def session(self, inputs, trace: bool = False, spans: str | None = None) -> dict:
        s = Session(self.workload, self.deadline)
        res = s.send({"inputs": inputs, "trace": trace, "spans": spans})
        self._setup(s.setup_s, res["setup_refs"])
        self.ops += res["ops"]
        if not trace:  # traced operations are not sampled, and stay raw
            wall_k, cpu_k = speed_scale(res["refs"])
            self.ref_walls += [w for w, _ in res["refs"]]
            self.scaled_ops += [[w * wall_k, c * cpu_k] for w, c in res["ops"]]
        if res["threads"] != 1:
            raise BenchError(f"worker ran {res['threads']} threads, expected 1")
        self.rss_mb = max(self.rss_mb, res["rss_mb"])
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.witnesses += res["witnesses"]
        self.errors += res["errors"]
        return res

    def top_up_setups(self) -> None:
        while len(self.setups) < MIN_SETUPS:
            s = Session(self.workload, self.deadline)
            self._setup(s.setup_s, s.send({"exit": True})["setup_refs"])


def measure(workload: str, seed: int, seconds: float) -> tuple[Run, dict, list[str]]:
    """Closed loop: one session after another until `seconds` of work have run."""
    run = Run(workload)
    start = time.perf_counter()
    for inputs in sessions(workload, seed):
        run.session(inputs)
        if time.perf_counter() - start >= seconds:
            break
    run.top_up_setups()
    times = [w for w, _ in run.scaled_ops]
    metrics = {
        "setup_s": statistics.median(run.scaled_setups),
        "op_time_s": statistics.median(times),
        "op_time_p95_s": p95(times),
        "op_cpu_s": statistics.median(c for _, c in run.scaled_ops),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": run.rss_mb,
    }
    beyond = sum(t > metrics["op_time_p95_s"] for t in times)
    lines = [f"{workload} (seed {seed}): {len(times)} operation(s), {run.attempted} checked, "
             f"{run.failed} failed, {run.witnesses} witnesses re-checked, "
             f"{len(run.setups)} set-ups"]
    lines += [f"  reference kernel inside operations: median "
              f"{statistics.median(run.ref_walls) * 1000:.4g} ms of {len(run.ref_walls)} "
              f"samples (reporting speed: {REF_NOMINAL_S * 1000:g} ms)",
              "  raw times, as the clock read them:"]
    walls = [w for w, _ in run.ops]
    cpus = [c for _, c in run.ops]
    aliases = {
        "suite-default": [("suite_wall_s", walls[0], "s"), ("suite_cpu_s", cpus[0], "s")],
        "query-small": [("query_p50_ms", 1000 * statistics.median(walls), "ms"),
                        ("query_p95_ms", 1000 * p95(walls), "ms"),
                        ("queries_per_s", len(walls) / sum(walls), "1/s")],
        "roundtrip-large": [("roundtrip_wall_s", statistics.median(walls), "s")],
    }[workload]
    for name, value, unit in aliases + [
            ("setup_s", statistics.median(run.setups), "s"),
            ("peak_rss_mb", run.rss_mb, "MB"),
            ("ops_failed_ratio", run.failed / max(run.attempted, 1), "ratio")]:
        lines.append(f"  {name} = {value:.6g} {unit}")
    lines.append(f"  (timings: median and p95 of {len(times)} operation(s); "
                 f"{beyond} beyond the p95)")
    return run, metrics, lines


def measure_traced(workload: str, seed: int) -> tuple[Run, dict, list[str]]:
    """A fixed batch of traced sessions, for per-layer numbers."""
    run = Run(workload)
    plan = list(itertools.islice(sessions(workload, seed), TRACED_SESSIONS[workload]))
    WORK_DIR.mkdir(exist_ok=True)
    totals: dict = {}
    covered = self_sum = 0.0
    for i, inputs in enumerate(plan):
        spans = str(WORK_DIR / f"spans-{workload}-{i}.jsonl")
        res = run.session(inputs, trace=True, spans=spans)
        covered += res["covered_s"]
        self_sum += res["self_sum_s"]
        for key, value in res["per_layer"].items():
            if key.endswith(".max_s"):
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    for label, count, ratio in (("core.check_ring_axioms", "repeats", "repeat_ratio"),
                                ("ideals.all_right_ideal_masks", "hits", "hit_ratio"),
                                ("predicates.evaluate_predicate", "hits", "hit_ratio")):
        calls = totals[f"{label}.calls"]
        totals[f"{label}.{ratio}"] = totals[f"{label}.{count}"] / calls if calls else 0
    wall = sum(w for w, _ in run.ops)
    overhead = totals["trace.overhead_s"]
    if abs(self_sum + overhead - covered) > 1e-6 * max(covered, 1.0):
        raise BenchError(f"span accounting is off: self {self_sum} + overhead "
                         f"{overhead} != covered {covered}")
    totals["trace.wall_s"] = wall
    totals["trace.remainder_s"] = wall - covered
    missing = [b for b in REQUIRED[workload] if totals.get(f"{b}.calls", 0) == 0]
    if missing:
        raise BenchError(f"{workload}: boundaries never reached: {', '.join(missing)}")
    lines = [f"{workload} traced (seed {seed}): {len(run.ops)} operation(s)",
             f"  sum of self times {self_sum:.6g} s + tracing overhead {overhead:.6g} s "
             f"+ untraced remainder {wall - covered:.6g} s = traced wall {wall:.6g} s"]
    top = sorted((k for k in totals if k.endswith(".self_s")), key=totals.get, reverse=True)
    for key in top[:10]:
        label = key[:-len(".self_s")]
        lines.append(f"  {label}: self {totals[key]:.4g} s, total "
                     f"{totals[label + '.total_s']:.4g} s, {totals[label + '.calls']} calls")
    return run, totals, lines


def emit(run: Run, metrics: dict, names: list[dict]) -> dict:
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": out}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if trace:
        run, metrics, lines = measure_traced(workload, seed)
        result = emit(run, metrics, spec["per_layer"])
    else:
        run, metrics, lines = measure(workload, seed, seconds)
        result = emit(run, metrics, spec["end_to_end"])
        lines[1:1] = ["  at reporting speed:"] + [
            f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    for line in lines + [f"  FAILED {e}" for e in run.errors]:
        print(line, flush=True)
    return run, result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload plain and traced; the traced run's extra wall time is
    compared over the operations both runs share, which have the same inputs."""
    results = []
    for workload in WORKLOADS:
        plain, plain_result = run_one(workload, seed, seconds, trace=False)
        traced, traced_result = run_one(workload, seed, seconds, trace=True)
        n = min(len(plain.ops), len(traced.ops))
        base = sum(w for w, _ in plain.ops[:n])
        extra = sum(w for w, _ in traced.ops[:n]) - base
        print(f"  traced minus untraced over {n} shared operations: {extra:.6g} s "
              f"({extra / base:+.1%})", flush=True)
        results += [plain_result, traced_result]
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (Path("src") / "ringlab" / "__init__.py").is_file():
        print("error: run from the root of a ringlab checkout (src/ringlab not found)",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            _, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
