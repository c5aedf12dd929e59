"""Benchmark of the cdu toolkit: seeded workloads timed end to end and per layer.

    python3 bench/run.py --workload analyze-odd --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

Each round runs in a fresh single-threaded Python process (bench/child.py),
so field caches start cold as they do for a command-line user.  A round
times its set-up (import cdu, then build every field its commands build)
and its commands, run through cdu.cli.main, and reports its peak resident
memory.  Rounds repeat while --seconds lasts, and at least MIN_ROUNDS run;
each metric is the median over the rounds.  The outputs of the first round
are checked against the reference arithmetic in reffield.py, and every
later round must print the same bytes.

With --trace 1 the run alternates untraced rounds with two kinds of traced
round, one wrapping cdu's module-level functions and one wrapping the
FieldContext vector methods as well, then runs the layer probe, and prints
the per-layer metrics, the tracing overhead among them.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ".bench_out"
MIN_ROUNDS = 3
MIN_TRACED = 2
ROUND_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "field.make_field_s": "s",
    "field.context_mib": "MiB",
    "field.vsub_ns_per_elem.odd": "ns",
    "field.vsub_ns_per_elem.p2": "ns",
    "field.vmul_const_ns_per_elem": "ns",
    "field.vpow_const_ns_per_elem": "ns",
    "field.shift_perm_ns_per_elem.uncached": "ns",
    "field.embed_s": "s",
    "funcs.table_eval_s": "s",
    "funcs.predicates_s": "s",
    "cdiff.row_us.odd": "us",
    "cdiff.row_us.p2": "us",
    "cdiff.small_call_us": "us",
    "cdiff.c_uniformity_calls": "count",
    "cdiff.full_report_s": "s",
    "cdiff.c_ddt_s": "s",
    "cdiff.quadchar_s": "s",
    "construct.validate_s": "s",
    "construct.build_s": "s",
    "monomial.value_distribution_ns_per_elem": "ns",
    "monomial.sweep_s": "s",
    "monomial.root_in_fps_s": "s",
    **{f"verify.suite_s.{suite}": "s" for suite in (
        "planar-example", "quadratic-characterization", "shift-identity", "constructions",
        "planar-power-family", "classical-ddt", "singular-points", "monomial-sweep",
        "relaxed-pcn")},
    "field.self_s": "s",
    "funcs.self_s": "s",
    "cdiff.self_s": "s",
    "construct.self_s": "s",
    "monomial.self_s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "parallel.full_report_w1_s": "s",
    "parallel.full_report_w2_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cost_ns": "ns",
}


# metrics read from the traced rounds that also wrap the FieldContext vector
# methods, which run once or twice per c-DDT row; every other timing comes
# from rounds that wrap module-level functions only, so per-row wrappers
# cannot weigh on it
FULL_TRACE = {
    "field.vsub_ns_per_elem.odd", "field.vsub_ns_per_elem.p2", "field.vmul_const_ns_per_elem",
    "field.vpow_const_ns_per_elem", "field.shift_perm_ns_per_elem.uncached",
    *(f"{layer}.self_s" for layer in ("field", "funcs", "cdiff", "construct", "monomial",
                                      "verify", "cli")),
    "trace.span_cost_ns",
}


class BenchError(Exception):
    pass


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")], input=json.dumps(spec),
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a round took over {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"round process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _files(ops: list) -> dict:
    """Contents of the files the commands wrote, by the path they were given."""
    out = {}
    for op in ops:
        path = op.get("matrix_out")
        if path:
            try:
                out[path] = (ROOT / path).read_text()
            except OSError:
                out[path] = None
    return out


def judge(ops: list, rounds: list, rng: random.Random) -> tuple[bool, int, list]:
    """Check the outputs of a workload's rounds, each a (child result,
    files) pair.  Returns (correct, failed operations, error strings).

    The first round's outputs are checked against the reference
    arithmetic; every later round must print the same bytes.  A command
    that exits non-zero, or whose output fails a check, fails and makes
    the run incorrect.
    """
    first, first_files = rounds[0]
    op_failed, errors, correct = [], [], True
    for k, op in enumerate(ops):
        o = first["outputs"][k]
        if o["rc"] != 0:
            errs = [f"exited {o['rc']}"]
        else:
            errs = checks.check(op, o["stdout"], first_files, rng)
        op_failed.append(bool(errs))
        correct = correct and not errs
        errors += [f"op {k} ({op['argv'][0]}): {e}" for e in errs]
    failed = 0
    for res, files in rounds:
        for k, op in enumerate(ops):
            same = (res["outputs"][k] == first["outputs"][k]
                    and files.get(op.get("matrix_out")) == first_files.get(op.get("matrix_out")))
            if not same:
                correct = False
                errors.append(f"op {k} ({op['argv'][0]}) printed other bytes in a later round")
            failed += int(op_failed[k] or not same)
    return correct, failed, errors


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, run record)."""
    out_rel = f"{OUT_DIR}/{name}-{os.getpid()}"
    (ROOT / out_rel).mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(name, seed, seconds, trace, out_rel)
    finally:
        shutil.rmtree(ROOT / out_rel, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, out_rel):
    w = workloads.build(name, seed, out_rel)
    ops = w["ops"]
    spec = {"fields": w["fields"], "ops": ops, "seed": seed, "trace": False}
    rounds = []  # (trace kind, child result, files)
    kinds = [False, "module", "full"] if trace else [False]
    spent = {k: [] for k in kinds}
    min_rounds = MIN_TRACED if trace else MIN_ROUNDS

    def want(kind):
        if len(spent[kind]) < min_rounds:
            return True
        # start a round if it would end at most half a round past the budget
        est = statistics.median(spent[kind])
        return sum(map(sum, spent.values())) + est / 2 <= seconds

    while True:
        due = [k for k in kinds if want(k)]
        if not due:
            break
        for kind in due:
            s = dict(spec, trace=kind)
            if kind and not spent[kind]:
                s["spans_out"] = f"{OUT_DIR}/trace-{name}-{kind}.json.gz"
            t0 = time.perf_counter()
            res = run_round(s)
            spent[kind].append(time.perf_counter() - t0)
            rounds.append((kind, res, _files(ops)))

    correct, failed, errors = judge(ops, [(res, files) for _, res, files in rounds],
                                    random.Random(f"checks:{name}:{seed}"))
    plain = [r for k, r, _ in rounds if not k]
    traced = {kind: [r for k, r, _ in rounds if k == kind] for kind in kinds[1:]}
    if trace:
        metrics = _layer_metrics(plain, traced, seed)
    else:
        metrics = {m: {"value": statistics.median(r[m] for r in plain), "unit": u}
                   for m, u in END_TO_END.items()}
    result = {"correct": correct, "attempted": len(rounds) * len(ops), "failed": failed,
              "metrics": metrics}
    record = {"workload": name, "seed": seed, "nproc": os.cpu_count(),
              "python": platform.python_version(), "numpy": np.__version__, "git_sha": git_sha(),
              "rounds": len(plain), "traced_rounds": {k: len(v) for k, v in traced.items()},
              "op_s": [statistics.median(r["op_s"][k] for r in plain) for k in range(len(ops))],
              # per untraced round: wall and CPU seconds of set-up and commands
              "round_s": [{k: round(r[k], 4) for k in ("setup_s", "setup_cpu_s", "wall_s",
                                                       "wall_cpu_s")} for r in plain],
              "attempted": result["attempted"], "failed": failed, "errors": errors[:20]}
    return result, record


def _layer_metrics(plain: list, traced: dict, seed: int) -> dict:
    """Per-layer metrics: medians over the traced rounds of the kind each
    metric is read from, else the layer probe's reading."""
    probe = run_round({"fields": [], "ops": [], "seed": seed, "trace": "full", "probe": True})
    values = {}
    for m in PER_LAYER:
        rounds = traced["full" if m in FULL_TRACE else "module"]
        got = [r["layers"][m] for r in rounds if r["layers"].get(m) is not None]
        if got:
            values[m] = statistics.median(got)
        elif probe["layers"].get(m) is not None:
            values[m] = probe["layers"][m]
    values["cli.report_bytes"] = sum(len(o["stdout"].encode()) for o in plain[0]["outputs"])
    values.update(probe["parallel"])
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced["full"])
                                  - statistics.median(r["wall_s"] for r in plain))
    missing = [m for m in PER_LAYER if m not in values]
    if missing:
        raise BenchError(f"no reading for per-layer metrics {missing}")
    return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=list(workloads.NAMES) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind like an interrupt, so subprocess.run kills and reaps the round
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "cdu" / "cli.py").is_file():
        print(f"error: no cdu sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    lines = []
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for e in record["errors"]:
                print(f"{name}: {e}", file=sys.stderr)
            print(json.dumps({"run": record}))
            lines.append((name, result))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[0][1]
    else:
        for name, result in lines:
            print(json.dumps({"workload": name, **result}))
        final = {"correct": all(r["correct"] for _, r in lines),
                 "attempted": sum(r["attempted"] for _, r in lines),
                 "failed": sum(r["failed"] for _, r in lines),
                 "metrics": {f"{name}.{m}": v for name, r in lines for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
