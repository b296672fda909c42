#!/usr/bin/env python3
"""Two-clock benchmark of the C-FFS simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Builds perfbench/pb.exe with dune into
.bench_build, then runs the workload in fresh processes (one iteration
each, one thread, closed loop) until S seconds have passed and at least
MIN_ITERS iterations are done, and reports medians over the iterations.
The first iteration of a run also checks the final image with fsck.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json.
--trace 1 first checks mirror fidelity (the benchmark's own workload code
against the library workload it mirrors, at the library's own seed), then
alternates untraced and traced iterations and prints the per-layer
metrics, including the tracing overhead.  --workload all runs every workload in turn and
prints every metric of each.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 0 means a
result was printed; a build failure or a crashed iteration exits 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "pb.exe")
MIN_ITERS = 3  # untraced iterations per run, so each metric is a median
MIN_PAIRS = 2  # untraced/traced pairs per --trace 1 run
RUN_CAP_S = 150  # start no new iteration after this much of a run
ITER_TIMEOUT_S = 170

# Metrics a deterministic simulator must reproduce bit for bit on every
# iteration with the same seed.  (peak_heap_mb is not among them: the top
# of heap can differ by a fraction of a percent with major-GC pacing.)
EXACT = [
    "alloc_mwords",
    "sim_ops_per_s",
    "sim_requests_per_op",
    "sim_op_ms_p50",
    "sim_op_ms_p99",
]

# Every ratio printed with the count it is taken over.
BASES = {
    "pathfs.components_per_resolve": "pathfs.resolves",
    "namei.dentry_hit_ratio": "namei.dentry_lookups",
    "namei.attr_hit_ratio": "namei.attr_lookups",
    "namei.shortcut_hit_ratio": "namei.shortcut_lookups",
    "cffs.embedded_inode_hits_per_op": "pathfs.calls",
    "cffs.external_inode_reads_per_op": "pathfs.calls",
    "dirindex.reads_per_lookup": "dirindex.lookups",
    "cache.hit_ratio": "cache.lookups",
    "cache.logical_hit_share": "cache.lookups",
    "cache.sync_writes_per_op": "pathfs.calls",
    "cache.prefetch_blocks_per_run": "cache.prefetch_runs",
    "blockdev.requests_per_op": "pathfs.calls",
    "blockdev.kb_per_request": "blockdev.requests",
    "blockdev.host_us_per_request": "blockdev.requests",
    "volume.requests_per_spindle": "blockdev.requests",
    "ioqueue.coalesce_ratio": "ioqueue.submitted",
    "ioqueue.window_mean": "ioqueue.dispatches",
    "ioqueue.host_us_per_dispatch": "ioqueue.dispatches",
    "drive.seek_ms_per_request": "blockdev.requests",
    "drive.rotation_ms_per_request": "blockdev.requests",
    "drive.transfer_ms_per_request": "blockdev.requests",
    "drive.cache_hit_ratio": "drive.reads",
    "drive.host_us_per_service": "blockdev.requests",
    "fs.host_self_us_per_op": "pathfs.calls",
    "sim_op_ms_p50": "sim_op_samples",
    "sim_op_ms_p99": "sim_op_samples",
}


class BenchError(Exception):
    pass


def say(line=""):
    print(line, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    cmd = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--cache=disabled", "--display=quiet", "./perfbench/pb.exe",
    ]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if p.returncode != 0 or not os.path.exists(EXE):
        raise BenchError(f"build failed (dune exit {p.returncode})")


def iteration(workload, mode, seed=None, fsck=False):
    cmd = [EXE, workload, "--mode", mode]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if fsck:
        cmd.append("--fsck")
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=ITER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} iteration timed out")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} iteration exited {p.returncode}: "
                         f"{p.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def median(xs):
    return statistics.median(xs)


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


class Run:
    """One workload's iterations and the checks made on them."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def problem(self, what):
        self.failed += 1
        self.problems.append(what)

    def take(self, it):
        self.attempted += it["attempted"]
        self.failed += it["failed"]
        if it["failed"]:
            self.problems.append(f"{it['mode']} seed {it['seed']}: "
                                 f"{it['failed']} failed, first: {it['first_error']}")
        return it

    def check_exact(self, its):
        for name in EXACT:
            values = {it["e2e"][name] for it in its}
            if len(values) > 1:
                self.problem(f"{name} differs between iterations: {sorted(values)}")

    def fidelity(self):
        ref = iteration(self.workload, "reference")
        drv = self.take(iteration(self.workload, "plain", ref["seed"]))
        ok = ref["phases"] == drv["phases"]
        say(f"[{self.workload}] mirror fidelity at seed {ref['seed']}: "
            f"{'exact' if ok else 'MISMATCH'}")
        for r, d in zip(ref["phases"], drv["phases"]):
            say(f"    {r['name']:<12} library {r['nops']} ops {r['sim_s']!r} sim_s "
                f"{r['requests']} req | benchmark {d['nops']} ops {d['sim_s']!r} sim_s "
                f"{d['requests']} req")
        if not ok:
            self.problem("mirror fidelity mismatch")


def loop(run, seconds, modes):
    """Run the iteration modes in turn until time is up; return them."""
    out = {m: [] for m in modes}
    start = time.monotonic()
    need = MIN_ITERS if len(modes) == 1 else MIN_PAIRS
    while True:
        elapsed = time.monotonic() - start
        done = min(len(v) for v in out.values())
        if done >= need and (elapsed >= seconds or elapsed >= RUN_CAP_S):
            break
        for m in modes:
            # Iterations with one seed are identical (check_exact holds them
            # to it), so one file-system check per run covers them all.
            fsck = not out[m]
            out[m].append(run.take(iteration(run.workload, m, run.seed, fsck)))
    return out


def run_workload(workload, seed, seconds, trace, bench):
    run = Run(workload, seed)
    metrics = {}
    units = {}
    if not trace:
        plain = loop(run, seconds, ["plain"])["plain"]
        run.check_exact(plain)
        for m in bench["end_to_end"]:
            metrics[m["name"]] = median([it["e2e"][m["name"]] for it in plain])
            units[m["name"]] = m["unit"]
        info = {
            "sim_op_samples": plain[0]["calls"],
            "error_rate": run.failed / max(1, run.attempted),
        }
        say(f"[{workload}] seed {seed}: {len(plain)} iterations, medians "
            f"(ops_per_host_s per iteration: "
            f"{', '.join(fmt(it['e2e']['ops_per_host_s']) for it in plain)})")
        extra = plain[0]["layers"]
        for k in ("fs.sim_create_per_s", "fs.sim_read_per_s", "fs.sim_overwrite_per_s",
                  "fs.sim_delete_per_s", "fs.sim_stat_per_s"):
            if extra.get(k):
                say(f"    {k[3:]:<26} {fmt(extra[k])} 1/sim_s")
    else:
        run.fidelity()
        got = loop(run, seconds, ["plain", "traced"])
        plain, traced = got["plain"], got["traced"]
        run.check_exact(plain)
        overhead = (median([it["e2e"]["ops_per_host_s"] for it in plain])
                    / median([it["e2e"]["ops_per_host_s"] for it in traced]))
        for m in bench["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_ratio":
                metrics[name] = overhead
            else:
                metrics[name] = median([float(it["layers"][name]) for it in traced])
            units[name] = m["unit"]
        info = {
            "sim_op_samples": traced[0]["calls"],
            "error_rate": run.failed / max(1, run.attempted),
        }
        shares = sorted(((metrics[f"host_share.{l}"], l) for l in
                         ("fs", "cache", "blockdev", "ioqueue", "drive")), reverse=True)
        say(f"[{workload}] seed {seed}: {len(traced)} traced + {len(plain)} untraced "
            f"iterations; host self-time ranking: "
            + ", ".join(f"{l} {s:.3f}" for s, l in shares))
    for name, value in metrics.items():
        base = BASES.get(name)
        tail = ""
        if base is not None:
            bv = metrics.get(base, info.get(base))
            if bv is not None:
                tail = f"   (base {base} = {fmt(bv)})"
        say(f"    {name:<34} {fmt(value):>14} {units[name]}{tail}")
    say(f"    {'error_rate':<34} {fmt(info['error_rate']):>14} ratio"
        f"   (base attempted = {run.attempted})")
    for p in run.problems:
        say(f"    PROBLEM: {p}")
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        bench = spec()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload}; one of {names} or all")
        build()
        chosen = names if args.workload == "all" else [args.workload]
        runs = [run_workload(w, args.seed, args.seconds, bool(args.trace), bench)
                for w in chosen]
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r, _ in runs)
    failed = sum(r.failed for r, _ in runs)
    metrics = runs[0][1] if len(runs) == 1 else {
        f"{r.workload}/{k}": v for r, m in runs for k, v in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
