#!/usr/bin/env python3
"""Builds the perfbench binary from the checkout's sources and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload acad-analyze --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The binary is compiled (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, the first time; later runs only re-check the build.
Build output goes to stderr so that the last line of stdout is the
binary's JSON result.  Before printing that line this script checks its
metric names and units against BENCHMARK.json and compares the input
fingerprint with the one recorded in perfbench/fingerprints.json.

--self-test runs every workload at a tiny scale, checks that each metric
the benchmark defines prints with its unit, and checks that a
deliberately corrupted result is counted as a failed operation.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("acad-analyze", "gcc-optimize", "gcc-serve")
RUN_TIMEOUT_S = 170

# Every metric the benchmark prints, by workload, as "metric <name> <value>
# <unit>" lines.  The JSON line carries only the ones BENCHMARK.json lists.
COMMON = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops", "count"),
          ("ops_failed", "count")]
TIMED = {
    "acad-analyze": [("analyze_s", "s"), ("analyze_j1_s", "s")],
    "gcc-optimize": [("optimize_s", "s"), ("insts_deleted", "count")],
    "gcc-serve": [("edit_p50_ms", "ms"), ("edit_tail_ms", "ms"),
                  ("save_p50_ms", "ms"), ("peak_rss_end_mb", "MB")]
    + [("query.%s_%s_ms" % (q, stat), "ms")
       for q in ("analyze", "explain", "lint") for stat in ("p50", "tail")],
}
STAGES = ["cfg.build", "cfg.init", "psg.build", "psg.phase1", "psg.phase2"]
TRACED_COMMON = (
    [("binary.parse_ms", "ms"), ("binary.validate_ms", "ms")]
    + [(s + "_s", "s") for s in STAGES + ["psg.extract"]]
    + [(s + ".speedup", "x") for s in STAGES]
    + [("analyze.stage_remainder_s", "s"), ("psg.nodes", "count"),
       ("psg.edges", "count"), ("psg.phase1.pops_per_node", "ratio"),
       ("psg.phase2.pops_per_node", "ratio"),
       ("psg.phase1.edge_visits", "count"),
       ("psg.phase2.edge_visits", "count"), ("sched.p1.groups", "count"),
       ("sched.p1.levels", "count"),
       ("sched.p1.largest_group_routines", "count"),
       ("sched.p2.largest_group_routines", "count"),
       ("analyze.mem_peak_mb", "MB"), ("slice.slotflow_s", "s"),
       ("telemetry.overhead_s", "s"), ("telemetry.report_mb", "MB")])
TRACED = {
    "acad-analyze": [],
    "gcc-optimize": [("opt.rounds", "count"), ("opt.analyses", "count"),
                     ("opt.round1_s", "s"), ("opt.round1_changes", "count")]
    + [("opt.pass.%s_s" % p, "s")
       for p in ("dead_def", "dead_store", "save_restore", "spill_removal",
                 "unreachable", "commit_check")],
    "gcc-serve": [("incr.struct_dirty", "count"),
                  ("incr.phase1_dirty", "count"),
                  ("incr.phase2_dirty", "count"),
                  ("incr.slot_dirty", "count"), ("incr.reuse_ratio", "ratio"),
                  ("incr.p2_escalated_frac", "ratio"),
                  ("incr.full_frac", "ratio"),
                  ("serve.depgraph_hit_ratio", "ratio"),
                  ("slice.depgraph_s", "s")]
    + [("query.%s_p50_ms" % q, "ms")
       for q in ("analyze", "explain", "lint", "slice_rebuild", "slice_hit")],
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / target / "perfbench").resolve()


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no spike sources next to perfbench/ (expected src/)")
    if not shutil.which("cmake"):
        fail("cmake not found")
    out = build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return out / "perfbench"


def run_binary(binary, args):
    """Runs the binary; returns its stdout lines (exits on failure)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    lines = proc.stdout.splitlines()
    if not lines:
        fail("perfbench printed nothing")
    return lines


def printed_metrics(lines):
    """{name: unit} of every "metric" line."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            found[parts[1]] = parts[3]
    return found


def check_contract(result, trace):
    """The JSON metrics must be exactly BENCHMARK.json's list, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics do not match BENCHMARK.json: missing %s, unexpected %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail("metric %s has no numeric value" % name)


def check_fingerprint(lines, workload, seed):
    """Reports whether the generated input matches the recorded one."""
    line = next((l for l in lines if l.startswith("fingerprint ")), None)
    if line is None:
        fail("perfbench printed no fingerprint")
    got = json.loads(line[len("fingerprint "):])
    recorded = json.loads((HERE / "fingerprints.json").read_text())
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        print("fingerprint: no recorded input for seed %d" % seed)
    elif want == got:
        print("fingerprint: matches the recorded input")
    else:
        print("fingerprint: INPUT CHANGE at seed %d: recorded %s -- the "
              "generator changed; re-baseline instead of comparing times"
              % (seed, json.dumps(want)))


def run(args):
    binary = build()
    trace = args.trace != 0
    lines = run_binary(binary, ["--workload", args.workload,
                                "--seed", str(args.seed),
                                "--seconds", str(args.seconds),
                                "--trace", "1" if trace else "0"])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON")
    check_contract(result, trace)
    for line in lines[:-1]:
        print(line)
    check_fingerprint(lines, args.workload, args.seed)
    print(lines[-1])


def self_test():
    binary = build()
    tiny = ["--scale", "0.05", "--seconds", "0.3", "--seed", "7"]
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            want = dict(COMMON + (TRACED_COMMON + TRACED[w] if trace
                                  else TIMED[w]))
            lines = run_binary(binary, ["--workload", w, "--trace",
                                        str(trace)] + tiny)
            got = printed_metrics(lines)
            for name, unit in sorted(want.items()):
                if got.get(name) != unit:
                    problems.append("%s trace %d: %s prints unit %r, want %r"
                                    % (w, trace, name, got.get(name), unit))
            result = json.loads(lines[-1])
            if result["failed"] != 0 or not result["correct"]:
                problems.append("%s trace %d: a clean run failed a gate"
                                % (w, trace))
        lines = run_binary(binary, ["--workload", w, "--trace", "0",
                                    "--corrupt"] + tiny)
        result = json.loads(lines[-1])
        if result["failed"] < 1 or result["correct"]:
            problems.append("%s: a corrupted result was not counted" % w)
        print("self-test %s: %d metrics checked, corruption counted as %d "
              "failed" % (w, len(COMMON) + len(TIMED[w]) +
                          len(TRACED_COMMON) + len(TRACED[w]),
                          result["failed"]))
    for p in problems:
        print("self-test FAILED: " + p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if not args.workload:
        ap.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
