#!/usr/bin/env python3
"""End-to-end benchmark of `psn_cli run|check|serve`.

Run from the repo root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --report [--seed N] [--seconds S]

The first form is one benchmark run. It builds the repo's libraries, the
stock psn_cli and the bench-side traced driver (psn_bench_trace) into
.bench_build/e2ebench (an optimized build; other build types are refused),
makes the workload's inputs from --seed, and then:

  --trace 0  times whole psn_cli processes, one at a time, for --seconds and
             prints the end-to-end metrics of BENCHMARK.json;
  --trace 1  runs psn_bench_trace, which calls the same public functions as
             psn_cli in the same order with a span around each, for
             --seconds, and prints the per-layer metrics.

Every psn_cli invocation goes through the output checks (check_output); one
that fails them counts in "failed". The last stdout line is the result
object; the line before it stamps the context (CPUs, build type, compiler,
source digest, seed, workload parameters, output digest). The full record,
spans included, goes to .bench_build/e2ebench/results/.

--report runs every workload in both modes and prints each metric by name
with its unit; it exits 1 if any output check failed.
"""

import argparse
import collections
import contextlib
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
PSN_CLI = os.path.join(BUILD_DIR, "psn_examples", "psn_cli")
TRACE_DRIVER = os.path.join(BUILD_DIR, "psn_bench_trace")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")

# Every psn_cli invocation gets this long before it is killed and counted
# as failed; a run must end within 180 s.
INVOCATION_TIMEOUT_S = 120.0
# Set-up is timed in this many separate processes per run; setup_s is their
# median.
SETUP_SAMPLES = 21
# Untraced psn_cli invocations a traced run makes for its output checks and
# for the untraced wall time it reports beside the traced total.
TRACED_RUN_UNTRACED_SAMPLES = 3
MIN_SAMPLES = 3

DETECTORS = ("delivery-order", "physical-eps", "strobe-scalar", "strobe-vector")

# Why each workload exists is in README.md. `flags` are psn_cli flags; the
# program seed is appended per run.
WORKLOADS = {
    "hall-broadcast": {
        "command": "run",
        "flags": ["--doors", "64", "--rate", "100", "--mode", "vector"],
        "expected_exit": (0,),
    },
    "city-unicast": {
        "command": "run",
        # --doors must be explicit: the city scenario reads 4 as "unset"
        # and runs 10^5 doors.
        "flags": ["--scenario", "city", "--doors", "1000", "--seconds", "5",
                  "--shards", "2", "--shard-threads", "2"],
        "expected_exit": (0,),
    },
    "check-hall": {
        "command": "check",
        "flags": ["--doors", "16", "--rate", "100", "--mode", "vector"],
        "expected_exit": (0, 1),
    },
    "serve-stream": {
        "command": "serve",
        "flags": ["--procs", "17"],
        # The stream serve verifies: a 16-door hall broadcast run recorded
        # by `psn_cli run --trace` during set-up (about 410k records).
        "record_flags": ["--doors", "16", "--rate", "100", "--seconds", "120",
                         "--mode", "vector"],
        "expected_exit": (0,),
    },
}


class BenchError(Exception):
    """A condition that makes the run meaningless: exit 2, print no result."""


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def load_definition():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def program_seed(seed):
    """The seed psn_cli receives: --seed itself, kept in psn_cli's range."""
    return seed % (2 ** 31)


# ---------------------------------------------------------------- build


def source_digest():
    """Digest of everything the build reads, standing in for the commit id
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cached_build_type():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def build():
    """Configures and builds psn_cli and psn_bench_trace; refuses build trees
    that are not optimized, as bench/run_bench.sh does."""
    for needed in ("src/CMakeLists.txt", "examples/psn_cli.cpp",
                   "examples/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} not found: run from a full checkout "
                             "of the repo")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd)
        build_type = cached_build_type()
        if build_type not in OPTIMIZED_BUILD_TYPES:
            raise BenchError(
                f"{BUILD_DIR} is CMAKE_BUILD_TYPE={build_type or 'unset'}, not "
                "an optimized build; delete it or reconfigure with "
                "-DCMAKE_BUILD_TYPE=Release")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_build_step(["cmake", "--build", BUILD_DIR, "--target", "psn_cli",
                        "psn_bench_trace", "-j", jobs])
    context = json.loads(run_checked([TRACE_DRIVER, "context"]))
    if not context["optimized"]:
        raise BenchError("psn_bench_trace was built without optimization")
    context["build_type"] = build_type
    return context


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def run_checked(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


# ------------------------------------------------------------ processes


# One finished child process: exit code, wall time, peak RSS, stdout.
Invocation = collections.namedtuple("Invocation",
                                    "code wall_s maxrss_kb stdout")


def invoke(argv, stdin_path=None):
    """Runs argv to completion with stdout to a file; times it from outside
    and reads its peak RSS from wait4's rusage."""
    os.makedirs(WORK_DIR, exist_ok=True)
    out_path = os.path.join(WORK_DIR, "stdout")
    with contextlib.ExitStack() as stack:
        out = stack.enter_context(open(out_path, "wb"))
        inp = (stack.enter_context(open(stdin_path, "rb")) if stdin_path
               else subprocess.DEVNULL)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=inp, stdout=out,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return Invocation(proc.returncode, wall, rusage.ru_maxrss, stdout)


def cli_argv(workload, seed):
    w = WORKLOADS[workload]
    argv = [PSN_CLI, w["command"]] + w["flags"]
    if w["command"] != "serve":
        argv += ["--seed", str(program_seed(seed))]
    return argv


def driver_argv(workload, seed, inputs):
    w = WORKLOADS[workload]
    if w["command"] == "serve":
        return [TRACE_DRIVER, "serve"] + w["flags"] + ["--input", inputs["stream"]]
    return ([TRACE_DRIVER, "occupancy", w["command"]] + w["flags"] +
            ["--seed", str(program_seed(seed))])


# --------------------------------------------------------------- inputs


def prepare_inputs(workload, seed):
    """Makes the workload's inputs from the seed. Untimed."""
    w = WORKLOADS[workload]
    if w["command"] != "serve":
        return {}
    stream = os.path.join(WORK_DIR, f"stream-{program_seed(seed)}.jsonl")
    os.makedirs(WORK_DIR, exist_ok=True)
    argv = [PSN_CLI, "run"] + w["record_flags"] + [
        "--seed", str(program_seed(seed)), "--metrics",
        "--trace", stream, "--trace-cap", "100000000"]
    out = run_checked(argv)
    match = re.search(r"^\|\s*world\.events\s*\|\s*counter\s*\|\s*(\d+)", out,
                      re.M)
    if not match:
        raise BenchError("recording run printed no world.events metric")
    h = hashlib.sha256()
    lines = 0
    with open(stream, "rb") as f:
        for line in f:
            h.update(line)
            lines += 1
    return {"stream": stream, "stream_records": lines,
            "stream_sha256": h.hexdigest(), "world_events": int(match.group(1))}


def remove_inputs(inputs):
    """Deletes the recorded stream (tens of MB); each run records its own."""
    if "stream" in inputs and os.path.exists(inputs["stream"]):
        os.remove(inputs["stream"])


def measure_setup(workload, seed, inputs):
    """setup_s: world pre-roll until the call into
    ShardedPervasiveSystem::run(), or Session construction until the first
    record is fed. psn_cli gives no outside view of that boundary, so the
    traced driver times it, once per process, SETUP_SAMPLES times."""
    samples = []
    world_events = inputs.get("world_events")
    for _ in range(SETUP_SAMPLES):
        out = json.loads(run_checked(driver_argv(workload, seed, inputs) +
                                     ["--setup-only"]))["metrics"]
        if "serve.setup_s" in out:
            samples.append(out["serve.setup_s"])
        else:
            samples.append(out["world.preroll_s"] + out["core.build_s"])
            world_events = int(out["world.events"])
    return statistics.median(samples), world_events


# -------------------------------------------------------- output checks

SCORE_ROW = re.compile(
    r"^\|\s*([a-z-]+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\d+)\s*\|")
VERDICT = re.compile(r"^psn-check verdict: (\w+) \((\d+) violation\(s\)\)$", re.M)
CONTRACT = re.compile(r"^  [\w.-]+: .*?(\d+) violation\(s\)$", re.M)


def parse_scorecard(text):
    """{detector: (occurrences, tp, fp, fn)} from psn_cli run's table."""
    rows = {}
    for line in text.splitlines():
        m = SCORE_ROW.match(line)
        if m and m.group(1) in DETECTORS:
            rows[m.group(1)] = tuple(int(m.group(i)) for i in range(2, 6))
    return rows


def check_output(workload, inv, inputs):
    """Returns (problem or "", facts the traced run is compared against).
    A run fails when its exit code is unexpected, its scorecard, check
    verdict or eof line does not parse or is inconsistent, or serve dropped
    or rejected input."""
    w = WORKLOADS[workload]
    if inv.code not in w["expected_exit"]:
        return f"exit code {inv.code}", {}
    text = inv.stdout.decode("utf-8", "replace")
    if w["command"] == "run":
        rows = parse_scorecard(text)
        if len(rows) < 3:
            return "scorecard does not parse", {}
        for name, (occ, tp, _fp, fn) in rows.items():
            if tp + fn != occ:
                return f"{name}: TP + FN != occurrences", {}
        return "", {"scorecard": rows}
    if w["command"] == "check":
        verdict = VERDICT.search(text)
        if not verdict:
            return "check verdict does not parse", {}
        total = int(verdict.group(2))
        if sum(int(v) for v in CONTRACT.findall(text)) != total:
            return "contract violations do not add up to the verdict", {}
        if (total > 0) != (inv.code == 1):
            return "exit code disagrees with the verdict", {}
        return "", {"violations": total}
    lines = text.strip().splitlines()
    try:
        eof = json.loads(lines[-1]) if lines else {}
    except ValueError:
        eof = {}
    if eof.get("event") != "eof":
        return "eof line does not parse", {}
    if eof.get("records") != inputs["stream_records"]:
        return "serve records != input lines", {}
    if eof.get("rejected") != 0:
        return "serve rejected input", {}
    return "", {"violations": eof.get("violations")}


class OutputLedger:
    """Counts attempted and failed invocations. A run also fails when its
    stdout differs from the first run of the same workload and seed on the
    same sources; that first digest is kept under .bench_build."""

    def __init__(self, workload, seed, sources):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.facts = {}
        self.pin_path = os.path.join(
            BUILD_DIR, "digests", f"{sources}-{workload}-{program_seed(seed)}")
        self.pinned = None
        if os.path.isfile(self.pin_path):
            with open(self.pin_path, encoding="utf-8") as f:
                self.pinned = f.read().strip()

    def record(self, inv, inputs):
        self.attempted += 1
        problem, facts = check_output(self.workload, inv, inputs)
        digest = hashlib.sha256(inv.stdout).hexdigest()
        if not problem:
            if self.pinned is None:
                os.makedirs(os.path.dirname(self.pin_path), exist_ok=True)
                with open(self.pin_path, "w", encoding="utf-8") as f:
                    f.write(digest + "\n")
                self.pinned = digest
            if digest != self.pinned:
                problem = "stdout differs from the first run of these sources"
        if problem:
            self.failed += 1
            self.problems.append(problem)
            return False
        self.digest = digest
        self.facts = facts
        return True


# ----------------------------------------------------------------- runs


def timed_loop(seconds, body):
    """Calls body() until `seconds` have passed and at least MIN_SAMPLES
    calls were made."""
    start = time.perf_counter()
    calls = 0
    while calls < MIN_SAMPLES or time.perf_counter() - start < seconds:
        body()
        calls += 1


def run_untraced(workload, seed, seconds, inputs, ledger):
    setup_s, world_events = measure_setup(workload, seed, inputs)
    stdin = inputs.get("stream")
    walls, rss = [], []

    def once():
        inv = invoke(cli_argv(workload, seed), stdin)
        if ledger.record(inv, inputs):
            walls.append(inv.wall_s)
            rss.append(inv.maxrss_kb / 1024.0)

    timed_loop(seconds, once)
    if not walls:
        raise BenchError(f"every invocation failed: {ledger.problems[:3]}")
    metrics = {
        "events_per_s": statistics.median(world_events / w for w in walls),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, {"walls_s": walls, "world_events": world_events}


def run_traced(workload, seed, seconds, inputs, ledger):
    stdin = inputs.get("stream")
    walls = []
    for _ in range(TRACED_RUN_UNTRACED_SAMPLES):
        inv = invoke(cli_argv(workload, seed), stdin)
        if ledger.record(inv, inputs):
            walls.append(inv.wall_s)
            cli_stdout = inv.stdout
    if not walls:
        raise BenchError(f"every invocation failed: {ledger.problems[:3]}")

    samples, spans = [], None

    def once():
        nonlocal spans
        # The first traced run is also checked against the program.
        against = None if samples else (cli_stdout, ledger.facts)
        ledger.attempted += 1
        out, problem = traced_invocation(workload, seed, inputs, against)
        if problem:
            ledger.failed += 1
            ledger.problems.append(problem)
            return
        samples.append(out["metrics"])
        spans = out["spans"]

    timed_loop(seconds, once)
    if not samples:
        raise BenchError(f"every traced run failed: {ledger.problems[:3]}")
    metrics = {}
    for name in samples[0]:
        metrics[name] = statistics.median(s[name] for s in samples)
    wall = statistics.median(walls)
    metrics["bench.untraced_wall_s"] = wall
    if WORKLOADS[workload]["command"] == "serve":
        metrics["serve.outside_session_share"] = (
            1.0 - metrics["serve.session_s"] / wall)
        metrics["serve.records_per_s"] = metrics["serve.records"] / wall
    return metrics, {"walls_s": walls, "traced_runs": len(samples),
                     "spans": spans}


def traced_invocation(workload, seed, inputs, against=None):
    """Runs psn_bench_trace once; returns (its output, problem or "").

    With `against` = (psn_cli stdout, facts from check_output) on the same
    input, the traced run must also reach the program's result, or its
    spans describe another program: psn_bench_trace --verify compares its
    traced assembly with run_occupancy_experiment (detections per detector,
    metrics snapshot, check summary, trace), and its scorecard, verdict or
    Session output must match psn_cli's."""
    command = WORKLOADS[workload]["command"]
    argv = driver_argv(workload, seed, inputs)
    session_out = os.path.join(WORK_DIR, "session-out")
    if against and command == "serve":
        argv += ["--session-out", session_out]
    elif against:
        argv += ["--verify"]
    proc = subprocess.run(argv, capture_output=True, text=True,
                          timeout=INVOCATION_TIMEOUT_S)
    out = json.loads(proc.stdout) if proc.stdout.strip() else {}
    if proc.returncode != 0 or out.get("verify"):
        return out, ("traced assembly differs from the program: "
                     f"{out.get('verify') or proc.stderr.strip()[-300:]}")
    if against is None:
        return out, ""
    cli_stdout, facts = against
    if command == "serve":
        with open(session_out, "rb") as f:
            if f.read() != cli_stdout:
                return out, "traced Session output differs from psn_cli serve"
    elif command == "check":
        if out["metrics"].get("check.violations") != facts.get("violations"):
            return out, "traced check verdict differs from psn_cli check"
    else:
        traced = {r["detector"]: (r["occurrences"], r["tp"], r["fp"], r["fn"])
                  for r in out["scorecard"]}
        if traced != facts.get("scorecard"):
            return out, "traced scorecard differs from psn_cli run"
    return out, ""


def bench_once(workload, seed, seconds, trace, definition, context, sources):
    inputs = prepare_inputs(workload, seed)
    ledger = OutputLedger(workload, seed, sources)
    try:
        if trace:
            metrics, detail = run_traced(workload, seed, seconds, inputs,
                                         ledger)
            wanted = definition["per_layer"]
        else:
            metrics, detail = run_untraced(workload, seed, seconds, inputs,
                                           ledger)
            wanted = definition["end_to_end"]
    finally:
        remove_inputs(inputs)
    result_metrics = {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in wanted}
    stamp = {
        "num_cpus": os.cpu_count(),
        "build_type": context["build_type"],
        "compiler": context["compiler"],
        "git_commit": git_commit(),
        "source_digest": sources,
        "workload": workload,
        "seed": seed,
        "program_seed": program_seed(seed),
        "parameters": cli_argv(workload, seed)[1:],
        "output_sha256": ledger.digest,
        "problems": ledger.problems,
    }
    stamp.update({k: v for k, v in inputs.items() if k != "stream"})
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": result_metrics}
    results_dir = os.path.join(BUILD_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir,
                           f"{workload}-{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"context": stamp, "result": result, "detail": detail}, f,
                  indent=1)
    return stamp, result


def report(seed, seconds, definition, context, sources):
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            stamp, result = bench_once(workload, seed, seconds, trace,
                                       definition, context, sources)
            ok = ok and result["correct"]
            print(f"{workload} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"output_sha256={stamp['output_sha256']}")
            for problem in stamp["problems"]:
                print(f"  FAILED: {problem}")
            for name, m in result["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload in both modes and print "
                             "every metric with its unit")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload or --report is required")
    try:
        definition = load_definition()
        seconds = args.seconds or definition["run_seconds"]
        context = build()
        sources = source_digest()
        if args.report:
            return report(args.seed, seconds, definition, context, sources)
        stamp, result = bench_once(args.workload, args.seed, seconds,
                                   bool(args.trace), definition, context,
                                   sources)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps({"context": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
