#!/usr/bin/env python3
"""The repository benchmark in one command (perfbench/README.md).

    python3 perfbench/run.py --workload bisect_large --seed 1 --seconds 30 --trace 0

Builds fpbench and partitiond from the checkout's sources into
.bench_build/perfbench, generates the workload's inputs from --seed (timed
as prep, never as set-up), runs the workload for --seconds, checks every
result, and prints as the last line of stdout one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1. The line
before it stamps the host, build and sample counts; the same record, with
any check failures, is kept under .bench_build/results/. Exits 1 when a
result check fails and 2 when the benchmark cannot run at all.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's files
import serve  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
FPBENCH = os.path.join(BUILD_DIR, "fpbench")
PARTITIOND = os.path.join(BUILD_DIR, "fp_examples", "partitiond")

# bisect_large runs its serial starts on three concurrent workers: a start
# takes 1-2 s, and three workers give the 30+ samples per run that a tail
# percentile with ten samples beyond it needs.
BISECT_THREADS = 3
# Samples every in-process run makes. `cost` averages over exactly these
# first samples of the fixed sample list, so it repeats for a seed however
# many samples a run reaches.
MIN_SAMPLES = 30
TAIL_BEYOND = 10
MIN_COVERAGE = 0.95
BISECT_LEVELS = 12
PLACE_LEVELS = 8
SUBPROCESS_SLACK_S = 120


class BenchError(Exception):
    """The benchmark cannot run (as opposed to a failed result check)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_tool(args, timeout):
    """Runs a harness command; returns its stdout. Raises BenchError."""
    try:
        done = subprocess.run(args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{os.path.basename(args[0])} timed out") from error
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited {done.returncode}: "
                         f"{done.stderr.strip()[-2000:]}")
    return done.stdout


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"repository sources not found next to {HERE}")
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "fpbench", "partitiond",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(build_log) as text:
                    log(text.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


# ----------------------------------------------------------------- stats


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND
    if k <= len(xs) / 2:
        raise BenchError(f"{len(xs)} samples leave no tail above the median")
    return xs[k - 1], 100.0 * k / len(xs)


def quantile(values, q):
    xs = sorted(values)
    return xs[min(len(xs) - 1, max(0, int(q * len(xs) + 0.999999) - 1))] if xs else 0.0


class Spans:
    """The traced run's spans with their self times (duration minus the
    part of it that child spans cover)."""

    def __init__(self, records):
        self.records = records
        covered = defaultdict(float)
        for span in records:
            if span["parent"]:
                covered[span["parent"]] += span["dur"]
        for span in records:
            span["self"] = span["dur"] - covered[span["id"]]

    @classmethod
    def load(cls, path):
        records = []
        with open(path) as lines:
            for line in lines:
                span = json.loads(line)
                span["dur"] = (span["end_ns"] - span["start_ns"]) * 1e-9
                records.append(span)
        return cls(records)

    def named(self, name, level=None):
        return [s for s in self.records if s["name"] == name
                and (level is None or s["args"].get("level") == level)]

    def per_sample(self, name, level=None):
        """Median over samples of the summed duration of `name` spans."""
        sums = defaultdict(float)
        for span in self.named(name, level):
            sums[span["sample"]] += span["dur"]
        return median(list(sums.values()))

    def coverage(self, root="bench.solve"):
        roots = self.named(root)
        total = sum(s["dur"] for s in roots)
        return sum(s["dur"] - s["self"] for s in roots) / total if total else 0.0


def sample_timings(samples, key):
    values = [s[key] for s in samples]
    value, pct = tail(values)
    return {"p50": median(values), "tail": value, "tail_pct": pct, "samples": len(values)}


# ------------------------------------------------------------- workloads


def in_process(command, ctx, threads):
    out = run_tool([FPBENCH, command, f"--dir={ctx['inputs']}", f"--seed={ctx['seed']}",
                    f"--seconds={ctx['seconds']}", f"--threads={threads}",
                    f"--min-samples={MIN_SAMPLES}"]
                   + (["--trace", f"--spans={ctx['spans']}"] if ctx["trace"] else []),
                   timeout=ctx["seconds"] + SUBPROCESS_SLACK_S)
    data = json.loads(out.strip().splitlines()[-1])
    samples = data["samples"]
    errors = [f"sample {i} (seed {s['seed']}): {s['error']}"
              for i, s in enumerate(samples) if s["error"]]
    solve = sample_timings(samples, "solve_s")
    setup = sample_timings(samples, "setup_s")
    ctx["timings"] = {"solve_s": solve, "setup_s": setup}
    ctx["errors"] += errors
    ctx["attempted"] = len(samples)
    ctx["failed"] = len(errors)
    return data, samples, solve, setup


def check_coverage(ctx, spans):
    coverage = spans.coverage()
    if coverage < MIN_COVERAGE:
        ctx["errors"].append(f"per-layer self times cover {coverage:.3f} of the "
                             f"traced solve time, below {MIN_COVERAGE}")
    return coverage


def trace_overhead(samples):
    return median([s["traced_solve_s"] for s in samples]) / median([s["solve_s"] for s in samples])


def run_bisect(ctx):
    data, samples, solve, setup = in_process("bisect", ctx, BISECT_THREADS)
    e2e = {
        "setup_s": setup["p50"],
        "solve_p50_s": solve["p50"],
        "solve_tail_s": solve["tail"],
        "throughput": sum(s["pins"] for s in samples) / sum(s["solve_s"] for s in samples),
        "cost": statistics.fmean(s["cut"] for s in samples[:MIN_SAMPLES]),
        "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
    }
    if not ctx["trace"]:
        return e2e, {}
    spans = Spans.load(ctx["spans"])
    contracts = spans.named("ml.contract")
    fm_spans = spans.named("part.refine") + spans.named("part.initial")
    layers = {
        "hg.load_s": median([s["dur"] for s in spans.named("hg.load")]),
        "ml.match_s": spans.per_sample("ml.match"),
        "ml.contract_s": spans.per_sample("ml.contract"),
        "ml.shrink_ratio": statistics.fmean(
            s["args"]["coarse_vertices"] / s["args"]["fine_vertices"] for s in contracts),
        "ml.project_s": spans.per_sample("ml.project"),
        "part.initial_s": spans.per_sample("part.initial"),
        "part.refine_s": spans.per_sample("part.refine"),
        "part.moves": median([s["moves"] for s in samples]),
        "part.passes": median([s["passes"] for s in samples]),
        "part.kept_ratio": sum(s["args"]["kept"] for s in fm_spans)
        / max(1, sum(s["args"]["performed"] for s in fm_spans)),
        "harness.trace_overhead": trace_overhead(samples),
        "harness.trace_coverage": check_coverage(ctx, spans),
    }
    for level in range(BISECT_LEVELS):
        refines = spans.named("part.refine", level)
        moves = sum(s["args"]["moves"] for s in refines)
        layers[f"part.refine_s.L{level}"] = spans.per_sample("part.refine", level)
        layers[f"part.us_per_move.L{level}"] = (
            1e6 * sum(s["dur"] for s in refines) / moves if moves else 0.0)
    return e2e, layers


def run_place(ctx):
    data, samples, solve, setup = in_process("place", ctx, 1)
    e2e = {
        "setup_s": setup["p50"],
        "solve_p50_s": solve["p50"],
        "solve_tail_s": solve["tail"],
        "throughput": sum(s["cells"] for s in samples) / sum(s["solve_s"] for s in samples),
        "cost": statistics.fmean(s["hpwl"] for s in samples[:MIN_SAMPLES]),
        "peak_rss_mb": data["peak_rss_kb"] / 1024.0,
    }
    if not ctx["trace"]:
        return e2e, {}
    spans = Spans.load(ctx["spans"])
    passes = spans.named("part.fm_pass")
    moves = defaultdict(int)
    counts = defaultdict(int)
    for span in passes:
        moves[span["sample"]] += span["args"]["performed"]
        counts[span["sample"]] += 1
    layers = {
        "hg.load_s": median([s["dur"] for s in spans.named("hg.load")]),
        "part.moves": median(list(moves.values())),
        "part.passes": median(list(counts.values())),
        "part.kept_ratio": sum(s["args"]["kept"] for s in passes)
        / max(1, sum(s["args"]["performed"] for s in passes)),
        "harness.trace_overhead": trace_overhead(samples),
        "harness.trace_coverage": check_coverage(ctx, spans),
    }
    for level in range(PLACE_LEVELS):
        layers[f"place.level_s.L{level}"] = spans.per_sample("place.level", level)
        layers[f"place.fm_pass_s.L{level}"] = spans.per_sample("part.fm_pass", level)
    return e2e, layers


def run_serve(ctx):
    block_path = os.path.join(ctx["inputs"], serve.BLOCK + ".fpb")
    schedule = serve.build_schedule(ctx["seed"], ctx["seconds"])
    span_records = []
    daemon, setups = serve.start_daemon(PARTITIOND, ctx["run_dir"])
    try:
        with open(block_path, "rb") as block:
            upload = block.read()
        wall = serve.drive(daemon.port, schedule, upload, ctx["seconds"], ctx["trace"],
                           span_records)
        scrape_rtts = []
        for _ in range(3):
            metrics, progress, rtts = serve.scrape(daemon.port)
            scrape_rtts += rtts
        peak_rss_kb = daemon.peak_rss_kb()
    finally:
        daemon.stop()

    fresh = [r for r in schedule if r.target is None]
    hits = [r for r in schedule if r.target is not None]
    # Reference results, computed in process after the timed window.
    checked = [r for r in fresh if r.error is None]
    jobs_file = os.path.join(ctx["run_dir"], "reference_jobs.txt")
    with open(jobs_file, "w") as jobs:
        for r in checked:
            jobs.write(f"{block_path} {r.seed}\n")
    reference = json.loads(run_tool(
        [FPBENCH, "serve-ref", f"--jobs={jobs_file}",
         f"--threads={len(os.sched_getaffinity(0))}"],
        timeout=SUBPROCESS_SLACK_S).strip().splitlines()[-1])["results"]
    for r, ref in zip(checked, reference):
        got = (r.record.get("cut"), r.record.get("moves"), r.record.get("passes"))
        want = (ref["cut"], ref["moves"], ref["passes"])
        if ref["error"] or ref["truncated"] or got != want:
            r.error = f"daemon (cut, moves, passes) {got} != in-process {want} {ref['error']}"

    for r in schedule:
        if r.error is not None:
            kind = "upload" if r.target is None else "resubmission"
            ctx["errors"].append(f"request {r.index} ({kind}): {r.error}")
    ok_fresh = [r for r in fresh if r.error is None]
    turnaround = [r.done_at - r.t for r in ok_fresh]
    lateness = [r.sent - r.t for r in schedule if r.sent is not None and not r.deferred]
    late_p99 = quantile(lateness, 0.99)
    if late_p99 > serve.MAX_LATE_S:
        ctx["errors"].append(f"generator fell behind: p99 send lateness {late_p99:.3f} s")
    solve_tail, tail_pct = tail(turnaround)
    ctx["timings"] = {
        "solve_s": {"p50": median(turnaround), "tail": solve_tail, "tail_pct": tail_pct,
                    "samples": len(turnaround)},
        "setup_s": {"p50": median(setups), "samples": len(setups)},
        "hit_s": {"p50": median([r.rtt for r in hits if r.rtt is not None]),
                  "samples": len(hits)},
    }
    ctx["attempted"] = len(schedule)
    ctx["failed"] = sum(r.error is not None for r in schedule)
    e2e = {
        "setup_s": median(setups),
        "solve_p50_s": median(turnaround),
        "solve_tail_s": solve_tail,
        "throughput": len(ok_fresh) / wall,
        "cost": statistics.fmean(r.record["cut"] for r in ok_fresh),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    if not ctx["trace"]:
        return e2e, {}

    with open(ctx["spans"], "w") as out:
        for span in span_records:
            out.write(json.dumps(span) + "\n")
    queue_wait = metrics.get("histograms", {}).get("svc.server.queue_wait_seconds", {})
    service = [r.record["seconds"] for r in ok_fresh]
    gaps = [b - a for r in fresh for a, b in zip(r.polls, r.polls[1:])]
    traced = [r.done_at - r.t for r in ok_fresh if r.index % 2 == 0]
    untraced = [r.done_at - r.t for r in ok_fresh if r.index % 2 == 1]
    submit = [r.rtt for r in fresh if r.rtt is not None]
    layers = {
        "svc.submit_s": median(submit),
        "svc.poll_s": median([rtt for r in fresh for rtt in r.poll_rtts]),
        "svc.hit_p50_s": ctx["timings"]["hit_s"]["p50"],
        "svc.queue_wait_s": queue_wait.get("sum", 0.0) / max(1, queue_wait.get("total", 0)),
        "svc.service_s": median(service),
        "svc.coarsen_s": median([r.record.get("coarsen_seconds", 0.0) for r in ok_fresh]),
        "svc.initial_s": median([r.record.get("initial_seconds", 0.0) for r in ok_fresh]),
        "svc.refine_s": median([r.record.get("refine_seconds", 0.0) for r in ok_fresh]),
        "svc.busy_ratio": sum(service) / (serve.WORKERS * wall),
        "svc.cache_hits": progress.get("cache_hits", 0),
        "svc.shed": progress.get("shed", 0),
        "part.moves": median([r.record["moves"] for r in ok_fresh]),
        "part.passes": median([r.record["passes"] for r in ok_fresh]),
        "obs.scrape_s": median(scrape_rtts),
        "harness.late_s": late_p99,
        "harness.poll_gap_s": median(gaps),
        "harness.trace_overhead": median(traced) / median(untraced),
        # Share of job turnaround that submit, queue wait and service
        # explain; the rest is send lateness and poll detection delay.
        "harness.trace_coverage": (sum(submit) + queue_wait.get("sum", 0.0) + sum(service))
        / sum(turnaround),
    }
    return e2e, layers


WORKLOADS = {
    "bisect_large": ("gen-bisect", run_bisect),
    "place_topdown": ("gen-place", run_place),
    "serve": ("gen-serve", run_serve),
}


# -------------------------------------------------------------- stamping


def fingerprint():
    cpu = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as text:
        for line in text:
            if ":" in line and "=" in line and not line.startswith(("//", "#")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    flags_file = os.path.join(BUILD_DIR, "CMakeFiles", "fpbench.dir", "flags.make")
    flags = {}
    if os.path.exists(flags_file):
        with open(flags_file) as text:
            for line in text:
                if line.startswith(("CXX_FLAGS", "CXX_DEFINES")):
                    key, value = line.split("=", 1)
                    flags[key.strip()] = value.strip()
    version = first_line([compiler, "--version"])
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "compiler": version or compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": flags.get("CXX_FLAGS", ""),
        "FIXEDPART_OBS": "ON" if "FIXEDPART_OBS_ENABLED=1" in flags.get("CXX_DEFINES", "")
        else "OFF",
        "git_revision": first_line(["git", "-C", ROOT, "rev-parse", "HEAD"]) or None,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }


def first_line(command):
    """First line a command prints, or "" when it is missing or fails (a
    benchmark checkout need not be a git repository)."""
    try:
        done = subprocess.run(command, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return ""
    lines = done.stdout.splitlines()
    return lines[0].strip() if done.returncode == 0 and lines else ""


def source_digest():
    """Digest of every source file the benchmark builds, so results from a
    checkout without git history still name the code they measured."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "examples", "partitiond.cpp")]
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(folder, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


# ------------------------------------------------------------------ main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # SIGTERM unwinds like an error, so the daemon and run directory are
    # still cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    run_dir = None
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        declared = spec["per_layer"] if args.trace else spec["end_to_end"]
        build()
        gen_command, run_workload = WORKLOADS[args.workload]
        run_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        shutil.rmtree(run_dir, ignore_errors=True)
        inputs = os.path.join(run_dir, "inputs")
        os.makedirs(inputs)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        stem = os.path.join(RESULTS_DIR, os.path.basename(run_dir))

        prep_start = time.perf_counter()
        run_tool([FPBENCH, gen_command, f"--seed={args.seed}", f"--out={inputs}"],
                 timeout=SUBPROCESS_SLACK_S)
        prep_s = time.perf_counter() - prep_start

        ctx = {"seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
               "inputs": inputs, "run_dir": run_dir, "spans": stem + ".spans.jsonl",
               "errors": [], "attempted": 0, "failed": 0, "timings": {}}
        e2e, layers = run_workload(ctx)
    except (BenchError, OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 2
    finally:
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)

    attempted = ctx["attempted"]
    failed = ctx["failed"]
    e2e["ok_ratio"] = (attempted - failed) / attempted if attempted else 0.0
    layers["harness.prep_s"] = prep_s
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if args.trace:
            # A layer the workload does not exercise reports 0.
            value = layers.get(name, 0.0)
        elif name in e2e:
            value = e2e[name]
        else:
            log(f"perfbench: workload computed no value for {name}")
            return 2
        metrics[name] = {"value": float(value), "unit": metric["unit"]}

    correct = failed == 0 and not ctx["errors"]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "prep_s": prep_s,
             "fail_ratio": failed / attempted if attempted else 1.0,
             "timings": ctx["timings"], "host": fingerprint()}
    with open(stem + ".json", "w") as record:
        json.dump({"stamp": stamp, "result": result, "errors": ctx["errors"]}, record,
                  indent=1)
    for error in ctx["errors"][:20]:
        log(f"perfbench: check failed: {error}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
