#!/usr/bin/env python3
"""The repository benchmark: four workloads through the shipped binaries.

    python3 perfbench/run.py --workload structural_fig9 --seed 1 \\
        --seconds 15 --trace 0 [--result results.jsonl]
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run it from the repository root. It builds dmfb_campaign, dmfb_serve and
perfbench_harness in Release into .bench_build (and refuses any other build
type), runs the workload for --seconds, checks every output it produced,
prints each metric by name and unit, and ends its standard output with one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones. The exit code is 1 when a
correctness check failed. --result appends the full record, run context
included, to a JSON-lines file that perfbench/compare.py reads.
README.md in this directory lists the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import gen_batch  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORK_ROOT = BUILD_DIR / "work"
TARGETS = ("dmfb_campaign_cli", "dmfb_serve_cli", "perfbench_harness")

# The campaigns' own seed: the checked-in references were produced with it.
BUILTIN_SEED = 0xD0E5A11
CAMPAIGNS = {
    "structural_fig9": ("fig9", BENCH_DIR / "reference" / "fig9.csv"),
    "operational_fig13": ("fig13_operational",
                          ROOT / "tests" / "golden" / "fig13_operational.csv"),
}
SERVE_WORKLOADS = ("serve_cold", "serve_warm")
WORKLOADS = tuple(CAMPAIGNS) + SERVE_WORKLOADS

# Closed loop: one client pipe, at most this many request lines in flight.
# Wide enough that one slow query at the head of the ordered stream rarely
# idles the workers, which keeps pass-to-pass spread down.
SERVE_WINDOW = 64
# Each timed measurement is repeated at least this often, so every reported
# median has several samples even under a short --seconds.
MIN_ROUNDS = 3
# Set-up is a few milliseconds and noisy, so each round probes it this often.
SETUP_PROBES = 20
# A run during which the host took more than this share of the machine's
# CPU time for other work is disturbed (see measure_rounds).
STEAL_LIMIT = 0.02

END_TO_END = {
    "runs_per_s": "1/s", "runs_per_s_1t": "1/s", "answers_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "fault.inject_ns": "ns", "fault.cell_trials_per_run": "count",
    "fault.faults_per_run": "count", "sim.repair_ns": "ns",
    "sim.incremental_diff_frac": "ratio", "sim.operational_run_ns": "ns",
    "reconfig.plan_ns": "ns", "assay.schedule_ns": "ns",
    "fluidics.route_ns": "ns", "fluidics.route_share": "ratio",
    "sim.session.query_ms": "ms", "sim.session.hit_frac": "ratio",
    "sim.session.computed": "count", "campaign.worker_idle_frac": "ratio",
    "serve.parse_us": "us", "serve.format_us": "us",
    "serve.store.load_us": "us", "serve.store.hit_frac": "ratio",
    "serve.store.write_us": "us", "serve.store.record_bytes": "bytes",
    "sim.design_build_ms": "ms", "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed build, ...)."""


class Tally:
    """Operations attempted and failed. An operation is a process run, a
    grid point or a request line; it fails when it errors or its output
    fails a correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, attempted, failed, what):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(what)

    def check(self, ok, what):
        self.record(1, 0 if ok else 1, what)
        return ok


# -- build and context --------------------------------------------------------

def nproc():
    return len(os.sched_getaffinity(0))


def cmake_cache_value(name):
    for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1]
    return ""


def build():
    """Configures (once) and builds the three targets; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no source tree next to {BENCH_DIR.name}/")
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    with open(log, "w") as out:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            if subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B",
                               str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release",
                               *generator], stdout=out, stderr=out).returncode:
                raise BenchError(f"cmake configure failed; see {log}")
        build_type = cmake_cache_value("CMAKE_BUILD_TYPE")
        if build_type != "Release":
            raise BenchError(f"refusing a {build_type or 'untyped'} build in "
                             f"{BUILD_DIR}: timings need Release")
        if subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j",
                           str(nproc()), "--target", *TARGETS],
                          stdout=out, stderr=out).returncode:
            raise BenchError(f"build failed; see {log}")
    return {"campaign": BUILD_DIR / "dmfb" / "dmfb_campaign",
            "serve": BUILD_DIR / "dmfb" / "dmfb_serve",
            "harness": BUILD_DIR / "perfbench_harness"}


def source_digest():
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file()
                        and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(bins):
    """Commit, machine and build of this run; refuses unoptimized builds."""
    built = json.loads(subprocess.run([str(bins["harness"]), "context"],
                                      capture_output=True, text=True,
                                      check=True).stdout)
    if built["build_type"] != "Release" or not built["optimized"]:
        raise BenchError(f"refusing a non-Release build: {built}")
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {"commit": commit, "source_digest": source_digest(),
            "nproc": nproc(), "cpu": cpu, "compiler": built["compiler"],
            "build_type": built["build_type"]}


# -- helpers ------------------------------------------------------------------

def timed(args):
    """Runs a process to completion: (wall seconds, peak RSS in MB, exit)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(a) for a in args], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def harness(bins, *args):
    out = subprocess.run([str(bins["harness"]), *map(str, args)],
                         capture_output=True, text=True)
    if out.returncode:
        raise BenchError(f"perfbench_harness {args[0]}: {out.stderr.strip()}")
    return json.loads(out.stdout)


def derived_seed(seed, round_index):
    """The campaign seed of one round; round 0 uses the campaign's own."""
    if round_index == 0:
        return BUILTIN_SEED
    text = f"{seed}:{round_index}".encode()
    return int(hashlib.sha256(text).hexdigest()[:15], 16)


def quantile(values, q):
    """Linear-interpolated quantile, q in (0, 1); one sample is itself."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def read_csv_rows(path):
    return path.read_text().splitlines()


def csv_mismatches(actual, expected):
    """Rows of `actual` that differ from `expected` (a missing or extra row
    counts as one), plus one when the bytes differ with equal rows."""
    a, e = read_csv_rows(actual), read_csv_rows(expected)
    bad = sum(x != y for x, y in zip(a, e)) + abs(len(a) - len(e))
    if bad == 0 and actual.read_bytes() != expected.read_bytes():
        bad = 1
    return bad


def csv_column(path, name):
    rows = read_csv_rows(path)
    column = rows[0].split(",").index(name)
    return [int(row.split(",")[column]) for row in rows[1:]]


def answer_errors(text):
    return sum('"error"' in line for line in text.splitlines())


def metrics_jsonl(path):
    return {rec["metric"]: rec for rec in map(json.loads,
                                              path.read_text().splitlines())}


def steal_ticks():
    """(steal, total) CPU ticks so far, all CPUs: the time a virtual
    machine's host ran something else, next to all time."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return 0, 0
    ticks = [int(field) for field in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def measure_rounds(seconds, one_round):
    """Calls one_round(index) until `seconds` have passed and MIN_ROUNDS
    rounds are done. Returns every round's result, for the caller to take
    medians over, and the counts. A run during which the host took more
    than STEAL_LIMIT of the machine's CPU time for other work is marked
    disturbed; compare.py reads the metrics of a workload whose runs were
    mostly disturbed as unresolved, not as the program's speed."""
    results = []
    steal_before, total_before = steal_ticks()
    start = time.perf_counter()
    while len(results) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        results.append(one_round(len(results)))
    steal_after, total_after = steal_ticks()
    steal = ratio(steal_after - steal_before, total_after - total_before)
    return results, {"rounds": len(results),
                     "host_steal_share": round(steal, 4),
                     "disturbed": steal > STEAL_LIMIT}


def thread_counts():
    """The thread counts of a round: nproc, then 1. On one CPU they are the
    same, so a round makes one pass and the check that both thread counts
    give the same output is not run (the samples say so)."""
    return (nproc(), 1) if nproc() > 1 else (1,)


def medians(rounds):
    """Per-key median over a list of same-keyed dicts."""
    return {name: statistics.median(r[name] for r in rounds)
            for name in rounds[0]}


# -- campaign workloads -------------------------------------------------------

def campaign_command(bins, campaign, threads, seed, out_dir, *extra):
    return [bins["campaign"], f"builtin:{campaign}", "--threads", threads,
            "--seed", seed, "--out", f"csv:{out_dir}", *extra]


def run_campaign(bins, workload, seed, seconds, work, tally):
    """Rounds of: set-up probes, campaign at nproc threads, at 1 thread."""
    campaign, reference = CAMPAIGNS[workload]

    def one_round(index):
        cseed = derived_seed(seed, index)
        # Set-up: the same campaign with one run per point, so the wall time
        # is process start, spec parse and design/workload build.
        setups = []
        for _ in range(SETUP_PROBES):
            wall, _, code = timed(campaign_command(
                bins, campaign, nproc(), cseed, work / "setup", "--runs", 1))
            tally.check(code == 0, f"{campaign} --runs 1 exited {code}")
            setups.append(wall)
        walls, csvs = {}, {}
        for threads in thread_counts():
            out_dir = work / f"t{threads}"
            walls[threads], peak, code = timed(
                campaign_command(bins, campaign, threads, cseed, out_dir))
            csv = out_dir / f"{campaign}.csv"
            what = f"{campaign} --threads {threads} exited {code}"
            if not tally.check(code == 0 and csv.exists(), what):
                raise BenchError(f"{campaign} failed; nothing to measure")
            if threads == nproc():
                rss = peak
            csvs[threads] = csv
        points = len(read_csv_rows(csvs[1])) - 1
        if nproc() > 1:
            bad = csv_mismatches(csvs[nproc()], csvs[1])
            tally.record(points, bad,
                         f"{campaign} seed {cseed}: {bad} rows differ "
                         f"between --threads {nproc()} and 1")
        if index == 0:
            bad = csv_mismatches(csvs[1], reference)
            tally.record(points, bad,
                         f"{campaign}: {bad} rows differ from "
                         f"{reference.relative_to(ROOT)}")
        return {"runs": sum(csv_column(csvs[1], "runs")), "points": points,
                "wall_n": walls[nproc()], "wall_1": walls[1], "rss": rss,
                "setups": setups}

    rounds, samples = measure_rounds(seconds, one_round)
    samples["threads_check"] = nproc() > 1
    runs, points = rounds[0]["runs"], rounds[0]["points"]
    walls_n = [r["wall_n"] for r in rounds]
    walls_1 = [r["wall_1"] for r in rounds]
    setups = [wall for r in rounds for wall in r["setups"]]
    metrics = {
        "runs_per_s": runs / statistics.median(walls_n),
        "runs_per_s_1t": runs / statistics.median(walls_1),
        "answers_per_s": points / statistics.median(walls_n),
        "latency_p50_ms": 1e3 * statistics.median(walls_n),
        "latency_p99_ms": 1e3 * quantile(walls_n, 0.99),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
    }
    samples.update(latency_samples=len(walls_n), setup_samples=len(setups))
    return metrics, samples


def trace_campaign(bins, workload, seed, seconds, work, tally):
    """Rounds of: campaign untraced, campaign with --metrics/--trace (same
    CSV), and the harness replay of the same seed, whose per-point success
    counts must equal the campaign CSV's."""
    campaign, _ = CAMPAIGNS[workload]

    def one_round(index):
        cseed = derived_seed(seed, index)
        out_dir = work / "plain"
        untraced, _, code = timed(campaign_command(bins, campaign, nproc(),
                                                   cseed, out_dir))
        tally.check(code == 0, f"{campaign} exited {code}")
        metrics_path = work / "metrics.jsonl"
        traced, _, code = timed(campaign_command(
            bins, campaign, nproc(), cseed, work / "traced", "--metrics",
            metrics_path, "--trace", work / "trace.json"))
        tally.check(code == 0, f"{campaign} --metrics --trace exited {code}")
        obs = metrics_jsonl(metrics_path)
        replay = harness(bins, "replay", "--campaign", campaign, "--seed",
                         cseed)
        csv = out_dir / f"{campaign}.csv"
        points = len(read_csv_rows(csv)) - 1
        bad = csv_mismatches(work / "traced" / f"{campaign}.csv", csv)
        tally.record(points, bad,
                     f"{campaign}: {bad} rows change under --metrics --trace")
        header = read_csv_rows(csv)[0].split(",")
        for column in ("successes", "op_successes"):
            if column not in header:
                continue
            expected = csv_column(csv, column)
            bad = sum(x != y for x, y in zip(replay[column], expected))
            bad += abs(len(replay[column]) - len(expected))
            tally.record(len(expected), bad,
                         f"replay {column}: {bad} points differ from the CSV")

        def count(name):
            return obs[name]["value"]

        def mean(name):
            return ratio(obs[name]["sum"], obs[name]["count"])

        incremental = (count("sim.incremental.diff_repairs")
                       + count("sim.incremental.full_rebuilds")
                       + count("sim.incremental.churn_bailouts"))
        busy = obs["campaign.worker_busy_ns"]["sum"]
        idle = obs["campaign.worker_idle_ns"]["sum"]
        return {
            "untraced_s": untraced,
            "traced_s": traced,
            "fault.inject_ns": replay["inject_ns"],
            "fault.cell_trials_per_run": ratio(count("fault.cell_trials"),
                                               count("sim.runs")),
            "fault.faults_per_run": ratio(count("fault.cells_faulted"),
                                          count("sim.runs")),
            "sim.repair_ns": replay["repair_ns"],
            "sim.incremental_diff_frac": ratio(
                count("sim.incremental.diff_repairs"), incremental),
            "sim.operational_run_ns": replay["operational_run_ns"],
            "reconfig.plan_ns": mean("reconfig.plan_ns"),
            "assay.schedule_ns": mean("assay.schedule_ns"),
            "fluidics.route_ns": mean("fluidics.route_ns"),
            "fluidics.route_share": ratio(replay["route_ns_total"],
                                          replay["operational_ns_total"]),
            "sim.session.query_ms": mean("sim.session.query_ns") / 1e6,
            "sim.session.hit_frac": ratio(
                count("sim.session.cache_hits")
                + count("sim.session.store_hits"),
                count("sim.session.queries")),
            "sim.session.computed": count("sim.session.computed"),
            "campaign.worker_idle_frac": ratio(idle, busy + idle),
            "sim.design_build_ms": replay["design_build_ms"],
        }

    rounds, samples = measure_rounds(seconds, one_round)
    metrics = medians(rounds)
    metrics["trace.overhead_frac"] = (metrics.pop("traced_s")
                                      / metrics.pop("untraced_s") - 1)
    return metrics, samples


# -- serve workloads ----------------------------------------------------------

def serve_pass(bins, batch, store, threads, work, tag):
    """One daemon lifetime driven by the closed-loop client."""
    out = work / f"answers-{tag}.jsonl"
    stats = work / f"stats-{tag}.json"
    stats.unlink(missing_ok=True)
    result = harness(bins, "client", "--serve", bins["serve"], "--threads",
                     threads, "--store", store, "--window", SERVE_WINDOW,
                     "--batch", batch, "--out", out, "--stats-json", stats)
    result["output"] = out.read_bytes()
    result["stats"] = json.loads(stats.read_text()) if stats.exists() else {}
    return result


def check_serve_pass(result, reference, tally, what):
    """The daemon exits 0; each line is answered, without an error, and
    (given a reference) exactly as the reference pass answered it."""
    tally.check(result["exit"] == 0, f"{what}: daemon exited {result['exit']}")
    got = result["output"].decode().splitlines()
    ref = reference.decode().splitlines() if reference is not None else None
    bad = 0
    for i in range(result["lines"]):
        bad += (i >= len(got) or '"error"' in got[i]
                or (ref is not None and (i >= len(ref) or got[i] != ref[i])))
    if not bad and ref is not None and result["output"] != reference:
        bad = 1  # equal lines, different bytes
    tally.record(result["lines"], bad, f"{what}: {bad} lines unanswered, "
                 "answered with an error, or unlike the reference pass")


def batch_queries(batch):
    """Each request line of the batch without its id, in a canonical form:
    two lines ask the same query exactly when their forms are equal."""
    return [json.dumps(dict(json.loads(line), id=None), sort_keys=True)
            for line in batch.read_text().splitlines()]


def counted_runs(queries, output, cold):
    """Monte-Carlo runs behind the answers after the set-up line. A cold
    pass computes each distinct query once (a repeat is a session-cache
    hit), so it counts the runs of the first answer to each query, leaving
    out the set-up query. A warm pass computes nothing: it counts the runs
    every answer reports, which the daemon read from its store or cache."""
    answers = [json.loads(line) for line in output.decode().splitlines()]
    seen = {queries[0]}
    runs = 0
    for query, answer in zip(queries[1:], answers[1:]):
        if not cold or query not in seen:
            runs += answer.get("runs", 0)
        seen.add(query)
    return runs


def write_batch(seed, work):
    batch = work / "batch.jsonl"
    batch.write_text("".join(line + "\n" for line in gen_batch.generate(seed)))
    return batch


def run_serve(bins, workload, seed, seconds, work, tally):
    """Rounds of: set-up probes, a pass at nproc threads, at 1 thread (on
    more than one CPU); every pass answers exactly as the first did."""
    batch = write_batch(seed, work)
    queries = batch_queries(batch)
    distinct = len(set(queries))
    cold = workload == "serve_cold"
    filled = work / "store"
    reference = {}
    if not cold:
        # Untimed: a cold pass fills the store the warm passes read.
        fill = serve_pass(bins, batch, filled, nproc(), work, "fill")
        check_serve_pass(fill, None, tally, "fill pass")
        reference["output"] = fill["output"]
    # Set-up probes: a daemon that answers the batch's first line and exits.
    probe = work / "probe.jsonl"
    probe.write_text(batch.read_text().splitlines()[0] + "\n")

    def one_round(index):
        setups = []
        for _ in range(SETUP_PROBES):
            store = work / "cold-probe" if cold else filled
            result = serve_pass(bins, probe, store, nproc(), work, "probe")
            if cold:
                shutil.rmtree(store, ignore_errors=True)
            check_serve_pass(result, None, tally, "set-up probe")
            setups.append(result["setup_s"])
        passes = {}
        for threads in thread_counts():
            store = work / f"cold-{threads}" if cold else filled
            result = serve_pass(bins, batch, store, threads, work, threads)
            if cold:
                shutil.rmtree(store, ignore_errors=True)
            what = f"{workload} round {index} --threads {threads}"
            check_serve_pass(result, reference.get("output"), tally, what)
            reference.setdefault("output", result["output"])
            stats = result["stats"]
            if cold:
                # Each distinct query computed once, none read from the store.
                tally.check(stats.get("computed") == distinct
                            and stats.get("store_hits") == 0,
                            f"{what}: {distinct} distinct queries, stats "
                            f"{stats}")
            else:
                tally.check(stats.get("computed") == 0,
                            f"{what}: warm pass computed {stats}")
            passes[threads] = result
        return {"setups": setups, "many": passes[nproc()], "one": passes[1]}

    rounds, samples = measure_rounds(seconds, one_round)
    samples["threads_check"] = nproc() > 1
    runs = counted_runs(queries, reference["output"], cold)
    many = [r["many"] for r in rounds]
    one = [r["one"] for r in rounds]
    setups = [setup for r in rounds for setup in r["setups"]]
    # Latency quantiles per pass (one batch), then the median over passes:
    # a pass the machine stalls moves one sample, not the pooled tail.
    latencies_ms = [[ns / 1e6 for ns in p["latency_ns"]] for p in many]
    metrics = {
        "runs_per_s": statistics.median(runs / p["steady_s"] for p in many),
        "runs_per_s_1t": statistics.median(runs / p["steady_s"] for p in one),
        "answers_per_s": statistics.median((p["answers"] - 1) / p["steady_s"]
                                           for p in many),
        "latency_p50_ms": statistics.median(quantile(p, 0.50)
                                            for p in latencies_ms),
        "latency_p99_ms": statistics.median(quantile(p, 0.99)
                                            for p in latencies_ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in many),
    }
    samples.update(latency_samples=sum(map(len, latencies_ms)),
                   setup_samples=len(setups))
    return metrics, samples


def trace_serve(bins, workload, seed, seconds, work, tally):
    """Rounds of the harness's in-process serve pass: per-call protocol and
    store timings, obs counters of a traced Server, and (cold) the replay of
    every computed query against its stored answer."""
    batch = write_batch(seed, work)
    lines = len(batch.read_text().splitlines())
    cold = workload == "serve_cold"

    def one_round(index):
        layer_dir = work / f"layers-{index}"
        r = harness(bins, "serve-layers", "--batch", batch, "--mode",
                    "cold" if cold else "warm", "--threads", nproc(),
                    "--work", layer_dir)
        answers = (layer_dir / "inprocess_answers.jsonl").read_text()
        shutil.rmtree(layer_dir, ignore_errors=True)
        errors = answer_errors(answers)
        tally.record(lines, errors, f"in-process pass: {errors} errors")
        tally.record(r["records"] + r["missing"], r["missing"],
                     f"{r['missing']} answers missing from the store")
        tally.record(r["replayed"], r["replay_mismatches"],
                     f"replay: {r['replay_mismatches']} queries differ from "
                     "their stored answer")
        if not cold:
            tally.check(r["computed"] == 0,
                        f"warm in-process pass computed {r['computed']}")
        incremental = (r["diff_repairs"] + r["full_rebuilds"]
                       + r["churn_bailouts"])
        return {
            "untraced_s": statistics.median(r["untraced_s"]),
            "traced_s": statistics.median(r["traced_s"]),
            "fault.inject_ns": r["inject_ns"],
            "fault.cell_trials_per_run": ratio(r["cell_trials"],
                                               r["sim_runs"]),
            "fault.faults_per_run": ratio(r["cells_faulted"], r["sim_runs"]),
            "sim.repair_ns": r["repair_ns"],
            "sim.incremental_diff_frac": ratio(r["diff_repairs"],
                                               incremental),
            "sim.operational_run_ns": r["operational_run_ns"],
            "reconfig.plan_ns": r["plan_ns"],
            "assay.schedule_ns": r["schedule_ns"],
            "fluidics.route_ns": r["route_ns"],
            "fluidics.route_share": ratio(r["route_ns_total"],
                                          r["operational_ns_total"]),
            "sim.session.query_ms": r["query_ns"] / 1e6,
            "sim.session.hit_frac": ratio(r["cache_hits"]
                                          + r["session_store_hits"],
                                          r["queries"]),
            "sim.session.computed": r["computed"],
            "serve.parse_us": r["parse_us"],
            "serve.format_us": r["format_us"],
            "serve.store.load_us": r["load_us"],
            "serve.store.hit_frac": ratio(r["store_hits"],
                                          r["store_hits"] + r["store_misses"]),
            "serve.store.write_us": r["write_us"],
            "serve.store.record_bytes": r["record_bytes"],
            "sim.design_build_ms": r["design_build_ms"],
        }

    rounds, samples = measure_rounds(seconds, one_round)
    metrics = medians(rounds)
    metrics["trace.overhead_frac"] = (metrics.pop("traced_s")
                                      / metrics.pop("untraced_s") - 1)
    return metrics, samples


# -- entry point --------------------------------------------------------------

def run_workload(bins, workload, seed, seconds, trace):
    """One workload: (metrics in catalog order, samples, tally)."""
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        if workload in CAMPAIGNS:
            step = trace_campaign if trace else run_campaign
        else:
            step = trace_serve if trace else run_serve
        measured, samples = step(bins, workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    catalog = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in catalog.items()}
    return metrics, samples, tally


def print_table(workload, metrics, samples, tally):
    counts = ", ".join(f"{name}={value}" for name, value in samples.items())
    print(f"== {workload} ({counts})")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:16.6g} {metric['unit']}")
    if samples.get("threads_check") is False:
        print("  not run: the --threads nproc vs 1 output check (one CPU)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (or all) and print metrics.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", type=Path,
                        help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    try:
        bins = build()
        context = run_context(bins)
    except (BenchError, OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print("context: " + json.dumps(context, sort_keys=True))

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            metrics, samples, tally = run_workload(
                bins, workload, args.seed, args.seconds, args.trace)
        except (BenchError, OSError, ValueError, KeyError) as error:
            print(f"perfbench: {workload}: {error}", file=sys.stderr)
            return 1
        print_table(workload, metrics, samples, tally)
        correct = tally.failed == 0
        if args.result:
            record = {"workload": workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics,
                      "samples": samples, "problems": tally.problems,
                      "context": context}
            with open(args.result, "a") as out:
                out.write(json.dumps(record, sort_keys=True) + "\n")
        combined["correct"] &= correct
        combined["attempted"] += tally.attempted
        combined["failed"] += tally.failed
        prefix = "" if len(workloads) == 1 else workload + "/"
        for name, metric in metrics.items():
            combined["metrics"][prefix + name] = metric
    print(json.dumps(combined))
    sys.stdout.flush()
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
