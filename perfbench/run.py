"""Benchmark of the ``diagram_groups`` command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each job is one ``python -m diagram_groups`` process, run one at a time, so
every call starts with cold ``lru_cache``s exactly as a user's call does.
With ``--trace 0`` the run times a no-work call several times (``setup_s``),
then repeats whole rounds of the workload's job list, at least two and more
while another round still fits in S seconds. It reports the median round
(``wall_s``) and the largest child max-RSS (``peak_rss_mb``). Both times are
given at reference speed: a fixed computation of the oracle is timed in this
process between every two calls, and each call's wall time is scaled by
``REF_S`` over the mean of the reference times on either side of it. With
``--trace 1`` it runs one untraced round and one round under ``tracer.py``
and reports per-layer counts and self times. Every job's output is checked in every round. The
last line of standard output is one JSON object; see README.md.
"""

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import oracle
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CALLS = 7
# speed on a shared machine drifts within seconds; even a workload whose
# round is longer than half the run gets a median of two
MIN_ROUNDS = 2
JOB_TIMEOUT_S = 150

# The reference computation: the oracle's class complex of COMM a b c a b c,
# built REF_REPEATS times, median taken. It shares no code with the package,
# so no change to the package can move it, while a slower machine slows it
# as much as the jobs next to it.
REF_PRES, REF_BASE, REF_REPEATS = "comm", "a b c a b c", 15
# the reference's time on the machine of README.md's reference numbers;
# times at reference speed are in seconds of that machine
REF_S = 0.0072

# per-layer metrics reported by the traced run, with their units
PER_LAYER = [
    ("rewriting.enumerate_class.calls", "count"),
    ("rewriting.enumerate_class.self_s", "s"),
    ("rewriting.equal_mod_p.calls", "count"),
    ("rewriting.equal_mod_p.self_s", "s"),
    ("rewriting.equal_mod_p.unknown_ratio", "ratio"),
    ("rewriting.one_step_rewrites.calls", "count"),
    ("rewriting.invariant_letter_subsets.calls", "count"),
    ("squier.relate.calls", "count"),
    ("squier.relate.self_s", "s"),
    ("squier.rank.calls", "count"),
    ("squier.rank.self_s", "s"),
    ("squier.hyperplane_catalog.calls", "count"),
    ("squier.hyperplane_catalog.self_s", "s"),
    ("squier.build_ball.calls", "count"),
    ("squier.build_ball.self_s", "s"),
    ("squier.specialness_report.total_s", "s"),
    ("squier.find_absorbing_splits.self_s", "s"),
    ("squier.find_self_intersections.self_s", "s"),
    ("diagrams.reduce_diagram.calls", "count"),
    ("diagrams.reduce_diagram.self_s", "s"),
    ("diagrams.reduce_diagram.dipoles", "count"),
    ("diagrams.canonical_key.calls", "count"),
    ("diagrams.canonical_key.self_s", "s"),
    ("diagrams.compose.calls", "count"),
    ("farley.farley_ball.self_s", "s"),
    ("farley.farley_ball.vertices", "count"),
    ("farley.guarded_pairs.self_s", "s"),
    ("farley.guarded_pairs.pairs", "count"),
    ("farley.tree_quotients.self_s", "s"),
    ("farley.rank_partition.total_s", "s"),
    ("decomposition.decompose.total_s", "s"),
    ("decomposition.left_hyperplanes.self_s", "s"),
    ("decomposition.is_trivial_group.calls", "count"),
    ("decomposition.is_trivial_group.self_s", "s"),
    ("decomposition.factor_group.calls", "count"),
    ("decomposition.factor_group.self_s", "s"),
    ("interval.diagram_ball_sizes.self_s", "s"),
    ("interval.diagram_ball_sizes.elements", "count"),
    ("interval.raag_ball_sizes.self_s", "s"),
    ("raag.raag_normal_form.calls", "count"),
    ("raag.raag_normal_form.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("bench.reference_s", "s"),
    ("bench.untraced_wall_s", "s"),
]

# hash seeds change set iteration order and with it timings, though not
# outputs; one fixed value keeps runs comparable
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_job(job: wl.Job, trace_file: Path = None) -> Tuple[wl.Result, float]:
    if trace_file is None:
        argv = [sys.executable, "-m", "diagram_groups"] + job.args
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(trace_file)] + job.args
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
                          timeout=JOB_TIMEOUT_S)
    return wl.Result(proc.returncode, proc.stdout, proc.stderr), time.perf_counter() - t0


def reference_time() -> float:
    rels = wl.relations(REF_PRES)
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        oracle.ClassComplex(oracle.word(REF_BASE), rels)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Clock:
    """Times calls at reference speed: the reference is timed before the
    first call and after every call, and a call's wall time is scaled by
    REF_S over the mean of the two reference times around it."""

    def __init__(self) -> None:
        reference_time()  # warm-up: imports, caches, allocator
        self.last_ref = reference_time()
        self.refs: List[float] = [self.last_ref]
        self.jobs: Dict[str, List[float]] = {}

    def run(self, job: wl.Job, trace_file: Path = None) -> Tuple[wl.Result, float, float]:
        """The job's result, its wall time and its time at reference speed."""
        res, dt = run_job(job, trace_file)
        ref = reference_time()
        scaled = dt * REF_S / ((self.last_ref + ref) / 2)
        self.last_ref = ref
        self.refs.append(ref)
        self.jobs.setdefault(job.name, []).append(scaled)
        return res, dt, scaled


def run_round(jobs: List[wl.Job], clock: Clock,
              trace_dir: Path = None) -> Tuple[Dict[str, wl.Result], float, float]:
    """Results, wall time and time at reference speed of one round."""
    results, total, scaled = {}, 0.0, 0.0
    for i, job in enumerate(jobs):
        res, dt, sdt = clock.run(job, None if trace_dir is None else trace_dir / f"{i}.json")
        results[job.name] = res
        total += dt
        scaled += sdt
    return results, total, scaled


class Verdicts:
    """Checks a round's outputs; outputs are deterministic, so a round equal
    to one already checked gets that round's verdict without re-checking."""

    def __init__(self, workload: str, jobs: List[wl.Job]) -> None:
        self.workload, self.jobs = workload, jobs
        self.memo: Dict[tuple, Tuple[bool, int]] = {}
        self.correct, self.attempted, self.failed = True, 0, 0

    def add(self, results: Dict[str, wl.Result]) -> None:
        key = tuple((j.name, results[j.name].code, results[j.name].stdout) for j in self.jobs)
        if key not in self.memo:
            self.memo[key] = self._judge(results)
        ok, failed = self.memo[key]
        self.correct = self.correct and ok
        self.attempted += len(self.jobs)
        self.failed += failed

    def _judge(self, results: Dict[str, wl.Result]) -> Tuple[bool, int]:
        failed = sum(1 for j in self.jobs
                     if j.known_fault is not None and not j.known_fault(results[j.name]))
        try:
            wl.check(self.workload, results, self.jobs)
        except (wl.CheckError, KeyError, TypeError) as e:
            log(f"CHECK FAILED [{self.workload}]: {type(e).__name__}: {e}")
            return False, failed
        return True, failed


def setup_times(clock: Clock) -> Tuple[List[float], List[float]]:
    """Wall times, and times at reference speed, of a call that does no
    work: interpreter start, package import and argument parsing."""
    job = wl.Job("setup", ["class", "-p", str(wl.INPUTS / "comm.pres"), "-w", "a"])
    times, scaled = [], []
    for _ in range(SETUP_CALLS):
        res, dt, sdt = clock.run(job)
        if res.code != 0 or json.loads(res.stdout)["members"] != ["a"]:
            raise wl.CheckError(f"no-work call failed: exit {res.code} {res.stderr[-300:]}")
        times.append(dt)
        scaled.append(sdt)
    return times, scaled


def end_to_end(jobs: List[wl.Job], verdicts: Verdicts, seconds: float) -> Tuple[dict, dict]:
    clock = Clock()
    setup, setup_scaled = setup_times(clock)
    rounds: List[float] = []
    scaled: List[float] = []
    start = time.perf_counter()
    while True:
        results, dt, sdt = run_round(jobs, clock)
        rounds.append(dt)
        scaled.append(sdt)
        verdicts.add(results)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "wall_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = {"setup_raw_s": setup, "setup_s": setup_scaled, "rounds_raw_s": rounds,
              "rounds_s": scaled, "reference_s": clock.refs,
              "jobs_s": clock.jobs}
    return metrics, detail


def aggregate(trace_files: List[Path]) -> Dict[str, float]:
    """Sum counts, self times (span minus its child spans) and total times
    (spans with no enclosing span of the same name) over the traced jobs."""
    stats: Dict[str, float] = {"cli.import_s": 0.0}
    for path in trace_files:
        blob = json.loads(path.read_text())
        stats["cli.import_s"] += blob["import_s"]
        for key, value in blob["counts"].items():
            stats[key] = stats.get(key, 0) + value
        spans = blob["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            stats[name + ".self_s"] = stats.get(name + ".self_s", 0.0) + (end - start - child[i])
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                stats[name + ".total_s"] = stats.get(name + ".total_s", 0.0) + (end - start)
    calls = stats.get("rewriting.equal_mod_p.calls", 0)
    stats["rewriting.equal_mod_p.unknown_ratio"] = (
        stats.get("rewriting.equal_mod_p.unknown", 0) / calls if calls else 0.0)
    return stats


def per_layer(jobs: List[wl.Job], verdicts: Verdicts, workload: str) -> Tuple[dict, dict]:
    clock = Clock()
    results, wall_untraced, _ = run_round(jobs, clock)
    verdicts.add(results)
    trace_dir = OUT / "trace" / workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    results, wall_traced, _ = run_round(jobs, clock, trace_dir)
    verdicts.add(results)
    stats = aggregate(sorted(trace_dir.glob("*.json")))
    stats["trace.overhead_s"] = wall_traced - wall_untraced
    stats["bench.reference_s"] = statistics.median(clock.refs)
    stats["bench.untraced_wall_s"] = wall_untraced
    metrics = {name: (stats.get(name, 0), unit) for name, unit in PER_LAYER}
    return metrics, {"wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "diagram_groups" / "cli.py").is_file():
        log(f"error: no diagram_groups package under {SRC}; run from a checkout of the repository")
        return 2

    workdir = OUT / "inputs" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    jobs = wl.make_jobs(args.workload, rng, workdir)
    rng.shuffle(jobs)  # the seed also fixes the order of the jobs in a round
    verdicts = Verdicts(args.workload, jobs)
    try:
        if args.trace:
            metrics, detail = per_layer(jobs, verdicts, args.workload)
        else:
            metrics, detail = end_to_end(jobs, verdicts, args.seconds)
    except (wl.CheckError, subprocess.TimeoutExpired) as e:
        log(f"error: {e}")
        return 1
    result = {
        "correct": verdicts.correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, detail=detail, jobs=[j.name for j in jobs]), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
