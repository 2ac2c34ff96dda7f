#!/usr/bin/env python3
"""Benchmark for amort: `analyze` jobs and budgeted replay on the VM.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload runs in one single-threaded process.  The seed generates the
inputs; the program sees only those inputs.  Work is done in rounds (one
pass over the corpus, one chain round, one replay round), and the timed
phase runs whole rounds until the next one would end further past
`--seconds` than stopping now falls short of it.  Every verdict is checked
against the hand-written `known_answers.json`; a mismatch or an exception
counts as a failed job, and the run then exits 1.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics from spans around each layer's public entry points (see
`spans.py`).  The last line of output is one JSON object.

Workloads (why each exists is in BENCHMARK.json):

* analyze-corpus: parse + validate + `analyze_program` of the 13 bundled
  programs, every pass in a seeded order.
* analyze-chains: generated programs whose precondition is a chain of
  k in 5..8 non-empty list segments in seeded atom order and whose body is
  `consume c`.  A round holds every k with both endings (`null`, provable
  with objective c; `x{k+1}`, a near miss rejected with exit 4) and three
  extra cases (see `AnalyzeChains.CASES`), with seeded c in 0..3.  No
  program repeats in a run.
* replay-mutate / replay-walk: one `vm.run` per job under the budget the
  analysis inferred in set-up.  Sizes come from seven classes of equal log
  width spanning 100..3200; each round draws, per program and class, an
  antithetic pair g - d, g + d around the class centre g (d seeded, up to
  5% of the class half-width).  The VM's steps are linear in n, so every
  round does the same number of steps while every n changes with the seed;
  the quadratic cost of large heaps cannot make one seed's round much
  heavier than another's, and the order of the jobs by latency, which
  decides the job each percentile picks, stays the same.

End-to-end times are scaled to a fixed host speed (see `speed.py`): while
the run goes on, an interval timer samples a reference kernel, and each job's
or set-up's time, less the sampler's, is multiplied by `REF_KERNEL_S` over the
mean kernel time of the samples taken during it.  jobs_per_s is a round's jobs
over their summed scaled times, median over rounds.  The unscaled figures, the
kernel's median time and the sampler's share of the run are printed too.  The
per-layer times of a traced run are not scaled, and include the sampler's
share of the spans they cover.

Percentiles are nearest rank.  Where fewer than ten samples lie beyond p90,
job_p90_ms is the highest percentile that has ten beyond it; the rank used
and the sample count are printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from speed import REF_KERNEL_S, Speedometer
from spans import TraceError, Tracer, check_jobs, cross_check, install, layer_metrics, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("analyze-corpus", "analyze-chains", "replay-mutate", "replay-walk")
REPLAY_PROGRAMS = {
    "replay-mutate": ("copy_list", "reverse", "tree_copy", "tree_mirror", "frying_pan"),
    "replay-walk": ("iterate_list", "iterate_recursive", "tree_traverse"),
}
SETUP_REPS = 7
FUEL = 1_000_000  # vm.run's default of 100 000 is below frying_pan's steps near n = 2400
SIZE_EDGES = [100 * 32 ** (i / 7) for i in range(8)]  # seven equal-log classes of 100..3200
JITTER = 0.05  # d is at most this share of a class's half-width


def load_amort():
    """Import amort from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from amort import bytecode, cli, vm
    except ImportError as e:
        raise SystemExit(f"error: cannot import amort from {src}: {e}")
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: amort was imported from {cli.__file__}, not from {src}")
    return bytecode, cli, vm


# ---------------------------------------------------------------------------
# jobs


def analyze_text(text):
    """One `analyze` job: (exit code, report or None)."""
    try:
        prog = bytecode.parse_program(text)
    except bytecode.ProgramParseError:
        return cli.EXIT_PARSE, None
    if bytecode.validate(prog):
        return cli.EXIT_VALIDATE, None
    try:
        return cli.EXIT_OK, cli.analyze_program(prog)
    except cli.AnalysisError as e:
        return e.exit_code, None


def analyze_mismatch(expect, code, report):
    """Why the verdict differs from the known answer, or None."""
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    if code != cli.EXIT_OK:
        return None
    if report.objective != Fraction(expect["objective"]):
        return f"objective {report.objective}, expected {expect['objective']}"
    for var, want in expect.get("valuation", {}).items():
        if report.valuation.get(var) != Fraction(want):
            return f"${var} = {report.valuation.get(var)}, expected {want}"
    return None


class AnalyzeJob:
    kind = "analyze"

    def __init__(self, label, text, expect):
        self.label, self.text, self.expect = label, text, expect
        self.exit_code = None
        self.timings = None

    def __call__(self):
        code, report = analyze_text(self.text)
        self.exit_code = code
        if report is not None:
            self.timings = report.timings
        return analyze_mismatch(self.expect, code, report)

    def fingerprint(self):
        return self.text


class ReplayJob:
    kind = "replay"
    exit_code = 0
    timings = None

    def __init__(self, name, prog, n, inputs, expect):
        self.label = f"{name} n={n}"
        self.prog = prog
        self.args, self.heap, self.next_addr, self.budget = inputs
        self.consumed = expect["per_n"] * n + expect["extra"]

    def __call__(self):
        res = vm.run(
            self.prog, self.args, self.budget, fuel=FUEL, heap=self.heap, next_addr=self.next_addr
        )
        if not isinstance(res.outcome, vm.Halt):
            return f"{res.kind} after {res.steps} steps"
        if res.consumed != self.consumed:
            return f"consumed {res.consumed}, expected {self.consumed}"
        if res.consumed > self.budget:
            return f"consumed {res.consumed} over budget {self.budget}"
        return None

    def fingerprint(self):
        return self.label


# ---------------------------------------------------------------------------
# workloads


def corpus_text(name):
    return (cli.CORPUS_DIR / f"{name}.amr").read_text(encoding="utf-8")


class AnalyzeCorpus:
    def __init__(self, rng, answers):
        self.rng = rng
        self.expect = answers["corpus"]
        self.texts = {}

    def setup(self):
        texts = {name: corpus_text(name) for name in self.expect}
        for name, text in texts.items():
            if bytecode.validate(bytecode.parse_program(text)):
                raise SystemExit(f"error: corpus program {name} does not validate")
        self.texts = texts

    def round(self):
        names = sorted(self.texts)
        self.rng.shuffle(names)
        return [AnalyzeJob(n, self.texts[n], self.expect[n]) for n in names]


def chain_program(k, near_miss, c, order):
    """Precondition: x1 -> x2 -> ... -> xk -> (null | x{k+1}), every segment
    non-empty, atoms listed in `order`; body: consume c, return."""
    ends = [f"x{i + 1}" for i in range(1, k)] + [f"x{k + 1}" if near_miss else "null"]
    segs = [f"lseg(0, x{i}, {ends[i - 1]})" for i in range(1, k + 1)]
    params = ", ".join(f"x{i}:ref" for i in range(1, k + 1 + near_miss))
    pure = ", ".join(f"x{i} != null" for i in range(1, k + 1))
    return (
        f"proc main({params}) {{\n"
        f"  requires: {pure} ; {', '.join(segs[j] for j in order)} ; $r\n"
        "  ensures: ; lseg(0, x1, null) ; 0\n\n"
        f"  0: consume {c}\n"
        "  1: iconst 0\n"
        "  2: return\n"
        "}\n\nentry main\n"
    )


class AnalyzeChains:
    # (k, near miss) cases of one round: every k in 5..8 with both endings,
    # plus a second provable k = 5, a second near miss at k = 6 and a second
    # provable k = 8.  With them the median job is a k = 6 near miss and the
    # job with ten slower ones beyond it a provable k = 8, for anywhere from
    # 4 to 10 rounds, and the latencies within both groups are narrow.
    CASES = [(k, miss) for miss in (False, True) for k in range(5, 9)]
    CASES += [(5, False), (6, True), (8, False)]

    def __init__(self, rng, answers):
        self.rng = rng
        self.expect = answers["chains"]
        self.seen = set()
        self.first = None

    def setup(self):
        self.first = self._generate()
        for job in self.first:
            if bytecode.validate(bytecode.parse_program(job.text)):
                raise SystemExit(f"error: generated program {job.label} does not validate")

    def _generate(self):
        # c is a permutation of 0..3 over k = 5..8 for each ending, and 1..3
        # for the extra cases, so every round emits the same constraints
        costs = {miss: self.rng.sample(range(4), 4) for miss in (False, True)}
        jobs = []
        for i, (k, near_miss) in enumerate(self.CASES):
            c = costs[near_miss][k - 5] if i < 8 else self.rng.randint(1, 3)
            while True:
                order = self.rng.sample(range(k), k)
                text = chain_program(k, near_miss, c, order)
                if text not in self.seen:
                    break
            self.seen.add(text)
            if near_miss:
                expect = self.expect["near_miss"]
            else:
                expect = {"exit": self.expect["ends_at_null"]["exit"], "objective": str(c)}
            label = f"chain k={k} c={c} {'miss' if near_miss else 'null'}"
            jobs.append(AnalyzeJob(label, text, expect))
        self.rng.shuffle(jobs)
        return jobs

    def round(self):
        if self.first is not None:
            jobs, self.first = self.first, None
            return jobs
        return self._generate()


class Replay:
    def __init__(self, rng, answers, programs):
        self.rng = rng
        self.names = programs
        self.corpus = answers["corpus"]
        self.expect = answers["replay"]
        self.analysed = {}

    def setup(self):
        analysed = {}
        for name in self.names:
            prog = bytecode.parse_program(corpus_text(name))
            report = cli.analyze_program(prog)
            why = analyze_mismatch(self.corpus[name], cli.EXIT_OK, report)
            if why:
                raise SystemExit(f"error: set-up analysis of {name}: {why}")
            entry = prog.proc(prog.entry)
            analysed[name] = (prog, entry, cli.classify_inputs(entry), report.valuation)
        self.analysed = analysed

    def round(self):
        jobs = []
        for name in self.names:
            prog, entry, plan, valuation = self.analysed[name]
            for lo, hi in zip(SIZE_EDGES, SIZE_EDGES[1:]):
                g = round((lo + hi) / 2)
                d = self.rng.randint(0, int(JITTER * (hi - lo) / 2))
                for n in (g - d, g + d):
                    inputs = cli._sized_input(plan, entry, n, valuation)
                    jobs.append(ReplayJob(name, prog, n, inputs, self.expect[name]))
        self.rng.shuffle(jobs)
        return jobs


def make_workload(name, seed, answers):
    rng = random.Random(f"{name}/{seed}")
    if name == "analyze-corpus":
        return AnalyzeCorpus(rng, answers)
    if name == "analyze-chains":
        return AnalyzeChains(rng, answers)
    return Replay(rng, answers, REPLAY_PROGRAMS[name])


# ---------------------------------------------------------------------------
# measurement


def measure(workload_name, seed, seconds, tracer):
    answers = json.loads((HERE / "known_answers.json").read_text(encoding="utf-8"))
    with Speedometer() as speed:
        return timed_phase(workload_name, seed, seconds, tracer, answers, speed)


def timed_phase(workload_name, seed, seconds, tracer, answers, speed):
    setups = []
    for _ in range(SETUP_REPS):
        workload = make_workload(workload_name, seed, answers)
        t0 = time.perf_counter()
        workload.setup()
        setups.append((t0, time.perf_counter()))

    intervals, round_sizes, round_times, failures, jobs_seen = [], [], [], [], {}
    timings = {}
    fingerprint = None
    while not round_times or sum(round_times) + statistics.mean(round_times) / 2 < seconds:
        jobs = workload.round()
        if fingerprint is None:
            digest = hashlib.sha256("\n".join(j.fingerprint() for j in jobs).encode())
            fingerprint = digest.hexdigest()[:16]
        t_round = time.perf_counter()
        for job in jobs:
            job_id = len(intervals)
            t0 = time.perf_counter()
            try:
                why = tracer.run_job(job_id, job) if tracer else job()
            except Exception as e:  # a crash is a failed job, not a crashed benchmark
                why = f"{type(e).__name__}: {e}"
            intervals.append((t0, time.perf_counter()))
            if why:
                failures.append(f"{job.label}: {why}")
            jobs_seen[job_id] = (job.kind, job.exit_code)
            if job.timings is not None:
                timings[job_id] = job.timings
        round_times.append(time.perf_counter() - t_round)
        round_sizes.append(len(jobs))

    latencies = [speed.scaled(t0, t1) for t0, t1 in intervals]
    round_rates, start = [], 0
    for size in round_sizes:
        round_rates.append(size / sum(latencies[start:start + size]))
        start += size
    return {
        "latencies": latencies,
        "raw_latencies": [t1 - t0 for t0, t1 in intervals],
        "elapsed": sum(round_times),
        "rounds": len(round_times),
        "round_rates": round_rates,
        "raw_round_rates": [size / t for size, t in zip(round_sizes, round_times)],
        "kernel_ms": speed.median_ms(),
        "kernel_share": speed.share(),
        "failures": failures,
        "setup_s": statistics.median(speed.scaled(t0, t1) for t0, t1 in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs_seen,
        "timings": timings,
        "fingerprint": fingerprint,
    }


def end_to_end(m):
    lat = m["latencies"]
    n = len(lat)
    p50 = sorted(lat)[math.ceil(n / 2) - 1]
    p90, p90_rank = tail_percentile(lat)
    values = {
        "jobs_per_s": statistics.median(m["round_rates"]),
        "job_p50_ms": 1000 * p50,
        "job_p90_ms": 1000 * p90,
        "setup_s": m["setup_s"],
        "peak_rss_mb": m["peak_rss_mb"],
    }
    notes = {
        "jobs_per_s": f"median over {m['rounds']} rounds",
        "job_p50_ms": f"nearest rank 50, n={n}",
        "job_p90_ms": f"nearest rank {p90_rank:.1f} (10 samples beyond p90 need n >= 100), n={n}",
        "setup_s": f"median of {SETUP_REPS} set-ups",
    }
    return values, notes


def report(args, m, tracer):
    n = len(m["latencies"])
    failed = len(m["failures"])
    mode = "traced" if tracer else "untraced"
    print(
        f"workload {args.workload} seed {args.seed}: {n} jobs in {m['rounds']} rounds "
        f"over {m['elapsed']:.3f} s ({mode}); round-1 inputs {m['fingerprint']}"
    )
    raw = sorted(m["raw_latencies"])
    print(
        f"  reference kernel median {m['kernel_ms']:.4f} ms, {100 * m['kernel_share']:.1f}% of the time "
        f"(times below are scaled to {1000 * REF_KERNEL_S:.2f} ms); unscaled: jobs_per_s "
        f"{statistics.median(m['raw_round_rates']):.6g}, job_p50_ms {1000 * raw[math.ceil(n / 2) - 1]:.6g}"
    )
    for line in m["failures"][:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    if tracer:
        print(f"  jobs_per_s (traced) {statistics.median(m['round_rates']):.6g} 1/s")
    print(f"  error_ratio       {failed / n:.6g} ({failed} of {n})")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if tracer:
        check_jobs(tracer.spans, m["jobs"])
        for stage, (traced, reported) in cross_check(tracer.spans, m["timings"]).items():
            if reported:
                print(f"  cross-check {stage:6s} spans {traced:.6f} s, AnalysisReport.timings {reported:.6f} s")
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)}; values are per round")
        values, notes = layer_metrics(tracer.spans, m["rounds"]), {}
        wanted = declared["per_layer"]
    else:
        values, notes = end_to_end(m)
        wanted = declared["end_to_end"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {values[name]:.6g} {unit}{note}")

    print(json.dumps({"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload, each in its own process."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    global bytecode, cli, vm
    bytecode, cli, vm = load_amort()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    m = measure(args.workload, args.seed, args.seconds, tracer)
    try:
        return report(args, m, tracer)
    except TraceError as e:
        print(f"error: traced run failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
