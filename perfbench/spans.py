"""Spans around the public calls into each amort layer, for the traced run.

`install` rebinds the layer entry points in the running process only; no file
under `src/` changes.  The bytecode and cli functions are rebound on their
modules (the benchmark calls them through the module), and the calls that
`analyze_program` makes are rebound on the names it looks up at call time:
`amort.cli.gen_program_vcs`, `amort.cli.Prover.prove_vc`,
`amort.cli.merge_constraints`, `amort.cli.solve_lexicographic`, and inside the
LP layer `amort.lp.problem_from_constraints` and `amort.lp.solve`.
`amort.vm.run` covers replay.

A span is (name, layer, start, end, parent span index, job id, count, error).
Spans stay in memory and are written out once, at the end of the run.  A
layer's self time is its spans' durations minus the time their child spans
cover.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """A wrapper did not fire as the layer contract requires."""


def _instrs(args, prog):
    return sum(len(p.code) for p in prog.procedures)


def _prove(args, res):
    return (res.ok, len(res.constraints))


def _lp_size(args, sol):
    problem = args[0]
    return (len(problem.rows), len(problem.variables))


# (module, attribute path, span name, layer, count taken from (args, result))
TARGETS = (
    ("amort.bytecode", "parse_program", "parse", "bytecode", _instrs),
    ("amort.bytecode", "validate", "validate", "bytecode", None),
    ("amort.cli", "analyze_program", "analyze", "cli", None),
    ("amort.cli", "gen_program_vcs", "vcgen", "vcgen", lambda a, vcs: len(vcs)),
    ("amort.cli", "Prover.prove_vc", "prove", "prover", _prove),
    ("amort.cli", "merge_constraints", "merge", "prover", lambda a, out: len(out)),
    ("amort.cli", "solve_lexicographic", "lexicographic", "lp", None),
    ("amort.lp", "problem_from_constraints", "build", "lp", None),
    ("amort.lp", "solve", "solve", "lp", _lp_size),
    ("amort.vm", "run", "run", "vm", lambda a, res: res.steps),
)

NAME, LAYER, START, END, PARENT, JOB, COUNT, ERROR = range(8)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = None  # spans are recorded only while a job id is set

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, 0.0, 0.0, parent, self.job, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, layer, count):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                span[ERROR] = type(e).__name__
                raise
            finally:
                tracer._close(span)
            if count is not None:
                span[COUNT] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span tagged with its id."""
        self.job = job_id
        span = self._open("job", "bench")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.job = None

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "layer", "start", "end", "parent", "job", "count", "error")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer: Tracer) -> None:
    """Rebind every target; a missing one is an error, never a silent zero."""
    for module_name, path, name, layer, count in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(fn, name, layer, count))


def tail_percentile(values, pct=90.0, beyond=10):
    """Nearest-rank percentile.  When fewer than `beyond` samples lie above
    that rank, the highest rank that has `beyond` samples above it.
    Returns (value, percentile actually used)."""
    xs = sorted(values)
    n = len(xs)
    rank = max(1, math.ceil(pct / 100 * n))
    if n - rank < beyond:
        rank = max(1, n - beyond)
    return xs[rank - 1], 100.0 * rank / n


# ---------------------------------------------------------------------------
# checks


def _by_job(spans):
    jobs = defaultdict(list)
    for span in spans:
        jobs[span[JOB]].append(span)
    return jobs


def check_jobs(spans, jobs):
    """Every job recorded the spans its verdict implies.

    `jobs` maps job id -> (kind, exit code) with kind "analyze" or "replay".
    """
    recorded = _by_job(spans)
    for job_id, (kind, exit_code) in jobs.items():
        own = recorded.get(job_id, [])
        names = Counter(s[NAME] for s in own)

        def need(cond, what):
            if not cond:
                raise TraceError(f"job {job_id} ({kind}, exit {exit_code}): {what}; spans {dict(names)}")

        if kind == "replay":
            need(names["run"] == 1, "expected one vm.run span")
            continue
        for name in ("parse", "validate", "analyze", "vcgen"):
            need(names[name] == 1, f"expected one {name} span")
        vcgen = next(s for s in own if s[NAME] == "vcgen")
        proves = [s for s in own if s[NAME] == "prove"]
        if vcgen[ERROR] is not None:
            need(not proves and names["merge"] == 0, "no proof search after a vcgen failure")
            continue
        n_vcs = vcgen[COUNT]
        need(all(s[COUNT] is not None for s in proves), "a prove span has no result")
        oks = [s[COUNT][0] for s in proves]
        if exit_code in (0, 5):
            need(len(proves) == n_vcs and all(oks), f"expected {n_vcs} successful prove spans")
            need(names["merge"] == 1, "expected one merge span")
            need(names["lexicographic"] == 1, "expected one lp span")
            need(names["solve"] >= 1 and names["build"] >= 1, "expected lp.solve and lp.build spans")
        else:
            need(1 <= len(proves) <= n_vcs, "expected prove spans up to the failing VC")
            need(all(oks[:-1]) and not oks[-1], "expected the last prove span to fail")
            need(names["merge"] == 0 and names["lexicographic"] == 0, "no lp after a failed proof")


def cross_check(spans, timings):
    """Summed vcgen / prove / lp spans against `AnalysisReport.timings`.

    `timings` maps job id -> report timings for the accepted jobs.  Returns
    {stage: (span seconds, report seconds)}; raises if they disagree.
    """
    span_name = {"vcgen": "vcgen", "prove": "prove", "lp": "lexicographic"}
    recorded = _by_job(spans)
    out = {}
    for stage, name in span_name.items():
        traced = sum(
            s[END] - s[START] for j in timings for s in recorded.get(j, ()) if s[NAME] == name
        )
        reported = sum(t[stage] for t in timings.values())
        # the report's clock also covers the wrapper and loop bookkeeping
        slack = 0.05 * max(traced, reported) + 0.0005 * len(timings)
        if abs(traced - reported) > slack:
            raise TraceError(f"{stage}: spans sum to {traced:.6f}s, reports to {reported:.6f}s")
        out[stage] = (traced, reported)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans, rounds):
    """Per-layer numbers, each per round of the timed phase (rates and
    percentiles excepted)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    self_s = defaultdict(float)
    for i, span in enumerate(spans):
        self_s[span[LAYER]] += span[END] - span[START] - covered[i]

    def of(name):
        return [s for s in spans if s[NAME] == name]

    def total(ss):
        return sum(s[END] - s[START] for s in ss)

    def per_round(x):
        return x / rounds

    solves = of("solve")
    outer_solves = [s for s in solves if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "solve"]
    proves = of("prove")
    runs = of("run")
    vm_time = total(runs)
    steps = sum(s[COUNT] for s in runs)
    return {
        "lp.self_s": per_round(self_s["lp"]),
        "lp.solve_s": per_round(total(outer_solves)),
        "lp.build_s": per_round(total(of("build"))),
        "lp.solves": per_round(len(solves)),
        "lp.rows": per_round(sum(s[COUNT][0] for s in solves)),
        "lp.cols": per_round(sum(s[COUNT][1] for s in solves)),
        "prover.self_s": per_round(self_s["prover"]),
        "prover.vc_p90_ms": 1000 * tail_percentile([s[END] - s[START] for s in proves])[0] if proves else 0.0,
        "prover.vcs_failed": per_round(sum(1 for s in proves if not s[COUNT][0])),
        "prover.constraints_emitted": per_round(sum(s[COUNT][1] for s in proves)),
        "prover.merge_s": per_round(total(of("merge"))),
        "prover.constraints_kept": per_round(sum(s[COUNT] for s in of("merge"))),
        "vm.self_s": per_round(self_s["vm"]),
        "vm.runs": per_round(len(runs)),
        "vm.steps": per_round(steps),
        "vm.steps_per_s": steps / vm_time if vm_time else 0.0,
        "vcgen.self_s": per_round(self_s["vcgen"]),
        "vcgen.vcs": per_round(sum(s[COUNT] or 0 for s in of("vcgen"))),
        "bytecode.self_s": per_round(self_s["bytecode"]),
        "bytecode.instrs": per_round(sum(s[COUNT] for s in of("parse"))),
        "cli.self_s": per_round(self_s["cli"]),
    }
