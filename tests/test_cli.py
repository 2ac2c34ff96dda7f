"""Command-line driver: argument handling, exit codes, output shapes."""

import errno
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from amort import cli
from amort.bytecode import parse_program_file
from oracles import model_check

# `amort analyze <name> --emit-vcs --emit-constraints --lp-dump` per corpus
# program: the exit code, stdout with its `timings:` line masked, and stderr
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    return cli.main(list(argv))


def returns_at_once(tmp_path, pre):
    """A program file whose entry `main(x, y)` requires `pre` and returns."""
    path = tmp_path / "main.amr"
    path.write_text(
        f"proc main(x:ref, y:ref) {{\n  requires: {pre}\n  ensures: ; ; 0\n"
        "  0: iconst 0\n  1: return\n}\nentry main\n"
    )
    return path


# pays 1 per node of the first list and 2 per node of the second: two
# independent lists, a precondition no corpus program has
TWO_LISTS = """
proc walk(a:ref, b:ref) locals cur:ref {
  requires: ; lseg($x, a, null), lseg($z, b, null) ; $y
  ensures: ; lseg(0, a, null), lseg(0, b, null) ; 0

  0: load a
  1: store cur
  2: load cur
  3: ifnull 9
  4: consume 1
  5: load cur
  6: getfield next
  7: store cur
  8: goto 2
  9: load b
  10: store cur
  11: load cur
  12: ifnull 18
  13: consume 2
  14: load cur
  15: getfield next
  16: store cur
  17: goto 11
  18: iconst 0
  19: return

  invariant 2: ; lseg($a1, a, cur), lseg($a2, cur, null), lseg($a3, b, null) ; $a4
  invariant 11: ; lseg($b1, a, null), lseg($b2, b, cur), lseg($b3, cur, null) ; $b4
}

entry walk
"""


class TestAnalyze:
    def test_bare_corpus_name_resolves(self, capsys):
        assert run_cli("analyze", "iterate_list") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "$x = 1" in out and "$y = 0" in out

    def test_json_report(self, capsys):
        assert run_cli("analyze", "iterate_list", "--json", "-") == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["entry"] == "iterate"
        assert payload["valuation"]["x"] == "1"
        assert all(vc["ok"] for vc in payload["vcs"])

    def test_json_is_all_of_stdout(self, capsys):
        # the text report moves to stderr, so stdout parses as one document
        code = run_cli(
            "analyze", "merge_inner", "--emit-vcs", "--emit-constraints", "--lp-dump", "--json", "-"
        )
        assert code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["entry"] == "mergeInner"
        assert "valuation: " in captured.err and "min: " in captured.err

    # simplex pivots per analysable corpus program; the count is
    # machine-independent and pins the pivots Bland's rule takes
    LP_PIVOTS = {
        "copy_list": 4,
        "frying_pan": 32,
        "iterate_list": 5,
        "iterate_recursive": 4,
        "merge_inner": 43,
        "queue": 23,
        "reverse": 5,
        "tree_copy": 6,
        "tree_mirror": 5,
        "tree_traverse": 6,
    }

    def test_json_reports_lp_pivots(self, capsys):
        # the count repeats exactly from run to run
        counts = {}
        for name in self.LP_PIVOTS:
            for _ in range(2):
                assert run_cli("analyze", name, "--json", "-") == cli.EXIT_OK
                payload = json.loads(capsys.readouterr().out)
                counts.setdefault(name, []).append(payload["stats"]["lp_pivots"])
        assert counts == {name: [n, n] for name, n in self.LP_PIVOTS.items()}

    # prover ticks (units of the work budget) per analysable corpus program;
    # the count is machine-independent and pins the order of the search
    PROVER_TICKS = {
        "copy_list": 46,
        "frying_pan": 160,
        "iterate_list": 28,
        "iterate_recursive": 26,
        "merge_inner": 461,
        "queue": 187,
        "reverse": 32,
        "tree_copy": 50,
        "tree_mirror": 43,
        "tree_traverse": 35,
    }

    @pytest.mark.parametrize("name", sorted(PROVER_TICKS))
    def test_json_reports_prover_ticks(self, name, capsys):
        assert run_cli("analyze", name, "--json", "-") == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["stats"]["prover_ticks"] == self.PROVER_TICKS[name]

    # case branches saturation yields per analysable corpus program; a
    # successful proof visits every branch, so the count pins the case splits
    SATURATION_BRANCHES = {
        "copy_list": 9,
        "frying_pan": 20,
        "iterate_list": 5,
        "iterate_recursive": 5,
        "merge_inner": 66,
        "queue": 30,
        "reverse": 6,
        "tree_copy": 10,
        "tree_mirror": 9,
        "tree_traverse": 7,
    }

    def test_json_reports_saturation_branches(self, capsys):
        counts = {}
        for name in self.SATURATION_BRANCHES:
            assert run_cli("analyze", name, "--json", "-") == cli.EXIT_OK
            counts[name] = json.loads(capsys.readouterr().out)["stats"]["saturation_branches"]
        assert counts == self.SATURATION_BRANCHES

    def test_emit_constraints_shows_rows(self, capsys):
        assert run_cli("analyze", "iterate_list", "--emit-constraints") == cli.EXIT_OK
        assert "$x" in capsys.readouterr().out

    def test_missing_file_reports_and_exits(self, capsys):
        assert run_cli("analyze", "no_such_program") == cli.EXIT_PARSE
        assert run_cli("run", "no_such_program", "--budget", "0") == cli.EXIT_PARSE

    def test_directory_is_a_parse_exit(self, tmp_path, capsys):
        assert run_cli("analyze", str(tmp_path)) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_file_is_a_parse_exit(self, tmp_path, capsys):
        bad = tmp_path / "latin1.amr"
        bad.write_bytes(b"proc f() {\xff\xfe\n")
        for command in ("analyze", "run"):
            assert run_cli(command, str(bad)) == cli.EXIT_PARSE
            assert capsys.readouterr().err.startswith("error:")

    def test_unwritable_json_path_is_a_usage_exit(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        assert run_cli("analyze", "queue", "--json", str(target)) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "valuation: " in captured.out  # the report was printed first
        assert captured.err.startswith("error:")
        assert not target.exists()

    @staticmethod
    def straight_line(tmp_path, n):
        code = "".join(f"  {i}: consume 1\n" for i in range(n))
        path = tmp_path / "deep.amr"
        path.write_text(
            "proc main() {\n  requires: ; ; $a\n  ensures: ; ; 0\n"
            f"{code}  {n}: iconst 0\n  {n + 1}: return\n}}\nentry main\n"
        )
        return str(path)

    def test_too_deep_for_vcgen_is_a_proof_exit(self, tmp_path, capsys):
        # vcgen recurses once per instruction of a straight-line path
        assert run_cli("analyze", self.straight_line(tmp_path, 400)) == cli.EXIT_PROOF
        err = capsys.readouterr().err
        assert err.startswith("analysis failed: vcgen error: ") and "Traceback" not in err
        assert "maximum recursion depth exceeded" in err

    def test_too_deep_for_the_prover_is_a_proof_exit(self, tmp_path, capsys, monkeypatch):
        def overflow(self, vc):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli.Prover, "prove_vc", overflow)
        assert run_cli("analyze", self.straight_line(tmp_path, 3)) == cli.EXIT_PROOF
        assert capsys.readouterr().err.startswith("analysis failed: prove error: ")

    def test_parse_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.amr"
        bad.write_text("proc oops(\n")
        for command in ("analyze", "run", "check"):
            assert run_cli(command, str(bad)) == cli.EXIT_PARSE
            assert capsys.readouterr().err.startswith("parse error:")

    def test_validate_error_exit(self, tmp_path, capsys):
        src = """
proc f(l:ref) {
  requires: ; ; 0
  ensures: ; ; 0
  0: goto 0
}
entry f
"""
        bad = tmp_path / "loop.amr"
        bad.write_text(src)
        assert run_cli("analyze", str(bad)) == cli.EXIT_VALIDATE
        assert "invariant" in capsys.readouterr().err

    def test_infeasible_exit(self, capsys):
        assert run_cli("analyze", "no_budget") == cli.EXIT_INFEASIBLE
        assert "constraints [1, 2]" in capsys.readouterr().err

    def test_proof_failure_exit(self, capsys):
        assert run_cli("analyze", "leak_list") == cli.EXIT_PROOF
        assert "leftover" in capsys.readouterr().err

    def test_stack_depth_mismatch_exit(self, tmp_path, capsys):
        # validated, but the loop head at 0 is reached at depths 0 and 1
        src = """
proc f() {
  requires: ; ; 0
  ensures: ; ; 0
  0: iconst 1
  1: iconst 0
  2: unarycmp eq 0
  3: iconst 0
  4: return
  invariant 0: ; ; 0
}
entry f
"""
        bad = tmp_path / "mismatch.amr"
        bad.write_text(src)
        assert run_cli("analyze", str(bad)) == cli.EXIT_PROOF
        assert capsys.readouterr().err == (
            "analysis failed: cannot generate verification conditions:"
            " f@0: stack depth mismatch (0 vs 1)\n"
        )

    def test_stack_underflow_exit(self, tmp_path, capsys):
        src = """
proc f() {
  requires: ; ; 0
  ensures: ; ; 0
  0: pop
  1: iconst 0
  2: return
}
entry f
"""
        bad = tmp_path / "underflow.amr"
        bad.write_text(src)
        assert run_cli("analyze", str(bad)) == cli.EXIT_PROOF
        assert capsys.readouterr().err == (
            "analysis failed: cannot generate verification conditions:"
            " f@0: symbolic stack underflow\n"
        )

    @pytest.mark.parametrize("name", sorted(p.stem for p in cli.CORPUS_DIR.glob("*.amr")))
    def test_listing_matches_golden(self, name, capsys):
        # exit code, stdout and stderr of the full listing, timings masked
        code = run_cli("analyze", name, "--emit-vcs", "--emit-constraints", "--lp-dump")
        captured = capsys.readouterr()
        out = re.sub(r"(?m)^timings: .*$", "timings: <masked>", captured.out)
        listing = f"exit: {code}\n--- stdout ---\n{out}--- stderr ---\n{captured.err}"
        assert listing == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


class TestRun:
    def test_budget_respected(self, capsys):
        assert run_cli("run", "iterate_list", "--size", "8", "--budget", "8") == cli.EXIT_OK
        assert "Halt" in capsys.readouterr().out

    def test_budget_violation_exit(self, capsys):
        code = run_cli("run", "iterate_list", "--size", "8", "--budget", "7")
        assert code == cli.EXIT_BUDGET
        assert "BudgetViolation" in capsys.readouterr().out

    def test_json_trace_fields(self, capsys):
        assert (
            run_cli("run", "iterate_list", "--size", "2", "--budget", "2", "--json")
            == cli.EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "Halt"
        assert payload["consumed"] == "2"
        assert any(cell["field"] == "next" for cell in payload["heap"])

    def test_policy_script_drives_acquire(self, capsys):
        code = run_cli(
            "run", "block_booking", "--policy", "grant,deny,grant", "--budget", "0", "--json"
        )
        assert code == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        perms = [c["value"] for c in payload["heap"] if c["field"] == "permission"]
        assert perms == ["1", "0", "1"]

    def test_fuel_exhaustion_exit(self, capsys):
        code = run_cli("run", "iterate_list", "--size", "5", "--budget", "9", "--fuel", "3")
        assert code == cli.EXIT_FUEL


    @pytest.mark.parametrize(
        "argv",
        [
            ("frying_pan", "--size", "2,-1"),
            ("iterate_list", "--size", "-4"),
            ("tree_traverse", "--size", "-2"),
            ("queue", "--size", "-1"),
            ("iterate_list", "--size", "3", "--fuel", "-5"),
            ("iterate_list", "--size", "3", "--budget", "-1"),
            ("frying_pan", "--size", "1,2,3"),  # three counts for two instances
            ("merge_inner", "--size", "0"),  # ruled out by `list != null`
        ],
    )
    def test_negative_bounds_are_usage_errors(self, argv, capsys):
        assert run_cli("run", *argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "pre, sizes, why",
        [
            ("; pt(x, next, y), pt(x, next, z) ; 0", "0", "pt(x, next, z) overlaps another cell"),
            (
                "; lseg(1, x, null), lseg(1, x, null) ; 0", "1",
                "lseg(1, x, null) needs fresh nodes, but x is already bound",
            ),
            ("; pt(null, next, x) ; 0", "0", "pt(null, next, x) needs an address at null"),
            (
                "; pt(y, next, null), lseg(1, x, null), lseg(1, y, x) ; 0", "1,0",
                "lseg(1, y, x) is empty, but y is not x",
            ),
            ("x = y ; lseg(1, x, null), lseg(1, y, null) ; 0", "1", "x = y does not hold"),
        ],
    )
    def test_counts_the_precondition_rules_out(self, pre, sizes, why, tmp_path, capsys):
        path = returns_at_once(tmp_path, pre)
        assert run_cli("run", str(path), "--size", sizes) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {why}\n"

    def test_a_cell_on_a_first_node_in_either_atom_order(self, tmp_path, capsys):
        heaps = []
        for pre in ("; pt(x, val, y), lseg(1, x, null) ; 0", "; lseg(1, x, null), pt(x, val, y) ; 0"):
            path = returns_at_once(tmp_path, pre)
            assert run_cli("run", str(path), "--size", "2", "--json") == cli.EXIT_OK
            heaps.append(json.loads(capsys.readouterr().out)["heap"])
        assert heaps[0] == heaps[1]
        assert {"addr": 0, "field": "val", "value": "null"} in heaps[0]


class TestCheck:
    def test_iterate_list_is_tight(self, capsys):
        assert run_cli("check", "iterate_list", "--max-size", "6") == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "no budget violations" in out
        assert "max tightness: 1" in out

    def test_check_reports_each_size(self, capsys):
        assert run_cli("check", "reverse", "--max-size", "3") == cli.EXIT_OK
        out = capsys.readouterr().out
        for n in range(4):
            assert f"size {n:3d}:" in out

    def test_negative_max_size_is_a_usage_error(self, capsys):
        assert run_cli("check", "iterate_list", "--max-size", "-3") == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "no budget violations" not in captured.out
        assert captured.err.startswith("error:")

    def test_negative_fuel_is_a_usage_error(self, capsys):
        # rejected before the analysis runs and the header is printed
        assert run_cli("check", "iterate_list", "--fuel", "-1") == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --fuel must be nonnegative, got -1\n"

    def test_fuel_exhaustion_names_the_kind_once(self, capsys):
        assert run_cli("check", "iterate_list", "--fuel", "0") == cli.EXIT_FUEL
        assert capsys.readouterr().err == "size 0: FuelExhausted with budget 0 (consumed 0)\n"

    def test_ruled_out_size_is_skipped(self, capsys):
        assert run_cli("check", "merge_inner", "--max-size", "1") == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "size   0: skipped (list != null does not hold)"
        assert out[2].startswith("size   1: consumed ")
        assert out[-1] == "no budget violations"

    def test_two_lists_are_both_replayed(self, tmp_path, capsys):
        path = tmp_path / "two_lists.amr"
        path.write_text(TWO_LISTS)
        assert run_cli("check", str(path), "--max-size", "5") == cli.EXIT_OK
        out = capsys.readouterr().out
        for n in range(1, 6):
            assert f"size {n:3d}: consumed {3 * n}/{3 * n}  tightness 1\n" in out
        assert "max tightness: 1\n" in out


class TestReplayInputs:
    """`check` replays on exact models of the entry precondition: every
    built input satisfies it with the budget as the resource, and with half
    a unit less it does not."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in cli.CORPUS_DIR.glob("*.amr")))
    def test_inputs_are_exact_models(self, name):
        prog = parse_program_file(cli.CORPUS_DIR / f"{name}.amr")
        entry = prog.proc(prog.entry)
        try:
            valuation = cli.analyze_program(prog).valuation
        except cli.AnalysisError:  # the rejected programs: every annotation 0
            valuation = {v: Fraction(0) for v in cli.metavariable_pool(prog)[1]}
        plan = cli.classify_inputs(entry)
        built = 0
        for n in range(4):
            inputs = cli._sized_input(plan, entry, n, valuation)
            if inputs is None:
                continue
            args, heap, _, budget = inputs
            env = {param: arg for (param, _), arg in zip(entry.params, args)}
            pre = entry.precondition
            assert model_check(pre, env, heap, budget, valuation), n
            if budget > 0:
                assert not model_check(pre, env, heap, budget - Fraction(1, 2), valuation), n
            built += 1
        assert built == (3 if name == "merge_inner" else 4)


class ClosedPipe:
    """A stdout whose reader has gone away: every write and flush raises EPIPE."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text=""):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


class TestClosedStdout:
    def test_broken_pipe_exits_quietly(self, tmp_path, monkeypatch, capsys):
        with open(tmp_path / "stdout", "w") as f:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(f.fileno()))
            code = run_cli("analyze", "merge_inner", "--emit-vcs", "--emit-constraints", "--lp-dump")
            # the descriptor now points at the null device
            assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == ""
