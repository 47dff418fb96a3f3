"""The runnable scripts under ``scripts/`` still run against the library."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_overfit_single_mixture_runs_two_steps():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "overfit_single_mixture.py"),
         "--steps", "2", "--width", "8", "--blocks", "1", "--report-every", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [line for line in proc.stdout.splitlines() if line.startswith("step")]
    assert len(steps) == 2


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_bench_pairs()

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
                   {"name": "score", "unit": "1", "better": "higher", "bound": 0.25}],
}


def _record(side, seed, rss, score=1.0, correct=True, trace=0, returncode=0):
    return {"workload": "w", "side": side, "seed": seed, "trace": trace,
            "returncode": returncode, "env": {"nproc": 2},
            "result": {"correct": correct, "attempted": 4, "failed": 0,
                       "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"},
                                   "score": {"value": score, "unit": "1"}}}}


class TestBenchPairs:
    """``scripts/bench_pairs.py``'s schedule, parsing and summary, on
    synthetic run records: no benchmark runs here."""

    def test_odd_seeds_run_the_parent_first(self):
        assert bench_pairs.schedule([1, 2, 3]) == [
            (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
            (3, "parent"), (3, "change")]

    def test_parse_run_reads_env_and_last_line(self):
        out = ('# env {"nproc": 2, "git_sha": "abc"}\n# run {"seed": 1}\n'
               '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}\n')
        env, result = bench_pairs.parse_run(out)
        assert env == {"nproc": 2, "git_sha": "abc"}
        assert result["correct"] is True
        assert bench_pairs.parse_run("Traceback (most recent call last):\n  boom\n") \
            == (None, None)
        assert bench_pairs.parse_run("") == (None, None)
        # a cut or garbled env line is read as no env, as a bad result is
        assert bench_pairs.parse_run('# env {"nproc": 2\n{"correct": true}\n') \
            == (None, {"correct": True})

    def test_medians_quartiles_and_pairs_won(self):
        parent = [330.0, 329.0, 331.0, 328.0, 332.0, 330.0, 329.5, 330.5, 331.5, 328.5]
        change = [322.0, 323.0, 321.0, 331.0, 322.5, 321.5, 322.0, 323.5, 320.0, 321.0]
        records = [_record("parent", s, v, score=1.0) for s, v in enumerate(parent, 1)]
        records += [_record("change", s, v, score=2.0) for s, v in enumerate(change, 1)]
        records.append(_record("change", 1, 999.0, trace=1))      # traced: not summed
        entry = bench_pairs.summarize(records, SPEC)["w"]
        rss = entry["metrics"]["peak_rss_mb"]
        assert rss["parent"]["median"] == float(np.median(parent))
        assert rss["change"]["median"] == float(np.median(change))
        assert rss["parent"]["quartiles"] == [float(np.percentile(parent, 25)),
                                              float(np.percentile(parent, 75))]
        # seed 4: 331 against 328, the one pair the parent won
        assert rss["pairs"] == 10 and rss["change_won"] == 9
        assert rss["bound"] == 0.05 and rss["past_bound"] is False
        assert rss["median_change"] < 0
        score = entry["metrics"]["score"]
        assert score["change_won"] == 10 and score["past_bound"] is False
        assert entry["runs"] == {"parent": 10, "change": 10}
        assert entry["all_correct"] == {"parent": True, "change": True}
        assert entry["attempted_operations"] == {"parent": 40, "change": 40}

    def test_worse_median_past_its_bound_reported(self):
        records = [_record("parent", s, 100.0, score=1.0) for s in (1, 2)]
        records += [_record("change", s, 106.0, score=0.7) for s in (1, 2)]
        metrics = bench_pairs.summarize(records, SPEC)["w"]["metrics"]
        assert metrics["peak_rss_mb"]["past_bound"] is True
        assert metrics["peak_rss_mb"]["median_change"] == pytest.approx(0.06)
        # higher is better: 0.7 is 30% worse, past a bound of 25%
        assert metrics["score"]["past_bound"] is True
        assert metrics["score"]["change_won"] == 0

    def test_failed_and_incorrect_runs_kept_not_won(self):
        records = [_record("parent", s, 100.0) for s in (1, 2, 3)]
        records += [_record("change", 1, 90.0),
                    _record("change", 2, 90.0, correct=False),
                    {**_record("change", 3, 0.0), "returncode": 1, "result": None}]
        entry = bench_pairs.summarize(records, SPEC)["w"]
        rss = entry["metrics"]["peak_rss_mb"]
        # the incorrect run's value is reported but wins no pair; the failed
        # run has none
        assert rss["change"]["runs"] == 2 and rss["change_won"] == 1
        assert rss["pairs"] == 3
        assert entry["runs"]["change"] == 3
        assert entry["all_correct"] == {"parent": True, "change": False}

    def test_pair_missing_a_metric_not_won(self):
        records = [_record("parent", s, 100.0) for s in (1, 2, 3)]
        records += [_record("change", s, 90.0) for s in (1, 2, 3)]
        # a correct run whose result lacks the metric, on either side
        del records[1]["result"]["metrics"]["peak_rss_mb"]
        del records[5]["result"]["metrics"]["peak_rss_mb"]
        rss = bench_pairs.summarize(records, SPEC)["w"]["metrics"]["peak_rss_mb"]
        assert rss["change_won"] == 1 and rss["pairs"] == 3
        assert rss["parent"]["runs"] == 2 and rss["change"]["runs"] == 2

    @staticmethod
    def _verdicts(parent, change):
        records = [_record("parent", s, v) for s, v in enumerate(parent, 1)]
        records += [_record("change", s, v) for s, v in enumerate(change, 1)]
        rss = bench_pairs.summarize(records, SPEC)["w"]["metrics"]["peak_rss_mb"]
        return rss["change_won"], rss["parent_spread"], rss["gain_shown"], rss["unresolved"]

    def test_claim_met(self):
        # 10 of 10 won, and the medians 10 apart against a parent quartile
        # distance of 0.5
        parent = [130.0, 131.0, 130.5, 131.5, 130.0, 131.0, 130.5, 131.5, 130.0, 131.0]
        change = [v - 10.0 for v in parent]
        won, spread, shown, unresolved = self._verdicts(parent, change)
        q1, q3 = np.percentile(parent, [25, 75])
        assert won == 10 and spread == pytest.approx((q3 - q1) / np.median(parent))
        assert shown is True and unresolved is False

    def test_eight_of_ten_won_is_no_gain(self):
        # the medians are far apart, but two pairs went to the parent
        parent = [130.0] * 10
        change = [120.0] * 8 + [131.0, 131.0]
        won, spread, shown, unresolved = self._verdicts(parent, change)
        assert won == 8 and spread == 0.0
        assert shown is False and unresolved is False

    def test_wide_spread_unresolved(self):
        # a parent quartile distance of 20% of its median, past the 5%
        # bound, and runs that overlap: neither a gain nor a verdict
        parent = [80.0, 120.0] * 5
        change = [79.0, 119.0] * 5
        won, spread, shown, unresolved = self._verdicts(parent, change)
        assert won == 10 and spread > SPEC["end_to_end"][0]["bound"]
        assert shown is False and unresolved is True

    def test_wide_spread_with_disjoint_runs_resolved(self):
        # the same spread, but every run of the change reads better than
        # every run of the parent
        parent = [80.0, 120.0] * 5
        change = [40.0, 70.0] * 5
        won, spread, shown, unresolved = self._verdicts(parent, change)
        assert won == 10 and spread > SPEC["end_to_end"][0]["bound"]
        assert shown is True and unresolved is False

    def test_traced_layers_per_side(self):
        records = [_record("parent", 1, 300.0, trace=1), _record("change", 1, 290.0, trace=1),
                   _record("change", 2, 1.0)]
        layers = bench_pairs.traced_layers(records)
        assert set(layers["w"]) == {"parent", "change"}
        assert layers["w"]["change"]["metrics"]["peak_rss_mb"] == 290.0
        assert layers["w"]["parent"]["correct"] is True
        # one traced run per side, and the report says so
        assert {side: entry["runs"] for side, entry in layers["w"].items()} == \
            {"parent": 1, "change": 1}

    def test_same_tree_only_when_parent_is_head_and_status_empty(self):
        head = "a" * 40
        assert bench_pairs.same_tree(head, head, "")
        assert not bench_pairs.same_tree(head, head, " M src/arn/model.py")
        # an untracked file is a change too
        assert not bench_pairs.same_tree(head, head, "?? BENCH_24.json")
        assert not bench_pairs.same_tree("b" * 40, head, "")

    def test_main_refuses_a_tree_against_itself(self, monkeypatch, capsys):
        head = "c" * 40
        answers = {"rev-parse": head, "status": ""}
        monkeypatch.setattr(bench_pairs, "_git", lambda *args: answers[args[0]])

        def never(*args, **kwargs):
            raise AssertionError("nothing may be exported or run")
        monkeypatch.setattr(bench_pairs, "_export", never)
        monkeypatch.setattr(bench_pairs, "_run", never)
        monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", never)
        assert bench_pairs.main(["--pr", "0"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: --parent HEAD is HEAD")
        assert not (ROOT / "BENCH_0.json").exists()

    def test_untracked_files_reported_as_uncommitted_changes(self, monkeypatch, tmp_path):
        # the change differs from HEAD only by an untracked file, which the
        # change side runs from the working tree
        head = "d" * 40

        def git(*args):
            if args[0] == "rev-parse":
                return head
            return "?? src/arn/new.py" if "--untracked-files=no" not in args else ""
        spec = {**SPEC, "command": ["true"], "run_seconds": 1}
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "_git", git)
        monkeypatch.setattr(bench_pairs, "_export", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "_run", lambda command, root, workload, seed,
                            seconds, trace, side: _record(side, seed, 100.0, trace=trace))
        monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
        assert bench_pairs.main(["--pr", "0"]) == 0
        report = json.loads((tmp_path / "BENCH_0.json").read_text())
        assert report["change"] == {"head_sha": head, "uncommitted_changes": True}
        assert report["complete"] is True

    def test_closing_summary_prints_each_verdict(self, monkeypatch, tmp_path, capsys):
        # one line per workload and metric, with past_bound, the verdict
        # that refuses a change that claims no gain: here the change's
        # memory is 6% worse, past its 5% bound, and its score unchanged
        def git(*args):
            return "e" * 40 if args[0] == "rev-parse" else " M src/arn/model.py"
        spec = {**SPEC, "command": ["true"], "run_seconds": 1}
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "_git", git)
        monkeypatch.setattr(bench_pairs, "_export", lambda rev, dest: None)
        monkeypatch.setattr(bench_pairs, "_run", lambda command, root, workload, seed,
                            seconds, trace, side: _record(
                                side, seed, 106.0 if side == "change" else 100.0,
                                trace=trace))
        monkeypatch.setattr(bench_pairs.signal, "signal", lambda *args: None)
        assert bench_pairs.main(["--pr", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "w peak_rss_mb: 100.0 -> 106.0 MB (0/10 won; past bound True, "
            "parent spread 0.0, gain shown False, unresolved False)",
            "w score: 1.0 -> 1.0 1 (0/10 won; past bound False, "
            "parent spread 0.0, gain shown False, unresolved False)"]


# a module of 20 lines: 8 of code (the blank line inside a string that is
# not a docstring included), 5 of docstrings (the blank line inside one
# included), 2 of comments (one inside brackets) and 5 blank
COUNTED_MODULE = '''"""Module docstring,

with a blank line inside."""

# a comment line
import os  # a trailing comment leaves this line code


def f(x):
    """One line."""
    s = """a string

that is code"""
    return (x +
            # a comment inside brackets
            1)


class C:
    """Class doc."""
'''


def test_count_lines_splits_code_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "counted.py").write_text(COUNTED_MODULE)
    (tmp_path / "empty.py").write_text("")
    (tmp_path / "notes.txt").write_text("not a module\n")
    script = ROOT / "scripts" / "count_lines.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "code", "docstring", "comment", "blank", "total"],
        ["counted.py", "8", "5", "2", "5", "20"],
        ["empty.py", "0", "0", "0", "0", "0"],
        ["total", "8", "5", "2", "5", "20"]]
    # by default the package: every line of every module counted once
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules = sorted((ROOT / "src" / "arn").glob("*.py"))
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[0] for row in rows] == [m.name for m in modules] + ["total"]
    assert int(rows[-1][-1]) == sum(len(m.read_text().splitlines()) for m in modules)
    assert all(sum(map(int, row[1:5])) == int(row[5]) for row in rows)
