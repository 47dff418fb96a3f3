#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs; write BENCH_<N>.json.

    python3 scripts/bench_pairs.py --pr N
    python3 scripts/bench_pairs.py --pr N --parent HEAD~1

The change is the working tree; the parent is a commit (``--parent``,
default ``HEAD``, so run it before committing the change, or name the
parent). A parent that is ``HEAD`` while ``git status --porcelain`` lists
nothing, untracked files included, would compare a tree with itself: that
is refused with exit 2 before anything is exported or run. The parent's
files are exported with ``git archive`` into a temporary directory,
removed at the end. Each side runs its own ``perfbench/run.py``, the
command that ``BENCHMARK.json`` names, from its own root.

For every workload of ``BENCHMARK.json`` it runs ten pairs at the file's
``run_seconds``, one seed per pair, seeds 1 to 10: the parent runs first for
an odd seed, the change for an even one. Then one ``--trace 1`` run per side
and workload, at seed 1, gives the per-layer metrics, recorded with
``runs: 1``: they show where a run's time went, but one traced run per side
cannot compare layers, since two runs of the same code differ by more than
a layer's change. A per-layer claim needs its own repeated, interleaved
timing. Each run's ``# env`` line and its last line, one JSON object, are
kept.

``BENCH_<N>.json`` holds the environment, both commits, the seeds, every
run's record and, per workload and end-to-end metric, both medians, both
quartile pairs, the pairs the change won, the bound from ``BENCHMARK.json``
and whether the change's median lies past it, and whether every run was
``correct``. Three verdicts follow each metric. ``parent_spread`` is the
distance between the parent's quartiles over its median. ``gain_shown``
says that the change won at least nine tenths of the pairs and that its
median is better than the parent's by more than that quartile distance.
``unresolved`` says that ``parent_spread`` exceeds the metric's bound,
so the runs cannot show a change within it, and that not every run of the
change reads better than every run of the parent. A run that fails is kept
as failed, never rerun or dropped;
a pair with a failed or incorrect run, or one that lacks the metric, counts
as not won. The report is written when the runs end, also when they are
stopped (an error, SIGTERM or Ctrl-C): ``complete`` says whether every run
was made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# one seed per pair; odd seeds run the parent first
SEEDS = tuple(range(1, 11))
# a run that takes longer than this is stopped and counted as failed
RUN_TIMEOUT_S = 1800


def schedule(seeds) -> list:
    """(seed, side) in run order: the parent first for an odd seed."""
    order = []
    for seed in seeds:
        sides = ("parent", "change") if seed % 2 else ("change", "parent")
        order.extend((seed, side) for side in sides)
    return order


def same_tree(parent_sha: str, head_sha: str, status: str) -> bool:
    """Whether the change is the parent itself: the parent is ``HEAD`` and
    ``status``, the output of ``git status --porcelain``, lists nothing."""
    return parent_sha == head_sha and not status.strip()


def _json_object(text: str):
    """The JSON object ``text`` holds, or None."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        return None
    return value if isinstance(value, dict) else None


def parse_run(stdout: str) -> tuple:
    """A run's ``# env`` object and its last line's JSON object; None for
    either that the output lacks or that does not parse."""
    env = result = None
    lines = [line for line in stdout.splitlines() if line.strip()]
    for line in lines:
        if line.startswith("# env "):
            env = _json_object(line[len("# env "):])
    if lines:
        result = _json_object(lines[-1])
    return env, result


def _metric(record: dict, name: str):
    result = record.get("result")
    if result is None:
        return None
    entry = result.get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def _run_ok(record: dict) -> bool:
    result = record.get("result")
    return record.get("returncode") == 0 and result is not None and result.get("correct") is True


def _stats(values: list) -> dict:
    if not values:
        return {"median": None, "quartiles": None, "runs": 0}
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "quartiles": [float(q1), float(q3)], "runs": len(values)}


def summarize(records: list, spec: dict) -> dict:
    """Per workload and end-to-end metric of ``spec`` (``BENCHMARK.json``),
    the two sides' statistics over the untraced ``records``.

    Each record has ``workload``, ``side``, ``seed``, ``trace``,
    ``returncode`` and ``result`` (the run's last JSON line, or None). A
    pair is the two sides' runs of one seed; the change wins it when both
    runs were correct and reported the metric, and its value is better by
    the metric's ``better``.
    The statistics take every value a run reported, correct or not; a
    run's ``all_correct`` flag says which. ``past_bound`` is whether
    the change's median is worse than the parent's by more than ``bound``
    of the parent's median. ``parent_spread``, ``gain_shown`` and
    ``unresolved`` are the verdicts of the module's docstring, None where
    a side has no value.
    """
    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        by_side = {side: [r for r in runs if r["side"] == side]
                   for side in ("parent", "change")}
        entry = {
            "runs": {side: len(rs) for side, rs in by_side.items()},
            "all_correct": {side: bool(rs) and all(_run_ok(r) for r in rs)
                            for side, rs in by_side.items()},
            "failed_operations": {
                side: sum(r["result"].get("failed", 0) for r in rs if r["result"] is not None)
                for side, rs in by_side.items()},
            "attempted_operations": {
                side: sum(r["result"].get("attempted", 0) for r in rs if r["result"] is not None)
                for side, rs in by_side.items()},
            "metrics": {},
        }
        seeds = sorted({r["seed"] for r in runs})
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            value = {(r["side"], r["seed"]): _metric(r, name) for r in runs}
            ok = {(r["side"], r["seed"]): _run_ok(r) for r in runs}
            values = {side: [v for (s, _), v in value.items() if s == side and v is not None]
                      for side in ("parent", "change")}
            sides = {side: _stats(vs) for side, vs in values.items()}
            won = 0
            for seed in seeds:
                a, b = value.get(("parent", seed)), value.get(("change", seed))
                both_ok = ok.get(("parent", seed)) and ok.get(("change", seed))
                if both_ok and None not in (a, b) and (b < a if lower else b > a):
                    won += 1
            before, after = sides["parent"]["median"], sides["change"]["median"]
            if before is None or after is None or before == 0:
                change = past = spread = shown = unresolved = None
            else:
                change = after / before - 1.0
                past = (change if lower else -change) > metric["bound"]
                q1, q3 = sides["parent"]["quartiles"]
                spread = (q3 - q1) / abs(before)
                shown = (10 * won >= 9 * len(seeds)
                         and (before - after if lower else after - before) > q3 - q1)
                apart = (max(values["change"]) < min(values["parent"]) if lower
                         else min(values["change"]) > max(values["parent"]))
                unresolved = spread > metric["bound"] and not apart
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent": sides["parent"], "change": sides["change"],
                "pairs": len(seeds), "change_won": won,
                "median_change": change, "bound": metric["bound"], "past_bound": past,
                "parent_spread": spread, "gain_shown": shown, "unresolved": unresolved,
            }
        summary[workload] = entry
    return summary


def traced_layers(records: list) -> dict:
    """Per workload, each side's per-layer metrics from its one traced run,
    with that run count, too few to compare layers by."""
    layers = {}
    for r in records:
        if not r["trace"]:
            continue
        result = r["result"] or {}
        layers.setdefault(r["workload"], {})[r["side"]] = {
            "seed": r["seed"], "runs": 1, "correct": _run_ok(r),
            "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
        }
    return layers


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    finally:
        archive.stdout.close()
        if archive.wait() != 0:
            raise SystemExit(f"git archive {rev} failed")


def _run(command, root: Path, workload: str, seed: int, seconds, trace: int, side: str) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        returncode, stdout, stderr = done.returncode, done.stdout, done.stderr
    except subprocess.TimeoutExpired as exc:
        returncode, stdout, stderr = None, exc.stdout or "", "timed out"
        stdout = stdout if isinstance(stdout, str) else stdout.decode(errors="replace")
    env, result = parse_run(stdout)
    record = {"workload": workload, "side": side, "seed": seed, "trace": trace,
              "returncode": returncode, "env": env, "result": result}
    if returncode != 0:
        record["stderr_tail"] = stderr[-2000:]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="N of BENCH_<N>.json")
    parser.add_argument("--parent", default="HEAD", help="the parent commit (default HEAD)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = list(SEEDS)
    parent_sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    head_sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=normal")
    if same_tree(parent_sha, head_sha, status):
        print(f"error: --parent {args.parent} is HEAD and the working tree is clean: "
              "there is no change to compare", file=sys.stderr)
        return 2
    # an untracked file is run from the working tree too
    uncommitted = bool(status.strip())
    out_path = ROOT / f"BENCH_{args.pr}.json"

    jobs = [(w["name"], seed, side, 0) for w in spec["workloads"]
            for seed, side in schedule(seeds)]
    jobs += [(w["name"], seeds[0], side, 1) for w in spec["workloads"]
             for side in ("parent", "change")]
    records = []
    # stopped by SIGTERM, remove the parent's files, stop the running run
    # and write the runs made so far
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        _export(parent_sha, scratch)
        roots = {"parent": scratch, "change": ROOT}
        for i, (workload, seed, side, trace) in enumerate(jobs, start=1):
            record = _run(spec["command"], roots[side], workload, seed,
                          spec["run_seconds"], trace, side)
            records.append(record)
            status = "ok" if _run_ok(record) else "FAILED"
            print(f"[{i}/{len(jobs)}] {workload} seed {seed} {side}"
                  f"{' trace' if trace else ''}: {status}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        envs = {side: next((r["env"] for r in records if r["side"] == side and r["env"]),
                           None)
                for side in ("parent", "change")}
        report = {
            "pr": args.pr,
            "parent_sha": parent_sha,
            "change": {"head_sha": head_sha, "uncommitted_changes": uncommitted},
            "command": spec["command"],
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "order": "pairs alternate: the parent runs first for an odd seed",
            "complete": len(records) == len(jobs),
            "env": envs,
            "summary": summarize(records, spec),
            "per_layer": traced_layers(records),
            "runs": records,
        }
        out_path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out_path} ({len(records)} of {len(jobs)} runs)", flush=True)
    for workload, entry in report["summary"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']} -> {m['change']['median']} "
                  f"{m['unit']} ({m['change_won']}/{m['pairs']} won; past bound "
                  f"{m['past_bound']}, parent spread {m['parent_spread']}, "
                  f"gain shown {m['gain_shown']}, unresolved {m['unresolved']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
