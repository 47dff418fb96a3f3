#!/usr/bin/env python3
"""Run one benchmark workload against the arn package and print its metrics.

    python3 perfbench/run.py --workload enhance_causal_dir --seed 1 --seconds 10 --trace 0

Run from anywhere in a source checkout; the package is imported from
``src/``. Inputs are built from the seed by ``make_inputs.py`` in a child
process, so the peak RSS this process reports belongs to the workload
alone. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a run with every layer wrapped by ``tracing.Tracer``.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Lines before it, starting with ``#``, record the run's environment.
"""

from __future__ import annotations

import os

# one BLAS thread (at most nproc): set before numpy is first imported
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench import tracing, workloads  # noqa: E402


def _git_sha() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def _inputs(seed: int, tiny: bool) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "make_inputs.py"), "--seed", str(seed)]
    done = subprocess.run(cmd + (["--tiny"] if tiny else []), capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"input generation failed with exit code {done.returncode}")
    path = Path(done.stdout.strip().splitlines()[-1])
    manifest = json.loads(path.read_text())
    for key in ("causal_ckpt", "noncausal_ckpt", "causal_dir", "long_dir", "demo_dir"):
        manifest[key] = str(path.parent / manifest[key])
    manifest["work_dir"] = str(path.parent)
    return manifest


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "arn" / "__init__.py").is_file():
        print(f"error: no arn package under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    manifest = _inputs(args.seed, tiny)
    sys.path.insert(0, str(src))
    import arn
    if Path(arn.__file__).resolve().parent != (src / "arn").resolve():
        print(f"error: arn imported from {arn.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer().install() if args.trace else None
    try:
        result = workloads.run(args.workload, manifest, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    print("# env " + json.dumps(_environment()))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "op_wall_s": result["op_wall_s"]}))
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = result["per_layer"] if args.trace else result["metrics"]
    correct = not result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
