"""Layer-ledger benchmark: one command for every workload and metric.

Run from the root of a checkout::

    python3 layerbench/run.py --workload direct_scf --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched; ``--trace 1`` is the separate traced run that wraps the
program's layers and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run's environment,
metrics, counts and (traced) spans are written under ``.layerbench/``
in the checkout.  See ``layerbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

#: One BLAS thread, set before numpy loads.  The SCF workloads run one
#: repetition per CPU at a time (see ``workloads.run_scf``), and a BLAS
#: call that spreads over both CPUs waits for the slower of them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".layerbench"

WORKLOADS = ("direct_scf", "cached_scf", "batch_service")

#: End-to-end metrics and their units, in report order.
END_TO_END_UNITS = {
    "time_to_energy_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
}


def source_digest() -> str:
    """sha256 over the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    """Everything that explains a timing next to it."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    return {
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def compare_counts(workload: str, inputs_text: str, trace: bool,
                   counts: dict) -> str | None:
    """Check counts against earlier runs on the same inputs and code.

    Returns a description of the drift, or None when the counts match
    (or no earlier run exists).
    """
    key = hashlib.sha256(inputs_text.encode()).hexdigest()[:16]
    path = OUT / (f"counts-{workload}-trace{int(trace)}-{key}-"
                  f"{source_digest()}.json")
    current = json.loads(json.dumps(counts, sort_keys=True))
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != current:
            return f"deterministic counts drifted from an earlier run: " \
                   f"{earlier} vs {current}"
        return None
    path.write_text(json.dumps(current, sort_keys=True))
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A stop request unwinds like an error, so the ``finally`` blocks
    # stop the SCF processes and the daemons this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    # ``repro.scf`` imported before ``repro.core`` hits a circular
    # import in the program, so the core package goes first.
    import repro.core  # noqa: F401

    import inputs
    import layers
    import workloads

    trace = bool(args.trace)
    env = environment(args.seed)
    # Everything the run writes stays in the checkout.  The service's
    # socket paths are kept relative to it: an absolute one in a deep
    # checkout overflows ``sun_path``, and the program then falls back
    # to the temp directory, which is moved into the checkout as well.
    os.chdir(ROOT)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    tempfile.tempdir = None
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT) as tmp:
        work_dir = Path(os.path.relpath(tmp))
        spill = work_dir / "spill"
        # Reference energies are kept for the next run of the same code.
        refs = OUT / f"refs-{source_digest()}.json"
        if args.workload == "batch_service":
            outcome = workloads.run_batch(args.seed, trace, work_dir, spill,
                                          refs)
        else:
            outcome = workloads.run_scf(args.workload, args.seed,
                                        args.seconds, trace, spill, refs)

    inputs_text = (inputs.batch_manifest(args.seed)
                   if args.workload == "batch_service"
                   else inputs.scf_xyz(args.workload, args.seed))
    drift = compare_counts(args.workload, inputs_text, trace, outcome.counts)
    failed = outcome.failed
    if drift is not None:
        outcome.problems.append(drift)
        failed += 1
    if not trace:
        outcome.metrics["success_rate"] = (
            (outcome.attempted - failed) / outcome.attempted)
    units = layers.PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {name: {"value": float(outcome.metrics.get(name, 0.0)),
                      "unit": unit}
               for name, unit in units.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "environment": env,
              "seconds": args.seconds, "metrics": metrics,
              "counts": outcome.counts, "samples": outcome.samples,
              "problems": outcome.problems}
    (OUT / f"result-{stem}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if outcome.spans:
        with gzip.open(OUT / f"spans-{stem}.ndjson.gz", "wt",
                       compresslevel=1) as fh:
            for span in outcome.spans:
                fh.write(json.dumps(span._asdict()) + "\n")

    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
