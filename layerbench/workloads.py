"""The three workloads: run, check and measure.

``direct_scf`` and ``cached_scf`` time what ``repro scf`` does after
parsing its arguments -- ``Molecule.from_xyz`` -> ``BasisSet`` ->
``ParallelSCF(...)`` -> ``run()`` -- repeatedly within the run's time,
in one process per CPU side by side.
``batch_service`` runs a seeded manifest as ``repro batch`` runs it:
one client submits the whole manifest through ``WorkloadManager``
(default ``binned`` policy) to an in-process daemon with one worker
process, then polls until every job is finished.

Each function returns a :class:`Outcome`: the metrics, the operation
counts for the result line, and the deterministic counts the caller
compares across runs of the same seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import multiprocessing
import os
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
import layers
from spans import SpanIndex, Tracer, assert_pristine

#: Energy tolerance against the references, Hartree.
ENERGY_TOL = 1e-8
#: Processes that repeat an SCF workload side by side, one per CPU.
SCF_PROCESSES = 2
#: Fewest timed repetitions of an SCF workload in one process.
MIN_REPS = 2
#: Deadline for the SCF processes of one run, seconds.
SCF_TIMEOUT_S = 150.0
#: Daemon starts of the batch workload (the measured one included).
DAEMON_STARTS = 7
#: Deadline for one manifest, seconds.
BATCH_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    counts: dict[str, Any]
    problems: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)
    #: Raw samples behind the medians, for the result record.
    samples: dict[str, list[float]] = field(default_factory=dict)


# -- memory ------------------------------------------------------------------

def reset_peak_rss() -> bool:
    """Reset this process's peak RSS (``VmHWM``); False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a live process, MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- SCF workloads -------------------------------------------------------------

def remembered(path: Path | None, key: str,
               compute: Callable[[], float]) -> float:
    """``compute()``, kept under ``key`` in the JSON file ``path``.

    Later runs with the same file reuse the value; ``path`` is None to
    always compute.  The caller names the file after the sources, so a
    change to the program computes every value afresh.
    """
    if path is None:
        return compute()
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known:
        known[key] = compute()
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        tmp.replace(path)
    return known[key]


def reference_energy(xyz: str, basis_name: str,
                     refs_path: Path | None = None) -> float:
    """Dense reference RHF (the default ``DenseFockBuilder``)."""
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.scf.rhf import RHF

    def compute() -> float:
        basis = BasisSet(Molecule.from_xyz(xyz), basis_name)
        return float(RHF(basis).run().energy)

    # The comment line names the seed; the energy depends on the atoms.
    atoms = "\n".join(xyz.splitlines()[2:])
    key = hashlib.sha256(f"{basis_name}\n{atoms}".encode()).hexdigest()
    return remembered(refs_path, key, compute)


def _scf_setup(xyz: str, case: inputs.ScfCase):
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.core.scf_driver import ParallelSCF

    basis = BasisSet(Molecule.from_xyz(xyz), case.basis)
    return ParallelSCF(basis, case.algorithm, nranks=case.nranks,
                       nthreads=case.nthreads, eri_cache_mb=case.eri_cache_mb)


def time_to_energy(xyz: str, case: inputs.ScfCase, *,
                   keep_model: bool = False) -> dict[str, Any]:
    """One XYZ-to-energy run: timings, energy and deterministic counts.

    ``keep_model`` also returns the basis and the builder's
    ``work_estimates()`` for the model-error metrics.
    """
    t0 = time.perf_counter()
    scf = _scf_setup(xyz, case)
    t1 = time.perf_counter()
    with scf:
        res = scf.run()
    t2 = time.perf_counter()
    stats = res.fock_stats
    rep = {
        "total_s": t2 - t0,
        "setup_s": t1 - t0,
        "energy": float(res.energy),
        "converged": bool(res.converged),
        "counts": {
            "iterations": int(res.scf.niterations),
            "quartets_computed": sum(s.quartets_computed for s in stats),
            "quartets_screened": sum(s.quartets_screened for s in stats),
            "cache_hits": sum(s.eri_cache_hits for s in stats),
            "cache_misses": sum(s.eri_cache_misses for s in stats),
        },
    }
    if keep_model:
        rep["basis"] = scf.basis
        rep["estimates"] = scf.builder.work_estimates()
    del scf, res, stats
    gc.collect()
    return rep


def setup_only(xyz: str, case: inputs.ScfCase) -> float:
    """Seconds to set up (basis, one-electron, Schwarz, builder)."""
    t0 = time.perf_counter()
    scf = _scf_setup(xyz, case)
    elapsed = time.perf_counter() - t0
    scf.shutdown()
    del scf
    gc.collect()
    return elapsed


def _check_rep(rep: dict[str, Any], ref: float, problems: list[str]) -> bool:
    ok = (rep["converged"] and math.isfinite(rep["energy"])
          and abs(rep["energy"] - ref) <= ENERGY_TOL)
    if not ok:
        problems.append(f"energy {rep['energy']!r} (converged="
                        f"{rep['converged']}) vs reference {ref!r}")
    return ok


def _repeat_scf(xyz: str, case: inputs.ScfCase, seconds: float,
                cpu: int, conn) -> None:
    """Worker process: repeat the XYZ-to-energy run for ``seconds``.

    Sends ``(reps, setups, peak_rss_mb)`` back over ``conn``, or the
    traceback of the exception that stopped it.
    """
    try:
        os.sched_setaffinity(0, {cpu})
        reset_peak_rss()
        reps: list[dict[str, Any]] = []
        setups = [setup_only(xyz, case)]
        start = time.perf_counter()
        while True:
            reps.append(time_to_energy(xyz, case))
            setups.append(reps[-1]["setup_s"])
            elapsed = time.perf_counter() - start
            mean = elapsed / len(reps)
            if len(reps) >= MIN_REPS and elapsed + mean > seconds:
                break
        conn.send((reps, setups, peak_rss_mb()))
    except Exception:
        conn.send(traceback.format_exc())
    finally:
        conn.close()


def _scf_repetitions(xyz: str, case: inputs.ScfCase, seconds: float
                     ) -> tuple[list[tuple], list[str]]:
    """Run ``_repeat_scf`` in one forked process per CPU (at most
    ``SCF_PROCESSES``), each pinned to its CPU, and wait for all of them.

    Returns the workers' results and the problems of those that failed.
    """
    cpus = sorted(os.sched_getaffinity(0))[:SCF_PROCESSES]
    # Fork is safe here: this process runs no other thread (one BLAS
    # thread, no daemon), and the workers inherit the imported program.
    assert threading.active_count() == 1
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for cpu in cpus:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_repeat_scf,
                               args=(xyz, case, seconds, cpu, send))
            proc.start()
            send.close()
            workers.append((proc, recv))
        results, problems = [], []
        deadline = time.monotonic() + SCF_TIMEOUT_S
        for proc, recv in workers:
            if not recv.poll(max(0.0, deadline - time.monotonic())):
                problems.append(f"SCF worker {proc.pid} timed out")
                continue
            try:
                got = recv.recv()
            except EOFError:
                problems.append(f"SCF worker {proc.pid} exited with code "
                                f"{proc.exitcode} and no result")
                continue
            if isinstance(got, str):
                problems.append(f"SCF worker {proc.pid} failed: {got}")
            else:
                results.append(got)
        return results, problems
    finally:
        for proc, recv in workers:
            recv.close()
            if proc.is_alive():
                proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
            proc.join()


def run_scf(workload: str, seed: int, seconds: float, trace: bool,
            spill_dir: Path, refs_path: Path | None = None) -> Outcome:
    case = inputs.SCF_CASES[workload]
    xyz = inputs.scf_xyz(workload, seed)
    assert_pristine()
    if trace:
        ref = reference_energy(xyz, case.basis, refs_path)
        return _trace_scf(xyz, case, ref, spill_dir, [])

    results, problems = _scf_repetitions(xyz, case, seconds)
    # The reference comes after the measurement: a dense SCF leaves
    # this process's heap larger, and the processes forked from it
    # would count that in their peak RSS.
    ref = reference_energy(xyz, case.basis, refs_path)
    reps = [rep for worker_reps, _, _ in results for rep in worker_reps]
    setups = [s for _, worker_setups, _ in results for s in worker_setups]
    lost = len(problems)
    failed = lost + sum(not _check_rep(r, ref, problems) for r in reps)
    if not reps:
        return Outcome({}, attempted=max(lost, 1), failed=max(lost, 1),
                       counts={}, problems=problems)
    counts = reps[0]["counts"]
    drift = [r["counts"] for r in reps if r["counts"] != counts]
    if drift:
        problems.append(f"deterministic counts drift within the run: "
                        f"{counts} vs {drift[0]}")
        failed += 1
    totals = [r["total_s"] for r in reps]
    # The host slows each CPU by up to 40% for seconds at a time, which
    # only ever adds time; the fastest repetition is the estimate that
    # repeats across runs.  A run holds
    # too few repetitions for latency quantiles, which are measured on
    # the batch workload, so they repeat the same estimate here.
    fastest = min(totals)
    metrics = {
        "time_to_energy_s": fastest,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peak for _, _, peak in results),
        "jobs_per_s": 1.0 / fastest,
        "job_latency_p50_s": fastest,
        "job_latency_p90_s": fastest,
    }
    return Outcome(metrics, attempted=len(reps) + lost, failed=failed,
                   counts=counts, problems=problems,
                   samples={"time_to_energy_s": totals, "setup_s": setups})


def _trace_scf(xyz: str, case: inputs.ScfCase, ref: float,
               spill_dir: Path, problems: list[str]) -> Outcome:
    # Untraced, traced, traced, untraced: the overhead compares the two
    # pairs, so a drift of the host's speed during the run cancels.
    # The layer metrics come from the first traced repetition alone.
    plain = [time_to_energy(xyz, case)]
    tracer = Tracer(layers.TARGETS, spill_dir)
    with tracer:
        tracer.run_id = "traced"
        traced = time_to_energy(xyz, case, keep_model=True)
        spans, tracer.spans = tracer.spans, []
        tracer.run_id = "overhead"
        again = time_to_energy(xyz, case)
        tracer.spans.clear()
    assert_pristine()
    plain.append(time_to_energy(xyz, case))
    reps = [*plain, traced, again]
    failed = sum(not _check_rep(r, ref, problems) for r in reps)
    drift = [r["counts"] for r in reps if r["counts"] != traced["counts"]]
    if drift:
        problems.append(f"tracing changed the counts: {drift[0]} vs "
                        f"{traced['counts']}")
        failed += 1

    index = SpanIndex(spans)
    root = traced["total_s"]
    metrics = layers.layer_metrics(index, root_s=root)
    basis = traced["basis"]
    estimates = traced["estimates"]
    metrics["perfsim.quartet_cost_rel_err"] = layers.quartet_cost_rel_err(
        index, lambda run: basis)
    metrics["parallel.scheduler.work_estimate_rel_err"] = (
        layers.work_estimate_rel_err(
            index, lambda run: None if estimates is None else (estimates, True)))
    metrics["obs.attributed_frac"] = layers.attributed(index) / root
    metrics["obs.trace_overhead_frac"] = (
        (root + again["total_s"]) / sum(r["total_s"] for r in plain) - 1.0)
    counts = {**traced["counts"], **layers.deterministic_counts(metrics)}
    return Outcome(metrics, attempted=len(reps), failed=failed, counts=counts,
                   problems=problems, spans=spans)


# -- batch workload --------------------------------------------------------------

def _start_daemon(root: Path, name: str):
    """An in-process daemon (default config but for its directories)
    with one worker; returns (daemon, loop thread, seconds to first ping)."""
    from repro.service import JobClient, ServiceConfig, ServiceDaemon

    service_dir = root / name
    config = ServiceConfig(service_dir=str(service_dir), fleet=1,
                           runs_dir=str(root / f"{name}-runs"))
    t0 = time.perf_counter()
    daemon = ServiceDaemon(config).start()
    thread = threading.Thread(target=daemon.run_forever, daemon=True)
    thread.start()
    JobClient(service_dir).ping()
    return daemon, thread, time.perf_counter() - t0


def _stop_daemon(daemon, thread) -> None:
    daemon._stop.set()
    thread.join(timeout=10.0)
    daemon.close()


def _batch_references(specs, refs_path: Path | None = None
                      ) -> tuple[dict[str, float], float]:
    """In-process cold ``run_job`` per system: {setup_key: energy}, seconds."""
    from repro.service.supervisor import run_job

    first: dict[str, Any] = {}
    for spec in specs:
        first.setdefault(spec.setup_key(), spec)
    t0 = time.perf_counter()
    energies = {key: remembered(refs_path, key,
                                lambda spec=spec: float(run_job(spec)["energy"]))
                for key, spec in first.items()}
    return energies, time.perf_counter() - t0


def run_batch(seed: int, trace: bool, work_dir: Path,
              spill_dir: Path, refs_path: Path | None = None) -> Outcome:
    """One pass of the seeded manifest (a fixed amount of work)."""
    from repro.obs.registry import RunRegistry
    from repro.service import JobClient
    from repro.workload import WorkloadManager, load_manifest

    problems: list[str] = []
    manifest = work_dir / "manifest.ndjson"
    manifest.write_text(inputs.batch_manifest(seed))
    specs = load_manifest(manifest)
    if trace:
        # Timed for the trace overhead, so always computed.
        refs, ref_s = _batch_references(specs)
    assert_pristine()

    tracer = Tracer(layers.TARGETS, spill_dir) if trace else None
    daemons = []
    try:
        if tracer is not None:
            # The first pass also warmed the program up; time the
            # untraced side again so both sides of the overhead are warm.
            _, ref_s = _batch_references(specs)
            tracer.install()
            tracer.run_id = "reference"
            _, traced_ref_s = _batch_references(specs)
            tracer.run_id = "main"
        reset_peak_rss()
        daemon, thread, start_s = _start_daemon(work_dir, "service")
        daemons.append((daemon, thread))
        starts = [start_s]
        manager = WorkloadManager(
            JobClient(daemon.service_dir), policy="binned", seed=0,
            registry=RunRegistry(work_dir / "batch-runs"))
        report = manager.run(specs, manifest_path=str(manifest),
                             timeout_s=BATCH_TIMEOUT_S,
                             output=work_dir / "BENCH_throughput.json")
        peak = peak_rss_mb() + peak_rss_mb(daemon.fleet.slots[0].proc.pid)
        retries = daemon.retries
        if not trace:
            # More set-up samples: start (and ping) further daemons
            # now that the manifest is done.
            for k in range(DAEMON_STARTS - 1):
                *probe, probe_s = _start_daemon(work_dir, f"probe{k}")
                daemons.append(probe)
                starts.append(probe_s)
    finally:
        # A daemon's close waits out fixed timeouts (about 4 s); the
        # daemons close side by side so they cost that only once.
        closers = [threading.Thread(target=_stop_daemon, args=pair)
                   for pair in daemons]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join()
        if tracer is not None:
            tracer.uninstall()
            tracer.collect_children()
    assert_pristine()
    if not trace:
        # After the manifest, so the daemon and its worker start from
        # the same heap whether or not the references were kept.
        refs, _ = _batch_references(specs, refs_path)

    jobs = report.jobs
    failed = 0
    for job in jobs:
        ref = refs[specs[job["manifest_index"]].setup_key()]
        energy = job.get("energy")
        if (job["state"] != "done" or not job.get("converged")
                or energy is None or not math.isfinite(energy)
                or abs(energy - ref) > ENERGY_TOL):
            failed += 1
            problems.append(f"job {job['id']} ({job['tag']}): state "
                            f"{job['state']}, energy {energy!r} vs {ref!r}")
    done = [j for j in jobs if j["state"] == "done"]
    counts = {
        "jobs": len(jobs),
        "warm_setups": sum(1 for j in done if j.get("warm_setup")),
        "cold_setups": sum(1 for j in done if not j.get("warm_setup")),
        "iterations": [j.get("iterations") for j in jobs],
        "eri_cache_hits": sum(j.get("eri_cache_hits") or 0 for j in done),
        "eri_cache_misses": sum(j.get("eri_cache_misses") or 0 for j in done),
        "batches": len(report.plan.batches),
    }
    run_s = [j["run_s"] for j in done]
    total_s = [j["total_s"] for j in done]
    if not trace:
        metrics = {
            # A mean, not a median: the daemon observes a job's end on
            # its 50 ms dispatch tick, so run times fall in tick-wide
            # clusters by job class, and the median jumps between them.
            "time_to_energy_s": statistics.fmean(run_s),
            "setup_s": statistics.median(starts),
            "peak_rss_mb": peak,
            "jobs_per_s": report.metrics["jobs_per_s"],
            "job_latency_p50_s": statistics.median(total_s),
            "job_latency_p90_s": layers.percentile_with_tail(total_s),
        }
        return Outcome(metrics, attempted=len(jobs), failed=failed,
                       counts=counts, problems=problems,
                       samples={"setup_s": starts, "run_s": run_s,
                                "total_s": total_s})

    spans = [s for s in tracer.spans if s.run != "reference"]
    index = SpanIndex(spans)
    run_jobs = index.by_name.get("service.worker.run_job", [])
    busy = sum(s.duration for s in run_jobs)
    metrics = layers.layer_metrics(index, root_s=busy)
    spec_of = {j["id"]: specs[j["manifest_index"]] for j in jobs}
    metrics.update(layers.batch_model_errors(index, spec_of))
    worker_pid = run_jobs[0].pid if run_jobs else None
    metrics["obs.attributed_frac"] = (layers.attributed(index, worker_pid)
                                      / busy)
    metrics["obs.trace_overhead_frac"] = traced_ref_s / ref_s - 1.0
    metrics.update(layers.service_metrics(
        index, jobs=jobs, wall_s=report.wall_s, retries=retries,
        service_dir=daemon.service_dir))
    counts.update(layers.deterministic_counts(metrics))
    return Outcome(metrics, attempted=len(jobs), failed=failed,
                   counts=counts, problems=problems, spans=tracer.spans)
