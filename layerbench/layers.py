"""The wrapped layers and the per-layer metrics derived from their spans.

:data:`TARGETS` names every public function or method the traced run
wraps, grouped by the program's packages (``chem``, ``integrals``,
``core``, ``parallel``, ``scf``, ``perfsim``, ``service``,
``workload``).  :func:`layer_metrics` turns the recorded spans into the
``per_layer`` metrics of ``BENCHMARK.json``.

Self time is a span's duration minus the durations of its direct child
spans.  A metric named ``*.self_s`` is a self time; any other ``*_s``
metric is the summed duration of the layer's spans (for leaf layers the
two are equal).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

from spans import SpanIndex, Target


# The hot spans carry a bare value instead of a dict (memory: a traced
# batch run holds over a million spans).

def _block_attrs(args, kwargs, result):
    """Composite quartet ``(I, J, K, L)``."""
    return tuple(int(x) for x in args[1:5])


def _eri_attrs(args, kwargs, result):
    """Primitive quartets of the shell quartet."""
    return int(args[0].nprim) * int(args[1].nprim)


def _boys_attrs(args, kwargs, result):
    """Boys-function evaluation points."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(getattr(x, "size", 1))


def _cache_get_attrs(args, kwargs, result):
    """Cache hit."""
    return result is not None


def _cache_put_attrs(args, kwargs, result):
    """Bytes stored."""
    return int(args[2].nbytes)


def _digest_attrs(args, kwargs, result):
    """``(I, J, K, L, bytes of the digested block)``."""
    return (*(int(x) for x in args[3:7]), int(args[1].nbytes))


def _build_attrs(args, kwargs, result):
    stats = result[1]
    return {
        "computed": int(stats.quartets_computed),
        "screened": int(stats.quartets_screened),
        "reduce_bytes": int(stats.reduce_bytes),
        "rank_imbalance": float(stats.rank_imbalance),
        "thread_imbalance": float(stats.thread_imbalance),
    }


def _gsumf_attrs(args, kwargs, result):
    return {"bytes": int(args[1].nbytes)}


def _run_attrs(args, kwargs, result):
    return {"iterations": int(result.scf.niterations)}


def _submit_attrs(args, kwargs, result):
    return {"run": str(result["id"])}


def _dispatch_attrs(args, kwargs, result):
    return {"run": str(args[1].id)}


def _plan_attrs(args, kwargs, result):
    return {"batches": len(result.batches)}


def _run_job_attrs(args, kwargs, result):
    return {"warm": bool(result.get("warm_setup"))}


def _run_job_run(args, kwargs) -> str | None:
    """A worker's job id: the directory its checkpoint lives in."""
    checkpoint = kwargs.get("checkpoint")
    return Path(checkpoint).parent.name if checkpoint else None


_FOCK = ("repro.core.fock_shared:SharedFockBuilder",
         "repro.core.fock_private:PrivateFockBuilder",
         "repro.core.fock_mpi:MPIOnlyFockBuilder")

TARGETS: list[Target] = [
    # chem: parsing and basis construction
    Target("chem.molecule", "repro.chem.molecule:Molecule.from_xyz"),
    Target("chem.basis", "repro.chem.basis.basisset:BasisSet.__init__"),
    # integrals: one-electron, Schwarz, the ERI kernel and the cache
    Target("integrals.onee", "repro.integrals.onee:overlap_matrix"),
    Target("integrals.onee", "repro.integrals.onee:kinetic_matrix"),
    Target("integrals.onee", "repro.integrals.onee:nuclear_matrix"),
    Target("integrals.schwarz", "repro.integrals.schwarz:schwarz_matrix"),
    Target("integrals.eri", "repro.integrals.eri:eri_shell_quartet",
           _eri_attrs),
    Target("integrals.hermite",
           "repro.integrals.hermite:hermite_coulomb_batch"),
    Target("integrals.boys", "repro.integrals.boys:boys", _boys_attrs),
    Target("integrals.cache.get", "repro.integrals.cache:QuartetCache.get",
           _cache_get_attrs),
    Target("integrals.cache.put", "repro.integrals.cache:QuartetCache.put",
           _cache_put_attrs),
    # core: block assembly, digestion, buffers, the Fock loop, screening
    Target("core.quartets.block",
           "repro.core.quartets:QuartetEngine.composite_block", _block_attrs),
    Target("core.quartets.digest",
           "repro.core.quartets:QuartetEngine.scatter_contributions",
           _digest_attrs),
    Target("core.buffers.add", "repro.core.buffers:ColumnBlockBuffer.add"),
    Target("core.buffers.flush",
           "repro.core.buffers:ColumnBlockBuffer.flush"),
    *(Target("core.fock.build", f"{cls}.__call__", _build_attrs)
      for cls in _FOCK),
    *(Target("core.fock.rank", f"{cls}.rank_program") for cls in _FOCK),
    Target("core.screening.kl",
           "repro.core.screening:Screening.surviving_kl_pairs"),
    Target("core.screening.kl", "repro.core.screening:Screening.prescreen_ij"),
    # parallel: reduction, scheduling, thread partition
    Target("parallel.comm.gsumf", "repro.parallel.comm:SimComm.gsumf",
           _gsumf_attrs),
    Target("parallel.scheduler.make",
           "repro.parallel.scheduler:make_scheduler"),
    Target("parallel.threads.partition",
           "repro.parallel.threads:ThreadTeam.partition"),
    # scf: driver, RHF loop, DIIS, diagonalization
    Target("scf.setup", "repro.core.scf_driver:ParallelSCF.__init__"),
    Target("scf.run", "repro.core.scf_driver:ParallelSCF.run", _run_attrs),
    Target("scf.rhf.init", "repro.scf.rhf:RHF.__init__"),
    Target("scf.rhf.run", "repro.scf.rhf:RHF.run"),
    Target("scf.diis", "repro.scf.diis:DIIS.error_vector"),
    Target("scf.diis", "repro.scf.diis:DIIS.push"),
    Target("scf.diis", "repro.scf.diis:DIIS.extrapolate"),
    Target("scf.diagonalize", "repro.scf.guess:diagonalize_fock"),
    Target("scf.guess", "repro.scf.guess:core_guess_density"),
    # perfsim: the cost model, as far as the program consults it
    Target("perfsim.cost", "repro.perfsim.cost_model:eri_quartet_units"),
    # resilience: per-cycle checkpoints of service jobs
    Target("resilience.checkpoint",
           "repro.resilience.checkpoint:CheckpointManager.maybe_save"),
    # service: client, daemon, queue, fleet, worker
    Target("service.client.submit", "repro.service.client:JobClient.submit",
           _submit_attrs),
    Target("service.client.status", "repro.service.client:JobClient.status"),
    Target("service.daemon.start",
           "repro.service.daemon:ServiceDaemon.start"),
    Target("service.daemon.close",
           "repro.service.daemon:ServiceDaemon.close"),
    Target("service.queue.submit",
           "repro.service.queue:DurableJobQueue.submit"),
    Target("service.queue.transition",
           "repro.service.queue:DurableJobQueue.transition"),
    Target("service.fleet.dispatch",
           "repro.service.supervisor:WorkerFleet.dispatch", _dispatch_attrs),
    Target("service.fleet.poll", "repro.service.supervisor:WorkerFleet.poll"),
    Target("service.worker.run_job", "repro.service.supervisor:run_job",
           _run_job_attrs, run=_run_job_run),
    # workload: manifest, planning, submission, following
    Target("workload.load_manifest",
           "repro.workload.manifest:load_manifest"),
    Target("workload.plan", "repro.workload.manager:WorkloadManager.plan",
           _plan_attrs),
    Target("workload.submit_plan",
           "repro.workload.manager:WorkloadManager.submit_plan"),
    Target("workload.follow",
           "repro.workload.manager:WorkloadManager.follow"),
]

#: Layers whose self time is the ERI kernel (block assembly included).
KERNEL_LAYERS = ("integrals.eri", "integrals.hermite", "integrals.boys",
                 "core.quartets.block")
#: Layers whose self time is digestion: the six-way scatter, the FI/FJ
#: buffers and the Fock loop around them.
DIGEST_LAYERS = ("core.quartets.digest", "core.buffers.add",
                 "core.buffers.flush", "core.fock.build", "core.fock.rank")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER_UNITS: dict[str, str] = {
    "chem.basis_s": "s",
    "integrals.onee_s": "s",
    "integrals.onee_calls": "count",
    "integrals.schwarz_s": "s",
    "integrals.eri.self_s": "s",
    "integrals.eri.calls": "count",
    "integrals.eri.primitive_quartets": "count",
    "integrals.hermite.self_s": "s",
    "integrals.hermite.calls": "count",
    "integrals.boys.self_s": "s",
    "integrals.boys.calls": "count",
    "integrals.boys.points": "count",
    "core.quartets.block_self_s": "s",
    "core.quartets.blocks_evaluated": "count",
    "integrals.cache.hits": "count",
    "integrals.cache.misses": "count",
    "integrals.cache.hit_rate": "ratio",
    "integrals.cache.get_s": "s",
    "integrals.cache.bytes": "B",
    "core.quartets.digest_s": "s",
    "core.quartets.digest_calls": "count",
    "core.quartets.digest_bytes": "B",
    "core.buffers.add_s": "s",
    "core.buffers.flush_s": "s",
    "core.buffers.flushes": "count",
    "core.fock.build_s": "s",
    "core.fock.self_s": "s",
    "core.fock.builds": "count",
    "core.screening.kl_s": "s",
    "core.screening.quartets_computed": "count",
    "core.screening.quartets_screened": "count",
    "parallel.comm.gsumf_s": "s",
    "parallel.comm.reduce_bytes": "B",
    "parallel.scheduler.rank_imbalance": "ratio",
    "parallel.scheduler.thread_imbalance": "ratio",
    "scf.iterations": "count",
    "scf.diis_s": "s",
    "scf.diagonalize_s": "s",
    "perfsim.quartet_cost_rel_err": "ratio",
    "parallel.scheduler.work_estimate_rel_err": "ratio",
    "layers.kernel_frac": "ratio",
    "layers.digest_frac": "ratio",
    "obs.attributed_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
    "obs.spans": "count",
    "service.client.submit_p50_s": "s",
    "service.client.shed": "count",
    "workload.plan_s": "s",
    "workload.batches": "count",
    "service.queue.wait_p50_s": "s",
    "service.queue.wait_p90_s": "s",
    "service.worker.run_p50_s": "s",
    "service.worker.run_excess_p50_s": "s",
    "service.fleet.idle_frac": "ratio",
    "service.supervisor.warm_setups": "count",
    "service.supervisor.cold_setups": "count",
    "service.supervisor.eri_pool_hit_rate": "ratio",
    "service.retries": "count",
    "resilience.checkpoint_s": "s",
    "resilience.checkpoint_bytes": "B",
    "service.daemon.start_s": "s",
    "service.daemon.close_s": "s",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, min(len(ordered) - 1,
                              math.ceil(q / 100.0 * len(ordered)) - 1))]


def percentile_with_tail(values: list[float], tail: int = 10) -> float:
    """The highest nearest-rank percentile with ``tail`` samples beyond it.

    With fewer than ``tail + 1`` samples no such percentile exists and
    the median is returned.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) <= tail:
        return statistics.median(ordered)
    return ordered[len(ordered) - 1 - tail]


def _quartet_class(basis, q: tuple[int, int, int, int]):
    """Shell-class label and model work units of one composite quartet."""
    from repro.perfsim.cost_model import eri_quartet_units

    shells = [basis.composite_shells[x] for x in q]
    label = "".join(sh.stype for sh in shells)
    nf = [sh.nfunc for sh in shells]
    npr = [max(s.nprim for s in sh.subshells) for sh in shells]
    lm = [sh.max_l for sh in shells]
    units = eri_quartet_units(nf[0] * nf[1], npr[0] * npr[1], lm[0] + lm[1],
                              nf[2] * nf[3], npr[2] * npr[3], lm[2] + lm[3])
    return label, units


def _fitted_rel_err(pairs: list[tuple[float, float]]) -> float:
    """Relative L1 error of ``model * s`` against ``measured`` after one
    global least-squares scale ``s``: sum|s m - t| / sum t."""
    num = sum(m * t for m, t in pairs)
    den = sum(m * m for m, _ in pairs)
    total = sum(t for _, t in pairs)
    if den <= 0 or total <= 0:
        return 0.0
    scale = num / den
    return sum(abs(scale * m - t) for m, t in pairs) / total


def quartet_cost_rel_err(index: SpanIndex,
                         basis_of: Callable[[str], Any]) -> float:
    """Measured time per quartet shell class against the perfsim model.

    A quartet's measured time is its evaluated ``composite_block`` span
    (cache hits are skipped) plus the digestion span that follows it,
    which is what :func:`~repro.perfsim.cost_model.eri_quartet_units`
    models.  Per class the mean time is compared with the model's units
    after one global scale fit, weighted by the class's quartet count.
    """
    evaluated = {(s.pid, s.parent) for s in index.by_name.get("integrals.eri", ())}
    pending: dict[tuple, float] = {}
    per_class: dict[tuple[str, str], list] = {}
    events = sorted(index.by_name.get("core.quartets.block", [])
                    + index.by_name.get("core.quartets.digest", []),
                    key=lambda s: (s.pid, s.start))
    for s in events:
        if isinstance(s.attrs, dict):  # an error span
            continue
        q = tuple(s.attrs[:4])
        key = (s.pid, s.parent, q)
        if s.name == "core.quartets.block":
            if (s.pid, s.id) in evaluated:
                pending[key] = s.duration
            continue
        block = pending.pop(key, None)
        if block is None:
            continue
        label, units = _quartet_class(basis_of(s.run), q)
        entry = per_class.setdefault((s.run, label), [units, 0, 0.0])
        entry[1] += 1
        entry[2] += block + s.duration
    pairs = []
    for units, count, total in per_class.values():
        pairs.append((units * count, total))
    return _fitted_rel_err(pairs)


def work_estimate_rel_err(index: SpanIndex,
                          estimates_of: Callable[[str], Any]) -> float:
    """The builder's per-task work estimates against measured task time.

    ``estimates_of(run)`` returns ``(estimates, per_pair)`` or ``None``.
    A task's measured time is the summed ``composite_block`` and
    digestion spans of its bra pair ``(I, J)`` -- or of ``I`` when the
    builder's tasks are single shells -- within one run.
    """
    from repro.core.indexing import pair_index

    measured: dict[tuple[str, int], float] = defaultdict(float)
    for name in ("core.quartets.block", "core.quartets.digest"):
        for s in index.by_name.get(name, ()):
            found = estimates_of(s.run)
            if found is None:
                continue
            i, j = s.attrs[0], s.attrs[1]
            measured[(s.run, pair_index(i, j) if found[1] else i)] += s.duration
    pairs = [(float(estimates_of(run)[0][task]), t)
             for (run, task), t in measured.items()]
    return _fitted_rel_err(pairs)


def layer_metrics(index: SpanIndex, *, root_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (service metrics excluded).

    ``root_s`` is the time the layer fractions are taken of: the traced
    ``time_to_energy_s`` on the SCF workloads, the summed worker-side
    ``run_job`` time on the batch workload.
    """
    m: dict[str, float] = {}
    m["chem.basis_s"] = index.total("chem.basis")
    m["integrals.onee_s"] = index.total("integrals.onee")
    m["integrals.onee_calls"] = index.calls("integrals.onee")
    m["integrals.schwarz_s"] = index.total("integrals.schwarz")
    m["integrals.eri.self_s"] = index.self_total("integrals.eri")
    m["integrals.eri.calls"] = index.calls("integrals.eri")
    m["integrals.eri.primitive_quartets"] = index.attr_sum("integrals.eri")
    m["integrals.hermite.self_s"] = index.self_total("integrals.hermite")
    m["integrals.hermite.calls"] = index.calls("integrals.hermite")
    m["integrals.boys.self_s"] = index.self_total("integrals.boys")
    m["integrals.boys.calls"] = index.calls("integrals.boys")
    m["integrals.boys.points"] = index.attr_sum("integrals.boys")
    m["core.quartets.block_self_s"] = index.self_total("core.quartets.block")
    hits = index.attr_sum("integrals.cache.get")
    gets = index.calls("integrals.cache.get")
    m["core.quartets.blocks_evaluated"] = index.calls("core.quartets.block") - hits
    m["integrals.cache.hits"] = hits
    m["integrals.cache.misses"] = gets - hits
    m["integrals.cache.hit_rate"] = hits / gets if gets else 0.0
    m["integrals.cache.get_s"] = index.total("integrals.cache.get")
    m["integrals.cache.bytes"] = index.attr_sum("integrals.cache.put")
    m["core.quartets.digest_s"] = index.total("core.quartets.digest")
    m["core.quartets.digest_calls"] = index.calls("core.quartets.digest")
    m["core.quartets.digest_bytes"] = sum(
        s.attrs[4] for s in index.by_name.get("core.quartets.digest", ()))
    m["core.buffers.add_s"] = index.total("core.buffers.add")
    m["core.buffers.flush_s"] = index.total("core.buffers.flush")
    m["core.buffers.flushes"] = index.calls("core.buffers.flush")
    m["core.fock.build_s"] = index.total("core.fock.build")
    m["core.fock.self_s"] = index.self_total("core.fock.build", "core.fock.rank")
    m["core.fock.builds"] = index.calls("core.fock.build")
    m["core.screening.kl_s"] = index.total("core.screening.kl")
    m["core.screening.quartets_computed"] = index.attr_sum("core.fock.build", "computed")
    m["core.screening.quartets_screened"] = index.attr_sum("core.fock.build", "screened")
    m["parallel.comm.gsumf_s"] = index.total("parallel.comm.gsumf")
    m["parallel.comm.reduce_bytes"] = index.attr_sum("parallel.comm.gsumf", "bytes")
    builds = index.by_name.get("core.fock.build", [])
    m["parallel.scheduler.rank_imbalance"] = (
        statistics.fmean(s.attrs["rank_imbalance"] for s in builds) if builds else 1.0)
    m["parallel.scheduler.thread_imbalance"] = (
        statistics.fmean(s.attrs["thread_imbalance"] for s in builds) if builds else 1.0)
    m["scf.iterations"] = index.attr_sum("scf.run", "iterations")
    m["scf.diis_s"] = index.total("scf.diis")
    m["scf.diagonalize_s"] = index.total("scf.diagonalize")
    kernel = index.self_total(*KERNEL_LAYERS)
    digest = (index.self_total("core.quartets.digest", "core.buffers.add",
                               "core.buffers.flush")
              + m["core.fock.self_s"])
    root = root_s if root_s > 0 else math.inf
    m["layers.kernel_frac"] = kernel / root
    m["layers.digest_frac"] = digest / root
    m["obs.spans"] = len(index.spans)
    return m


#: Spans that only contain other layers; their self time is glue.
CONTAINER_LAYERS = ("scf.setup", "scf.run", "service.worker.run_job")

#: Per-layer counts that must repeat exactly for one seed.
DETERMINISTIC = (
    "integrals.onee_calls", "integrals.eri.calls",
    "integrals.eri.primitive_quartets", "integrals.hermite.calls",
    "integrals.boys.calls", "integrals.boys.points",
    "core.quartets.blocks_evaluated", "integrals.cache.hits",
    "integrals.cache.misses", "core.quartets.digest_calls",
    "core.buffers.flushes", "core.fock.builds",
    "core.screening.quartets_computed", "core.screening.quartets_screened",
    "scf.iterations", "workload.batches",
    "service.supervisor.warm_setups", "service.supervisor.cold_setups",
)


def deterministic_counts(metrics: dict[str, float]) -> dict[str, float]:
    return {k: metrics[k] for k in DETERMINISTIC if k in metrics}


def attributed(index: SpanIndex, pid: int | None = None) -> float:
    """Self time spent in named layers (container glue excluded)."""
    return sum(index.self_time(s) for s in index.spans
               if s.name not in CONTAINER_LAYERS
               and (pid is None or s.pid == pid))


def batch_model_errors(index: SpanIndex, spec_of: dict[str, Any]) -> dict[str, float]:
    """The two model-error metrics over the worker's jobs."""
    import numpy as np

    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.core.indexing import npairs
    from repro.core.scf_driver import make_fock_builder

    bases: dict[str, Any] = {}
    estimates: dict[tuple[str, str], Any] = {}

    def basis_of(run: str):
        spec = spec_of[run]
        key = spec.setup_key()
        if key not in bases:
            bases[key] = BasisSet(Molecule.from_xyz(spec.xyz), spec.basis)
        return bases[key]

    def estimates_of(run: str):
        spec = spec_of.get(run)
        if spec is None:
            return None
        key = (spec.setup_key(), spec.algorithm)
        if key not in estimates:
            basis = basis_of(run)
            builder = make_fock_builder(
                spec.algorithm, basis, np.zeros((basis.nbf, basis.nbf)),
                nranks=spec.nranks, nthreads=spec.nthreads)
            est = builder.work_estimates()
            estimates[key] = (None if est is None
                              else (est, len(est) == npairs(basis.nshells)))
        return estimates[key]

    return {
        "perfsim.quartet_cost_rel_err": quartet_cost_rel_err(index, basis_of),
        "parallel.scheduler.work_estimate_rel_err":
            work_estimate_rel_err(index, estimates_of),
    }


def service_metrics(index: SpanIndex, *, jobs: list[dict], wall_s: float,
                    retries: int, service_dir: Path) -> dict[str, float]:
    """Client, queue, worker, fleet and daemon metrics of a batch run."""
    pct = percentile
    done = [j for j in jobs if j["state"] == "done"]
    submits = index.by_name.get("service.client.submit", [])
    ok = [s.duration for s in submits if not (s.attrs or {}).get("error")]
    shed = sum(1 for s in submits
               if (s.attrs or {}).get("error") == "ServiceOverloaded")
    run_job: dict[str, float] = defaultdict(float)
    for s in index.by_name.get("service.worker.run_job", ()):
        run_job[s.run] += s.duration
    for s in index.by_name.get("resilience.checkpoint", ()):
        run_job[s.run] -= s.duration
    excess = [j["run_s"] - run_job[j["id"]] for j in done if j["id"] in run_job]
    busy = index.total("service.worker.run_job")
    hits = sum(j.get("eri_cache_hits") or 0 for j in done)
    misses = sum(j.get("eri_cache_misses") or 0 for j in done)
    return {
        "service.client.submit_p50_s": pct(ok, 50),
        "service.client.shed": shed,
        "workload.plan_s": index.total("workload.plan"),
        "workload.batches": index.attr_sum("workload.plan", "batches"),
        "service.queue.wait_p50_s": pct([j["queue_wait_s"] for j in done], 50),
        "service.queue.wait_p90_s": pct([j["queue_wait_s"] for j in done], 90),
        "service.worker.run_p50_s": pct([j["run_s"] for j in done], 50),
        "service.worker.run_excess_p50_s": pct(excess, 50),
        "service.fleet.idle_frac": 1.0 - busy / wall_s if wall_s > 0 else 0.0,
        "service.supervisor.warm_setups": sum(1 for j in done if j.get("warm_setup")),
        "service.supervisor.cold_setups": sum(1 for j in done if not j.get("warm_setup")),
        "service.supervisor.eri_pool_hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "service.retries": retries,
        "resilience.checkpoint_s": index.total("resilience.checkpoint"),
        "resilience.checkpoint_bytes": sum(
            p.stat().st_size for p in Path(service_dir).glob("jobs/*/*.npz")),
        "service.daemon.start_s": index.total("service.daemon.start"),
        "service.daemon.close_s": index.total("service.daemon.close"),
    }
