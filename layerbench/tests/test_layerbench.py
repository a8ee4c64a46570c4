"""Tests of the benchmark itself: inputs, references and wrappers.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q layerbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import repro.core  # noqa: E402,F401  (before repro.scf: import order)

import inputs  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.SCF_CASES))
def test_same_seed_same_geometry(workload):
    assert inputs.scf_xyz(workload, 5) == inputs.scf_xyz(workload, 5)


def test_same_seed_same_manifest():
    assert inputs.batch_manifest(5) == inputs.batch_manifest(5)
    assert inputs.batch_manifest(5) != inputs.batch_manifest(6)


def test_manifest_shape():
    import json

    jobs = [json.loads(line) for line in inputs.batch_manifest(3).splitlines()]
    assert len(jobs) == inputs.BATCH_SYSTEMS * inputs.BATCH_JOBS_PER_SYSTEM
    systems = {(job["xyz"], job["basis"]) for job in jobs}
    assert len(systems) == inputs.BATCH_SYSTEMS
    assert {job["algorithm"] for job in jobs} == set(inputs.BATCH_ALGORITHMS)


def _geometry(xyz: str) -> str:
    """The atom lines (the comment line names the seed)."""
    return "\n".join(xyz.splitlines()[2:])


def test_other_seed_other_geometry_same_reference():
    xyz_a = inputs.scf_xyz("direct_scf", 1)
    xyz_b = inputs.scf_xyz("direct_scf", 2)
    assert _geometry(xyz_a) != _geometry(xyz_b)
    e_a = workloads.reference_energy(xyz_a, "6-31g(d)")
    e_b = workloads.reference_energy(xyz_b, "6-31g(d)")
    assert abs(e_a - e_b) < 1e-9


def test_half_turns_are_exact_rotations():
    import numpy as np

    for rot in inputs.HALF_TURNS:
        assert np.array_equal(rot @ rot.T, np.eye(3))
        assert np.linalg.det(rot) == pytest.approx(1.0)


def test_wrappers_record_and_restore(tmp_path):
    from repro.integrals import eri as eri_mod
    from repro.integrals import schwarz as schwarz_mod
    from repro.integrals.cache import QuartetCache

    original = eri_mod.eri_shell_quartet
    original_get = QuartetCache.__dict__["get"]
    tracer = spans.Tracer(layers.TARGETS, tmp_path)
    with tracer:
        assert eri_mod.eri_shell_quartet is not original
        # Imported by name elsewhere: patched there too.
        assert schwarz_mod.eri_shell_quartet is eri_mod.eri_shell_quartet
        with pytest.raises(RuntimeError):
            spans.assert_pristine()
        tracer.run_id = "probe"
        from repro.chem.molecule import water
        from repro.chem.basis import BasisSet
        from repro.integrals.schwarz import schwarz_matrix

        schwarz_matrix(BasisSet(water(), "sto-3g"))
    assert eri_mod.eri_shell_quartet is original
    assert schwarz_mod.eri_shell_quartet is original
    assert QuartetCache.__dict__["get"] is original_get
    spans.assert_pristine()

    index = spans.SpanIndex(tracer.spans)
    assert index.calls("chem.basis") == 1
    assert index.calls("integrals.schwarz") == 1
    assert index.calls("integrals.eri") > 0
    assert {s.run for s in tracer.spans} == {"probe"}
    schwarz = index.by_name["integrals.schwarz"][0]
    assert index.self_time(schwarz) < schwarz.end - schwarz.start


def test_remembered_computes_once_per_key(tmp_path):
    calls = []

    def compute():
        calls.append(1)
        return -1.5

    path = tmp_path / "refs.json"
    assert workloads.remembered(path, "a", compute) == -1.5
    assert workloads.remembered(path, "a", compute) == -1.5
    assert len(calls) == 1
    workloads.remembered(path, "b", compute)
    workloads.remembered(None, "a", compute)
    assert len(calls) == 3


def test_scf_repetitions_run_in_pinned_processes_that_end():
    import multiprocessing as mp
    import os

    from repro.chem.molecule import water

    case = inputs.ScfCase(atoms_per_layer=0, basis="sto-3g",
                          eri_cache_mb=None)
    results, problems = workloads._scf_repetitions(water().to_xyz(), case,
                                                   seconds=0.0)
    assert problems == []
    assert len(results) == min(workloads.SCF_PROCESSES,
                               len(os.sched_getaffinity(0)))
    energies = set()
    for reps, setups, peak in results:
        assert len(reps) >= workloads.MIN_REPS
        assert len(setups) == 1 + len(reps)
        assert peak > 0
        energies |= {round(r["energy"], 10) for r in reps}
    assert energies == {-74.942079954}
    assert mp.active_children() == []


def test_percentile_with_tail():
    values = [float(v) for v in range(1, 101)]
    assert layers.percentile_with_tail(values) == 90.0
    assert layers.percentile_with_tail([3.0, 1.0, 2.0]) == 2.0


def _call_boys():
    sys.modules["repro.integrals.boys"].boys(2, 0.5)


def test_forked_child_spans_are_collected(tmp_path):
    import multiprocessing as mp

    tracer = spans.Tracer(layers.TARGETS, tmp_path)
    with tracer:
        proc = mp.get_context("fork").Process(target=_call_boys)
        proc.start()
        proc.join(timeout=60)
    assert proc.exitcode == 0
    assert tracer.collect_children() == 1
    (span,) = tracer.spans
    assert span.name == "integrals.boys" and span.pid == proc.pid
    assert span.attrs == 1


def test_metric_names_match_benchmark_json():
    import json

    import run

    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
