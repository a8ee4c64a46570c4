"""Seeded inputs of the three workloads.

Everything the program receives is generated here from the benchmark's
``--seed``: XYZ text for the two SCF workloads and an NDJSON manifest
for the batch workload.  The same seed gives byte-identical text; the
program never sees the seed itself.

The SCF geometries are a fixed molecule moved by a seeded rigid motion
(rotation plus translation), which leaves the energy and the screening
counts unchanged, so every seed measures the same amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.constants import BOHR_TO_ANGSTROM


@dataclass(frozen=True)
class ScfCase:
    """One SCF workload: graphene size, basis and ERI-cache budget."""

    atoms_per_layer: int
    basis: str
    eri_cache_mb: float | None
    nranks: int = 2
    nthreads: int = 2
    algorithm: str = "shared-fock"


SCF_CASES: dict[str, ScfCase] = {
    # 30 basis functions, S/L/D shell classes, fully direct.
    "direct_scf": ScfCase(atoms_per_layer=1, basis="6-31g(d)",
                          eri_cache_mb=None),
    # 36 basis functions, 25 cycles, the CLI's default 64 MB cache.
    "cached_scf": ScfCase(atoms_per_layer=2, basis="6-31g",
                          eri_cache_mb=64.0),
}

#: (molecule, basis) families of the batch manifest.  Job sizes span
#: about 10x, from H2/6-31G to water/6-31G.
BATCH_FAMILIES: tuple[tuple[str, str], ...] = (
    ("h2", "6-31g"),
    ("water", "sto-3g"),
    ("methane", "sto-3g"),
    ("water", "6-31g"),
)
BATCH_SYSTEMS = 25
BATCH_JOBS_PER_SYSTEM = 4
BATCH_ALGORITHMS = ("mpi-only", "private-fock", "shared-fock")


#: The proper rotations that only negate coordinates: the identity and
#: the half-turns about the x, y and z axes.
HALF_TURNS = (
    np.diag([1.0, 1.0, 1.0]),
    np.diag([1.0, -1.0, -1.0]),
    np.diag([-1.0, 1.0, -1.0]),
    np.diag([-1.0, -1.0, 1.0]),
)


def half_turn(seed: int) -> np.ndarray:
    """The rigid motion of an SCF workload's geometry under ``seed``.

    Negating coordinates is exact in floating point, so every seed's
    SCF takes the same path: the same iterations, the same screened
    quartets and the same energy.  Any motion that rounds a coordinate
    -- a general rotation, or any translation, which the Angstrom to
    Bohr conversion rounds -- perturbs the SCF's convergence tail on
    these fixtures by up to 20% in iterations, which would make the
    work depend on the seed.
    """
    return HALF_TURNS[seed % len(HALF_TURNS)]


def format_xyz(symbols, coords_ang: np.ndarray, comment: str) -> str:
    """XYZ text with the same fixed-width layout as ``Molecule.to_xyz``."""
    lines = [str(len(symbols)), comment]
    for sym, (x, y, z) in zip(symbols, coords_ang):
        lines.append(f"{sym:<2s} {x:18.10f} {y:18.10f} {z:18.10f}")
    return "\n".join(lines) + "\n"


def _scaled_xyz(mol, rot: np.ndarray, comment: str,
                scale: float = 1.0) -> str:
    """``mol`` scaled about its centroid, then rotated by ``rot``."""
    coords = np.asarray(mol.coords, dtype=np.float64) * BOHR_TO_ANGSTROM
    centroid = coords.mean(axis=0)
    coords = centroid + scale * (coords - centroid)
    return format_xyz(mol.symbols, coords @ rot.T, comment)


def scf_xyz(workload: str, seed: int) -> str:
    """XYZ text of an SCF workload's bilayer graphene under ``seed``."""
    from repro.chem.graphene import bilayer_graphene

    mol = bilayer_graphene(SCF_CASES[workload].atoms_per_layer)
    return _scaled_xyz(mol, half_turn(seed), f"{workload} seed={seed}")


def _batch_molecule(kind: str):
    from repro.chem.molecule import hydrogen_molecule, methane, water

    return {"h2": hydrogen_molecule, "water": water,
            "methane": methane}[kind]()


def batch_manifest(seed: int) -> str:
    """NDJSON manifest of the batch workload under ``seed``.

    ``BATCH_SYSTEMS`` distinct systems: system ``k`` is family ``k % 4``
    scaled by ``0.96 + 0.02 * (k // 4)`` about its centroid, and gets
    ``BATCH_JOBS_PER_SYSTEM`` jobs over the three algorithms (its first
    job uses algorithm ``k % 3``).  The seed turns every system by its
    own half-turn and shuffles the repeats, which follow the first
    jobs interleaved, so only the batch planner's binning makes a
    system's jobs consecutive.  The work -- systems, algorithms, which
    job runs cold, the bin order -- is the same for every seed.
    """
    rng = np.random.default_rng([seed, 7])
    firsts, repeats = [], []
    for k in range(BATCH_SYSTEMS):
        kind, basis = BATCH_FAMILIES[k % len(BATCH_FAMILIES)]
        scale = 0.96 + 0.02 * (k // len(BATCH_FAMILIES))
        rot = HALF_TURNS[rng.integers(len(HALF_TURNS))]
        system = {
            "xyz": _scaled_xyz(_batch_molecule(kind), rot,
                               f"{kind} x{scale:.2f}", scale=scale),
            "basis": basis,
        }
        for r in range(BATCH_JOBS_PER_SYSTEM):
            algorithm = BATCH_ALGORITHMS[(k + r) % len(BATCH_ALGORITHMS)]
            job = {**system, "tag": f"{kind}-{basis}-{k:02d}-r{r}",
                   "algorithm": algorithm, "nranks": 2,
                   "nthreads": 1 if algorithm == "mpi-only" else 2}
            (repeats if r else firsts).append(job)
    jobs = firsts + [repeats[i] for i in rng.permutation(len(repeats))]
    return "".join(json.dumps(job, sort_keys=True) + "\n" for job in jobs)
