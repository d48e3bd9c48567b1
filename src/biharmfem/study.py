"""Multi-level convergence studies with Cauchy rates and report export.

Meshes are nested under uniform refinement, so the difference between
consecutive solutions is measured exactly by prolongating the coarse
solution to the fine mesh and taking the discrete H1 seminorm there.  The
Cauchy rate is

    R(j) = log2(|v_j - v_{j-1}|_1 / |v_{j+1} - v_j|_1).

Published error tables for these benchmark problems compare against an
independent high-resolution reference solution; that reference is out of
scope here, so reports instead record the nodal L-infinity discrepancy
between two formulations run on the same meshes (see README).
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .geometry import resolve_domain
from .mesh import (TriMesh, check_levels, initial_mesh, prolongate,
                   refine_uniform)
from .singular import CutoffSpec
from .solver import (LevelContext, solve_modified, solve_modified_neumann,
                     solve_naive)
from .sources import get_source

FORMULATIONS = ("naive", "modified", "modified-truncated", "neumann-modified")

CSV_COLUMNS = ("level", "nodes", "diff_h1_u", "rate_u", "diff_h1_w", "rate_w",
               "c1", "c2", "linf_vs_other")


@dataclass(frozen=True)
class StudyConfig:
    domain: str = "III"                 # built-in name, else a domain file path
    bc_type: str = "B1"
    formulation: str = "modified"
    source: str = "const1"
    max_level: int = 6
    cutoff: CutoffSpec = field(default_factory=CutoffSpec)
    tol: float = 1e-10                  # backward error of every solve
    compare_formulation: str | None = None
    out_dir: str | None = None          # study.csv and u_level<j>.vtk go here
    field_levels: tuple[int, ...] = ()
    domain_file: str | None = None      # always read as a file; overrides domain

    def __post_init__(self):
        if self.max_level < 2:
            raise ValueError("max_level must be at least 2 to compute a rate")
        if self.formulation not in FORMULATIONS:
            raise ValueError(f"unknown formulation {self.formulation!r}; "
                             f"choose from {FORMULATIONS}")
        if self.compare_formulation is not None \
                and self.compare_formulation not in FORMULATIONS:
            raise ValueError(
                f"unknown formulation {self.compare_formulation!r}")
        bad = [j for j in self.field_levels if not 0 <= j <= self.max_level]
        if bad:
            raise ValueError(f"field levels {bad} outside 0..{self.max_level}")
        if self.field_levels and not self.out_dir:
            raise ValueError("field levels need an output directory")


@dataclass
class RateTable:
    """Per-level study results.  Index 0 is refinement level 0; ``diff_*[j]``
    is the seminorm of the level-j minus level-(j-1) difference (nan at
    j=0) and ``rate_*[j]`` is R(j) (nan at j=0 and j=J)."""

    nodes: list[int]
    diff_u: list[float]
    rate_u: list[float]
    diff_w: list[float]
    rate_w: list[float]
    coefficients: list[np.ndarray]
    linf_vs_other: list[float]

    def rows(self):
        """Each level's cells in CSV_COLUMNS order: the level, the node
        count, then floats, with None for an empty cell (no value, or no
        second coefficient)."""
        for j, c in enumerate(self.coefficients):
            values = (self.diff_u[j], self.rate_u[j], self.diff_w[j],
                      self.rate_w[j], *c[:2], *[math.nan] * (2 - len(c)),
                      self.linf_vs_other[j])
            yield (j, self.nodes[j],
                   *(None if math.isnan(v) else float(v) for v in values))


@dataclass
class StudyReport:
    config: StudyConfig
    table: RateTable
    meshes: list[TriMesh]
    solutions: list
    other_solutions: list


def cauchy_rate(seminorms) -> list[float]:
    """R(j) = log2(d_j / d_{j+1}) for consecutive difference seminorms."""
    d = [float(v) for v in seminorms]
    if any(v <= 0 for v in d):
        raise ValueError("difference seminorms must be positive")
    return [math.log2(d[j] / d[j + 1]) for j in range(len(d) - 1)]


def _run_formulation(name: str, ctx: LevelContext, f, cutoff: CutoffSpec):
    if name == "naive":
        return solve_naive(ctx, f)
    if name == "modified":
        return solve_modified(ctx, f, cutoff)
    if name == "modified-truncated":
        return solve_modified(ctx, f, cutoff, truncate_basis=1)
    if name == "neumann-modified":
        return solve_modified_neumann(ctx, f, cutoff)
    raise ValueError(f"unknown formulation {name!r}")


def mesh_levels(domain, levels: int) -> list[TriMesh]:
    """The meshes of ``domain`` at refinement levels 0 to ``levels``: a
    negative level raises ``ValueError``, and one too deep to build raises
    ``MeshError`` (``check_levels``) before the first refinement."""
    if levels < 0:
        raise ValueError(f"level must be >= 0, got {levels}")
    meshes = [initial_mesh(domain)]
    check_levels(meshes[0], levels)
    for _ in range(levels):
        meshes.append(refine_uniform(meshes[-1]))
    return meshes


def run_study(config: StudyConfig) -> StudyReport:
    domain = resolve_domain(config.domain, config.bc_type, config.domain_file)
    f = get_source(config.source)
    meshes = mesh_levels(domain, config.max_level)

    # the singular loads are integrated once, on the finest mesh, and
    # restricted to the coarser ones; a coarse level's context, with its
    # factor, lives only through its own iteration
    finest = LevelContext(meshes[-1], config.tol)
    solutions, others = [], []
    nodes, diff_u, diff_w, coeffs, linfs = [], [], [], [], []
    for j, m in enumerate(meshes):
        ctx = finest if m is finest.mesh else LevelContext(m, config.tol, finest)
        res = _run_formulation(config.formulation, ctx, f, config.cutoff)
        solutions.append(res)
        nodes.append(m.n_nodes)
        coeffs.append(res.coefficients)
        if j == 0:
            diff_u.append(math.nan)
            diff_w.append(math.nan)
        else:
            A = ctx.stiffness
            prev = solutions[j - 1]
            diff_u.append(fem.h1_seminorm_diff(res.u_h, prolongate(m, prev.u_h), A))
            diff_w.append(fem.h1_seminorm_diff(res.w_h, prolongate(m, prev.w_h), A))
        if config.compare_formulation is not None:
            other = _run_formulation(config.compare_formulation, ctx, f,
                                     config.cutoff)
            others.append(other)
            linfs.append(fem.linf_diff(res.u_h, other.u_h))
        else:
            linfs.append(math.nan)

    def rates(diffs):   # none next to a 0 difference (no free node, zero f)
        out = [math.nan] * len(diffs)
        for j in range(1, len(diffs) - 1):
            if diffs[j] > 0 and diffs[j + 1] > 0:
                out[j] = cauchy_rate(diffs[j:j + 2])[0]
        return out

    table = RateTable(nodes, diff_u, rates(diff_u), diff_w, rates(diff_w),
                      coeffs, linfs)
    report = StudyReport(config, table, meshes, solutions, others)
    if config.out_dir:
        os.makedirs(config.out_dir, exist_ok=True)
        export_csv(report, os.path.join(config.out_dir, "study.csv"))
        for j in config.field_levels:
            export_field(solutions[j].u_h, meshes[j],
                         os.path.join(config.out_dir, f"u_level{j}.vtk"))
    return report


def format_row(row, fmt=repr) -> list[str]:
    """A ``RateTable.rows()`` row as text: level and node count as they
    are, an empty cell as "", every other value by ``fmt``."""
    j, nodes, *values = row
    return [str(j), str(nodes), *("" if v is None else fmt(v) for v in values)]


def _atomic_write(path: str, writer) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def export_csv(report: StudyReport, path: str) -> None:
    """Write the rate table; one row per level, atomic replace on success."""
    def write(fh):
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        w.writerows(format_row(row) for row in report.table.rows())

    _atomic_write(path, write)


def export_field(u_h: np.ndarray, mesh: TriMesh, path: str) -> None:
    """Dump the nodal field u as a legacy-VTK ASCII unstructured grid."""
    u_h = np.asarray(u_h, dtype=float)
    if len(u_h) != mesh.n_nodes:
        raise ValueError("field length does not match mesh")

    def write(fh):
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("nodal field\nASCII\nDATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_nodes} double\n")
        for x, y in mesh.nodes:
            fh.write(f"{float(x)!r} {float(y)!r} 0.0\n")
        nt = mesh.n_triangles
        fh.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"3 {a} {b} {c}\n")
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {mesh.n_nodes}\n")
        fh.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        for v in u_h:
            fh.write(f"{float(v)!r}\n")

    _atomic_write(path, write)
