"""Command-line front end: convergence studies, single solves, mesh
inspection, and the built-in domain catalogue.

Exit codes: 0 success, 1 domain or configuration error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .fem import SolveError
from .geometry import (BC_TYPES, BUILTIN_NAMES, DomainError, builtin_domain,
                       perp_dimension, resolve_domain)
from .mesh import MeshError
from .singular import CutoffSpec
from .solver import LevelContext, SingularVertexError
from .sources import SOURCES, get_source
from .study import (FORMULATIONS, StudyConfig, _run_formulation, format_row,
                    mesh_levels, run_study)


def _add_domain_flags(p):
    p.add_argument("--domain", default="III",
                   help="built-in domain name (I..IV), else a domain file")
    p.add_argument("--domain-file", default=None,
                   help="path to a domain file (overrides --domain/--bc)")
    p.add_argument("--bc", default="B1", choices=BC_TYPES,
                   help="boundary-condition pattern for built-in domains")


def _add_solver_flags(p):
    p.add_argument("--f", default="const1", choices=sorted(SOURCES),
                   help="source term")
    p.add_argument("--formulation", default="modified", choices=FORMULATIONS,
                   help="naive and modified accept every boundary "
                        "condition (the domain picks the Dirichlet or "
                        "mean-zero Poisson solve); neumann-modified is "
                        "modified on all-Neumann domains only")
    p.add_argument("--cutoff-tau", type=float, default=0.125,
                   help="inner radius fraction of the cutoff (default 0.125)")
    p.add_argument("--cutoff-radius", type=float, default=1.8, help="outer "
                   "cutoff radius, below the corner's clearance (default 1.8)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="normwise backward error every linear solve must "
                        "reach, |b - Ax|_inf <= tol*(|A|_inf |x|_inf + "
                        "|b|_inf) (default 1e-10)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biharmfem",
        description="Mixed P1 solver for the biharmonic equation with "
                    "corner singular-function correction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("study", help="multi-level convergence study")
    _add_domain_flags(p)
    _add_solver_flags(p)
    p.add_argument("--levels", type=int, default=6,
                   help="finest refinement level J (J >= 2)")
    p.add_argument("--compare", default=None, choices=FORMULATIONS,
                   help="second formulation for per-level max-norm gaps")
    p.add_argument("--out", default=None,
                   help="output directory for study.csv (and VTK dumps)")
    p.add_argument("--field-levels", type=int, nargs="*", default=[],
                   help="levels (0..LEVELS) at which to dump the solution "
                        "field as VTK into --out")

    p = sub.add_parser("solve", help="solve at a single refinement level")
    _add_domain_flags(p)
    _add_solver_flags(p)
    p.add_argument("--level", type=int, default=3)

    p = sub.add_parser("mesh-info", help="mesh statistics and conformity check")
    _add_domain_flags(p)
    p.add_argument("--level", type=int, default=0)

    sub.add_parser("domains", help="list built-in domains")
    return parser


def _config_from_args(args) -> StudyConfig:
    return StudyConfig(
        domain=args.domain,
        domain_file=args.domain_file,
        bc_type=args.bc,
        formulation=args.formulation,
        source=args.f,
        max_level=args.levels,
        cutoff=CutoffSpec(tau=args.cutoff_tau, R=args.cutoff_radius),
        tol=args.tol,
        compare_formulation=args.compare,
        out_dir=args.out,
        field_levels=tuple(args.field_levels),
    )


_HEADER = ("level", "nodes", "diff_u", "rate_u", "diff_w", "rate_w", "c1",
           "c2", "linf")
_WIDTHS = (5, 8, 12, 7, 12, 7, 12, 12, 12)


def _print_row(cells) -> None:
    print(" ".join(f"{c:>{w}}" for c, w in zip(cells, _WIDTHS)))


def _cmd_study(args) -> int:
    report = run_study(_config_from_args(args))
    _print_row(_HEADER)
    for row in report.table.rows():
        _print_row(format_row(row, lambda v: f"{v:.6g}"))
    if args.out:
        print(f"wrote {os.path.join(args.out, 'study.csv')}")
    return 0


def _cmd_solve(args) -> int:
    cutoff = CutoffSpec(tau=args.cutoff_tau, R=args.cutoff_radius)
    domain = resolve_domain(args.domain, args.bc, args.domain_file)
    mesh = mesh_levels(domain, args.level)[-1]
    ctx = LevelContext(mesh, args.tol)
    res = _run_formulation(args.formulation, ctx, get_source(args.f), cutoff)
    d_perp, contributing = perp_dimension(domain)
    u, w = res.u_h, res.w_h
    print(f"domain {args.domain_file or args.domain} bc {args.bc} "
          f"level {args.level}: {mesh.n_nodes} nodes")
    print(f"d_perp = {d_perp}, contributing vertices = {contributing}")
    if len(res.coefficients):
        print("coefficients:", " ".join(f"{c:.8g}" for c in res.coefficients))
    print(f"max|u_h| = {np.max(np.abs(u)):.8g}, "
          f"max|w_h| = {np.max(np.abs(w)):.8g}")
    print(f"|u_h|_1 = {math.sqrt(max(u @ (ctx.stiffness @ u), 0.0)):.8g}")
    return 0


def _cmd_mesh_info(args) -> int:
    domain = resolve_domain(args.domain, args.bc, args.domain_file)
    mesh = mesh_levels(domain, args.level)[-1]
    mesh.check_conforming()
    print(f"level {mesh.level}: {mesh.n_nodes} nodes, "
          f"{mesh.n_triangles} triangles, "
          f"{len(mesh.boundary_edges)} boundary edges")
    print(f"area = {mesh.areas.sum():.12g}, "
          f"max edge = {mesh.max_edge_length():.6g}")
    print(f"dirichlet nodes = {int(mesh.dirichlet_nodes.sum())}")
    print("conforming: yes")
    return 0


def _cmd_domains(_args) -> int:
    for name in BUILTIN_NAMES:
        for bc in BC_TYPES:
            try:
                dom = builtin_domain(name, bc)
            except DomainError as exc:
                print(f"{name:>3} {bc}: invalid ({exc})")
                continue
            d_perp, contributing = perp_dimension(dom)
            omega = max(dom.angles)
            print(f"{name:>3} {bc}: max angle = {omega / math.pi:.4g} pi, "
                  f"d_perp = {d_perp}, singular vertices = {contributing}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold into the config-error code
        # while keeping --help at 0
        return 0 if not exc.code else 1
    handlers = {
        "study": _cmd_study,
        "solve": _cmd_solve,
        "mesh-info": _cmd_mesh_info,
        "domains": _cmd_domains,
    }
    try:
        return handlers[args.command](args)
    except (SolveError, SingularVertexError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
