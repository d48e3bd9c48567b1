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

from .fem import LinearSolveOptions, SolveError
from .geometry import (BC_TYPES, BUILTIN_NAMES, DomainError, builtin_domain,
                       perp_dimension, read_domain_file)
from .mesh import MeshError, initial_mesh, refine_uniform
from .singular import CutoffSpec, QuadratureError
from .solver import CompatibilityError, LevelContext, SingularVertexError
from .sources import SOURCES, get_source
from .study import FORMULATIONS, StudyConfig, _run_formulation, run_study


def _add_domain_flags(p):
    p.add_argument("--domain", default="III",
                   help="built-in domain name (I..IV)")
    p.add_argument("--domain-file", default=None,
                   help="path to a domain file (overrides --domain/--bc)")
    p.add_argument("--bc", default="B1", choices=BC_TYPES,
                   help="boundary-condition pattern for built-in domains")


def _add_solver_flags(p):
    p.add_argument("--f", default="const1", choices=sorted(SOURCES),
                   help="source term")
    p.add_argument("--formulation", default="modified", choices=FORMULATIONS)
    p.add_argument("--cutoff-tau", type=float, default=0.125,
                   help="inner radius fraction of the cutoff (default 0.125)")
    p.add_argument("--cutoff-radius", type=float, default=1.8,
                   help="outer cutoff radius (default 1.8)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="linear solver relative residual (default 1e-10)")
    p.add_argument("--max-iterations", type=int, default=20000)
    p.add_argument("--preconditioner", default="incomplete-factorization",
                   choices=("none", "incomplete-factorization"))


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
                   help="levels at which to dump the solution field as VTK")

    p = sub.add_parser("solve", help="solve at a single refinement level")
    _add_domain_flags(p)
    _add_solver_flags(p)
    p.add_argument("--level", type=int, default=3)
    # study-only settings, so that a single solve shares the study config
    p.set_defaults(levels=2, compare=None, out=None, field_levels=[])

    p = sub.add_parser("mesh-info", help="mesh statistics and conformity check")
    _add_domain_flags(p)
    p.add_argument("--level", type=int, default=0)

    sub.add_parser("domains", help="list built-in domains")
    return parser


def _resolve_domain(args):
    if args.domain_file:
        return read_domain_file(args.domain_file)
    return builtin_domain(args.domain, args.bc)


def _mesh_at_level(domain, level):
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    mesh = initial_mesh(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def _config_from_args(args) -> StudyConfig:
    out_csv = None
    field_dir = None
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_csv = os.path.join(args.out, "study.csv")
        field_dir = args.out
    return StudyConfig(
        domain=args.domain_file or args.domain,
        bc_type=args.bc,
        formulation=args.formulation,
        source=args.f,
        max_level=args.levels,
        cutoff=CutoffSpec(tau=args.cutoff_tau, R=args.cutoff_radius),
        solver_options=LinearSolveOptions(
            tolerance=args.tol, max_iterations=args.max_iterations,
            preconditioner=args.preconditioner),
        compare_formulation=args.compare,
        csv_path=out_csv,
        field_levels=tuple(args.field_levels),
        field_dir=field_dir if args.field_levels else None,
    )


def _fmt(x):
    return "" if (isinstance(x, float) and math.isnan(x)) else f"{x:.6g}"


def _cmd_study(args) -> int:
    report = run_study(_config_from_args(args))
    t = report.table
    print(f"{'level':>5} {'nodes':>8} {'diff_u':>12} {'rate_u':>7} "
          f"{'diff_w':>12} {'rate_w':>7} {'c1':>12} {'c2':>12} {'linf':>12}")
    for j in range(len(t.nodes)):
        c = t.coefficients[j]
        print(f"{j:>5} {t.nodes[j]:>8} {_fmt(t.diff_u[j]):>12} "
              f"{_fmt(t.rate_u[j]):>7} {_fmt(t.diff_w[j]):>12} "
              f"{_fmt(t.rate_w[j]):>7} "
              f"{_fmt(float(c[0])) if len(c) > 0 else '':>12} "
              f"{_fmt(float(c[1])) if len(c) > 1 else '':>12} "
              f"{_fmt(t.linf_vs_other[j]):>12}")
    if report.config.csv_path:
        print(f"wrote {report.config.csv_path}")
    return 0


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
    domain = _resolve_domain(args)
    mesh = _mesh_at_level(domain, args.level)
    ctx = LevelContext(mesh, config.solver_options)
    res = _run_formulation(config.formulation, mesh, get_source(args.f),
                           config, ctx)
    d_perp, contributing = perp_dimension(domain)
    u, w = res.u_h, res.w_h
    print(f"domain {args.domain_file or args.domain} bc {args.bc} "
          f"level {args.level}: {mesh.n_nodes} nodes")
    print(f"d_perp = {d_perp}, contributing vertices = {contributing}")
    coeffs = np.asarray(getattr(res, "coefficients", np.zeros(0)))
    if len(coeffs):
        print("coefficients:", " ".join(f"{c:.8g}" for c in coeffs))
    print(f"max|u_h| = {np.max(np.abs(u)):.8g}, "
          f"max|w_h| = {np.max(np.abs(w)):.8g}")
    print(f"|u_h|_1 = {math.sqrt(max(u @ (ctx.stiffness @ u), 0.0)):.8g}")
    return 0


def _cmd_mesh_info(args) -> int:
    domain = _resolve_domain(args)
    mesh = _mesh_at_level(domain, args.level)
    mesh.check_conforming()
    print(f"level {mesh.level}: {mesh.n_nodes} nodes, "
          f"{mesh.n_triangles} triangles, "
          f"{len(mesh.boundary_edges)} boundary edges")
    print(f"area = {mesh.areas().sum():.12g}, "
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
    except (SolveError, CompatibilityError, SingularVertexError,
            QuadratureError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MeshError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
