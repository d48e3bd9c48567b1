"""Span recorder for the traced benchmark run.

A span has a name, a start and an end time, the id of the span that was
open when it started (its parent) and the run id.  Spans stay in memory
and are dumped when the study ends.

The recorder wraps the public entry point of each layer where its caller
looks it up (``biharmfem.solver.load_singular``, ``biharmfem.cli.run_study``,
...), so the program itself is unchanged.  An entry point that no longer
exists is reported by name as missing, and every metric that needs it is
reported missing too, never as zero.  A layer's self time is its spans'
durations minus the time covered by their child spans.
"""

import functools
import importlib
import inspect
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_now = time.perf_counter

# (lookup path, span name, after-hook); the path is "module:attribute" or
# "module:Class.method", resolved where the calling layer resolves it
TARGETS = (
    ("biharmfem.cli:run_study", "study.run_study", None),
    ("biharmfem.study:refine_uniform", "mesh.refine_uniform", None),
    ("biharmfem.fem:assemble_stiffness", "fem.assemble", None),
    ("biharmfem.fem:assemble_mass", "fem.assemble", None),
    ("biharmfem.fem:assemble_load", "fem.assemble", None),
    ("biharmfem.solver:LevelContext.solve_dirichlet", "fem.solve",
     "_after_dirichlet"),
    ("biharmfem.solver:LevelContext.solve_neumann", "fem.solve",
     "_after_neumann"),
    ("biharmfem.study:solve_naive", "solver.solve", "_after_solver"),
    ("biharmfem.study:solve_modified", "solver.solve", "_after_solver"),
    ("biharmfem.study:solve_modified_neumann", "solver.solve",
     "_after_solver"),
    ("biharmfem.solver:load_singular", "singular.load_singular",
     "_after_quadrature"),
    ("biharmfem.solver:load_chi_s", "singular.load_chi_s",
     "_after_quadrature"),
    ("biharmfem.solver:inner_chi_s_pair", "singular.pair",
     "_after_quadrature"),
    ("biharmfem.singular:SingularBasis.eval_chi_s", "singular.eval",
     "_after_eval"),
    ("biharmfem.singular:SingularBasis.eval_laplacian_chi_s",
     "singular.eval", "_after_eval"),
)

_QUADRATURE = ("singular.load_singular", "singular.load_chi_s",
               "singular.pair")
_ALL_SPANS = tuple(sorted({name for _, name, _ in TARGETS}))

# per-layer metric -> span names it is computed from; a self time also
# needs every span that can run beneath it, or it would absorb their time
METRIC_NEEDS = {
    "mesh.refine_s": ("mesh.refine_uniform",),
    "fem.assemble_s": ("fem.assemble",),
    "fem.first_solve_s": ("fem.solve",),
    "fem.solve_s": ("fem.solve",),
    "fem.solves": ("fem.solve",),
    "fem.residual_max": ("fem.solve",),
    "singular.load_singular_s": ("singular.load_singular", "singular.eval"),
    "singular.load_singular_calls": ("singular.load_singular",),
    "singular.load_chi_s_s": ("singular.load_chi_s", "singular.eval"),
    "singular.load_chi_s_calls": ("singular.load_chi_s",),
    "singular.pair_s": ("singular.pair", "singular.eval"),
    "singular.pair_calls": ("singular.pair",),
    "singular.eval_points": ("singular.eval",),
    "singular.eval_s": ("singular.eval",),
    "singular.unique_ratio": _QUADRATURE,
    "solver.self_s": ("solver.solve", "fem.assemble", "fem.solve")
    + _QUADRATURE + ("singular.eval",),
    "solver.gram_cond_max": ("solver.solve",),
    "solver.gram_residual_max": ("solver.solve",),
    "study.self_s": _ALL_SPANS,
    "cli.self_s": ("study.run_study",),
    "trace.wall_s": (),
}


def _resolve(path):
    """(owner, attribute, function) for a lookup path, or None if gone."""
    module_name, _, attr_path = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def _n_points(points):
    return int(np.shape(points)[0]) if np.ndim(points) == 2 else 1


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "attrs")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = _now()
        self.end = None
        self.attrs = None


class Recorder:
    """Collects spans for one study run; see the module docstring."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []
        self._seen_contexts = {}    # id(ctx) -> weakref, for first solves
        self._quadrature_keys = set()

    # -- recording --------------------------------------------------------

    def _open(self, name):
        span = Span(len(self.spans), name,
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        span.end = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name, fn, after):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if after is not None:
                # bookkeeping gets its own span so that it is not counted
                # in the caller's self time
                with self.span("trace"):
                    after(s, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target that exists; note the others as missing."""
        for path, name, hook in TARGETS:
            found = _resolve(path)
            if found is None:
                self.missing.append(path)
                continue
            owner, attr, fn = found
            after = getattr(self, hook) if hook else None
            setattr(owner, attr, self._wrap(name, fn, after))

    # -- after-hooks: run once the span has closed ------------------------

    def _first_solve(self, ctx):
        ref = self._seen_contexts.get(id(ctx))
        if ref is not None and ref() is ctx:
            return False
        self._seen_contexts[id(ctx)] = weakref.ref(ctx)
        return True

    def _after_dirichlet(self, span, args, x):
        ctx, rhs = args["self"], np.asarray(args["rhs"], dtype=float)
        free = ~np.asarray(ctx.mesh.dirichlet_nodes, dtype=bool)
        residual = (rhs - ctx.stiffness @ x)[free]
        self._record_solve(span, ctx, residual, rhs[free])

    def _after_neumann(self, span, args, x):
        ctx, rhs = args["self"], np.asarray(args["rhs"], dtype=float)
        rhs = rhs - rhs.mean()      # the solve works on the compatible part
        self._record_solve(span, ctx, rhs - ctx.stiffness @ x, rhs)

    def _record_solve(self, span, ctx, residual, rhs):
        norm = float(np.linalg.norm(rhs))
        span.attrs = {
            "first": self._first_solve(ctx),
            "residual": float(np.linalg.norm(residual)) / norm if norm else 0.0,
        }

    def _after_solver(self, span, args, result):
        diagnostics = getattr(result, "diagnostics", None) or {}
        gram = diagnostics.get("gram")
        if gram is not None:
            span.attrs = {
                "gram_cond": float(np.linalg.cond(gram)),
                "gram_residual": float(diagnostics.get("gram_residual", 0.0)),
            }

    def _after_quadrature(self, span, args, result):
        bases = [(float(b.beta), b.trig) for key, b in args.items()
                 if key.startswith("basis")]
        # the pair integrand is symmetric in its two bases
        key = (span.name, args["mesh"].level, tuple(sorted(bases)))
        span.attrs = {"distinct": key not in self._quadrature_keys}
        self._quadrature_keys.add(key)

    def _after_eval(self, span, args, result):
        span.attrs = {"points": _n_points(args["points"])}

    # -- output -----------------------------------------------------------

    def dump(self):
        """Spans as rows: id, name, parent, start, end, run id."""
        return [[s.id, s.name, s.parent, s.start, s.end, self.run_id]
                for s in self.spans]

    def summary(self):
        """Per-layer metrics of this run, and the ones that are missing."""
        covered = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        by_name = defaultdict(list)
        for s in self.spans:
            self_s[s.name] += s.end - s.start - covered[s.id]
            calls[s.name] += 1
            by_name[s.name].append(s)

        def attr_values(name, key):
            return [s.attrs[key] for s in by_name[name]
                    if s.attrs and key in s.attrs]

        solves = by_name["fem.solve"]
        first = sum(s.end - s.start - covered[s.id] for s in solves
                    if s.attrs and s.attrs["first"])
        per_function = {
            name: {"calls": calls[name],
                   "distinct": sum(1 for s in by_name[name]
                                   if s.attrs["distinct"])}
            for name in _QUADRATURE
        }
        quadrature_calls = sum(c["calls"] for c in per_function.values())
        distinct = sum(c["distinct"] for c in per_function.values())

        metrics = {
            "mesh.refine_s": self_s["mesh.refine_uniform"],
            "fem.assemble_s": self_s["fem.assemble"],
            "fem.first_solve_s": first,
            "fem.solve_s": self_s["fem.solve"] - first,
            "fem.solves": calls["fem.solve"],
            "fem.residual_max": max(attr_values("fem.solve", "residual"),
                                    default=0.0),
            "singular.load_singular_s": self_s["singular.load_singular"],
            "singular.load_singular_calls": calls["singular.load_singular"],
            "singular.load_chi_s_s": self_s["singular.load_chi_s"],
            "singular.load_chi_s_calls": calls["singular.load_chi_s"],
            "singular.pair_s": self_s["singular.pair"],
            "singular.pair_calls": calls["singular.pair"],
            "singular.eval_points": sum(attr_values("singular.eval",
                                                    "points")),
            "singular.eval_s": self_s["singular.eval"],
            # with no quadrature calls nothing is redundant
            "singular.unique_ratio": distinct / quadrature_calls
            if quadrature_calls else 1.0,
            "solver.self_s": self_s["solver.solve"],
            # 0 when no Gram system was solved (a condition number is >= 1)
            "solver.gram_cond_max": max(
                attr_values("solver.solve", "gram_cond"), default=0.0),
            "solver.gram_residual_max": max(
                attr_values("solver.solve", "gram_residual"), default=0.0),
            "study.self_s": self_s["study.run_study"],
            "cli.self_s": self_s["cli.main"],
            "trace.wall_s": sum(s.end - s.start for s in by_name["cli.main"]),
        }
        gone = {name for path, name, _ in TARGETS if path in self.missing}
        missing = sorted(m for m, needs in METRIC_NEEDS.items()
                         if gone.intersection(needs))
        for m in missing:
            del metrics[m]
        return {"metrics": metrics, "missing_metrics": missing,
                "missing_targets": list(self.missing),
                "quadrature_calls": per_function}
