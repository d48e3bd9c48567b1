"""The benchmark's span recorder (perfbench/spans.py) wraps the layers'
entry points by lookup path; each path must still name a callable, or the
traced run loses the per-layer metrics that depend on it.  Its after-hooks
read the wrapped call's arguments by name, so each hooked target must keep
the parameter names its hook reads."""

import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# hook -> check of the hooked target's parameter names, and what it reads
HOOK_PARAMETERS = {
    "_after_dirichlet": (lambda p: {"self", "rhs"} <= set(p), "self, rhs"),
    "_after_neumann": (lambda p: {"self", "rhs"} <= set(p), "self, rhs"),
    "_after_quadrature": (lambda p: "mesh" in p
                          and any(n.startswith("basis") for n in p),
                          "mesh, basis*"),
    "_after_eval": (lambda p: "points" in p, "points"),
    "_after_solver": (lambda p: True, "the result only"),
}


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    return spans


def test_every_trace_target_resolves(spans):
    # _resolve only looks the target up; Recorder.install() would patch it
    missing = [path for path, _, _ in spans.TARGETS
               if spans._resolve(path) is None]
    assert missing == []


def test_hooked_targets_keep_the_argument_names_their_hooks_read(spans):
    hooked = [(path, hook) for path, _, hook in spans.TARGETS if hook]
    assert {hook for _, hook in hooked} == set(HOOK_PARAMETERS)
    for path, hook in hooked:
        fn = spans._resolve(path)[2]
        params = list(inspect.signature(fn).parameters)
        check, reads = HOOK_PARAMETERS[hook]
        assert check(params), f"{path}{params}: {hook} reads {reads}"
