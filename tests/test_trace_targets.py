"""The benchmark's span recorder (perfbench/spans.py) wraps the layers'
entry points by lookup path; each path must still name a callable, or the
traced run loses the per-layer metrics that depend on it."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # _resolve only looks the target up; Recorder.install() would patch it
    missing = [path for path, _, _ in spans.TARGETS
               if spans._resolve(path) is None]
    assert missing == []
