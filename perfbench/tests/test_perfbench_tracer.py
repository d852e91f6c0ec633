import json
import subprocess
import sys
import textwrap

import pytest

from perfbench import tracer, workloads

TOY = {
    "__init__.py": "from .inner import leaf\n",
    "inner.py": """
        import time

        def leaf():
            time.sleep(0.002)
            return 1

        def middle():
            time.sleep(0.001)
            return leaf() + leaf()
        """,
    "top.py": """
        from .inner import leaf, middle

        def top():
            return middle() + leaf()
        """,
}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    for name, text in TOY.items():
        (pkg / name).write_text(textwrap.dedent(text))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "toypkg"
    for key in [k for k in sys.modules if k == "toypkg" or k.startswith("toypkg.")]:
        del sys.modules[key]


def test_self_times_sum_to_root_span(toy):
    tr = tracer.Tracer(pass_id=7)
    layers = {"inner": ("leaf", "middle"), "top": ("top",)}
    assert tracer.install(tr, layers, package=toy) == ["inner.leaf", "inner.middle",
                                                       "top.top"]
    import toypkg.top
    assert toypkg.top.top() == 3
    calls, own, root = tracer.self_times(tr.spans)
    # leaf is bound in toypkg, toypkg.inner and toypkg.top: one span per call
    assert dict(calls) == {"top.top": 1, "inner.middle": 1, "inner.leaf": 3}
    [root_span] = [s for s in tr.spans if s[3] < 0]
    assert root_span[0] == "top.top"
    assert root == pytest.approx(root_span[2] - root_span[1], abs=1e-12)
    assert sum(own.values()) == pytest.approx(root, abs=1e-9)
    assert all(s[4] == 7 for s in tr.spans)
    assert own["inner.leaf"] >= 3 * 0.002


def test_errors_are_counted_and_reraised(toy):
    tr = tracer.Tracer()
    import toypkg.inner
    tracer.install(tr, {"inner": ("leaf",)}, package=toy)
    toypkg.inner.time = None          # make leaf() raise inside the span
    with pytest.raises(AttributeError):
        toypkg.inner.leaf()
    assert tr.errors["inner.leaf"] == 1 and not tr.stack


def test_traced_pass_of_the_package(tmp_path):
    """A traced single_point pass in a worker reports every per-layer metric."""
    job = {"kind": "points", "draws": workloads.point_draws(0)[:1], "points": [1],
           "out_dir": str(tmp_path), "trace": True, "pass_id": 0, "setup_only": False}
    (tmp_path / "job.json").write_text(json.dumps(job))
    subprocess.run([sys.executable, "-m", "perfbench.worker", str(tmp_path / "job.json"),
                    str(tmp_path / "result.json"), "0"], check=True, timeout=120,
                   cwd=workloads.ROOT)
    result = json.loads((tmp_path / "result.json").read_text())
    assert [u["error"] for u in result["units"]] == [None]
    metrics = tracer.pass_metrics(json.loads((tmp_path / "spans.json").read_text()))
    assert set(metrics) == set(tracer.metric_units()) - {"trace.overhead_frac"}
    assert metrics["experiments.single_point.calls"] == 1
    assert metrics["channels.lift_to_register.calls"] == 1
    assert metrics["channels.lift_to_register.distinct_frac"] == 1.0
    assert metrics["rdm.compute_rdms.calls"] == 0
    assert metrics["rdm.estimate_pauli.shots"] > 0
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_self == pytest.approx(result["units"][0]["seconds"], rel=0.05)
