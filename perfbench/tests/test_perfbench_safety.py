import pytest

from perfbench import chains, workloads
from vcsqse.config import load_config


def test_channel_on_eight_modes_is_rejected_before_any_call(tmp_path):
    [manifest] = chains.write_h4_chains(0, 1, tmp_path)
    [fcidump] = workloads.manifest_fixtures(manifest)
    draw = dict(workloads.point_draws(0)[0], fcidump=str(fcidump))
    cfg = workloads.point_config(draw)
    with pytest.raises(workloads.UnsafeInput):
        workloads.check_config(cfg)
    cfg.channel = None
    workloads.check_config(cfg)
    sweep = load_config(workloads.CONFIGS / "fig2_fidelity.cfg")
    sweep.sweep_manifest = str(manifest)
    with pytest.raises(workloads.UnsafeInput):
        workloads.check_config(sweep)


def test_every_workload_input_passes_the_guard(tmp_path):
    for name in workloads.WORKLOADS:
        job = workloads.build_job(name, 0, tmp_path / name)
        assert job["kind"] in ("sweep", "points")


def test_outputs_never_go_to_out(tmp_path):
    job = workloads.build_job("sweep_channels_m4", 0, tmp_path)
    calls = workloads.load_calls(job, tmp_path)
    assert [label for label, _, _ in calls] == list(
        workloads.SWEEP_CONFIGS["sweep_channels_m4"])
    for path in job["configs"]:
        cfg = workloads.redirect_output(load_config(path), tmp_path, "x")
        assert cfg.output == str((tmp_path / "x.csv").resolve())
        with pytest.raises(workloads.UnsafeInput):
            workloads.redirect_output(cfg, workloads.OUT, "x")
        with pytest.raises(workloads.UnsafeInput):
            workloads.redirect_output(cfg, workloads.OUT / "sub" / "..", "x")
