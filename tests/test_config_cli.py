import dataclasses
import re
import time

import numpy as np
import pytest

from fcidump_writer import render_fcidump
from vcsqse import experiments, operators, qse, vcs
from vcsqse.channels import DEFAULT_RATIOS, ChannelSpec
from vcsqse.cli import main
from vcsqse.config import (DEFAULT_SHOT_COUNT, DEFAULT_SHOT_SEED, ConfigError,
                           ExperimentConfig, config_to_text,
                           load_config, parse_config)
from vcsqse.experiments import run_experiment, single_point
from vcsqse.molecule import FcidumpError, MolecularIntegrals, load_sweep

MINI_MANIFEST = "mini.manifest"


@pytest.fixture
def mini_sweep(tmp_path, sweep_manifest):
    """Three-point manifest borrowing the real fixtures."""
    base = sweep_manifest.parent
    lines = ["# mini sweep"]
    for r in ("0.7000", "1.5000", "2.5000"):
        lines.append(f"{r} {base / f'h2_sto6g_r{r}.fcidump'}")
    mf = tmp_path / MINI_MANIFEST
    mf.write_text("\n".join(lines) + "\n")
    return mf


def run_spectrum(tmp_path, manifest_text):
    """Exit code of `vcsqse run` on a spectrum sweep over manifest_text."""
    (tmp_path / "sweep.manifest").write_text(manifest_text)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("[run]\nexperiment = spectrum\n"
                        f"sweep_manifest = {tmp_path / 'sweep.manifest'}\n")
    return main(["run", "--config", str(cfg_file)])


def config_text(mini_sweep, experiment="fidelity-sweep", extra=""):
    return (f"[run]\nexperiment = {experiment}\n"
            f"sweep_manifest = {mini_sweep}\n"
            "[channel]\nchannel = ap\ntp_over_t1 = 0.05\ntp_over_t2 = 0.05\n"
            + extra)


class TestConfig:
    def test_parse_minimal(self, mini_sweep):
        cfg = parse_config(config_text(mini_sweep))
        assert cfg.experiment == "fidelity-sweep"
        assert cfg.channel.kind == "amplitude_phase"
        assert cfg.metric_cutoff == 1e-8

    def test_unknown_experiment(self, mini_sweep):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(config_text(mini_sweep, experiment="banana"))

    def test_missing_manifest(self):
        with pytest.raises(ConfigError, match="sweep_manifest"):
            parse_config("[run]\nexperiment = spectrum\n")

    def test_bad_channel(self, mini_sweep):
        text = config_text(mini_sweep).replace("channel = ap", "channel = pink")
        with pytest.raises(ConfigError, match="channel"):
            parse_config(text)

    def test_penalties_parsed(self, mini_sweep):
        cfg = parse_config(config_text(
            mini_sweep, extra="[penalties]\ns_squared = 0.0 100.0\n"))
        assert cfg.penalties == [("s_squared", 0.0, 100.0)]

    def test_bad_penalty(self, mini_sweep):
        with pytest.raises(ConfigError, match="penalty"):
            parse_config(config_text(mini_sweep, extra="[penalties]\ns_squared = 1\n"))

    def test_round_trip_plan(self, mini_sweep):
        cfg = parse_config(config_text(
            mini_sweep,
            extra="[projection]\nname = number\ntarget = 2.0\nwindow = 0.5\n"
                  "[penalties]\nnumber = 2.0 10.0\n[shots]\ncount = 100\nseed = 3\n"))
        again = parse_config(config_to_text(cfg))
        assert again == cfg

    def test_single_point_needs_fcidump(self):
        with pytest.raises(ConfigError, match="fcidump"):
            ExperimentConfig(experiment="single-point").validate()


class TestExperiments:
    def test_fidelity_sweep_rows_and_determinism(self, mini_sweep):
        cfg = parse_config(config_text(mini_sweep))
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.header == ["R", "channel", "fidelity_vcs", "fidelity_novar",
                            "fidelity_vs_exact", "energy_vcs"]
        assert len(a.rows) == 9  # 3 channels x 3 points
        assert a.csv_text == b.csv_text

    def test_spectrum_experiment(self, mini_sweep):
        cfg = parse_config(config_text(
            mini_sweep, experiment="spectrum",
            extra="[projection]\nname = number\ntarget = 2.0\nwindow = 0.5\n"))
        result = run_experiment(cfg)
        qse = [r for r in result.rows if r[1] == "qse"]
        sector = [r for r in result.rows if r[1] == "fci_sector"]
        assert len(qse) == len(sector) == 18  # 6 levels x 3 points
        by_point = {}
        for r, _, level, energy in qse:
            by_point.setdefault(r, []).append(energy)
        for r, _, level, energy in sector:
            assert abs(sorted(by_point[r])[level] - energy) < 1e-8

    def test_m8_spectrum_diagonalizes_by_sector(self, tmp_path, monkeypatch):
        """FCI levels at M = 8 come from the N blocks, the largest C(8, 4) = 70."""
        rng = np.random.default_rng(21)
        h1 = rng.normal(size=(4, 4))
        g = rng.normal(size=(4,) * 4)
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            g = g + g.transpose(perm)
        ints = MolecularIntegrals(norb=4, nelec=4, ms2=0, core_energy=0.5,
                                  one_body=h1 + h1.T, two_body=0.05 * g)
        (tmp_path / "h4.fcidump").write_text(render_fcidump(ints))
        (tmp_path / "h4.manifest").write_text("1.0 h4.fcidump\n")
        cfg = parse_config("[run]\nexperiment = spectrum\n"
                           f"sweep_manifest = {tmp_path / 'h4.manifest'}\n")
        shapes = {"eigh": [], "eigvalsh": []}
        for name, calls in shapes.items():
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *args, real=real, calls=calls:
                                calls.append(a.shape) or real(a, *args))
        rows = run_experiment(cfg).rows
        monkeypatch.undo()
        assert max(shape[-1] for shape in shapes["eigh"]) <= 70
        assert shapes["eigvalsh"] == []
        h = operators.fermion_to_dense(experiments.assemble_hamiltonian(ints))
        sector = [b for b in range(256) if bin(b).count("1") == 4]
        want = np.linalg.eigvalsh(h[np.ix_(sector, sector)])
        got = [energy for _, method, _, energy in rows if method == "fci_sector"]
        assert np.abs(np.array(got) - want).max() < 1e-10
        full = [energy for _, method, _, energy in rows if method == "fci_full"]
        assert np.abs(np.array(full) - np.linalg.eigvalsh(h)).max() < 1e-10

    @staticmethod
    def spy_dense_builds(monkeypatch):
        """Record every fermion_to_dense call, with the symmetry cache cold."""
        built = []
        real = operators.fermion_to_dense
        for module in (experiments, operators):
            monkeypatch.setattr(module, "fermion_to_dense",
                                lambda op: built.append(op) or real(op))
        operators.dense_symmetry.cache_clear()
        return built

    def test_symmetry_matrices_built_once_per_sweep(self, mini_sweep, monkeypatch):
        built = self.spy_dense_builds(monkeypatch)
        cfg = parse_config(config_text(mini_sweep, experiment="spectrum"))
        run_experiment(cfg)
        assert len(built) == 3 + 2  # one Hamiltonian per point, N and S^2 once

    def test_channel_solves_share_the_symmetry_matrices(self, mini_sweep, monkeypatch):
        """3 points x 3 channels x 2 solves read N and S^2, built once."""
        built = self.spy_dense_builds(monkeypatch)
        run_experiment(parse_config(config_text(mini_sweep)))
        assert len(built) == 3 + 2
        assert not operators.dense_symmetry("number", 4).flags.writeable

    def test_expansion_basis_built_once_per_process(self, mini_sweep, monkeypatch):
        """Both RDM-route sweeps build the g + 16 a_i^ a_j of M = 4 once in
        all, one ladder-kernel call."""
        calls = []
        real = qse._ladder_action
        monkeypatch.setattr(qse, "_ladder_action",
                            lambda seqs, m: calls.append(len(seqs)) or real(seqs, m))
        qse.fermionic_basis.cache_clear()
        for experiment in ("spectrum", "approx-spectrum"):
            run_experiment(parse_config(config_text(mini_sweep, experiment=experiment)))
        assert calls == [17]
        assert qse.fermionic_basis(4, 1) is qse.fermionic_basis(4, 1)
        assert not qse.fermionic_basis(4, 1).src.flags.writeable

    @pytest.mark.parametrize("experiment,curves", [
        ("fidelity-sweep", 3), ("qse-repair", 2), ("ground-channels", 4)])
    def test_channel_built_once_per_curve(self, mini_sweep, monkeypatch,
                                          experiment, curves):
        lifts = []
        real = experiments.lift_to_register
        monkeypatch.setattr(experiments, "lift_to_register",
                            lambda ch, n: lifts.append(n) or real(ch, n))
        run_experiment(parse_config(config_text(mini_sweep, experiment=experiment)))
        assert lifts == [4] * curves

    def test_stacked_failure_names_its_sweep_point(self, mini_sweep, monkeypatch):
        """A point whose H fails the curve's stacked VCS solve is named by
        its own R, not by the first point of the stack."""
        real, built = experiments.fermion_to_dense, []

        def skewed_second(op):
            h = real(op).copy()
            built.append(h)
            if len(built) == 2:  # the points are built in ascending R
                h[0, 1] += 1.0
            return h

        monkeypatch.setattr(experiments, "fermion_to_dense", skewed_second)
        with pytest.raises(experiments.ExperimentError,
                           match=r"qse-repair: failure at sweep point R=1\.5: "
                                 "input is not Hermitian"):
            run_experiment(parse_config(config_text(mini_sweep, experiment="qse-repair")))

    def test_unphysical_sweep_channel_is_a_numerical_failure(self, mini_sweep):
        text = config_text(mini_sweep, experiment="qse-repair").replace(
            "tp_over_t2 = 0.05", "tp_over_t2 = 0.01")
        with pytest.raises(experiments.ExperimentError, match="R=0.7.*T2 <= 2 T1"):
            run_experiment(parse_config(text))

    def test_run_experiment_rejects_single_point(self, sto3g_path):
        cfg = ExperimentConfig(experiment="single-point",
                               fcidump=str(sto3g_path))
        with pytest.raises(ConfigError, match="single-point"):
            run_experiment(cfg)

    def test_single_point_report(self, sto3g_path):
        cfg = ExperimentConfig(experiment="single-point", fcidump=str(sto3g_path),
                               shots=(500, 7))
        report = single_point(cfg)
        assert "fci ground (N=2 sector): -1.13727017483" in report
        assert "retained_dim" in report
        assert "sampled ground energy" in report

    def test_output_written(self, mini_sweep, tmp_path):
        cfg = parse_config(config_text(mini_sweep))
        cfg.output = str(tmp_path / "out.csv")
        result = run_experiment(cfg)
        assert (tmp_path / "out.csv").read_text() == result.csv_text


@pytest.mark.parametrize("name", ["fig2_fidelity", "fig3_spectrum", "fig4_repair",
                                  "ground_channels", "zero_approx"])
def test_shipped_csv_reproduces_byte_for_byte(configs_dir, name):
    """Each shipped config rewrites its tracked out/*.csv exactly."""
    cfg = load_config(configs_dir / f"{name}.cfg")
    cfg.output = None
    golden = (configs_dir.parent / "out" / f"{name}.csv").read_bytes()
    assert run_experiment(cfg).csv_text.encode() == golden


@pytest.mark.parametrize("name, calls", [
    ("fig2_fidelity", 28 * 3), ("fig4_repair", 28), ("ground_channels", 28 * 4)])
def test_one_eigensolve_per_vcs_solve(configs_dir, monkeypatch, name, calls):
    """Only VCS solves diagonalize: the no-variation curves take each point's
    exact ground state, so fig2 solves once per channel and point and fig4's
    novar curve not at all. Each curve's 28 points are one stacked eigh."""
    shapes = []
    real = vcs.hermitian_eigensolve
    monkeypatch.setattr(vcs, "hermitian_eigensolve",
                        lambda a: shapes.append(a.shape) or real(a))
    cfg = load_config(configs_dir / f"{name}.cfg")
    cfg.output = None
    run_experiment(cfg)
    assert shapes == [(28, 16, 16)] * (calls // 28)


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "vcsqse" in capsys.readouterr().out

    def test_validate_config(self, mini_sweep, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(config_text(mini_sweep))
        assert main(["run", "--config", str(cfg_file), "--validate-config"]) == 0
        out = capsys.readouterr().out
        assert "fidelity-sweep" in out

    def test_run_writes_csv(self, mini_sweep, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(config_text(mini_sweep))
        out_file = tmp_path / "result.csv"
        assert main(["run", "--config", str(cfg_file),
                     "--output", str(out_file)]) == 0
        assert out_file.exists()
        assert "rows" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("[run]\nexperiment = nope\n")
        assert main(["run", "--config", str(cfg_file)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["run", "--config", "/does/not/exist.cfg"]) == 2

    def test_point_command(self, sto3g_path, capsys):
        code = main(["point", "--fcidump", str(sto3g_path),
                     "--channel", "ap", "--tp-over-t1", "0.05",
                     "--tp-over-t2", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "vcs energy" in out
        assert "retained_dim" in out

    def test_channel_ratios_default_alike_in_config_and_cli(self, sto3g_path,
                                                            tmp_path, capsys):
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text("[run]\nexperiment = single-point\n"
                            f"fcidump = {sto3g_path}\n[channel]\nchannel = ap\n")
        assert load_config(cfg_file).channel == ChannelSpec("amplitude_phase",
                                                            *DEFAULT_RATIOS)
        assert main(["run", "--config", str(cfg_file)]) == 0
        from_config = capsys.readouterr().out
        assert main(["point", "--fcidump", str(sto3g_path), "--channel", "ap"]) == 0
        assert capsys.readouterr().out == from_config
        assert "channel: amplitude_phase tp/t1=0.05 tp/t2=0.05" in from_config

    def test_shot_defaults_alike_in_config_and_cli(self, sto3g_path, tmp_path, capsys):
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text("[run]\nexperiment = single-point\n"
                            f"fcidump = {sto3g_path}\n[shots]\nsampled_rdms = true\n")
        assert load_config(cfg_file).shots == (DEFAULT_SHOT_COUNT, DEFAULT_SHOT_SEED)
        assert main(["run", "--config", str(cfg_file)]) == 0
        from_config = capsys.readouterr().out
        assert main(["point", "--fcidump", str(sto3g_path), "--sampled-rdms"]) == 0
        assert capsys.readouterr().out == from_config
        assert (f"({DEFAULT_SHOT_COUNT} shots/word, seed {DEFAULT_SHOT_SEED})"
                in from_config)

    def test_point_missing_fixture_exits_2(self, capsys):
        assert main(["point", "--fcidump", "/missing.fcidump"]) == 2

    def test_point_negative_seed_exits_2(self, sto3g_path, capsys):
        # per-word generators are seeded with (seed, word index)
        assert main(["point", "--fcidump", str(sto3g_path),
                     "--shots", "10", "--seed", "-1"]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--sampled-rdms"]])
    def test_point_zero_shots_exits_2(self, sto3g_path, capsys, extra):
        assert main(["point", "--fcidump", str(sto3g_path), "--shots", "0"] + extra) == 2
        assert "shots count must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section, flags, field", [
        ("metric_cutoff = nan\n", ["--metric-cutoff", "nan"], "metric_cutoff"),
        ("[penalties]\ns_squared = nan 100\n", ["--penalty", "s_squared", "nan", "100"],
         "penalty target for s_squared"),
        ("[penalties]\ns_squared = inf 100\n", ["--penalty", "s_squared", "inf", "100"],
         "penalty target for s_squared"),
        ("[penalties]\ns_squared = 0 nan\n", ["--penalty", "s_squared", "0", "nan"],
         "penalty weight for s_squared"),
        ("[penalties]\ns_squared = 0 inf\n", ["--penalty", "s_squared", "0", "inf"],
         "penalty weight for s_squared"),
        ("[projection]\nname = number\ntarget = nan\nwindow = 0.5\n",
         ["--project", "number", "nan", "0.5"], "projection target"),
        ("[projection]\nname = number\ntarget = 2\nwindow = nan\n",
         ["--project", "number", "2", "nan"], "projection window"),
        ("[projection]\nname = number\ntarget = 2\nwindow = -0.5\n",
         ["--project", "number", "2", "-0.5"], "projection window"),
    ], ids=["cutoff-nan", "target-nan", "target-inf", "weight-nan", "weight-inf",
            "projection-target-nan", "window-nan", "window-negative"])
    def test_non_finite_setting_exits_2(self, sto3g_path, tmp_path, capsys,
                                        section, flags, field):
        cfg_file = tmp_path / "point.cfg"
        cfg_file.write_text("[run]\nexperiment = single-point\n"
                            f"fcidump = {sto3g_path}\n" + section)
        assert main(["run", "--config", str(cfg_file)]) == 2
        assert field in capsys.readouterr().err
        assert main(["point", "--fcidump", str(sto3g_path)] + flags) == 2
        assert field in capsys.readouterr().err

    def test_point_with_projection_and_penalty(self, sto3g_path, capsys):
        code = main(["point", "--fcidump", str(sto3g_path),
                     "--penalty", "number", "2", "10",
                     "--project", "number", "2", "0.5"])
        assert code == 0
        assert "retained_dim" in capsys.readouterr().out

    def test_point_numerical_failure_exits_3(self, sto3g_path, capsys):
        # no subspace state has <N> near 7 in a four-mode register
        assert main(["point", "--fcidump", str(sto3g_path),
                     "--project", "number", "7", "0.1"]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and sto3g_path.name in err

    def test_run_missing_fixture_exits_2(self, tmp_path, capsys):
        assert run_spectrum(tmp_path, "0.7 gone.fcidump\n") == 2
        assert "no such fixture" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, line, message", [
        ("0.7 {f}\n0.7 {f}\n", 2, "duplicate bond_length 0.7"),
        ("0.7 {f} 1.0\n", 1, "expected `bond_length path`"),
        ("# header\nabc {f}\n", 2, "bond_length 'abc' is not a number"),
        ("-0.7 {f}\n", 1, "bond_length -0.7 is not positive and finite"),
    ], ids=["duplicate", "field_count", "not_a_number", "negative"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, sto3g_path,
                                        lines, line, message):
        assert run_spectrum(tmp_path, lines.format(f=sto3g_path)) == 2
        err = capsys.readouterr().err
        assert f"config error: {tmp_path / 'sweep.manifest'}:{line}: {message}" in err

    def test_malformed_fixture_in_manifest_names_it(self, tmp_path, capsys, sto3g_path):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("&FCI NORB=2,NELEC=2,\n&END\n")
        assert run_spectrum(tmp_path, f"0.7 {sto3g_path}\n1.0 bad.fcidump\n") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'sweep.manifest'}:2: fixture {bad.resolve()}: " in err
        assert "missing header key MS2" in err

    @pytest.mark.parametrize("args, limit", [
        (["--channel", "ap"], "FERMIONIC_MODE_LIMIT=8 for a fermionic subspace"),
        (["--kind", "qubit", "--sampled-rdms"], "RDM_MODE_LIMIT=8 for sampled RDMs")])
    def test_oversized_subspace_exits_2_before_building(self, tmp_path, capsys, args,
                                                          limit):
        """NORB = 5 (M = 10) is refused from the header, before H is built."""
        h1 = np.random.default_rng(5).normal(size=(5, 5))
        big = tmp_path / "norb5.fcidump"
        big.write_text(render_fcidump(MolecularIntegrals(
            5, 2, 0, 0.0, h1 + h1.T, np.zeros((5, 5, 5, 5)))))
        start = time.perf_counter()
        assert main(["point", "--fcidump", str(big), *args]) == 2
        assert time.perf_counter() - start < 1.0
        assert (f"config error: {big}: NORB=5 gives 10 spin orbitals, above {limit}"
                in capsys.readouterr().err)

    def test_oversized_fcidump_exits_2(self, tmp_path, capsys):
        big = tmp_path / "norb7.fcidump"
        big.write_text(render_fcidump(MolecularIntegrals(
            7, 2, 0, 0.0, -np.eye(7), np.zeros((7, 7, 7, 7)))))
        message = "NORB=7 gives 14 spin orbitals, above the dense limit of 12"
        assert main(["point", "--fcidump", str(big)]) == 2
        assert f"config error: {big}: {message}" in capsys.readouterr().err
        assert run_spectrum(tmp_path, f"0.7 {big}\n") == 2
        assert (f"config error: {tmp_path / 'sweep.manifest'}:1: fixture {big}: "
                f"{message}") in capsys.readouterr().err

    @pytest.mark.parametrize("norb", [0, -1])
    def test_norb_below_one_exits_2(self, tmp_path, capsys, norb):
        bad = tmp_path / "empty.fcidump"
        bad.write_text(f"&FCI NORB={norb},NELEC=2,MS2=0,\n&END\n0.5 1 1 1 1\n")
        assert main(["point", "--fcidump", str(bad)]) == 2
        assert (f"config error: {bad}: NORB={norb}: a system needs at least one "
                "orbital") in capsys.readouterr().err

    @pytest.mark.parametrize("nelec", [5, -1])
    def test_nelec_outside_the_register_exits_2(self, tmp_path, capsys, sto3g_ints, nelec):
        """NELEC outside 0..2 NORB is bad input, not a numerical failure."""
        bad = tmp_path / "nelec.fcidump"
        bad.write_text(render_fcidump(dataclasses.replace(sto3g_ints, nelec=nelec)))
        message = f"NELEC={nelec} outside 0..4 for NORB=2"
        assert main(["point", "--fcidump", str(bad)]) == 2
        assert f"config error: {bad}: {message}" in capsys.readouterr().err
        (tmp_path / "sweep.manifest").write_text(f"0.7 {bad}\n")
        with pytest.raises(FcidumpError, match=re.escape(
                f"{tmp_path / 'sweep.manifest'}:1: fixture {bad}: {message}")):
            load_sweep(tmp_path / "sweep.manifest")

    @pytest.mark.parametrize("nelec, ms2", [(2, 5), (3, 0), (2, 4)])
    def test_impossible_ms2_exits_2(self, tmp_path, capsys, sto3g_ints, nelec, ms2):
        """NELEC + MS2 must be even with both spin occupations in 0..NORB."""
        bad = tmp_path / "ms2.fcidump"
        bad.write_text(render_fcidump(dataclasses.replace(sto3g_ints, nelec=nelec, ms2=ms2)))
        assert main(["point", "--fcidump", str(bad)]) == 2
        assert (f"config error: {bad}: NELEC={nelec} and MS2={ms2} give no alpha and "
                "beta occupations within NORB=2") in capsys.readouterr().err

    def test_malformed_fcidump_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.fcidump"
        bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n0.5 1 1 0\n")
        assert main(["point", "--fcidump", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err
        (tmp_path / "sweep.manifest").write_text("0.7 bad.fcidump\n")
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("[run]\nexperiment = spectrum\n"
                            f"sweep_manifest = {tmp_path / 'sweep.manifest'}\n")
        assert main(["run", "--config", str(cfg_file)]) == 2
        cfg_file.write_text(f"[run]\nexperiment = single-point\nfcidump = {bad}\n")
        assert main(["run", "--config", str(cfg_file)]) == 2
        assert capsys.readouterr().err.count("config error") == 2

    def test_non_utf8_fcidump_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "utf16.fcidump"
        bad.write_bytes(b"\xff\xfe" + "&FCI NORB=1,NELEC=1,MS2=1,\n&END\n".encode("utf-16-le"))
        assert main(["point", "--fcidump", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(bad) in err and "utf-8" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_fcidump_value_exits_2(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.fcidump"
        bad.write_text(f"&FCI NORB=1,NELEC=1,MS2=1,\n&END\n{value} 1 1 0 0\n")
        assert main(["point", "--fcidump", str(bad)]) == 2
        assert f"{bad}: line 3: value {value} is not finite" in capsys.readouterr().err
