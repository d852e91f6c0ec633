import dataclasses
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

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


def write_m8_sweep(tmp_path, seed=21, count=1):
    """Seeded random NORB = 4 integrals (M = 8) at R = 1, 2, ..., count, drawn
    in that order, and a manifest of them; returns the first and the manifest."""
    rng, lines, first = np.random.default_rng(seed), [], None
    for k in range(1, count + 1):
        h1 = rng.normal(size=(4, 4))
        g = rng.normal(size=(4,) * 4)
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            g = g + g.transpose(perm)
        ints = MolecularIntegrals(norb=4, nelec=4, ms2=0, core_energy=0.5,
                                  one_body=h1 + h1.T, two_body=0.05 * g)
        name = "h4.fcidump" if k == 1 else f"h4_{k}.fcidump"
        (tmp_path / name).write_text(render_fcidump(ints))
        lines.append(f"{float(k)} {name}\n")
        first = first or ints
    (tmp_path / "h4.manifest").write_text("".join(lines))
    return first, tmp_path / "h4.manifest"


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
        """FCI levels at M = 8 come from the N blocks, the largest C(8, 4) = 70.
        The point is a chunk of one, whose qse levels are bit for bit those of
        the public lone build and solve around the same ground state."""
        ints, manifest = write_m8_sweep(tmp_path)
        cfg = parse_config(f"[run]\nexperiment = spectrum\nsweep_manifest = {manifest}\n")
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
        levels = [energy for _, method, _, energy in rows if method == "qse"]
        assert abs(levels[0] - want[0]) < 1e-10  # the identity is in the basis
        point, = experiments._solve_exact(experiments._Run([(1.0, ints)]))
        lone = qse.solve_subspace(qse.build_subspace_direct(
            qse.fermionic_basis(8, 1), point.h_dense, point.exact[1][:, 0],
            point.symmetry_dense), cfg.metric_cutoff)
        assert levels == lone.eigenvalues.tolist()

    @staticmethod
    def spy_dense_builds(monkeypatch):
        """Record the size of every stacked Hamiltonian build and every
        fermion_to_dense call, with the symmetry cache cold."""
        stacks, built = [], []
        real_stack, real = experiments.dense_hamiltonians, operators.fermion_to_dense
        monkeypatch.setattr(experiments, "dense_hamiltonians",
                            lambda ints: stacks.append(len(ints)) or real_stack(ints))
        monkeypatch.setattr(operators, "fermion_to_dense",
                            lambda op: built.append(op) or real(op))
        operators.dense_symmetry.cache_clear()
        return stacks, built

    def test_symmetry_matrices_built_once_per_sweep(self, mini_sweep, monkeypatch):
        stacks, built = self.spy_dense_builds(monkeypatch)
        cfg = parse_config(config_text(mini_sweep, experiment="spectrum"))
        run_experiment(cfg)
        assert stacks == [3]  # the run's three Hamiltonians as one stack
        assert len(built) == 2  # N and S^2 once

    def test_channel_solves_share_the_symmetry_matrices(self, mini_sweep, monkeypatch):
        """3 points x 3 channels x 2 solves read N and S^2, built once."""
        stacks, built = self.spy_dense_builds(monkeypatch)
        run_experiment(parse_config(config_text(mini_sweep)))
        assert stacks == [3]
        assert len(built) == 2
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

    @staticmethod
    def skew_second_point(monkeypatch, entry):
        """Add 1 to H[entry] of member 1 of the run's stacked build (points
        are built in ascending R)."""
        real = experiments.dense_hamiltonians

        def skewed_second(ints):
            hs = real(ints)
            hs[1][entry] += 1.0
            return hs

        monkeypatch.setattr(experiments, "dense_hamiltonians", skewed_second)

    def test_stacked_failure_names_its_sweep_point(self, mini_sweep, monkeypatch):
        """A point whose H fails the curve's stacked VCS solve is named by
        its own R, not by the first point of the stack. The skew stays in
        the N = 1 sector, so the FCI pass before the solve accepts it."""
        self.skew_second_point(monkeypatch, (1, 2))
        with pytest.raises(experiments.ExperimentError,
                           match=r"qse-repair: failure at sweep point R=1\.5: "
                                 "input is not Hermitian"):
            run_experiment(parse_config(config_text(mini_sweep, experiment="qse-repair")))

    def test_sector_coupling_names_its_sweep_point(self, mini_sweep, monkeypatch):
        """An entry between the N = 0 and N = 1 sectors fails the run's
        stacked FCI pass, before any curve is solved, naming its own R."""
        self.skew_second_point(monkeypatch, (0, 1))
        with pytest.raises(experiments.ExperimentError,
                           match=r"qse-repair: failure at sweep point R=1\.5: "
                                 "matrix has nonzero entries between sectors"):
            run_experiment(parse_config(config_text(mini_sweep, experiment="qse-repair")))

    def test_empty_projection_window_names_its_sweep_point(self, mini_sweep, monkeypatch):
        """The middle point's VCS input replaced by |0001>, one electron, so
        every state of its subspace has <S^2> = 3/4 and the default window
        0 +- 0.5 is empty there: the stacked projection names R = 1.5."""
        real = experiments.solve_vcs

        def doublet_second(hs, ch, **kwargs):
            sols = real(hs, ch, **kwargs)
            state = np.zeros_like(sols[1].input_state)
            state[1] = 1.0
            sols[1] = dataclasses.replace(sols[1], input_state=state)
            return sols

        monkeypatch.setattr(experiments, "solve_vcs", doublet_second)
        with pytest.raises(experiments.ExperimentError,
                           match=r"qse-repair: failure at sweep point R=1\.5: no subspace "
                                 r"states with <s_squared> within 0\.5 of 0\.0"):
            run_experiment(parse_config(config_text(mini_sweep, experiment="qse-repair")))

    def test_empty_number_window_names_its_sweep_point(self, mini_sweep, monkeypatch):
        """The middle point's exact ground state replaced by |0001>, one
        electron, so every state of its spectrum subspace has <N> = 1 and the
        window 2 +- 0.5 is empty there: fig3's stacked projection names R = 1.5."""
        real = experiments._sector_eigh

        def doublet_second(hs, labels):
            w, v, n = real(hs, labels)
            v = v.copy()
            v[1, :, 0] = np.eye(v.shape[-1])[1]
            return w, v, n

        monkeypatch.setattr(experiments, "_sector_eigh", doublet_second)
        text = (f"[run]\nexperiment = spectrum\nsweep_manifest = {mini_sweep}\n"
                "[projection]\nname = number\ntarget = 2.0\nwindow = 0.5\n")
        with pytest.raises(experiments.ExperimentError,
                           match=r"spectrum: failure at sweep point R=1\.5: no subspace "
                                 r"states with <number> within 0\.5 of 2\.0"):
            run_experiment(parse_config(text))

    @pytest.mark.parametrize("chunk, member", [(0, 1), (2, 2),
                                               pytest.param(None, 16, id="one_stack-16")])
    def test_approx_failure_names_its_point_and_method(self, configs_dir, monkeypatch,
                                                       chunk, member):
        """A NaN in one point's ZA matrix fails the chunk's joint solve of its
        exact, ZC and ZA problems, which names that point's R and the method:
        member `member` of chunk `chunk` with a budget of 7 pure M = 4 builds
        (17 real basis elements) a chunk, or of the default single stack of 28."""
        real, za = experiments.approximate_lr, []

        def poisoned(method, *args, **kwargs):
            prob = real(method, *args, **kwargs)
            if method == "ZA":
                za.append(prob)
                if len(za) == (chunk or 0) + 1:
                    prob.h_sub[member, 0, 0] = np.nan
            return prob

        if chunk is not None:
            budget = 7 * qse.action_bytes(17, 16, False, 8)
            monkeypatch.setattr(qse, "SUBSPACE_STACK_BYTES", budget)
        monkeypatch.setattr(experiments, "approximate_lr", poisoned)
        cfg = load_config(configs_dir / "zero_approx.cfg")
        cfg.output = None
        r = load_sweep(cfg.sweep_manifest)[7 * (chunk or 0) + member].bond_length
        with pytest.raises(experiments.ExperimentError, match=re.escape(
                f"approx-spectrum: failure at sweep point R={r}: za problem: matrix has "
                "non-finite entries")):
            run_experiment(cfg)

    def test_no_state_carries_over_between_runs(self, sweep_manifest, tmp_path):
        """Two runs in one process over a copied three-point sweep, with one
        fixture's (11|11) integral edited between them: the second CSV
        changes at that R alone and equals a fresh process's run."""
        lines = [f"{r} h2_sto6g_r{r}.fcidump\n" for r in ("0.7000", "1.5000", "2.5000")]
        for line in lines:
            fixture = line.split()[1]
            (tmp_path / fixture).write_text((sweep_manifest.parent / fixture).read_text())
        (tmp_path / MINI_MANIFEST).write_text("".join(lines))
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(config_text(tmp_path / MINI_MANIFEST, experiment="spectrum")
                            .replace("[run]\n", f"[run]\noutput = {tmp_path / 'fresh.csv'}\n"))
        cfg = load_config(cfg_file)
        cfg.output = None
        before = run_experiment(cfg).csv_text
        edited = tmp_path / "h2_sto6g_r1.5000.fcidump"
        record = re.compile(r"^\s*(\S+)(\s+1\s+1\s+1\s+1)$", re.M)
        edited.write_text(record.sub(lambda mt: f"{float(mt[1]) + 0.01!r}{mt[2]}",
                                     edited.read_text(), count=1))
        after = run_experiment(cfg).csv_text
        changed = {row.split(",")[0] for row, old in zip(after.splitlines(), before.splitlines())
                   if row != old}
        assert changed == {"1.5"}
        done = subprocess.run([sys.executable, "-m", "vcsqse.cli", "run", "--config",
                               str(cfg_file)], capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "fresh.csv").read_text() == after

    def test_csv_rows_format_mixed_columns_like_fmt(self):
        """One template per tuple of field types: a column holding strings in
        some rows and numbers in others formats each value as _fmt does."""
        rows = [(0.7, "vcs", 1, -1.1372701748312345, 1e-66),
                ("x", 2.5, np.float64(-0.0), True, float("inf")),
                (0.7, "novar", 3, np.int64(7), 0.1 + 0.2)]
        want = ["a,b,c,d,e"] + [",".join(experiments._fmt(v) for v in row) for row in rows]
        assert experiments._csv(["a", "b", "c", "d", "e"], rows) == "\n".join(want) + "\n"
        assert want[1] == "0.7,vcs,1,-1.13727017483,1e-66"
        assert want[2] == "x,2.5,-0,1,inf"

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


SHIPPED = ("fig2_fidelity", "fig3_spectrum", "fig4_repair", "ground_channels", "zero_approx")


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_csv_reproduces_byte_for_byte(configs_dir, name):
    """Each shipped config rewrites its tracked out/*.csv exactly."""
    cfg = load_config(configs_dir / f"{name}.cfg")
    cfg.output = None
    golden = (configs_dir.parent / "out" / f"{name}.csv").read_bytes()
    assert run_experiment(cfg).csv_text.encode() == golden


def shipped_csvs_script(configs_dir):
    """Python source that runs every shipped config and fails an assertion
    naming each one whose CSV differs from its out/*.csv."""
    return (
        "from pathlib import Path\n"
        "from vcsqse.config import load_config\n"
        "from vcsqse.experiments import run_experiment\n"
        "bad = []\n"
        f"for name in {SHIPPED!r}:\n"
        f"    cfg = load_config(Path({str(configs_dir)!r}) / (name + '.cfg'))\n"
        "    cfg.output = None\n"
        f"    golden = (Path({str(configs_dir.parent)!r}) / 'out' / (name + '.csv')).read_bytes()\n"
        "    bad += [name] if run_experiment(cfg).csv_text.encode() != golden else []\n"
        "assert not bad, f'differ from out/: {bad}'\n")


def test_shipped_csvs_reproduce_in_every_layout(configs_dir, monkeypatch):
    """The shipped CSVs do not depend on how the work is cut or threaded:
    with every VCS and subspace stack chunk one point and every dense build
    one term chunk and one member at a time, and in a process with two BLAS
    threads, each config rewrites its out/*.csv byte for byte."""
    for module, name in ((vcs, "STACK_BYTE_LIMIT"), (qse, "SUBSPACE_STACK_BYTES"),
                         (operators, "DENSE_CHUNK_ENTRIES")):
        monkeypatch.setattr(module, name, 1)
    operators.dense_symmetry.cache_clear()  # rebuilt in the one-entry layout
    try:
        exec(shipped_csvs_script(configs_dir), {})
    finally:
        operators.dense_symmetry.cache_clear()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", shipped_csvs_script(configs_dir)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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


def subspace_eigh_shapes(configs_dir, sweep_manifest, tmp_path, monkeypatch, name, count):
    """Shapes of every subspace eigh (one with qse on the stack) of config
    `name` on the first `count` points of the sweep, one chunk per curve."""
    lines = [ln for ln in sweep_manifest.read_text().splitlines() if not ln.startswith("#")]
    manifest = tmp_path / "sweep.manifest"
    manifest.write_text("".join(f"{r} {sweep_manifest.parent / fixture}\n"
                                for r, fixture in map(str.split, lines[:count])))
    shapes, real = [], np.linalg.eigh

    def spy(a):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals["__name__"] != "vcsqse.qse":
            frame = frame.f_back
        if frame is not None:  # a subspace eigh: qse is on the stack
            shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    monkeypatch.setattr(qse, "SUBSPACE_STACK_BYTES", 1 << 30)
    cfg = load_config(configs_dir / f"{name}.cfg")
    cfg.output, cfg.sweep_manifest = None, str(manifest)
    run_experiment(cfg)
    return shapes


@pytest.mark.parametrize("count", [7, 28])
def test_subspace_eigensolves_per_curve_do_not_grow_with_the_sweep(
        configs_dir, sweep_manifest, tmp_path, monkeypatch, count):
    """With one chunk per curve, each of fig4's three generalized solves per
    curve (around rho, the S^2 projection around psi and the projected
    problem) is one batched metric eigh over the whole curve and one more
    per distinct retained dimension, whether the sweep has 7 or 28 points."""
    shapes = subspace_eigh_shapes(configs_dir, sweep_manifest, tmp_path, monkeypatch,
                                  "fig4_repair", count)
    # every member is in one metric eigh and one retained-dimension group per solve
    assert sum(shape[0] for shape in shapes) == 2 * 3 * 2 * count
    assert [shape[0] for shape in shapes].count(count) >= 2 * 3
    assert len(shapes) <= 2 * 3 * 3


@pytest.mark.parametrize("name, solves, methods", [("fig3_spectrum", 2, 1),
                                                   ("zero_approx", 1, 3)])
@pytest.mark.parametrize("count", [7, 28])
def test_rdm_curve_eigensolves_do_not_grow_with_the_sweep(
        configs_dir, sweep_manifest, tmp_path, monkeypatch, name, solves, methods, count):
    """Likewise fig3's two generalized solves per curve (the number projection
    and the projected problem) and zero_approx's one (its exact, ZC and ZA
    problems together)."""
    shapes = subspace_eigh_shapes(configs_dir, sweep_manifest, tmp_path, monkeypatch,
                                  name, count)
    assert sum(shape[0] for shape in shapes) == 2 * solves * methods * count
    assert [shape[0] for shape in shapes].count(methods * count) >= solves
    assert len(shapes) <= solves * 3


def subspace_calls(monkeypatch, cfg, names=None):
    """Stack sizes of every build_subspace_direct call of cfg's run, its count
    of solve_subspace calls and its CSV text; `names`, if a list, receives
    the symmetry operators each build is given."""
    builds, solves = [], []
    real_build, real_solve = experiments.build_subspace_direct, experiments.solve_subspace

    def build(basis, h, rho, ops=None):
        builds.append(len(h))
        if names is not None:
            names.append(sorted(ops or ()))
        return real_build(basis, h, rho, ops)

    monkeypatch.setattr(experiments, "build_subspace_direct", build)
    monkeypatch.setattr(experiments, "solve_subspace",
                        lambda *args: solves.append(1) or real_solve(*args))
    cfg.output = None
    text = run_experiment(cfg).csv_text
    return builds, len(solves), text


@pytest.mark.parametrize("name, builds, solves, ops", [
    ("fig3_spectrum", [28], 1, ["number"]), ("zero_approx", [28], 1, []),
    # per curve (vcs, novar), per chunk: builds around rho and psi, two solves
    ("fig4_repair", [7] * 2 * 4 * 2, 2 * 4 * 2, ["s_squared"])])
def test_default_subspace_chunks_at_m4(configs_dir, monkeypatch, name, builds, solves, ops):
    """At M = 4 a pure build is charged its own action stacks (2 * 17 * 16
    real entries), so fig3's and zero_approx's curve is one stack of 28 and
    one solve, while fig4's mixed builds (2 * 17 * 256 entries) go 7 a chunk.
    Each build holds only the symmetry blocks its curve reads: fig3's number
    projection, none for zero_approx, and S^2 for fig4's projection and reads."""
    names = []
    assert subspace_calls(monkeypatch, load_config(configs_dir / f"{name}.cfg"), names)[:2] == (
        builds, solves)
    assert names == [ops] * len(builds)


def test_zero_approx_curve_memory(configs_dir):
    """The whole 28-point zero_approx curve, one stack of RDMs, ZC and ZA
    problems and solves, stays within 2.5 MiB of Python-visible allocations
    (about 1.8 MiB measured)."""
    cfg = load_config(configs_dir / "zero_approx.cfg")
    cfg.output = None
    run_experiment(cfg)  # the bases and symmetry operators are cached once
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


@pytest.mark.parametrize("experiment", ["spectrum", "approx-spectrum"])
def test_m8_curves_do_not_depend_on_the_chunking(tmp_path, monkeypatch, experiment):
    """On two seeded M = 8 points, each point is a chunk of its own at the
    default budget (a pure build holds 2 * 65 * 256 real entries, 266 KB),
    and one chunk holds both with a budget of 1 GiB; the CSV is the same."""
    _, manifest = write_m8_sweep(tmp_path, seed=7, count=2)
    text = f"[run]\nexperiment = {experiment}\nsweep_manifest = {manifest}\n"
    if experiment == "spectrum":
        text += "[projection]\nname = number\ntarget = 4.0\nwindow = 0.5\n"
    builds, _, one_each = subspace_calls(monkeypatch, parse_config(text))
    assert builds == [1, 1]
    monkeypatch.setattr(qse, "SUBSPACE_STACK_BYTES", 1 << 30)
    builds, _, together = subspace_calls(monkeypatch, parse_config(text))
    assert builds == [2]
    assert together == one_each


def test_runs_never_import_numpy_ma(configs_dir, sto3g_path, tmp_path):
    """np.unique without return_index imports numpy.ma, 11 ms and 1.7 MiB
    in every fresh process: no shipped config, no M = 8 spectrum with a
    number projection (each point a chunk of one) and no sampled single
    point may reach it."""
    _, manifest = write_m8_sweep(tmp_path)
    m8 = (f"[run]\nexperiment = spectrum\nsweep_manifest = {manifest}\n"
          "[projection]\nname = number\ntarget = 4.0\nwindow = 0.5\n")
    script = (
        "import sys\n"
        "from vcsqse.config import ExperimentConfig, load_config, parse_config\n"
        "from vcsqse.channels import ChannelSpec\n"
        "from vcsqse.experiments import run_experiment, single_point\n"
        f"for name in {SHIPPED!r}:\n"
        f"    cfg = load_config({str(configs_dir)!r} + '/' + name + '.cfg')\n"
        "    cfg.output = None\n"
        "    run_experiment(cfg)\n"
        f"run_experiment(parse_config({m8!r}))\n"
        f"single_point(ExperimentConfig(experiment='single-point', fcidump={str(sto3g_path)!r},\n"
        "    channel=ChannelSpec('amplitude_phase'), shots=(200, 3), sampled_rdms=True))\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(experiments.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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

    def test_oversized_qubit_build_exits_2_before_any_work(self, tmp_path, capsys):
        """NORB = 6 (M = 12) is within the dense limit, but a channel makes
        the qubit k = 1 build's reference a 4096 x 4096 density matrix: two
        complex stacks of 37 x 4096^2 entries, refused before H is built."""
        h1 = np.random.default_rng(6).normal(size=(6, 6))
        big = tmp_path / "norb6.fcidump"
        big.write_text(render_fcidump(MolecularIntegrals(
            6, 2, 0, 0.0, h1 + h1.T, np.zeros((6, 6, 6, 6)))))
        start = time.perf_counter()
        assert main(["point", "--fcidump", str(big), "--kind", "qubit",
                     "--channel", "ap"]) == 2
        assert time.perf_counter() - start < 1.0
        need = 2 * 37 * 4096 ** 2 * 16 + 37 * 4096 * (8 + 2 * 16)
        assert (f"config error: {big}: subspace build needs {need} bytes for 37 basis "
                f"elements, above the limit of SUBSPACE_BYTE_LIMIT={qse.SUBSPACE_BYTE_LIMIT}"
                in capsys.readouterr().err)

    def test_oversized_sweep_exits_2_before_any_point(self, tmp_path, capsys, monkeypatch):
        """`vcsqse run` checks every fixture of the manifest against the
        size limits of the experiment's subspace before it prepares any
        point: an NORB = 6 spectrum sweep (M = 12, a fermionic basis) exits 2
        at once, naming the fixture and the limit."""
        h1 = np.random.default_rng(6).normal(size=(6, 6))
        big = tmp_path / "norb6.fcidump"
        big.write_text(render_fcidump(MolecularIntegrals(
            6, 2, 0, 0.0, h1 + h1.T, np.zeros((6, 6, 6, 6)))))
        monkeypatch.setattr(experiments, "_Run", None)  # preparing a point would fail
        start = time.perf_counter()
        assert run_spectrum(tmp_path, f"0.7 {big}\n") == 2
        assert time.perf_counter() - start < 1.0
        assert (f"config error: {tmp_path / 'sweep.manifest'}: fixture norb6 at R=0.7: "
                "NORB=6 gives 12 spin orbitals, above FERMIONIC_MODE_LIMIT=8 for a "
                "fermionic subspace") in capsys.readouterr().err

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
