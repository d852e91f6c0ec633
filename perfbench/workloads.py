"""Workload definitions: what one pass calls, and the safety rules on inputs.

Each workload is built so one layer of the package does most of its work:

- sweep_channels_m4: the channel-bearing shipped configs on the 28-point
  STO-6G H2 sweep; the channel layer dominates and no RDM code runs.
- sweep_rdm_m4: the RDM and ZC/ZA configs on the same sweep; no channel runs.
- spectrum_m8: the spectrum experiment on seeded H4 chains (M = 8), where the
  dense operator kernels dominate; no channel and no RDM code runs.
- point_mix_m4: seeded single_point calls with shots and sampled RDMs, the
  only workload on the measurement pathway and with per-call latency.
"""

import json
import re
from pathlib import Path

import numpy as np

from perfbench import chains

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
FIXTURES = ROOT / "fixtures"
OUT = ROOT / "out"

SWEEP_CONFIGS = {
    "sweep_channels_m4": ("fig2_fidelity", "fig4_repair", "ground_channels"),
    "sweep_rdm_m4": ("fig3_spectrum", "zero_approx"),
}
WORKLOADS = ("sweep_channels_m4", "sweep_rdm_m4", "spectrum_m8", "point_mix_m4")

# The lifted amplitude-phase and depolarizing channels at M = 8 would allocate
# 4^8 Kraus matrices of 256 x 256 (64 GiB), so no channel goes beyond M = 4.
CHANNEL_MODE_LIMIT = 4
# Experiments that attach a channel whether or not the config has [channel].
CHANNEL_EXPERIMENTS = ("fidelity-sweep", "qse-repair", "ground-channels")

H4_CHAINS = 2
SPECTRUM_M8_CONFIG = """\
[run]
experiment = spectrum
sweep_manifest = {manifest}
metric_cutoff = 1e-8

[subspace]
kind = fermionic
k = 1

[projection]
name = number
target = 4.0
window = 0.5
"""

POINT_FIXTURES = tuple(sorted(p.relative_to(ROOT).as_posix()
                              for p in FIXTURES.glob("h2_*/*.fcidump")))
CHANNEL_TOKENS = ("dephasing", "ap", "depol")
SUBSPACES = (("fermionic", 1), ("fermionic", 2), ("qubit", 1), ("qubit", 2))
# Every pass deals this many shuffled decks holding each channel kind with
# each subspace once, so the call mix, and with it the pass time, is the same
# for every seed while the draws themselves differ.
DECKS_PER_PASS = 2
SHOTS = 50000


class UnsafeInput(ValueError):
    """An input the benchmark refuses to hand to the program."""


def fcidump_modes(path):
    """Spin-orbital count 2 * NORB from an FCIDUMP header."""
    with open(path) as fh:
        head = fh.read(4096)
    match = re.search(r"NORB\s*=\s*(\d+)", head, re.I)
    if match is None:
        raise UnsafeInput(f"{path}: no NORB in the FCIDUMP header")
    return 2 * int(match.group(1))


def manifest_fixtures(manifest):
    manifest = Path(manifest)
    names = [line.split("#", 1)[0].split() for line in manifest.read_text().splitlines()]
    return [manifest.parent / f[1] for f in names if len(f) == 2]


def redirect_output(cfg, out_dir, name):
    """Send a config's CSV to out_dir; out/ holds the references, never output."""
    target = (Path(out_dir) / f"{name}.csv").resolve()
    if target.is_relative_to(OUT.resolve()):
        raise UnsafeInput(f"refusing to write {target} inside {OUT}")
    cfg.output = str(target)
    return cfg


def check_config(cfg):
    """Refuse a channel on any input with more than CHANNEL_MODE_LIMIT modes."""
    if cfg.experiment not in CHANNEL_EXPERIMENTS and cfg.channel is None:
        return
    fcidumps = ([cfg.fcidump] if cfg.experiment == "single-point"
                else manifest_fixtures(cfg.sweep_manifest))
    for path in fcidumps:
        modes = fcidump_modes(path)
        if modes > CHANNEL_MODE_LIMIT:
            raise UnsafeInput(f"channel on {path} with {modes} modes; the lifted "
                              f"channel is allowed only up to {CHANNEL_MODE_LIMIT}")


def point_draws(seed):
    """Seeded single_point draws for one pass of point_mix_m4."""
    rng = np.random.default_rng([seed, 1])
    deck = [(token, sub) for token in CHANNEL_TOKENS for sub in SUBSPACES]
    draws = []
    for _ in range(DECKS_PER_PASS):
        for i in rng.permutation(len(deck)):
            token, (kind, order) = deck[i]
            r1 = float(rng.uniform(0.01, 0.1))
            # T2 <= 2 T1, i.e. tp/T2 >= (tp/T1) / 2
            r2 = float(rng.uniform(r1 / 2, 0.1))
            draws.append({"fcidump": POINT_FIXTURES[rng.integers(len(POINT_FIXTURES))],
                          "channel": token, "tp_over_t1": r1, "tp_over_t2": r2,
                          "subspace_kind": kind, "subspace_order": order,
                          "shots": SHOTS, "shot_seed": int(rng.integers(2 ** 31))})
    return draws


def point_config(draw):
    """The single-point ExperimentConfig of one draw."""
    from vcsqse.channels import ChannelSpec, channel_kind_from_token
    from vcsqse.config import ExperimentConfig
    channel = ChannelSpec(kind=channel_kind_from_token(draw["channel"]),
                          tp_over_t1=draw["tp_over_t1"],
                          tp_over_t2=draw["tp_over_t2"])
    return ExperimentConfig(
        experiment="single-point", fcidump=str(ROOT / draw["fcidump"]),
        channel=channel, subspace_kind=draw["subspace_kind"],
        subspace_order=draw["subspace_order"],
        shots=(draw["shots"], draw["shot_seed"]), sampled_rdms=True).validate()


def build_job(workload, seed, work_dir):
    """Generate the inputs of one run and return the job every pass executes.

    All checks on the inputs run here, before any pass starts.
    """
    from vcsqse.config import load_config
    work_dir = Path(work_dir)
    if workload in SWEEP_CONFIGS:
        configs = [str(CONFIGS / f"{name}.cfg") for name in SWEEP_CONFIGS[workload]]
        job = {"kind": "sweep", "configs": configs}
    elif workload == "spectrum_m8":
        # one run_experiment call per chain, so each chain is a timed unit
        configs = []
        for i, manifest in enumerate(chains.write_h4_chains(seed, H4_CHAINS,
                                                            work_dir / "h4")):
            cfg_path = work_dir / f"spectrum_m8_{i}.cfg"
            cfg_path.write_text(SPECTRUM_M8_CONFIG.format(manifest=manifest))
            configs.append(str(cfg_path))
        job = {"kind": "sweep", "configs": configs}
    elif workload == "point_mix_m4":
        draws = point_draws(seed)
        for draw in draws:
            check_config(point_config(draw))
        return {"kind": "points", "draws": draws, "points": [1] * len(draws)}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    job["points"] = []
    for path in job["configs"]:
        cfg = load_config(path)
        check_config(cfg)
        job["points"].append(len(manifest_fixtures(cfg.sweep_manifest)))
    return job


def load_calls(job, out_dir):
    """Configs of a job loaded and ready: a list of (label, points, call)."""
    from vcsqse.config import load_config
    from vcsqse.experiments import run_experiment, single_point
    calls = []
    if job["kind"] == "sweep":
        for path, points in zip(job["configs"], job["points"]):
            name = Path(path).stem
            cfg = redirect_output(load_config(path), out_dir, name)
            calls.append((name, points, lambda c=cfg: run_experiment(c).output))
    else:
        for i, draw in enumerate(job["draws"]):
            cfg = point_config(draw)
            calls.append((f"point{i}", 1, lambda c=cfg: single_point(c)))
    return calls


def load_references():
    """Reference data of every shipped M = 4 fixture, keyed by file name.

    Each entry holds the fixture's references.json record plus pauli_norm,
    the root sum of squares of the non-identity Pauli coefficients of its
    Jordan-Wigner Hamiltonian, which scales the shot noise of the sampled-RDM
    energy.
    """
    from vcsqse.molecule import assemble_hamiltonian, parse_fcidump
    from vcsqse.operators import jordan_wigner
    refs = {}
    for path in FIXTURES.glob("h2_*/references.json"):
        for name, ref in json.loads(path.read_text()).items():
            ham = jordan_wigner(assemble_hamiltonian(
                parse_fcidump((path.parent / name).read_text())))
            coeffs = [c for word, c in ham.terms.items() if set(word) != {"I"}]
            refs[name] = dict(ref, pauli_norm=float(np.linalg.norm(coeffs)))
    return refs
