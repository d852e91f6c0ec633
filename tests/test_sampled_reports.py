"""single_point reports with sampled energies and RDMs against tests/expected/.

Each case is one single-point config on a shipped fixture, named by a path
relative to the repository root so that the report reads the same in any
checkout. The sampled lines depend on every seeded (seed, word) stream, so
these files pin the measurement pathway's numbers. Reports are compared
token by token like the demos (test_demos.token_mismatch).

Regenerate every file from the repository root with

    PYTHONPATH=src python3 tests/test_sampled_reports.py
"""

import sys
from pathlib import Path

import pytest

from test_demos import token_mismatch
from vcsqse.channels import ChannelSpec
from vcsqse.config import ExperimentConfig
from vcsqse.experiments import single_point

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = ROOT / "tests" / "expected"
STO3G = "fixtures/h2_sto3g/h2_sto3g_r0.7414.fcidump"
STO6G = "fixtures/h2_sto6g/h2_sto6g_r{:.4f}.fcidump"

CASES = {
    "sto3g_fermionic_k1": dict(
        fcidump=STO3G, metric_cutoff=0.05, shots=(2000, 77), sampled_rdms=True),
    "sto3g_qubit_k1_ap": dict(
        fcidump=STO3G, channel=ChannelSpec("amplitude_phase", 0.05, 0.05),
        subspace_kind="qubit", metric_cutoff=0.05, shots=(2000, 5),
        sampled_rdms=True),
    "sto6g_r1.5_fermionic_k2_depol": dict(
        fcidump=STO6G.format(1.5), channel=ChannelSpec("depolarizing", 0.02, 0.0),
        subspace_order=2, metric_cutoff=0.02, shots=(2000, 9), sampled_rdms=True),
    "sto6g_r0.7_qubit_k2_dephasing": dict(
        fcidump=STO6G.format(0.7), channel=ChannelSpec("dephasing", 0.0, 0.1),
        subspace_kind="qubit", subspace_order=2, metric_cutoff=1e-3,
        shots=(2000, 11), sampled_rdms=True),
    "sto6g_r2.5_fermionic_k1_projected": dict(
        fcidump=STO6G.format(2.5), channel=ChannelSpec("amplitude_phase", 0.02, 0.05),
        projection=("s_squared", 0.0, 0.5), metric_cutoff=0.05, shots=(2000, 3),
        sampled_rdms=True),
    "sto6g_r3.0_qubit_k1_energy_only": dict(
        fcidump=STO6G.format(3.0), subspace_kind="qubit", shots=(2000, 1)),
}


def report(name: str) -> str:
    return single_point(ExperimentConfig(experiment="single-point", **CASES[name]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampled_report_unchanged(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    got = report(name).split()
    want = (EXPECTED / f"{name}.txt").read_text().split()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if token_mismatch(g, w)]
    assert not bad, bad[:10]


def test_every_expected_report_has_a_case():
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    if Path.cwd() != ROOT:
        sys.exit(f"run from the repository root, {ROOT}")
    EXPECTED.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (EXPECTED / f"{case}.txt").write_text(report(case))
