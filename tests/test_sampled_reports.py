"""single_point reports with sampled energies and RDMs against tests/expected/.

Each case is one single-point config on a shipped fixture, named by a path
relative to the repository root so that the report reads the same in any
checkout. The sampled lines depend on the seeded energy and RDM streams and
on each word's place in its batch, so these files pin the measurement
pathway's numbers. Reports are compared
token by token like the demos (test_demos.token_mismatch).

Regenerate every file from the repository root with

    PYTHONPATH=src python3 tests/test_sampled_reports.py

which keeps each committed line whose tokens all still match, so only the
lines whose numbers changed are rewritten.
"""

import shutil
import sys
from pathlib import Path

import pytest

from test_demos import token_mismatch
from vcsqse.channels import ChannelSpec
from vcsqse.config import ExperimentConfig
from vcsqse.experiments import single_point
from vcsqse.operators import PauliOperator

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


def merge_report(committed: str, fresh: str) -> str:
    """fresh, with each line whose tokens all match the committed line at the
    same place (token_mismatch) kept as committed."""
    old = committed.splitlines(keepends=True)
    out = []
    for i, line in enumerate(fresh.splitlines(keepends=True)):
        got, want = line.split(), old[i].split() if i < len(old) else None
        keep = want is not None and len(got) == len(want) and not any(
            token_mismatch(g, w) for g, w in zip(got, want))
        out.append(old[i] if keep else line)
    return "".join(out)


def regenerate(directory: Path):
    """Write every case's report to directory, keeping unchanged lines."""
    directory.mkdir(exist_ok=True)
    for case in sorted(CASES):
        path = directory / f"{case}.txt"
        committed = path.read_text() if path.exists() else ""
        path.write_text(merge_report(committed, report(case)))


def assert_report_unchanged(name):
    got = report(name).split()
    want = (EXPECTED / f"{name}.txt").read_text().split()
    assert len(got) == len(want)
    bad = [(g, w) for g, w in zip(got, want) if token_mismatch(g, w)]
    assert not bad, bad[:10]


@pytest.mark.parametrize("name", sorted(CASES))
def test_sampled_report_unchanged(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert_report_unchanged(name)


def test_sampled_pathway_reads_no_letters(monkeypatch):
    """The sampled energy and the sampled RDMs read Pauli words as bit
    masks: with PauliOperator.terms raising, the qubit-basis report still
    matches."""
    def letters(self):
        raise AssertionError("Pauli letters read")

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(PauliOperator, "terms", property(letters))
    assert_report_unchanged("sto3g_qubit_k1_ap")


def test_every_expected_report_has_a_case():
    assert sorted(p.stem for p in EXPECTED.glob("*.txt")) == sorted(CASES)


def test_regeneration_rewrites_only_changed_lines():
    committed = "ground <S2>=9.20702368553e-31\nsampled -1.1372 +- 0.01\nlevels 1 2\n"
    fresh = "ground <S2>=9.20702371822e-31\nsampled -1.1391 +- 0.01\nlevels 1 2 3\n"
    assert merge_report(committed, fresh) == (
        "ground <S2>=9.20702368553e-31\nsampled -1.1391 +- 0.01\nlevels 1 2 3\n")


def test_regeneration_at_an_unchanged_tree_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    for path in EXPECTED.glob("*.txt"):
        shutil.copy(path, tmp_path)
    regenerate(tmp_path)
    for path in EXPECTED.glob("*.txt"):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


if __name__ == "__main__":
    if Path.cwd() != ROOT:
        sys.exit(f"run from the repository root, {ROOT}")
    regenerate(EXPECTED)
