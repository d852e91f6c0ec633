from pathlib import Path

from perfbench import checks, workloads
from vcsqse.experiments import single_point


def _shift_field(text, row, col, delta):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = repr(float(fields[col]) + delta)
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_one_shifted_row_fails_exactly_one_point():
    reference = (workloads.OUT / "fig2_fidelity.csv").read_text()
    assert checks.sweep_failures(reference, reference) == 0
    assert checks.sweep_failures(_shift_field(reference, 40, 2, 1e-9), reference) == 1
    assert checks.sweep_failures(_shift_field(reference, 40, 2, 1e-11), reference) == 0
    assert checks.sweep_failures("R,x\n", reference) == 28


def test_spectrum_check():
    good = ("R,method,level,energy\n1.0,qse,0,-2.0\n1.0,qse,1,-1.5\n"
            "1.0,fci_sector,0,-2.0\n1.0,fci_full,0,-2.0\n")
    assert checks.spectrum_failures(good, 1) == 0
    assert checks.spectrum_failures(good, 2) == 1
    below = good.replace("1.0,qse,1,-1.5", "1.0,qse,1,-2.1")
    assert checks.spectrum_failures(below, 1) == 1


def _point_report():
    return single_point(workloads.point_config(workloads.point_draws(3)[0]))


def _replace_line(report, prefix, new_line):
    return "\n".join(new_line if x.startswith(prefix) else x
                     for x in report.splitlines() if new_line or not x.startswith(prefix))


def test_point_report_check():
    references = workloads.load_references()
    report = _point_report()
    assert checks.point_report_ok(report, references)
    line = next(x for x in report.splitlines() if x.startswith("fci ground (full"))
    value = float(line.split()[-1])
    tampered = report.replace(line, line.replace(line.split()[-1], repr(value + 1e-8)))
    assert not checks.point_report_ok(tampered, references)


def test_every_checked_line_is_required():
    references = workloads.load_references()
    report = _point_report()
    for prefix in ("sampled ground energy", "sampled-rdm energy", "sampled-rdm qse ground"):
        assert any(x.startswith(prefix) for x in report.splitlines())
        assert not checks.point_report_ok(_replace_line(report, prefix, None), references)


def test_sampled_rdm_energy_check():
    references = workloads.load_references()
    report = _point_report()
    fixture = next(x for x in report.splitlines() if x.startswith("fixture: "))
    ref = references[Path(fixture.split()[1]).name]
    tol = checks.sampled_rdm_tolerance(ref["pauli_norm"], workloads.SHOTS)
    line = next(x for x in report.splitlines() if x.startswith("sampled-rdm energy"))
    head, tail = line.split("): ", 1)
    assert abs(float(tail.split()[0]) - ref["fci_ground"]) <= tol
    exact = tail.split(" ", 1)[1]
    for shift, ok in ((0.5 * tol, True), (2 * tol, False), (-2 * tol, False)):
        shifted = f"{head}): {ref['fci_ground'] + shift!r} {exact}"
        assert checks.point_report_ok(report.replace(line, shifted), references) is ok


def test_sampled_rdm_qse_is_a_number_or_not_solvable():
    references = workloads.load_references()
    report = _point_report()
    assert "sampled-rdm qse ground: not solvable" in report
    prefix = "sampled-rdm qse ground"
    solved = _replace_line(report, prefix, f"{prefix}: -1.1 (retained_dim 3)")
    assert checks.point_report_ok(solved, references)
    for bad in ("nan (retained_dim 3)", "-1.1", "unknown"):
        assert not checks.point_report_ok(
            _replace_line(report, prefix, f"{prefix}: {bad}"), references)
