"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time
from math import exp

import numpy as np
import pytest

from kraus_oracle import kron_lift
from pauli_oracle import apply_pauli, pauli_action
from vcsqse.channels import (ChannelSpec, apply_channel, lift_to_register,
                             single_qubit_channel)
from vcsqse.config import load_config
from vcsqse.experiments import run_experiment
from vcsqse.molecule import spin_orbital_tensors
from vcsqse.operators import (FermionOperator, PauliOperator, fermion_to_dense,
                              symmetry_operator)
from vcsqse.qse import (approximate_lr, build_lr_from_rdms, build_subspace_direct,
                        fermionic_basis, project_symmetry, qubit_basis,
                        solve_subspace, subspace_expectation)
from vcsqse.rdm import compute_rdms, cumulants_from_rdms, reconstruct_rdms, wedge
from vcsqse.vcs import no_variation_baseline, solve_vcs

RATIO_GRID = (0.0, 0.01, 0.05, 0.2, 1.0)
KINDS = ("dephasing", "amplitude_phase", "depolarizing")


def lifted(kind, n=4, r1=0.05, r2=0.05):
    return lift_to_register(single_qubit_channel(ChannelSpec(kind, r1, r2)), n)


def oracle(kind, n=4, r1=0.05, r2=0.05):
    """The same channel as explicit Kronecker-product Kraus operators."""
    return kron_lift(single_qubit_channel(ChannelSpec(kind, r1, r2)), n)


def report(num, label, ok, elapsed, bound, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:2d}] {status}  {label} "
          f"({elapsed:.2f}s / limit {bound:.0f}s){'  ' + detail if detail else ''}")
    assert ok, f"criterion {num}: {label} {detail}"
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.1f}s)"


def sector_indices(dim, n_e):
    return [b for b in range(dim) if bin(b).count("1") == n_e]


@pytest.fixture(scope="module")
def dense_by_r(sweep_dense):
    return {r: (h, ints) for r, h, ints in sweep_dense}


def test_criterion_1_vcs_optimality(dense_by_r):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap, worst_achieve = np.inf, 0.0
    for kind in KINDS:
        ch = lifted(kind)
        kraus = np.stack(oracle(kind).kraus_ops)
        for r in (0.5, 0.9, 1.5, 2.1, 2.7):
            h, _ = dense_by_r[r]
            sol = solve_vcs(h, ch)
            psis = rng.normal(size=(16, 2000)) + 1j * rng.normal(size=(16, 2000))
            psis /= np.linalg.norm(psis, axis=0)
            energies = np.zeros(2000)
            for k in kraus:
                v = k @ psis
                energies += np.real(np.einsum("id,id->d", v.conj(), h @ v))
            # cross-check the Kronecker-product energies against apply_channel
            for column in (0, 1234):
                rho = apply_channel(ch, np.outer(psis[:, column],
                                                 psis[:, column].conj()))
                assert abs(np.real(np.trace(rho @ h)) - energies[column]) < 1e-10
            worst_gap = min(worst_gap, energies.min() - sol.hprime_eigenvalue)
            achieved = abs(np.real(np.trace(sol.output_rho @ h))
                           - sol.hprime_eigenvalue)
            worst_achieve = max(worst_achieve, achieved)
    elapsed = time.perf_counter() - start
    ok = worst_gap >= -1e-10 and worst_achieve <= 1e-10
    report(1, "transformed-Hamiltonian minimum bounds all channel energies",
           ok, elapsed, 30,
           f"min gap {worst_gap:.2e}, eigvec residual {worst_achieve:.2e}")


def test_criterion_2_channel_closed_forms():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(3):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        for r1 in RATIO_GRID:
            for r2 in RATIO_GRID:
                deph = apply_channel(single_qubit_channel(
                    ChannelSpec("dephasing", r1, r2)), rho)
                ref = np.array(rho)
                ref[0, 1] *= exp(-r2)
                ref[1, 0] *= exp(-r2)
                worst = max(worst, np.abs(deph - ref).max())

                p = 1.0 - exp(-r2)
                dep = apply_channel(single_qubit_channel(
                    ChannelSpec("depolarizing", r1, r2)), rho)
                ref = np.array([
                    [(1 - 2 * p / 3) * rho[0, 0] + (2 * p / 3) * rho[1, 1],
                     (1 - 4 * p / 3) * rho[0, 1]],
                    [(1 - 4 * p / 3) * rho[1, 0],
                     (2 * p / 3) * rho[0, 0] + (1 - 2 * p / 3) * rho[1, 1]]])
                worst = max(worst, np.abs(dep - ref).max())

                if r2 >= 0.5 * r1:  # physical domain of the composite channel
                    ap = apply_channel(single_qubit_channel(
                        ChannelSpec("amplitude_phase", r1, r2)), rho)
                    pa = 1.0 - exp(-r1)
                    ref = np.array([
                        [rho[0, 0] + pa * rho[1, 1], exp(-r2) * rho[0, 1]],
                        [exp(-r2) * rho[1, 0], exp(-r1) * rho[1, 1]]])
                    worst = max(worst, np.abs(ap - ref).max())
    elapsed = time.perf_counter() - start
    report(2, "single-qubit closed forms on the ratio grid", worst < 1e-12,
           elapsed, 1, f"max deviation {worst:.2e}")


def test_criterion_3_fidelity_ordering(dense_by_r):
    start = time.perf_counter()
    min_margin = np.inf
    best_dephasing_fid = 0.0
    worst_oracle = 0.0
    for kind in KINDS:
        ch, ref = lifted(kind), oracle(kind)
        prev = None
        for r in sorted(dense_by_r):
            h, _ = dense_by_r[r]
            sol = solve_vcs(h, ch, continuation=prev)
            base = no_variation_baseline(h, ch, np.linalg.eigh(h)[1][:, 0])
            prev = sol.input_state
            min_margin = min(min_margin, sol.fidelity_io - base.fidelity_io)
            if kind == "dephasing":
                best_dephasing_fid = max(best_dephasing_fid, sol.fidelity_io)
            for s in (sol, base):
                rho = apply_channel(ref, np.outer(s.input_state,
                                                  s.input_state.conj()))
                worst_oracle = max(worst_oracle,
                                   np.abs(rho - s.output_rho).max())
    elapsed = time.perf_counter() - start
    ok = (min_margin >= 0.0 and best_dephasing_fid >= 1.0 - 1e-6
          and worst_oracle <= 1e-12)
    report(3, "variation never lowers fidelity; dephasing finds a "
              "decoherence-free state", ok, elapsed, 60,
           f"min margin {min_margin:.2e}, best dephasing fidelity "
           f"{best_dephasing_fid:.12f}, Kronecker-oracle output deviation "
           f"{worst_oracle:.2e}")


def test_criterion_4_lr_exactness_and_projection(dense_by_r, sym_dense):
    start = time.perf_counter()
    basis = fermionic_basis(4, 1)
    worst_plain, worst_proj, worst_n = 0.0, 0.0, 0.0
    for r in sorted(dense_by_r):
        h, _ = dense_by_r[r]
        w, v = np.linalg.eigh(h)
        sector = np.linalg.eigvalsh(h[np.ix_(sector_indices(16, 2),
                                             sector_indices(16, 2))])
        prob = build_subspace_direct(basis, h, v[:, 0],
                                     {"number": sym_dense["number"]})
        spec = solve_subspace(prob)
        ok_dim = spec.retained_dim == len(sector)
        worst_plain = max(worst_plain,
                          np.abs(np.sort(spec.eigenvalues) - sector).max())
        projected = project_symmetry(prob, "number", 2.0, 0.5)
        spec_p = solve_subspace(projected)
        worst_proj = max(worst_proj,
                         np.abs(np.sort(spec_p.eigenvalues) - sector).max())
        for t in range(spec_p.retained_dim):
            nv = subspace_expectation(projected, "number",
                                      spec_p.eigenvectors[:, t])
            worst_n = max(worst_n, abs(nv - 2.0))
        assert ok_dim
    elapsed = time.perf_counter() - start
    ok = worst_plain < 1e-8 and worst_proj < 1e-8 and worst_n < 1e-8
    report(4, "exact-reference LR reproduces the neutral-molecule spectrum",
           ok, elapsed, 60,
           f"level error {worst_plain:.2e}, projected {worst_proj:.2e}, "
           f"<N>-2 {worst_n:.2e}")


def test_criterion_5_route_equivalence(dense_by_r, sym_dense):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    h, ints = dense_by_r[1.5]
    h1, h2, core = spin_orbital_tensors(ints)
    basis = fermionic_basis(4, 1)
    sym_ops = {"number": symmetry_operator("number", 4),
               "s_squared": symmetry_operator("s_squared", 4)}
    sym_mats = {"number": sym_dense["number"],
                "s_squared": sym_dense["s_squared"]}
    worst = 0.0

    def check(state):
        nonlocal worst
        rho = state if state.ndim == 2 else np.outer(state, state.conj())
        direct = build_subspace_direct(basis, h, rho, sym_mats)
        viardm = build_lr_from_rdms(h1, h2, compute_rdms(state, 4),
                                    core_energy=core, symmetry_ops=sym_ops)
        worst = max(worst, np.abs(direct.h_sub - viardm.h_sub).max(),
                    np.abs(direct.s_sub - viardm.s_sub).max())

    for _ in range(100):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        check(v / np.linalg.norm(v))
    for _ in range(20):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T
        check(rho / np.trace(rho))
    elapsed = time.perf_counter() - start
    report(5, "RDM-contracted LR matrices equal direct trace-built matrices",
           worst < 1e-10, elapsed, 120, f"max element gap {worst:.2e}")


def test_criterion_6_qubit_error_correction(dense_by_r):
    start = time.perf_counter()
    basis = qubit_basis(4, 1)
    worst = 0.0
    for r in (0.7, 2.5):
        h, _ = dense_by_r[r]
        w, v = np.linalg.eigh(h)
        psi0 = v[:, 0]
        for q in range(4):
            for letter in "XYZ":
                error = PauliOperator.from_letter(letter, q, 4)
                err = apply_pauli(pauli_action(error), psi0)
                prob = build_subspace_direct(basis, h, err)
                spec = solve_subspace(prob)
                worst = max(worst, abs(spec.eigenvalues[0] - w[0]))
    elapsed = time.perf_counter() - start
    report(6, "single-qubit Pauli errors corrected exactly by the qubit "
              "expansion", worst < 1e-10, elapsed, 30,
           f"max ground-energy deviation {worst:.2e}")


def test_criterion_7_repair_and_spin_projection(dense_by_r, sym_dense):
    start = time.perf_counter()
    ch_kwargs = dict(r1=0.05, r2=0.05)
    ch = lifted("amplitude_phase", **ch_kwargs)
    basis = fermionic_basis(4, 1)
    sym_mats = {"number": sym_dense["number"], "s_squared": sym_dense["s_squared"]}
    min_improvement = np.inf
    max_unconstrained_s2 = 0.0
    max_projected_s2 = 0.0
    prev = None
    for r in sorted(dense_by_r):
        h, _ = dense_by_r[r]
        sol = solve_vcs(h, ch, continuation=prev)
        prev = sol.input_state
        prob_out = build_subspace_direct(basis, h, sol.output_rho, sym_mats)
        spec_out = solve_subspace(prob_out)
        min_improvement = min(min_improvement,
                              sol.energy - spec_out.eigenvalues[0])
        max_unconstrained_s2 = max(
            max_unconstrained_s2,
            subspace_expectation(prob_out, "s_squared",
                                 spec_out.eigenvectors[:, 0]))
        prob_in = build_subspace_direct(basis, h, sol.input_state, sym_mats)
        projected = project_symmetry(prob_in, "s_squared", 0.0, 0.5)
        spec_in = solve_subspace(projected)
        max_projected_s2 = max(
            max_projected_s2,
            abs(subspace_expectation(projected, "s_squared",
                                     spec_in.eigenvectors[:, 0])))
    elapsed = time.perf_counter() - start
    ok = (min_improvement > 0.0 and max_unconstrained_s2 > 0.1
          and max_projected_s2 < 1e-6)
    report(7, "expansion repairs the noisy ground state; spin projection "
              "removes the kink", ok, elapsed, 120,
           f"min repair {min_improvement:.2e}, kink {max_unconstrained_s2:.3f}, "
           f"projected <S2> {max_projected_s2:.2e}")


def test_criterion_8_zc_za(dense_by_r):
    start = time.perf_counter()
    basis = fermionic_basis(4, 1)
    worst_zc_eq, worst_za_eq = 0.0, 0.0
    zc_errors, za_errors = [], []
    for r in sorted(dense_by_r):
        h, ints = dense_by_r[r]
        h1, h2, core = spin_orbital_tensors(ints)
        w, v = np.linalg.eigh(h)
        psi0 = v[:, 0]
        rdms = compute_rdms(psi0, 4)
        e_g = float(np.real(psi0.conj() @ h @ psi0))
        direct = build_subspace_direct(basis, h, psi0)
        zc = approximate_lr("ZC", h1, h2, rdms, e_g, core_energy=core)
        worst_zc_eq = max(worst_zc_eq, np.abs(zc.h_sub - direct.h_sub).max())

        det = np.zeros(16)
        det[0b0011] = 1.0
        det_rdms = compute_rdms(det, 4)
        det_direct = build_subspace_direct(basis, h, det)
        za_det = approximate_lr("ZA", h1, h2, det_rdms,
                                float(np.real(det @ h @ det)), core_energy=core)
        worst_za_eq = max(worst_za_eq,
                          np.abs(za_det.h_sub - det_direct.h_sub).max())

        sector = np.linalg.eigvalsh(h[np.ix_(sector_indices(16, 2),
                                             sector_indices(16, 2))])
        za = approximate_lr("ZA", h1, h2, rdms, e_g, core_energy=core)
        zc_levels = solve_subspace(zc).eigenvalues[:3]
        za_levels = solve_subspace(za).eigenvalues[:3]
        zc_errors.append(np.abs(zc_levels - sector[:3]).max())
        za_errors.append(np.abs(za_levels - sector[:3]).max())
    elapsed = time.perf_counter() - start
    ok = (worst_zc_eq < 1e-8 and worst_za_eq < 1e-8
          and max(zc_errors) < max(za_errors))
    report(8, "commutator form exact; zero approximation qualitatively "
              "inferior", ok, elapsed, 120,
           f"ZC eq {worst_zc_eq:.2e}, ZA(slater) eq {worst_za_eq:.2e}, "
           f"errors ZC {max(zc_errors):.2e} vs ZA {max(za_errors):.2e}")


def test_criterion_9_cumulant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_slater = 0.0
    # random one-body rotations of a two-electron determinant
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        herm = 0.5 * (a + a.conj().T)
        gen = FermionOperator(4, {((p, True), (q, False)): 1j * herm[p, q]
                                   for p in range(4) for q in range(4)})
        gd = fermion_to_dense(gen)
        wv, vv = np.linalg.eigh(-1j * gd)
        expo = vv @ np.diag(np.exp(1j * wv)) @ vv.conj().T
        det = np.zeros(16, dtype=complex)
        det[0b0011] = 1.0
        state = expo @ det
        state /= np.linalg.norm(state)
        cums = cumulants_from_rdms(compute_rdms(state, 4))
        worst_slater = max(worst_slater, np.abs(cums.c2).max(),
                           np.abs(cums.c3).max(), np.abs(cums.c4).max())
    worst_round = 0.0
    for _ in range(5):
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        rdms = compute_rdms(v, 4)
        back = reconstruct_rdms(cumulants_from_rdms(rdms), 4)
        for k in (1, 2, 3, 4):
            worst_round = max(worst_round,
                              np.abs(back.d(k) - rdms.d(k)).max())
    worst_antisym = 0.0
    for _ in range(5):
        a = rng.normal(size=(3, 3, 3, 3))
        b = rng.normal(size=(3, 3))
        w = wedge(a, b)
        worst_antisym = max(worst_antisym,
                            np.abs(w + w.transpose(1, 0, 2, 3, 4, 5)).max(),
                            np.abs(w + w.transpose(0, 1, 2, 3, 5, 4)).max())
    elapsed = time.perf_counter() - start
    ok = worst_slater < 1e-10 and worst_round < 1e-12 and worst_antisym < 1e-12
    report(9, "determinant cumulants vanish; expansion round trip exact; "
              "wedge antisymmetric", ok, elapsed, 60,
           f"slater {worst_slater:.2e}, round trip {worst_round:.2e}, "
           f"antisym {worst_antisym:.2e}")


def test_criterion_10_fixture_sanity(sto3g_ints, sto3g_reference):
    from vcsqse.molecule import assemble_hamiltonian
    start = time.perf_counter()
    dense = fermion_to_dense(assemble_hamiltonian(sto3g_ints))
    idx = sector_indices(16, 2)
    ground = float(np.linalg.eigvalsh(dense[np.ix_(idx, idx)])[0])
    gap = abs(ground - sto3g_reference["fci_ground"])
    elapsed = time.perf_counter() - start
    report(10, "equilibrium fixture matches its recorded reference energy",
           gap < 1e-6, elapsed, 1, f"|deviation| {gap:.2e}")


GOLDEN_TOL = 1e-10


def golden_deviation(text, golden):
    """Largest field-wise |difference| of two CSVs; inf if shape or text differs."""
    got, want = text.splitlines(), golden.splitlines()
    if len(got) != len(want):
        return np.inf
    worst = 0.0
    for line_got, line_want in zip(got, want):
        a_fields, b_fields = line_got.split(","), line_want.split(",")
        if len(a_fields) != len(b_fields):
            return np.inf
        for a, b in zip(a_fields, b_fields):
            try:
                worst = max(worst, abs(float(a) - float(b)))
            except ValueError:
                if a != b:
                    return np.inf
    return worst


# Degeneracy-continuation events of each shipped config.
CONTINUATION_EVENTS = {"fig2_fidelity": 30, "fig3_spectrum": 0, "fig4_repair": 9,
                       "ground_channels": 30, "zero_approx": 0}


def test_criterion_11_suite_determinism(configs_dir, tmp_path):
    start = time.perf_counter()
    identical = True
    worst_golden = 0.0
    events = {}
    for name in CONTINUATION_EVENTS:
        cfg = load_config(configs_dir / f"{name}.cfg")
        cfg.output = None
        result = run_experiment(cfg)
        first = result.csv_text
        second = run_experiment(cfg).csv_text
        golden = (configs_dir.parent / "out" / f"{name}.csv").read_text()
        identical = identical and first.encode() == second.encode() == golden.encode()
        worst_golden = max(worst_golden, golden_deviation(first, golden))
        events[name] = result.continuation_events
    elapsed = time.perf_counter() - start
    report(11, "two runs of the full experiment suite are byte-identical "
               "to each other and to the tracked out/*.csv",
           identical and worst_golden <= GOLDEN_TOL and events == CONTINUATION_EVENTS,
           elapsed, 600,
           f"suite wall time (both runs) {elapsed:.1f}s, largest deviation "
           f"from out/*.csv {worst_golden:.2e}, continuation events {events}")
