import re
import struct
import tracemalloc

import numpy as np
import pytest

from fcidump_writer import render_fcidump
from fermion_oracle import loop_hamiltonian
from vcsqse.molecule import (FcidumpError, MolecularIntegrals, assemble_hamiltonian,
                             hamiltonian_from_tensors, load_sweep, parse_fcidump,
                             spin_orbital_tensors)
from vcsqse.operators import PRUNE_TOL, FermionOperator, fermion_to_dense

HEADER = "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"


def dump(body):
    return HEADER + body


class TestParse:
    def test_two_body_record(self):
        ints = parse_fcidump(dump("0.5 1 1 1 1\n"))
        assert ints.two_body[0, 0, 0, 0] == 0.5

    def test_core_record(self):
        ints = parse_fcidump(dump("0.7 0 0 0 0\n"))
        assert ints.core_energy == 0.7

    def test_eightfold_images(self):
        ints = parse_fcidump(dump("0.1 1 2 1 1\n"))
        v = ints.two_body
        for idx in [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)]:
            assert v[idx] == 0.1

    def test_one_body_symmetric(self):
        ints = parse_fcidump(dump("0.25 2 1 0 0\n"))
        assert ints.one_body[1, 0] == 0.25
        assert ints.one_body[0, 1] == 0.25

    def test_later_duplicates_overwrite(self):
        ints = parse_fcidump(dump("0.1 1 1 1 1\n0.9 1 1 1 1\n"))
        assert ints.two_body[0, 0, 0, 0] == 0.9

    def test_namelist_variants(self):
        text = "&FCI NORB= 2, NELEC=2,\n MS2=0, ORBSYM=1,1,\n ISYM=1,\n /\n0.5 1 1 1 1\n"
        ints = parse_fcidump(text)
        assert (ints.norb, ints.nelec, ints.ms2) == (2, 2, 0)

    def test_missing_header_key(self):
        with pytest.raises(FcidumpError, match="MS2"):
            parse_fcidump("&FCI NORB=2,NELEC=2,\n&END\n")

    def test_missing_terminator(self):
        with pytest.raises(FcidumpError, match="&END"):
            parse_fcidump("&FCI NORB=2,NELEC=2,MS2=0,\n0.5 1 1 1 1\n")

    def test_index_out_of_range_names_line(self):
        with pytest.raises(FcidumpError, match="line 3"):
            parse_fcidump(dump("0.5 1 3 1 1\n"))

    def test_malformed_numeric_names_line(self):
        with pytest.raises(FcidumpError, match="line 3"):
            parse_fcidump(dump("abc 1 1 1 1\n"))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_value_names_line(self, value):
        with pytest.raises(FcidumpError, match="line 3: value .* is not finite"):
            parse_fcidump(dump(f"{value} 1 1 1 1\n"))

    def test_oversized_norb_rejected_before_allocating(self):
        # 2 NORB = 12 is the largest register the dense kernels accept
        assert parse_fcidump("&FCI NORB=6,NELEC=2,MS2=0,\n&END\n").norb == 6
        tracemalloc.start()
        try:
            with pytest.raises(FcidumpError, match="NORB=1000000 gives 2000000 "
                                                   "spin orbitals, above the dense limit of 12"):
                parse_fcidump("&FCI NORB=1000000,NELEC=2,MS2=0,\n&END\n0.5 1 1 1 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("norb", [0, -1])
    def test_norb_below_one_rejected(self, norb):
        for body in ("", "0.5 1 1 1 1\n", "1.0 0 0 0 0\n"):
            with pytest.raises(FcidumpError, match=f"NORB={norb}: a system needs at "
                                                   "least one orbital"):
                parse_fcidump(f"&FCI NORB={norb},NELEC=2,MS2=0,\n&END\n{body}")

    def test_wrong_field_count(self):
        with pytest.raises(FcidumpError, match="expected"):
            parse_fcidump(dump("0.5 1 1 1\n"))

    def test_mixed_zero_pattern(self):
        with pytest.raises(FcidumpError, match="zero"):
            parse_fcidump(dump("0.5 1 1 2 0\n"))

    def test_invariants_validated(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            MolecularIntegrals(norb=2, nelec=2, ms2=0, core_energy=0.0,
                               one_body=bad, two_body=np.zeros((2, 2, 2, 2)))


class TestAssembly:
    def test_hubbard_atom(self):
        eps, u = -0.8, 1.7
        one = np.array([[eps]])
        two = np.full((1, 1, 1, 1), u)
        ints = MolecularIntegrals(norb=1, nelec=2, ms2=0, core_energy=0.0,
                                  one_body=one, two_body=two)
        dense = fermion_to_dense(assemble_hamiltonian(ints))
        # hand expansion: eps (n_a + n_b) + U n_a n_b on |0>,|a>,|b>,|ab>
        oracle = np.diag([0.0, eps, eps, 2 * eps + u])
        assert np.abs(dense - oracle).max() < 1e-12
        w = np.linalg.eigvalsh(dense)
        assert abs(min(w) - min(0.0, eps, 2 * eps + u)) < 1e-12

    def test_non_finite_tensor_entry_raises(self):
        """One NaN in h1 fails instead of vanishing from the Hamiltonian."""
        h1 = np.zeros((2, 2))
        h1[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            hamiltonian_from_tensors(h1, np.zeros((2,) * 4))

    @pytest.mark.parametrize("h1, h2", [(np.ones((2, 3)), np.zeros((2,) * 4)),
                                        (np.ones((2, 2)), np.zeros((3,) * 4))],
                             ids=["h1_not_square", "h2_other_m"])
    def test_tensor_shapes_must_agree(self, h1, h2):
        """A (2, 3) h1 would write mode 2 into a 2-mode operator, and a
        (3,)*4 h2 beside a (2, 2) h1 would fail inside numpy; both raise,
        naming the two shapes."""
        with pytest.raises(ValueError, match=f"{re.escape(str(h1.shape))}.*"
                                             f"{re.escape(str(h2.shape))}"):
            hamiltonian_from_tensors(h1, h2)

    def test_core_only(self):
        ints = MolecularIntegrals(norb=1, nelec=0, ms2=0, core_energy=0.37,
                                  one_body=np.zeros((1, 1)),
                                  two_body=np.zeros((1, 1, 1, 1)))
        dense = fermion_to_dense(assemble_hamiltonian(ints))
        assert np.abs(dense - 0.37 * np.eye(4)).max() < 1e-14

    def test_fixture_energy_against_recorded_reference(self, sto3g_ints,
                                                       sto3g_reference):
        dense = fermion_to_dense(assemble_hamiltonian(sto3g_ints))
        idx = [b for b in range(16) if bin(b).count("1") == 2]
        ground = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])[0]
        assert abs(ground - (-1.1372)) < 1e-3  # literature anchor
        assert abs(ground - sto3g_reference["fci_ground"]) < 1e-6

    def test_hamiltonian_commutes_with_symmetries(self, sto3g_ints, sym_dense):
        dense = fermion_to_dense(assemble_hamiltonian(sto3g_ints))
        for name, od in sym_dense.items():
            assert np.abs(dense @ od - od @ dense).max() < 1e-10

    def test_hermitian(self, sto3g_ints):
        dense = fermion_to_dense(assemble_hamiltonian(sto3g_ints))
        assert np.abs(dense - dense.conj().T).max() < 1e-12

    def test_energy_contraction_convention(self, sto3g_ints):
        # spin tensors satisfy the stated operator form
        h1, h2, core = spin_orbital_tensors(sto3g_ints)
        dense = fermion_to_dense(assemble_hamiltonian(sto3g_ints))
        rng = np.random.default_rng(0)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        v /= np.linalg.norm(v)
        from vcsqse.rdm import compute_rdms, contract_energy
        rdms = compute_rdms(v, 2)
        assert abs(contract_energy(h1, h2, rdms, core)
                   - np.real(v.conj() @ dense @ v)) < 1e-10

    def test_spatial_relabeling_invariance(self, sto3g_ints):
        perm = [1, 0]
        permuted = MolecularIntegrals(
            norb=2, nelec=2, ms2=0, core_energy=sto3g_ints.core_energy,
            one_body=sto3g_ints.one_body[np.ix_(perm, perm)],
            two_body=sto3g_ints.two_body[np.ix_(perm, perm, perm, perm)])
        d1 = fermion_to_dense(assemble_hamiltonian(sto3g_ints))
        d2 = fermion_to_dense(assemble_hamiltonian(permuted))
        idx = [b for b in range(16) if bin(b).count("1") == 2]
        w1 = np.linalg.eigvalsh(d1[np.ix_(idx, idx)])
        w2 = np.linalg.eigvalsh(d2[np.ix_(idx, idx)])
        assert np.abs(w1 - w2).max() < 1e-10


def random_integrals(seed, norb=4):
    """Random 8-fold-symmetric integrals with one orbit of (PS|QR) at
    1.5 PRUNE_TOL, which halves to below PRUNE_TOL."""
    rng = np.random.default_rng(seed)
    one = rng.normal(size=(norb, norb))
    two = rng.normal(size=(norb,) * 4)
    for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
        two = two + two.transpose(perm)
    for a, b, c, d in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                       (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)):
        two[a, b, c, d] = 1.5 * PRUNE_TOL
    return MolecularIntegrals(norb=norb, nelec=norb, ms2=0, core_energy=rng.normal(),
                              one_body=one + one.T, two_body=two)


def term_bits(op):
    """Terms in order, each with the bytes of its coefficient's two parts."""
    return [(seq, struct.pack("dd", complex(c).real, complex(c).imag))
            for seq, c in op.terms.items()]


class TestTermOrder:
    def test_fixture_hamiltonians_match_loop_oracle(self, sweep_points, sto3g_ints):
        for ints in [pt.integrals for pt in sweep_points] + [sto3g_ints]:
            tensors = spin_orbital_tensors(ints)
            assert term_bits(hamiltonian_from_tensors(*tensors)) == term_bits(
                loop_hamiltonian(*tensors))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_norb4_hamiltonian_matches_loop_oracle(self, seed):
        h1, h2, core = spin_orbital_tensors(random_integrals(seed))
        op = hamiltonian_from_tensors(h1, h2, core)
        assert op.mode_count == 8 and len(op.terms) > 800
        assert term_bits(op) == term_bits(loop_hamiltonian(h1, h2, core))
        # h2[0, 4, 6, 2] = (01|23) reaches PRUNE_TOL but its half does not
        assert h2[0, 4, 6, 2] == 1.5 * PRUNE_TOL
        assert ((0, True), (4, True), (6, False), (2, False)) not in op.terms


    @pytest.mark.parametrize("kept", [(1, 1, 1), (1, 1, 0), (1, 0, 0), (0, 0, 0)],
                             ids=["full", "no_two_body", "core_only", "zero"])
    def test_arrays_are_the_constructors(self, kept):
        """The arrays written from the tensors are those the constructor
        writes from the operator's terms: same width, bits and order."""
        h1, h2, core = spin_orbital_tensors(random_integrals(0))
        op = hamiltonian_from_tensors(h1 * kept[1], h2 * kept[2], core * kept[0])
        again = FermionOperator(op.mode_count, op.terms)
        assert again.ladder.shape == op.ladder.shape == (len(op.coeffs), 2 * sum(kept[1:]), 3)
        assert again.ladder.tobytes() == op.ladder.tobytes()
        assert again.coeffs.tobytes() == op.coeffs.tobytes()


class TestRoundTrip:
    def test_render_and_reparse(self, sweep_points):
        ints = sweep_points[10].integrals
        back = parse_fcidump(render_fcidump(ints))
        assert back.norb == ints.norb and back.nelec == ints.nelec
        assert abs(back.core_energy - ints.core_energy) < 1e-12
        assert np.abs(back.one_body - ints.one_body).max() < 1e-12
        assert np.abs(back.two_body - ints.two_body).max() < 1e-12


class TestSweep:
    def test_empty_manifest(self, tmp_path):
        mf = tmp_path / "sweep.manifest"
        mf.write_text("# nothing here\n")
        assert load_sweep(mf) == []

    def test_sorting(self, tmp_path, sto3g_path):
        mf = tmp_path / "sweep.manifest"
        mf.write_text(f"2.0 {sto3g_path}\n1.0 {sto3g_path}\n")
        pts = load_sweep(mf)
        assert [p.bond_length for p in pts] == [1.0, 2.0]

    def test_duplicate_bond_length(self, tmp_path, sto3g_path):
        mf = tmp_path / "sweep.manifest"
        mf.write_text(f"1.0 {sto3g_path}\n1.0 {sto3g_path}\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_sweep(mf)

    def test_missing_fixture(self, tmp_path):
        mf = tmp_path / "sweep.manifest"
        mf.write_text("1.0 nothere.fcidump\n")
        with pytest.raises(FileNotFoundError):
            load_sweep(mf)

    def test_sto6g_sweep_fixture(self, sweep_points):
        assert len(sweep_points) == 28
        lengths = [p.bond_length for p in sweep_points]
        assert lengths == sorted(lengths)
        assert all(p.integrals.norb == 2 for p in sweep_points)  # 4 spin orbitals
        assert all(p.integrals.nelec == 2 for p in sweep_points)
