import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import fcidump_oracle as oracle
from fcidump_writer import render_fcidump
from fermion_oracle import loop_hamiltonian
from vcsqse import cli, operators
from vcsqse.molecule import (FcidumpError, MolecularIntegrals, _term_table, assemble_hamiltonian,
                             dense_hamiltonians, hamiltonian_from_tensors, load_sweep,
                             parse_fcidump, spin_orbital_tensors)
from vcsqse.operators import PRUNE_TOL, FermionOperator, _ladder_dense, fermion_to_dense

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

    @pytest.mark.parametrize("body", [
        "0.5 1 1 1 1\n0.7 1 1 0 0\n5.0 1 1 0 0\n",
        "0.3 1 2 0 0\n0.1 2 1 0 0\n",
        "0.1 1 2 1 1\n0.2 1 1 2 1\n",
        "0.7 0 0 0 0\n0.8 0 0 0 0\n",
    ], ids=["h1_repeat", "h1_image", "h2_image", "core"])
    def test_conflicting_duplicate_records_raise(self, body):
        """A record writes its whole symmetry orbit, so a later record of the
        same orbit with another value is refused, naming both lines."""
        with pytest.raises(FcidumpError, match=r"line \d+: value .* conflicts with .* at line \d+"):
            parse_fcidump(dump(body))

    def test_equal_duplicate_records_parse(self):
        ints = parse_fcidump(dump("0.3 1 2 0 0\n0.3 2 1 0 0\n0.1 1 2 1 1\n0.1 2 1 1 1\n"
                                  "0.1 1 1 1 2\n0.7 0 0 0 0\n0.7 0 0 0 0\n"))
        assert ints.one_body[0, 1] == ints.one_body[1, 0] == 0.3
        assert ints.two_body[0, 1, 0, 0] == ints.two_body[0, 0, 1, 0] == 0.1
        assert ints.core_energy == 0.7

    @pytest.mark.parametrize("signs", [("-0.0", "0.0"), ("0.0", "-0.0")])
    def test_equal_duplicates_write_the_last_zero_sign(self, signs):
        """-0.0 and 0.0 are equal, so both records parse; the later one is
        written, as when records were written one at a time."""
        text = dump(f"{signs[0]} 2 1 1 1\n0.5 1 1 0 0\n{signs[1]} 1 1 1 2\n")  # one orbit
        ints = parse_fcidump(text)
        assert np.signbit(ints.two_body[1, 0, 0, 0]) == signs[1].startswith("-")
        assert ints.two_body.tobytes() == oracle.parse_fcidump(text).two_body.tobytes()

    def test_conflicting_duplicate_in_a_shipped_fixture_exits_2(self, sto3g_path, tmp_path,
                                                                capsys):
        """The STO-3G fixture with h11 written again as 5.0 is bad input, not
        an N = 2 ground of +0.456 Ha."""
        path = tmp_path / "conflict.fcidump"
        path.write_text(sto3g_path.read_text() + "5.0 1 1 0 0\n")
        assert cli.main(["point", "--fcidump", str(path)]) == 2
        assert "line 12: value 5.0 conflicts with" in capsys.readouterr().err

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

    @pytest.mark.parametrize("record", ["0.5 1 0 0 0", "0.5 0 2 0 0"])
    def test_one_body_record_with_a_zero_index(self, record):
        with pytest.raises(FcidumpError, match="^line 4: one-body record with a zero index$"):
            parse_fcidump(dump(f"0.5 1 1 0 0\n{record}\n"))

    def test_invariants_validated(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            MolecularIntegrals(norb=2, nelec=2, ms2=0, core_energy=0.0,
                               one_body=bad, two_body=np.zeros((2, 2, 2, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["one_body", "two_body", "core_energy"])
    def test_non_finite_integral_names_its_field(self, field, value):
        """A NaN passes the symmetry checks (nan > tol is False), so every
        field is checked for non-finite entries first."""
        fields = {"core_energy": 0.0, "one_body": np.zeros((2, 2)),
                  "two_body": np.zeros((2,) * 4)}
        if field == "core_energy":
            fields[field] = value
        else:
            fields[field][(0,) * fields[field].ndim] = value
        with pytest.raises(ValueError, match=f"^{field} has non-finite entries$"):
            MolecularIntegrals(norb=2, nelec=2, ms2=0, **fields)

    def test_non_finite_entry_is_named_before_an_asymmetric_field(self):
        """The fused defect check re-derives the message in the old order: a
        NaN in two_body is named even though one_body is not symmetric."""
        one, two = np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2,) * 4)
        two[0, 1, 0, 0] = np.nan
        assert oracle.check_integrals(0.0, one, two) == "two_body has non-finite entries"
        with pytest.raises(ValueError, match="^two_body has non-finite entries$"):
            MolecularIntegrals(norb=2, nelec=2, ms2=0, core_energy=0.0, one_body=one,
                               two_body=two)

    @seed(7)
    @settings(max_examples=200, deadline=None, database=None)
    @given(rng_seed=st.integers(0, 2 ** 32 - 1),
           defects=st.lists(st.tuples(st.sampled_from(["core", "one", "two"]),
                                      st.sampled_from([np.nan, np.inf, -np.inf, 1e-13, 1e-11,
                                                       1e300])), max_size=3))
    def test_integral_check_matches_the_oracle(self, rng_seed, defects):
        """Non-finite entries and symmetry defects below, near and above
        _SYM_TOL, alone and together, give the oracle's message or none."""
        ints = random_integrals(rng_seed)
        core, one, two = ints.core_energy, ints.one_body.copy(), ints.two_body.copy()
        rng = np.random.default_rng(rng_seed)
        for field, value in defects:
            if field == "core":
                core = value
            else:
                target = one if field == "one" else two
                with np.errstate(invalid="ignore"):  # inf + -inf is a NaN entry
                    target[tuple(rng.integers(4, size=target.ndim))] += value
        expected = oracle.check_integrals(core, one, two)
        if expected is None:
            MolecularIntegrals(4, 4, 0, core, one, two)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                MolecularIntegrals(4, 4, 0, core, one, two)

    def test_magnitude_is_not_bounded(self, sto3g_path, tmp_path, capsys):
        """A finite value is taken as written, however large: 1e300 parses
        bit for bit (alone and in a sweep) and a point report exits 0."""
        text = dump("1e300 1 1 1 1\n-1e300 2 1 0 0\n1e300 0 0 0 0\n")
        ints = parse_fcidump(text)
        assert ints.two_body[0, 0, 0, 0] == ints.core_energy == -ints.one_body[0, 1] == 1e300
        (tmp_path / "big.fcidump").write_text(text)
        (tmp_path / "sweep.manifest").write_text("0.7 big.fcidump\n")
        swept = load_sweep(tmp_path / "sweep.manifest")[0].integrals
        assert swept.two_body.tobytes() == ints.two_body.tobytes()
        big = tmp_path / "big_core.fcidump"
        big.write_text(sto3g_path.read_text().replace(" 7.1375399368761816e-01   0", " 1e300   0"))
        assert cli.main(["point", "--fcidump", str(big)]) == 0
        assert "core_energy=1e+300" in capsys.readouterr().out


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


def member_tensors(rng, m, members):
    """Random (members, m, m) h1, (members, m, m, m, m) h2 and (members,)
    core. Each entry of each member is independently kept, zeroed (+-0.0),
    scaled below PRUNE_TOL or set to 1.5 PRUNE_TOL (kept in h1 and core,
    halved below it in h2), so one member keeps terms another prunes."""
    tensors = [rng.normal(size=(members,) + (m,) * k) for k in (2, 4, 0)]
    for t in tensors:
        kind = rng.integers(4, size=t.shape)
        t[kind == 1] *= 0.0
        t[kind == 2] *= 1e-16
        t[kind == 3] = 1.5 * PRUNE_TOL
    return tensors


class TestStackedBuild:
    @seed(31)
    @settings(max_examples=60, deadline=None, database=None)
    @given(rng_seed=st.integers(0, 2 ** 32 - 1), m=st.sampled_from([2, 4, 6]),
           members=st.integers(1, 5), chunk=st.integers(1, 1 << 9))
    @example(rng_seed=0, m=4, members=5, chunk=1)
    @example(rng_seed=1, m=6, members=3, chunk=1 << 7)
    def test_stack_equals_each_member_alone(self, rng_seed, m, members, chunk):
        """The stacked build is, bit for bit, each member's own operator and
        dense build, with chunks of `chunk` entries splitting the term list
        (chunk < terms x 2^m) and the members (chunk < members x alive)."""
        h1, h2, core = member_tensors(np.random.default_rng(rng_seed), m, members)
        alone = np.stack([fermion_to_dense(hamiltonian_from_tensors(*t))
                          for t in zip(h1, h2, core)])
        ladder, coeffs = _term_table(h1, h2, core)
        # some term is kept by one member and pruned, an exact 0, in another
        assert members == 1 or ((coeffs == 0) & (coeffs != 0).any(axis=0)).any()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "DENSE_CHUNK_ENTRIES", chunk)
            got = _ladder_dense(m, ladder, coeffs)
        assert got.dtype == np.float64
        assert got.tobytes() == alone.tobytes()

    def test_sweep_stack_equals_the_per_point_route(self, sweep_points):
        hs = dense_hamiltonians([pt.integrals for pt in sweep_points])
        assert hs.shape == (28, 16, 16)
        assert hs.tobytes() == np.stack([fermion_to_dense(assemble_hamiltonian(pt.integrals))
                                         for pt in sweep_points]).tobytes()

    def test_28_member_m8_build_stays_within_one_chunk_budget(self):
        """A 28-member M = 8 stack takes its 14 MiB output plus at most one
        chunk's 64 bytes per entry, scattered a block of members at a time."""
        ints = [random_integrals(seed) for seed in range(28)]
        tracemalloc.start()
        try:
            hs = dense_hamiltonians(ints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= hs.nbytes + 64 * operators.DENSE_CHUNK_ENTRIES
        assert hs[27].tobytes() == fermion_to_dense(assemble_hamiltonian(ints[27])).tobytes()


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

    @pytest.mark.parametrize("fixture_line, bond_line", [(2, 4), (4, 2)],
                             ids=["fixture_first", "bond_length_first"])
    @pytest.mark.parametrize("bad_fixture", ["&FCI NORB=2,NELEC=2,\n&END\n",
                                             HEADER + "0.5 1 1 1 1\n0.5 1 3 1 1\n"],
                             ids=["header", "record"])
    def test_first_failing_manifest_line_is_reported(self, tmp_path, sto3g_path, fixture_line,
                                                     bond_line, bad_fixture):
        """A bad fixture and a bad bond length: the earlier manifest line is
        named, whether the fixture fails in its header (checked while the
        manifest is read) or in a record (checked in the stacked pass)."""
        (tmp_path / "bad.fcidump").write_text(bad_fixture)
        lines = [f"{0.5 + k} {sto3g_path}" for k in range(5)]
        lines[fixture_line - 1] = "0.9 bad.fcidump"
        lines[bond_line - 1] = f"abc {sto3g_path}"
        mf = tmp_path / "sweep.manifest"
        mf.write_text("\n".join(lines) + "\n")
        with pytest.raises(FcidumpError) as got:
            load_sweep(mf)
        assert str(got.value).startswith(f"{mf}:{min(fixture_line, bond_line)}: ")
        assert got.value.__suppress_context__  # a traceback shows the reported error alone
        with pytest.raises(FcidumpError, match=f"^{re.escape(str(got.value))}$"):
            oracle.load_sweep(mf)

    def test_label_is_the_stem_the_manifest_gives(self, tmp_path, sto3g_path):
        """Fixture paths are joined to the manifest's resolved directory and
        not resolved one by one, so a symlinked fixture keeps the name the
        manifest gives it."""
        (tmp_path / "alias.fcidump").symlink_to(sto3g_path)
        (tmp_path / "sweep.manifest").write_text("0.7 alias.fcidump\n")
        pt, = load_sweep(tmp_path / "sweep.manifest")
        assert pt.label == "alias"
        assert pt.integrals.two_body.tobytes() == parse_fcidump(
            sto3g_path.read_text()).two_body.tobytes()

    def test_every_member_of_a_mixed_stack_is_contiguous(self, tmp_path, sto3g_path):
        """An NORB = 2 member of a stack padded to NORB = 3 is copied out, so
        every member's tensors are C-contiguous, as a lone parse gives them."""
        two = np.random.default_rng(3).normal(size=(3,) * 4)
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            two = two + two.transpose(perm)
        (tmp_path / "norb3.fcidump").write_text(render_fcidump(MolecularIntegrals(
            3, 2, 0, 0.1, np.eye(3), two)))
        (tmp_path / "sweep.manifest").write_text(f"0.7 {sto3g_path}\n0.9 norb3.fcidump\n")
        points = load_sweep(tmp_path / "sweep.manifest")
        for pt, lone in zip(points, oracle.load_sweep(tmp_path / "sweep.manifest")):
            for field in ("one_body", "two_body"):
                got = getattr(pt.integrals, field)
                assert got.flags.c_contiguous and got.tobytes() == getattr(
                    lone.integrals, field).tobytes()

    def test_mixed_norb_sweep(self, tmp_path, sweep_manifest, capsys):
        """A manifest interleaving NORB = 1 and NORB = 2 fixtures by R parses
        like the oracle, fixture by fixture, and `vcsqse run` spectrum gives
        the rows of the two single-NORB sweeps, merged by R."""
        for k, (eps, u) in enumerate([(-0.8, 1.7), (-0.6, 1.2)]):
            (tmp_path / f"norb1_{k}.fcidump").write_text(render_fcidump(MolecularIntegrals(
                1, 2, 0, 0.3, np.array([[eps]]), np.full((1,) * 4, u))))
        sto6g = [sweep_manifest.parent / f"h2_sto6g_r{r}.fcidump" for r in ("0.7000", "1.1000")]
        norb1 = ["0.5 norb1_0.fcidump", "0.9 norb1_1.fcidump"]
        norb2 = [f"0.7 {sto6g[0]}", f"1.1 {sto6g[1]}"]
        rows = {}
        for name, lines in [("mixed", [norb1[0], norb2[0], norb1[1], norb2[1]]),
                            ("norb1", norb1), ("norb2", norb2)]:
            mf = tmp_path / f"{name}.manifest"
            mf.write_text("\n".join(lines) + "\n")
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(f"[run]\nexperiment = spectrum\nsweep_manifest = {mf}\n")
            assert cli.main(["run", "--config", str(cfg), "--output",
                             str(tmp_path / f"{name}.csv")]) == 0
            rows[name] = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
        capsys.readouterr()
        def parsed(load):
            return [(pt.bond_length, pt.label, pt.integrals.norb, pt.integrals.core_energy,
                     pt.integrals.one_body.tobytes(), pt.integrals.two_body.tobytes(),
                     pt.integrals.one_body.flags.c_contiguous,
                     pt.integrals.two_body.flags.c_contiguous)
                    for pt in load(tmp_path / "mixed.manifest")]

        assert [norb for _, _, norb, *_ in parsed(load_sweep)] == [1, 2, 1, 2]
        assert parsed(load_sweep) == parsed(oracle.load_sweep)
        assert rows["mixed"] == sorted(rows["norb1"] + rows["norb2"],
                                       key=lambda row: float(row.split(",")[0]))
