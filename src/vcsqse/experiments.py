"""Experiment drivers: deterministic CSV reproductions of the study figures.

Each experiment walks the bond-length sweep and emits one row per sweep
point per curve with 12-significant-digit values, so repeated runs of the
same configuration are byte-identical. A channel curve solves all its
points as one VCS stack before its rows are written, continuing along
ascending R, and a qse-repair curve then its subspace problems as one
chunked stack; a failure still names the sweep point R it happened at.
Column schemas are documented in docs/experiments.md.
"""

import time
from dataclasses import dataclass, field, replace
from itertools import groupby
from math import comb
from operator import attrgetter
from pathlib import Path

import numpy as np

from .channels import ChannelSpec, channel_kind_from_token, lift_to_register, \
    single_qubit_channel
from .config import ConfigError, ExperimentConfig
from .linalg import StackError, _sector_eigh, _stacked
from .molecule import FcidumpError, assemble_hamiltonian, load_sweep, \
    parse_fcidump, spin_orbital_tensors
from .operators import dense_symmetry, fermion_to_dense, jordan_wigner
from .qse import FERMIONIC_MODE_LIMIT, SUBSPACE_STACK_BYTES, approximate_lr, \
    build_subspace_direct, check_subspace_bytes, fermionic_basis, project_symmetry, \
    qubit_basis, solve_subspace, subspace_expectation
from .rdm import RDM_MODE_LIMIT, compute_rdms, estimate_pauli
from .vcs import fidelity, no_variation_baseline, solve_vcs

CHANNEL_TOKENS = ("dephasing", "ap", "depol")
# Channel curves are named by their channel token; ph_s2pen is ph with the
# spin penalty.
GROUND_CURVES = ("exact", "rhf", "ph", "ap", "depol", "ph_s2pen")
S2_PENALTY_WEIGHT = 100.0


class ExperimentError(RuntimeError):
    """Numerical failure, annotated with the offending sweep point."""


@dataclass
class RunResult:
    experiment: str
    header: list
    rows: list
    csv_text: str
    wall_seconds: float
    continuation_events: int
    output: str | None = None

    def summary(self) -> str:
        dest = self.output or "(not written)"
        return (f"{self.experiment}: {len(self.rows)} rows -> {dest} "
                f"in {self.wall_seconds:.2f} s; "
                f"degeneracy-continuation events: {self.continuation_events}")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".12g")


def _csv(header, rows) -> str:
    """CSV text, each row formatted as _fmt would by one template per tuple of field types."""
    lines, templates = [",".join(header)], {}
    for row in rows:
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = ",".join("%s" if issubclass(t, str) else "%.12g" for t in types)
        lines.append(templates[types] % tuple(row))
    return "\n".join(lines) + "\n"


@dataclass
class _Point:
    bond_length: float | None
    integrals: object
    h_op: object
    h_dense: np.ndarray
    mode_count: int
    symmetry_dense: dict = field(default_factory=dict)
    eigh: tuple = None

    def exact(self):
        """FCI levels, their full-length eigenvectors and particle numbers."""
        if self.eigh is None:
            dim = self.h_dense.shape[0]
            self.eigh = _sector_eigh(self.h_dense, np.bitwise_count(np.arange(dim)))
        return self.eigh


def _point(integrals, bond_length=None) -> _Point:
    """One prepared point with its dense Hamiltonian and symmetry matrices."""
    h_op = assemble_hamiltonian(integrals)
    m = h_op.mode_count
    return _Point(bond_length=bond_length, integrals=integrals, h_op=h_op,
                  h_dense=fermion_to_dense(h_op), mode_count=m,
                  symmetry_dense={name: dense_symmetry(name, m)
                                  for name in ("number", "s_squared")})


def _channel(cfg: ExperimentConfig, kind: str, m: int):
    """The lifted `kind` channel at cfg's ratios (the defaults without a
    [channel] section) on m qubits."""
    spec = replace(cfg.channel or ChannelSpec(kind), kind=kind)
    return lift_to_register(single_qubit_channel(spec), m)


def _guarded(fn, where, experiment):
    """fn(), with any failure but an ExperimentError raised as one naming `where`:
    a label, or sweep points, of which a StackError names the one it indexes
    and any other failure the first."""
    try:
        return fn()
    except ExperimentError:
        raise
    except Exception as exc:
        if not isinstance(where, str):
            index = exc.index if isinstance(exc, StackError) else 0
            where = f"sweep point R={where[index].bond_length}"
        reason = exc.reason if isinstance(exc, StackError) else exc
        raise ExperimentError(f"{experiment}: failure at {where}: {reason}") from exc


def _sweep(cfg: ExperimentConfig, curves, step, solve=None):
    """Rows of every curve over the configured sweep, and the continuation events.

    A curve covers the points in ascending R, in runs of consecutive points
    that share a mode count (one run when every fixture has the same NORB).
    solve(run, curve) solves a run as one stack, continuing along it, and
    returns per-point sequences, the VCS solutions first (any later one, such
    as qse-repair's subspace results, built from them), or None for a curve
    without them; step(point, curve, *the point's items of them) returns
    that point's rows.
    """
    points = [_point(pt.integrals, pt.bond_length)
              for pt in load_sweep(cfg.sweep_manifest)]
    rows, events = [], 0
    for curve in curves:
        for _, run in groupby(points, key=attrgetter("mode_count")):
            run = list(run)
            solved = (solve and _guarded(lambda: solve(run, curve), run, cfg.experiment)) or ()
            for point, *items in zip(run, *solved):
                rows += _guarded(lambda: step(point, curve, *items), [point], cfg.experiment)
            events += sum(sol.continuation_used for sol in solved[0]) if solved else 0
    return rows, events


def _ground_states(cfg: ExperimentConfig, run):
    """Each point's exact reference state, a failure naming its point."""
    return [_guarded(lambda: point.exact()[1][:, 0], [point], cfg.experiment)
            for point in run]


def _fidelity_sweep(cfg: ExperimentConfig):
    def solve(run, token):
        ch = _channel(cfg, channel_kind_from_token(token), run[0].mode_count)
        hs, psi0 = [point.h_dense for point in run], _ground_states(cfg, run)
        sols = solve_vcs(hs, ch, penalties=cfg.penalties)
        return (sols, no_variation_baseline(hs, ch, psi0),
                fidelity(np.stack([sol.output_rho for sol in sols]), np.stack(psi0)))

    def step(point, token, sol, base, vs_exact):
        return [(point.bond_length, token, sol.fidelity_io, base.fidelity_io,
                 vs_exact, sol.energy)]

    rows, events = _sweep(cfg, CHANNEL_TOKENS, step, solve)
    header = ["R", "channel", "fidelity_vcs", "fidelity_novar",
              "fidelity_vs_exact", "energy_vcs"]
    return header, rows, events


def _basis_for(cfg: ExperimentConfig, point: _Point):
    if cfg.subspace_kind == "qubit":
        return qubit_basis(point.mode_count, cfg.subspace_order)
    return fermionic_basis(point.mode_count, cfg.subspace_order)


def _spectrum(cfg: ExperimentConfig):
    def step(point, *_):
        w_full, v, n = point.exact()
        prob = build_subspace_direct(_basis_for(cfg, point), point.h_dense,
                                     v[:, 0], point.symmetry_dense)
        if cfg.projection is not None:
            name, target, window = cfg.projection
            prob = project_symmetry(prob, name, target, window, cfg.metric_cutoff)
        spec = solve_subspace(prob, cfg.metric_cutoff)
        return [(point.bond_length, method, i, float(e))
                for method, levels in (("qse", spec.eigenvalues),
                                       ("fci_sector", w_full[n == point.integrals.nelec]),
                                       ("fci_full", w_full))
                for i, e in enumerate(levels)]

    rows, _ = _sweep(cfg, (None,), step)
    return ["R", "method", "level", "energy"], rows, 0


def _qse_repair(cfg: ExperimentConfig):
    kind = cfg.channel.kind if cfg.channel is not None else "amplitude_phase"
    proj = cfg.projection or ("s_squared", 0.0, 0.5)

    def ground(probs):
        """Ground level and its <S^2> of each problem of a stack."""
        spectra = solve_subspace(probs, cfg.metric_cutoff)
        return ([float(spec.eigenvalues[0]) for spec in spectra], subspace_expectation(
            probs, "s_squared", [spec.eigenvectors[:, 0] for spec in spectra]).tolist())

    def solve(run, ref_name):
        ch = _channel(cfg, kind, run[0].mode_count)
        hs = [point.h_dense for point in run]
        sols = (solve_vcs(hs, ch, penalties=cfg.penalties) if ref_name == "vcs"
                else no_variation_baseline(hs, ch, _ground_states(cfg, run)))
        basis, sym = fermionic_basis(run[0].mode_count, 1), run[0].symmetry_dense

        def solve_chunk(start, h, _):
            chunk = sols[start:start + len(h)]
            # unconstrained expansion around each mixed channel output
            prob_out = build_subspace_direct(
                basis, h, np.stack([sol.output_rho for sol in chunk]), sym)
            # symmetry-projected expansion around each pure input state
            projected = project_symmetry(build_subspace_direct(
                basis, h, np.stack([sol.input_state for sol in chunk]), sym),
                *proj, cfg.metric_cutoff)
            (e_qse, s2_qse), (e_proj, s2_proj) = map(ground, (prob_out, projected))
            return list(zip(e_qse, e_proj, s2_qse, s2_proj))

        return sols, _stacked(hs, solve_chunk, 2 * len(basis) * hs[0].size * 8,
                              SUBSPACE_STACK_BYTES)

    def step(point, ref_name, sol, sub):
        return [(point.bond_length, ref_name, float(point.exact()[0][0]), sol.energy,
                 *sub[:2], sol.symmetry_expectations["s_squared"], *sub[2:])]

    rows, events = _sweep(cfg, ("vcs", "novar"), step, solve)
    header = ["R", "reference", "energy_exact", "energy_ref", "energy_qse",
              "energy_qse_s2proj", "s2_ref", "s2_qse", "s2_qse_s2proj"]
    return header, rows, events


def _ground_channels(cfg: ExperimentConfig):
    def solve(run, curve):
        if curve in ("exact", "rhf"):
            return None
        penalties = list(cfg.penalties)
        if curve == "ph_s2pen":
            penalties = [("s_squared", 0.0, S2_PENALTY_WEIGHT)]
        ch = _channel(cfg, channel_kind_from_token(curve.removesuffix("_s2pen")),
                      run[0].mode_count)
        return (solve_vcs([point.h_dense for point in run], ch, penalties=penalties),)

    def step(point, curve, sol=None):
        s2d = point.symmetry_dense["s_squared"]
        if curve == "exact":
            w, v, _ = point.exact()
            vec = v[:, 0]
            return [(point.bond_length, curve, float(w[0]),
                     float(np.real(vec.conj() @ s2d @ vec)))]
        if curve == "rhf":
            det = (1 << point.integrals.nelec) - 1
            return [(point.bond_length, curve, float(np.real(point.h_dense[det, det])),
                     float(np.real(s2d[det, det])))]
        return [(point.bond_length, curve, sol.energy,
                 sol.symmetry_expectations["s_squared"])]

    rows, events = _sweep(cfg, GROUND_CURVES, step, solve)
    return ["R", "curve", "energy", "s2"], rows, events


def _approx_spectrum(cfg: ExperimentConfig, levels: int = 3):
    def step(point, *_):
        psi0 = point.exact()[1][:, 0]
        h1, h2, core = spin_orbital_tensors(point.integrals)
        rdms = compute_rdms(psi0, 3)
        e_g = float(np.real(psi0.conj() @ point.h_dense @ psi0))
        basis = fermionic_basis(point.mode_count, 1)
        direct = build_subspace_direct(basis, point.h_dense, psi0)
        zc = approximate_lr("ZC", h1, h2, rdms, e_g, core_energy=core)
        za = approximate_lr("ZA", h1, h2, rdms, e_g, core_energy=core)
        rows = []
        for method, prob in (("exact", direct), ("zc", zc), ("za", za)):
            spec = solve_subspace(prob, cfg.metric_cutoff)
            for i in range(min(levels, spec.retained_dim)):
                rows.append((point.bond_length, method, i,
                             float(spec.eigenvalues[i])))
        return rows

    rows, _ = _sweep(cfg, (None,), step)
    return ["R", "method", "level", "energy"], rows, 0


_EXPERIMENTS = {
    "fidelity-sweep": _fidelity_sweep,
    "spectrum": _spectrum,
    "qse-repair": _qse_repair,
    "ground-channels": _ground_channels,
    "approx-spectrum": _approx_spectrum,
}


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Execute a sweep experiment and (optionally) write its CSV."""
    cfg.validate()
    if cfg.experiment == "single-point":
        raise ConfigError("single-point produces a report; use single_point()")
    start = time.perf_counter()
    header, rows, events = _EXPERIMENTS[cfg.experiment](cfg)
    wall = time.perf_counter() - start
    text = _csv(header, rows)
    if cfg.output:
        out = Path(cfg.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text)
    return RunResult(experiment=cfg.experiment, header=header, rows=rows,
                     csv_text=text, wall_seconds=wall,
                     continuation_events=events, output=cfg.output)


def single_point(cfg: ExperimentConfig) -> str:
    """Human-readable report for one fixture; numerical failures raise ExperimentError."""
    cfg.validate()
    if cfg.experiment != "single-point":
        raise ConfigError(f"single_point() got experiment {cfg.experiment!r}")
    try:
        ints = parse_fcidump(Path(cfg.fcidump).read_text())
    except ValueError as exc:  # a malformed record, or bytes that are not UTF-8
        raise FcidumpError(f"{cfg.fcidump}: {exc}") from None
    modes = 2 * ints.norb
    for used, what, name, limit in (
            (cfg.subspace_kind == "fermionic", "a fermionic subspace",
             "FERMIONIC_MODE_LIMIT", FERMIONIC_MODE_LIMIT),
            (cfg.sampled_rdms, "sampled RDMs", "RDM_MODE_LIMIT", RDM_MODE_LIMIT)):
        if used and modes > limit:
            raise ConfigError(f"{cfg.fcidump}: NORB={ints.norb} gives {modes} spin "
                              f"orbitals, above {name}={limit} for {what}")
    # a qubit basis holds 1 + 3n single Paulis and 9 C(n, 2) pairs, all complex
    qubit, k = cfg.subspace_kind == "qubit", cfg.subspace_order
    n_b = (1 + 3 * modes + 9 * comb(modes, 2) * (k == 2) if qubit
           else len(fermionic_basis(modes, k)))
    itemsize = 16 if qubit else 8
    try:
        check_subspace_bytes(n_b, 2 ** modes, cfg.channel is not None, itemsize, itemsize)
    except ValueError as exc:
        raise ConfigError(f"{cfg.fcidump}: {exc}") from None
    return _guarded(lambda: _point_report(cfg, ints), f"fixture {cfg.fcidump}",
                    cfg.experiment)


def _point_report(cfg: ExperimentConfig, ints) -> str:
    point = _point(ints)
    m, h_dense = point.mode_count, point.h_dense
    w, v, n = point.exact()
    w_sector = w[n == ints.nelec]

    lines = [f"fixture: {cfg.fcidump}",
             f"norb={ints.norb} nelec={ints.nelec} ms2={ints.ms2} "
             f"core_energy={_fmt(ints.core_energy)}",
             f"fci ground (N={ints.nelec} sector): {_fmt(w_sector[0])}",
             f"fci levels (N={ints.nelec} sector): "
             + " ".join(_fmt(x) for x in w_sector),
             f"fci ground (full space):          {_fmt(w[0])}"]

    psi0 = v[:, 0]
    if cfg.channel is not None:
        ch = lift_to_register(single_qubit_channel(cfg.channel), m)
        sol = solve_vcs(h_dense, ch, penalties=cfg.penalties)
        base = no_variation_baseline(h_dense, ch, psi0)
        lines += [f"channel: {cfg.channel.kind} tp/t1={_fmt(cfg.channel.tp_over_t1)} "
                  f"tp/t2={_fmt(cfg.channel.tp_over_t2)}",
                  f"  vcs energy={_fmt(sol.energy)} fidelity_io={_fmt(sol.fidelity_io)} "
                  f"<N>={_fmt(sol.symmetry_expectations['number'])} "
                  f"<S2>={_fmt(sol.symmetry_expectations['s_squared'])}",
                  f"  no-variation energy={_fmt(base.energy)} "
                  f"fidelity_io={_fmt(base.fidelity_io)}",
                  f"  fidelity_vs_exact={_fmt(fidelity(sol.output_rho, psi0))}"]
        reference_state = sol.output_rho
    else:
        reference_state = psi0

    basis = _basis_for(cfg, point)
    prob = build_subspace_direct(basis, h_dense, reference_state,
                                 point.symmetry_dense)
    if cfg.projection is not None:
        name, target, window = cfg.projection
        prob = project_symmetry(prob, name, target, window, cfg.metric_cutoff)
    spec = solve_subspace(prob, cfg.metric_cutoff)
    ground = spec.eigenvectors[:, 0]
    lines += [f"subspace: kind={cfg.subspace_kind} k={cfg.subspace_order} "
              f"size={len(basis)} retained_dim={spec.retained_dim}",
              "subspace levels: " + " ".join(_fmt(x) for x in spec.eigenvalues),
              f"subspace ground <N>={_fmt(subspace_expectation(prob, 'number', ground))} "
              f"<S2>={_fmt(subspace_expectation(prob, 's_squared', ground))}"]

    if cfg.shots is not None:
        count, seed = cfg.shots
        est, err = estimate_pauli(psi0, jordan_wigner(point.h_op), count, (seed, 0))
        lines += [f"sampled ground energy ({count} shots/term, seed {seed}): "
                  f"{_fmt(est)} +- {_fmt(err)} (exact {_fmt(w[0])})"]
        if cfg.sampled_rdms:
            lines += _sampled_rdm_lines(cfg, ints, psi0, count, seed, w_sector[0])
    return "\n".join(lines) + "\n"


def _sampled_rdm_lines(cfg, ints, psi0, count, seed, e_sector):
    """Feed measurement-pathway RDMs into the subspace machinery."""
    from .qse import build_lr_from_rdms as _lr
    from .rdm import contract_energy, sample_rdms
    h1, h2, core = spin_orbital_tensors(ints)
    rdms = sample_rdms(psi0, 4, count, seed)
    e_meas = contract_energy(h1, h2, rdms, core_energy=core)
    lines = [f"sampled-rdm energy ({count} shots/word, seed {seed}): "
             f"{_fmt(e_meas)} (exact {_fmt(e_sector)})"]
    prob = _lr(h1, h2, rdms, core_energy=core)
    try:
        spec = solve_subspace(prob, cfg.metric_cutoff)
        lines.append(f"sampled-rdm qse ground: {_fmt(spec.eigenvalues[0])} "
                     f"(retained_dim {spec.retained_dim})")
    except ValueError as exc:
        lines.append(f"sampled-rdm qse ground: not solvable at "
                     f"metric_cutoff={_fmt(cfg.metric_cutoff)} ({exc}); "
                     "raise --metric-cutoff above the sampling noise")
    return lines
