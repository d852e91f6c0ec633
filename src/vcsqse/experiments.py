"""Experiment drivers: deterministic CSV reproductions of the study figures.

Each experiment walks the bond-length sweep and emits one row per sweep
point per curve with 12-significant-digit values, so repeated runs of the
same configuration are byte-identical. A run's Hamiltonians are one stacked
build and its FCI levels one stacked sector eigh. A channel curve solves all
its points as one VCS stack before its rows are written, continuing along
ascending R; qse-repair, spectrum and approx-spectrum curves then build and
solve their subspace (and RDM) problems as chunked stacks. A failure still
names the sweep point R.
Column schemas are documented in docs/experiments.md.
"""

import time
from dataclasses import dataclass, field, replace
from itertools import groupby
from math import comb
from pathlib import Path

import numpy as np

from . import qse
from .channels import ChannelSpec, channel_kind_from_token, lift_to_register, \
    single_qubit_channel
from .config import ConfigError, ExperimentConfig
from .linalg import StackError, _expectation, _sector_eigh, _stacked
from .molecule import FcidumpError, assemble_hamiltonian, dense_hamiltonians, load_sweep, \
    parse_fcidump, spin_orbital_tensors
from .operators import dense_symmetry, jordan_wigner
from .qse import FERMIONIC_MODE_LIMIT, SubspaceProblem, approximate_lr, build_subspace_direct, \
    fermionic_basis, project_symmetry, qubit_basis, solve_subspace, subspace_expectation
from .rdm import RDM_MODE_LIMIT, RdmSet, _pure_blocks, contract_energy, estimate_pauli, sample_rdms
from .vcs import fidelity, no_variation_baseline, solve_vcs

CHANNEL_TOKENS = ("dephasing", "ap", "depol")
# Channel curves are named by their channel token; ph_s2pen is ph with the
# spin penalty.
GROUND_CURVES = ("exact", "rhf", "ph", "ap", "depol", "ph_s2pen")
S2_PENALTY_WEIGHT = 100.0
APPROX_METHODS = ("exact", "zc", "za")


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
    h_dense: np.ndarray  # its member of the run's stacked build
    mode_count: int
    symmetry_dense: dict = field(default_factory=dict)
    # FCI levels, their full-length eigenvectors and particle numbers (_solve_exact)
    exact: tuple = None


class _Run(list):
    """Prepared points of (bond_length, integrals) members sharing norb, and h,
    their Hamiltonians as one dense_hamiltonians build (each h_dense a member)."""

    def __init__(self, members):
        self.h, m = dense_hamiltonians([ints for _, ints in members]), 2 * members[0][1].norb
        sym = {name: dense_symmetry(name, m) for name in ("number", "s_squared")}
        super().__init__(_Point(r, ints, h, m, sym) for (r, ints), h in zip(members, self.h))


def _solve_exact(run: _Run) -> _Run:
    """run's points, each given its FCI levels by one stacked sector eigh of run.h."""
    for pt, *exact in zip(run, *_sector_eigh(run.h, np.bitwise_count(np.arange(len(run.h[0]))))):
        pt.exact = tuple(exact)
    return run


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


def _sweep(cfg: ExperimentConfig, curves, step, solve=None, subspace=None):
    """Rows of every curve over the configured sweep, and the continuation events.

    Fixtures are checked against the limits of the experiment's subspace
    (_check_size's kind, order[, matrix]) before any point is prepared. A
    curve covers the points in ascending R, in runs of consecutive points
    that share a mode count, each run's FCI levels from one stacked sector
    eigh. solve(run, curve) solves a run as one stack and returns per-point
    sequences, or None; step(point, curve, *the point's items of them) gives
    its rows. Continuation events count on the first sequence (0 for non-VCS).
    """
    sweep = load_sweep(cfg.sweep_manifest)
    for pt in sweep if subspace else ():
        _check_size(f"{cfg.sweep_manifest}: fixture {pt.label} at R={pt.bond_length}",
                    pt.integrals.norb, *subspace)
    runs = [_Run([(pt.bond_length, pt.integrals) for pt in run])
            for _, run in groupby(sweep, key=lambda pt: pt.integrals.norb)]
    for run in runs:
        _guarded(lambda: _solve_exact(run), run, cfg.experiment)
    rows, events = [], 0
    for curve in curves:
        for run in runs:
            solved = (solve and _guarded(lambda: solve(run, curve), run, cfg.experiment)) or ()
            for point, *items in zip(run, *solved):
                rows += _guarded(lambda: step(point, curve, *items), [point], cfg.experiment)
            events += sum(getattr(x, "continuation_used", 0) for x in solved[0]) if solved else 0
    return rows, events


def _fidelity_sweep(cfg: ExperimentConfig):
    def solve(run, token):
        ch = _channel(cfg, channel_kind_from_token(token), run[0].mode_count)
        psi0 = [point.exact[1][:, 0] for point in run]
        sols = solve_vcs(run.h, ch, penalties=cfg.penalties)
        return (sols, no_variation_baseline(run.h, ch, psi0),
                fidelity(np.stack([sol.output_rho for sol in sols]), np.stack(psi0)))

    def step(point, token, sol, base, vs_exact):
        return [(point.bond_length, token, sol.fidelity_io, base.fidelity_io,
                 vs_exact, sol.energy)]

    rows, events = _sweep(cfg, CHANNEL_TOKENS, step, solve)
    header = ["R", "channel", "fidelity_vcs", "fidelity_novar",
              "fidelity_vs_exact", "energy_vcs"]
    return header, rows, events


def _basis(m: int, kind: str, order: int):
    return qubit_basis(m, order) if kind == "qubit" else fermionic_basis(m, order)


def _chunked(run, basis, matrix, solve_chunk, *members):
    """_stacked over run.h and members within qse.SUBSPACE_STACK_BYTES, a point charged the
    qse.action_bytes of its build around a vector, or a density matrix if `matrix`."""
    return _stacked(run.h, *members, solve_chunk=solve_chunk, limit=qse.SUBSPACE_STACK_BYTES,
                    charge=qse.action_bytes(len(basis), run.h.shape[-1], matrix,
                                            np.result_type(run.h, basis.weight, float).itemsize))


def _pure_chunks(subspace, solve_chunk):
    """A _sweep solve running solve_chunk(points, basis, h, psi) over _chunked chunks of a run,
    basis its `subspace` (kind, order) and psi the stacked ground states, a point charged the
    action stacks around a vector: 2 n_b 2^M entries, 4.4 KB at M = 4 (fermionic k = 1)."""
    def solve(run, _):
        basis = _basis(run[0].mode_count, *subspace)
        return (_chunked(run, basis, False, lambda _, h, __, points: solve_chunk(
            points, basis, h, np.stack([pt.exact[1][:, 0] for pt in points])), run),)
    return solve


def _spectrum(cfg: ExperimentConfig):
    def solve_chunk(points, basis, h, psi):
        sym = {n: points[0].symmetry_dense[n] for n in (cfg.projection or ())[:1]}
        prob = build_subspace_direct(basis, h, psi, sym)
        if cfg.projection is not None:
            prob = project_symmetry(prob, *cfg.projection, cfg.metric_cutoff)
        return solve_subspace(prob, cfg.metric_cutoff)

    def step(point, _, spec):
        w_full, _, n = point.exact
        return [(point.bond_length, method, i, float(e))
                for method, levels in (("qse", spec.eigenvalues),
                                       ("fci_sector", w_full[n == point.integrals.nelec]),
                                       ("fci_full", w_full))
                for i, e in enumerate(levels)]

    subspace = (cfg.subspace_kind, cfg.subspace_order)
    rows, _ = _sweep(cfg, (None,), step, _pure_chunks(subspace, solve_chunk), subspace)
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
        sols = (solve_vcs(run.h, ch, penalties=cfg.penalties) if ref_name == "vcs"
                else no_variation_baseline(run.h, ch, [point.exact[1][:, 0] for point in run]))
        basis = fermionic_basis(run[0].mode_count, 1)
        sym = {name: run[0].symmetry_dense[name] for name in (proj[0], "s_squared")}

        def solve_chunk(start, h, _, chunk):
            # unconstrained expansion around each mixed channel output
            prob_out = build_subspace_direct(
                basis, h, np.stack([sol.output_rho for sol in chunk]), sym)
            # symmetry-projected expansion around each pure input state
            projected = project_symmetry(build_subspace_direct(
                basis, h, np.stack([sol.input_state for sol in chunk]), sym),
                *proj, cfg.metric_cutoff)
            (e_qse, s2_qse), (e_proj, s2_proj) = map(ground, (prob_out, projected))
            return list(zip(e_qse, e_proj, s2_qse, s2_proj))

        return sols, _chunked(run, basis, True, solve_chunk, sols)

    def step(point, ref_name, sol, sub):
        return [(point.bond_length, ref_name, float(point.exact[0][0]), sol.energy,
                 *sub[:2], sol.symmetry_expectations["s_squared"], *sub[2:])]

    rows, events = _sweep(cfg, ("vcs", "novar"), step, solve, ("fermionic", 1, True))
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
        return (solve_vcs(run.h, ch, penalties=penalties),)

    def step(point, curve, sol=None):
        s2d = point.symmetry_dense["s_squared"]
        if curve == "exact":
            w, v, _ = point.exact
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
    def solve_chunk(points, basis, h, psi):
        m = points[0].mode_count
        h1, h2, core = map(np.stack, zip(*(spin_orbital_tensors(pt.integrals) for pt in points)))
        # the stacked pure states' RDMs, as compute_rdms(psi, 3) gives each
        rdms = RdmSet(mode_count=m, blocks=tuple(_pure_blocks(psi, m, 3)))
        e_g = _expectation(psi, h)
        probs = (build_subspace_direct(basis, h, psi),
                 approximate_lr("ZC", h1, h2, rdms, e_g, core_energy=core),
                 approximate_lr("ZA", h1, h2, rdms, e_g, core_energy=core))
        h_sub, s_sub = (np.concatenate(mats) for mats in zip(*((p.h_sub, p.s_sub) for p in probs)))
        try:  # member i * P + j is point j's problem of method i
            spectra = solve_subspace(SubspaceProblem(h_sub, s_sub), cfg.metric_cutoff)
        except StackError as exc:
            method, j = divmod(exc.index, len(points))
            raise StackError(j, f"{APPROX_METHODS[method]} problem: {exc.reason}") from exc
        return [spectra[i::len(points)] for i in range(len(points))]

    def step(point, _, spectra):
        return [(point.bond_length, method, i, float(spec.eigenvalues[i]))
                for method, spec in zip(APPROX_METHODS, spectra)
                for i in range(min(levels, spec.retained_dim))]

    rows, _ = _sweep(cfg, (None,), step, _pure_chunks(("fermionic", 1), solve_chunk),
                     ("fermionic", 1))
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
    _check_size(cfg.fcidump, ints.norb, cfg.subspace_kind, cfg.subspace_order,
                cfg.channel is not None, cfg.sampled_rdms)
    return _guarded(lambda: _point_report(cfg, ints), f"fixture {cfg.fcidump}",
                    cfg.experiment)


def _check_size(where, norb: int, kind: str, order: int, matrix=False, sampled=False):
    """Raise ConfigError naming `where` and the limit if NORB = norb puts a `kind` subspace of
    `order` around a vector (or `matrix`), or sampled RDMs, above a mode or byte limit."""
    modes = 2 * norb
    for used, what, name, limit in (
            (kind == "fermionic", "a fermionic subspace",
             "FERMIONIC_MODE_LIMIT", FERMIONIC_MODE_LIMIT),
            (sampled, "sampled RDMs", "RDM_MODE_LIMIT", RDM_MODE_LIMIT)):
        if used and modes > limit:
            raise ConfigError(f"{where}: NORB={norb} gives {modes} spin "
                              f"orbitals, above {name}={limit} for {what}")
    # a qubit basis holds 1 + 3n single Paulis and 9 C(n, 2) pairs, all complex
    n_b, itemsize = ((1 + 3 * modes + 9 * comb(modes, 2) * (order == 2), 16) if kind == "qubit"
                     else (len(fermionic_basis(modes, order)), 8))
    try:
        qse.check_subspace_bytes(n_b, 2 ** modes, matrix, itemsize, itemsize)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _point_report(cfg: ExperimentConfig, ints) -> str:
    point, = _solve_exact(_Run([(None, ints)]))
    m, h_dense = point.mode_count, point.h_dense
    w, v, n = point.exact
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

    basis = _basis(m, cfg.subspace_kind, cfg.subspace_order)
    prob = build_subspace_direct(basis, h_dense, reference_state, point.symmetry_dense)
    if cfg.projection is not None:
        prob = project_symmetry(prob, *cfg.projection, cfg.metric_cutoff)
    spec = solve_subspace(prob, cfg.metric_cutoff)
    ground = spec.eigenvectors[:, 0]
    lines += [f"subspace: kind={cfg.subspace_kind} k={cfg.subspace_order} "
              f"size={len(basis)} retained_dim={spec.retained_dim}",
              "subspace levels: " + " ".join(_fmt(x) for x in spec.eigenvalues),
              f"subspace ground <N>={_fmt(subspace_expectation(prob, 'number', ground))} "
              f"<S2>={_fmt(subspace_expectation(prob, 's_squared', ground))}"]

    if cfg.shots is not None:
        count, seed = cfg.shots
        h_op = assemble_hamiltonian(ints)
        est, err = estimate_pauli(psi0, jordan_wigner(h_op), count, (seed, 0))
        lines += [f"sampled ground energy ({count} shots/term, seed {seed}): "
                  f"{_fmt(est)} +- {_fmt(err)} (exact {_fmt(w[0])})"]
        if cfg.sampled_rdms:
            lines += _sampled_rdm_lines(cfg, ints, psi0, count, seed, w_sector[0])
    return "\n".join(lines) + "\n"


def _sampled_rdm_lines(cfg, ints, psi0, count, seed, e_sector):
    """Feed measurement-pathway RDMs into the subspace machinery."""
    h1, h2, core = spin_orbital_tensors(ints)
    rdms = sample_rdms(psi0, 4, count, seed)
    e_meas = contract_energy(h1, h2, rdms, core_energy=core)
    lines = [f"sampled-rdm energy ({count} shots/word, seed {seed}): "
             f"{_fmt(e_meas)} (exact {_fmt(e_sector)})"]
    prob = qse.build_lr_from_rdms(h1, h2, rdms, core_energy=core)
    try:
        spec = solve_subspace(prob, cfg.metric_cutoff)
        lines.append(f"sampled-rdm qse ground: {_fmt(spec.eigenvalues[0])} "
                     f"(retained_dim {spec.retained_dim})")
    except ValueError as exc:
        lines.append(f"sampled-rdm qse ground: not solvable at "
                     f"metric_cutoff={_fmt(cfg.metric_cutoff)} ({exc}); "
                     "raise --metric-cutoff above the sampling noise")
    return lines
