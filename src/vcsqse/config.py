"""Experiment configuration: flat key-value files with [section] headers."""

import configparser
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .channels import ChannelSpec, channel_kind_from_token, channel_spec_tokens
from .qse import QSE_METRIC_CUTOFF

EXPERIMENTS = ("fidelity-sweep", "spectrum", "qse-repair", "ground-channels",
               "approx-spectrum", "single-point")
PENALTY_OPERATORS = ("number", "sz", "s_squared")
# shots per Pauli word and seed of a [shots] section, and of `vcsqse point`
DEFAULT_SHOT_COUNT = 10000
DEFAULT_SHOT_SEED = 0


class ConfigError(ValueError):
    """Configuration that cannot be turned into a run plan."""


@dataclass
class ExperimentConfig:
    experiment: str
    sweep_manifest: str | None = None
    fcidump: str | None = None
    output: str | None = None
    metric_cutoff: float = QSE_METRIC_CUTOFF
    channel: ChannelSpec | None = None
    subspace_kind: str = "fermionic"
    subspace_order: int = 1
    projection: tuple | None = None          # (name, target, window)
    penalties: list = field(default_factory=list)  # [(name, target, weight)]
    shots: tuple | None = None               # (count, seed)
    sampled_rdms: bool = False               # feed sampled RDMs into the QSE

    def validate(self):
        problems = []
        if self.experiment not in EXPERIMENTS:
            problems.append(f"unknown experiment {self.experiment!r}")
        needs_sweep = self.experiment in ("fidelity-sweep", "spectrum", "qse-repair",
                                          "ground-channels", "approx-spectrum")
        if needs_sweep:
            if not self.sweep_manifest:
                problems.append(f"{self.experiment} needs sweep_manifest")
            elif not Path(self.sweep_manifest).is_file():
                problems.append(f"sweep_manifest {self.sweep_manifest} does not exist")
        if self.experiment == "single-point":
            if not self.fcidump:
                problems.append("single-point needs fcidump")
            elif not Path(self.fcidump).is_file():
                problems.append(f"fcidump {self.fcidump} does not exist")
        if self.subspace_kind not in ("fermionic", "qubit"):
            problems.append(f"unknown subspace kind {self.subspace_kind!r}")
        if self.subspace_order not in (1, 2):
            problems.append("subspace k must be 1 or 2")
        if not 0 < self.metric_cutoff < 1:
            problems.append("metric_cutoff must lie in (0, 1)")
        weighted = [("penalty", "weight", *penalty) for penalty in self.penalties]
        if self.projection is not None:
            weighted.append(("projection", "window", *self.projection))
        for role, scale_name, name, target, scale in weighted:
            if name not in PENALTY_OPERATORS:
                problems.append(f"unknown {role} operator {name!r}")
            if not math.isfinite(target):
                problems.append(f"{role} target for {name} must be finite")
            if not 0 <= scale < math.inf:
                problems.append(f"{role} {scale_name} for {name} must be finite and non-negative")
        if self.shots is not None and self.shots[0] < 1:
            problems.append("shots count must be at least 1")
        if self.shots is not None and self.shots[1] < 0:
            problems.append("shots seed must be non-negative")
        if self.sampled_rdms and self.shots is None:
            problems.append("sampled_rdms needs a [shots] section")
        if problems:
            raise ConfigError("; ".join(problems))
        return self


def parse_config(text: str, base_dir=".") -> ExperimentConfig:
    """Parse the INI-style experiment file; paths resolve against base_dir."""
    base = Path(base_dir)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    if "run" not in parser:
        raise ConfigError("missing [run] section")
    run = parser["run"]

    def path_of(key):
        raw = run.get(key)
        return str((base / raw).resolve()) if raw else None

    cfg = ExperimentConfig(experiment=run.get("experiment", ""))
    cfg.sweep_manifest = path_of("sweep_manifest")
    cfg.fcidump = path_of("fcidump")
    out = run.get("output")
    cfg.output = str((base / out).resolve()) if out else None
    try:
        cfg.metric_cutoff = run.getfloat("metric_cutoff", fallback=cfg.metric_cutoff)
    except ValueError as exc:
        raise ConfigError(f"bad [run] value: {exc}") from None

    if "channel" in parser:
        sec = parser["channel"]
        try:
            kind = channel_kind_from_token(sec.get("channel", "dephasing"))
            ratios = {key: sec.getfloat(key) for key in ("tp_over_t1", "tp_over_t2")
                      if key in sec}
            cfg.channel = ChannelSpec(kind=kind, **ratios)
        except ValueError as exc:
            raise ConfigError(f"bad [channel] section: {exc}") from None

    if "subspace" in parser:
        sec = parser["subspace"]
        cfg.subspace_kind = sec.get("kind", "fermionic")
        try:
            cfg.subspace_order = sec.getint("k", fallback=1)
        except ValueError as exc:
            raise ConfigError(f"bad [subspace] value: {exc}") from None

    if "projection" in parser:
        sec = parser["projection"]
        try:
            cfg.projection = (sec.get("name", ""), sec.getfloat("target", 0.0),
                              sec.getfloat("window", 0.5))
        except ValueError as exc:
            raise ConfigError(f"bad [projection] value: {exc}") from None

    if "penalties" in parser:
        for name, value in parser["penalties"].items():
            fields = value.split()
            if len(fields) != 2:
                raise ConfigError(f"penalty {name}: expected `target weight`")
            try:
                cfg.penalties.append((name, float(fields[0]), float(fields[1])))
            except ValueError:
                raise ConfigError(f"penalty {name}: non-numeric field") from None

    if "shots" in parser:
        sec = parser["shots"]
        try:
            cfg.shots = (sec.getint("count", fallback=DEFAULT_SHOT_COUNT),
                         sec.getint("seed", fallback=DEFAULT_SHOT_SEED))
            cfg.sampled_rdms = sec.getboolean("sampled_rdms", fallback=False)
        except ValueError as exc:
            raise ConfigError(f"bad [shots] value: {exc}") from None
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(path.read_text(), base_dir=path.parent)


def config_to_text(cfg: ExperimentConfig) -> str:
    """Canonical re-serialization (absolute paths, fixed key order)."""
    parser = configparser.ConfigParser()
    run = {"experiment": cfg.experiment}
    if cfg.sweep_manifest:
        run["sweep_manifest"] = cfg.sweep_manifest
    if cfg.fcidump:
        run["fcidump"] = cfg.fcidump
    if cfg.output:
        run["output"] = cfg.output
    run["metric_cutoff"] = repr(cfg.metric_cutoff)
    parser["run"] = run
    if cfg.channel is not None:
        parser["channel"] = {k: str(v) for k, v in channel_spec_tokens(cfg.channel).items()}
    parser["subspace"] = {"kind": cfg.subspace_kind, "k": str(cfg.subspace_order)}
    if cfg.projection is not None:
        name, target, window = cfg.projection
        parser["projection"] = {"name": name, "target": repr(target),
                                "window": repr(window)}
    if cfg.penalties:
        parser["penalties"] = {name: f"{target!r} {weight!r}"
                               for name, target, weight in cfg.penalties}
    if cfg.shots is not None:
        parser["shots"] = {"count": str(cfg.shots[0]), "seed": str(cfg.shots[1]),
                           "sampled_rdms": str(cfg.sampled_rdms).lower()}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()
