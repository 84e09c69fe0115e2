"""Experiment configuration: JSON parsing, defaults, profiles, digests.

The "full" profile mirrors the reference bench setup (1.92 kOhm, 10 nF,
50 masks, square carrier at ~5.8 kHz, 0.4-1 V window, 100 MHz sampling).
The "desk" profile trades fidelity for runtime: 1 MHz sampling, a shorter
hold factor, fewer cases, and a slightly lower resistance where the
piecewise-linear diode model shows the same rich dynamics the reference
op-amp model shows near 1.92 kOhm.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import lwe as lwe_mod
from .circuit import ChuaParams, DiodePwl
from .errors import ConfigurationError
from .pipeline import ReservoirConfig
from .tasks import TaskSpec

PROFILES = ("full", "desk")


def carrier_frequency(r_variable: float, c1: float, omega: float = 0.7) -> float:
    """Drive frequency tied to the circuit's RC corner: omega / (2*pi*R*C1)."""
    return omega / (2.0 * math.pi * r_variable * c1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, seedable and hashable."""

    circuit: ChuaParams
    reservoir: ReservoirConfig
    task: TaskSpec
    lwe: lwe_mod.LweParams | None
    n_cases: int
    val_fraction: float
    master_seed: int
    out_dir: str
    profile: str = "full"

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigurationError("profile", f"must be one of {PROFILES}")
        if self.n_cases < 1:
            raise ConfigurationError("n_cases", "need at least 1 case")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigurationError("val_fraction", "must lie strictly between 0 and 1")


def default_config(profile: str = "full", task_kind: str = "polynomial") -> ExperimentConfig:
    """Built-in defaults; see the module docstring for the two profiles."""
    if profile == "desk":
        r_variable = 1800.0
        sample_rate = 1e6
        theta = 4
        n_cases = 320
    else:
        r_variable = 1920.0
        sample_rate = 1e8
        theta = 10
        n_cases = 2900
    c1 = 10e-9
    circuit = ChuaParams(r_variable=r_variable, c1=c1, c2=100e-9, l=18e-3, r_series=17.0)
    reservoir = ReservoirConfig(
        v_min=0.4,
        v_max=1.0,
        value_max=6.0,
        n_mask=50,
        mask_deviation=0.01,
        theta=theta,
        carrier="square",
        f_carrier=carrier_frequency(r_variable, c1),
        n_periods=5,
        sample_rate=sample_rate,
        middle_fraction=0.8,
        seed=0,
    )
    return ExperimentConfig(
        circuit=circuit,
        reservoir=reservoir,
        task=TaskSpec(kind=task_kind),
        lwe=lwe_mod.LweParams() if task_kind.startswith("lwe") else None,
        n_cases=n_cases,
        val_fraction=0.2,
        master_seed=0,
        out_dir="out",
        profile=profile,
    )


def _number(value, path: str) -> float:
    """A finite float from a JSON number or a numeric string."""
    if not isinstance(value, (int, float, str)) or isinstance(value, bool):
        raise ConfigurationError(path, f"must be a number, got {value!r}")
    try:
        x = float(value)
    except (ValueError, OverflowError):
        raise ConfigurationError(path, f"must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigurationError(path, f"must be finite, got {value!r}")
    return x


def _integer(value, path: str) -> int:
    """An int from a JSON number or numeric string with an integral value."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    x = _number(value, path)
    if not x.is_integer():
        raise ConfigurationError(path, f"must be an integer, got {value!r}")
    return int(x)


def _pair(value, path: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigurationError(path, f"must be a list of two numbers, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigurationError(path, f"must be true or false, got {value!r}")
    return value


def _text(value, path: str) -> str:
    return str(value)


#: The keys of each config section and the parser of each field; None
#: marks a key parse_config reads itself. Any other key is an error.
_SCHEMA = {
    "": {"profile": None, "circuit": None, "reservoir": None, "task": None, "lwe": None,
         "n_cases": _integer, "val_fraction": _number, "master_seed": _integer,
         "out_dir": _text},
    "circuit": {**dict.fromkeys(("r_variable", "c1", "c2", "l", "r_series"), _number),
                "diode": None},
    "circuit.diode": dict.fromkeys(("g_inner", "g_mid", "g_outer", "bp_inner", "bp_outer"),
                                   _number),
    "reservoir": {"v_min": _number, "v_max": _number, "value_max": _number, "n_mask": _integer,
                  "mask_deviation": _number, "theta": _integer, "carrier": _text,
                  "f_carrier": _number, "n_periods": _integer, "sample_rate": _number,
                  "middle_fraction": _number, "use_envelope": _flag, "seed": _integer},
    "task": {"kind": _text, "x_range": _pair, "modulo_base": _number, "poly_mod_base": _number,
             "pair_max": _integer, "inner_radius": _number, "outer_radii": _pair},
    "lwe": {**dict.fromkeys(("q", "n", "m", "n_samples", "s"), _integer), "error_mode": None},
    "lwe.error_mode": {"kind": None, "lo": _integer, "hi": _integer, "alpha": _number},
}


def _dotted(path: str, name) -> str:
    return f"{path}.{name}" if path else str(name)


def _section(raw: dict, path: str) -> dict:
    """The object at dotted ``path`` ({} when absent; ``raw`` itself for the
    top level) from its parent ``raw``, checked to hold only the keys that
    section takes."""
    value = raw.get(path.rsplit(".", 1)[-1], {}) if path else raw
    if not isinstance(value, dict):
        raise ConfigurationError(path or "<config>", "must be a JSON object")
    for key in value:
        if key not in _SCHEMA[path]:
            raise ConfigurationError(_dotted(path, key), f"unknown key; {path or 'the top level'}"
                                     f" takes {', '.join(_SCHEMA[path])}")
    return value


def _fields(section: dict, path: str, defaults=None) -> dict:
    """The fields of section ``path`` that have a parser, parsed from
    ``section``; an absent field takes the attribute of ``defaults``, or is
    left out when there are none."""
    return {name: parse(section[name], _dotted(path, name)) if name in section
            else getattr(defaults, name) for name, parse in _SCHEMA[path].items()
            if parse and (name in section or defaults is not None)}


def _parse_circuit(d: dict, defaults: ChuaParams) -> ChuaParams:
    diode = defaults.diode
    if "diode" in d:
        fields = _fields(_section(d, "circuit.diode"), "circuit.diode", diode)
        try:
            diode = DiodePwl(**fields)
        except ConfigurationError as exc:
            raise ConfigurationError(f"circuit.{exc.field}", str(exc)) from None
    return ChuaParams(diode=diode, **_fields(d, "circuit", defaults))


def _parse_lwe(raw: dict) -> lwe_mod.LweParams:
    d = _section(raw, "lwe")
    params = _fields(d, "lwe")
    if "error_mode" in d:
        mode = _section(d, "lwe.error_mode")
        kind = mode.get("kind", "uniform")
        if kind not in ("uniform", "gaussian"):
            raise ConfigurationError("lwe.error_mode.kind", f"must be uniform or gaussian, got {kind!r}")
        if kind == "gaussian" and "alpha" not in mode:
            raise ConfigurationError("lwe.error_mode.alpha", "required for gaussian errors")
        params["error_mode"] = {"kind": kind, **_fields(mode, "lwe.error_mode")}
    return lwe_mod.params_from_dict(params)


def parse_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path, JSON text, or a dict.

    Missing fields fall back to the profile defaults (an empty object gives
    the full bench setup). An unknown key, a value of the wrong type, a
    non-finite number, a non-integral value for an integer field, and any
    invariant violation raise ConfigurationError naming the offending field
    path.
    """
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        try:
            if Path(text).exists():
                text = Path(text).read_text()
        except OSError:
            pass
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError("<config>", f"malformed JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("<config>", "top level must be a JSON object")
    _section(raw, "")

    profile = raw.get("profile", "full")
    task_raw = _section(raw, "task")
    task_kind = task_raw.get("kind", "polynomial")
    if not isinstance(task_kind, str):
        raise ConfigurationError("task.kind", f"must be a string, got {task_kind!r}")
    base = default_config(profile=profile, task_kind=task_kind)

    circuit = _parse_circuit(_section(raw, "circuit"), base.circuit)
    # carrier frequency follows the circuit unless pinned explicitly
    reservoir = replace(base.reservoir, f_carrier=carrier_frequency(circuit.r_variable, circuit.c1))
    reservoir = ReservoirConfig(**_fields(_section(raw, "reservoir"), "reservoir", reservoir))
    task = TaskSpec(**_fields(task_raw, "task", TaskSpec(kind=task_kind)))
    lwe_params = None
    if task.kind.startswith("lwe") or "lwe" in raw:
        lwe_params = _parse_lwe(raw)

    return ExperimentConfig(
        circuit=circuit,
        reservoir=reservoir,
        task=task,
        lwe=lwe_params,
        profile=profile,
        **_fields(raw, "", base),
    )


def serialize_config(cfg: ExperimentConfig) -> dict:
    """Canonical dict form; parse_config(serialize_config(cfg)) is idempotent."""
    d = {
        "profile": cfg.profile,
        "circuit": {
            "r_variable": cfg.circuit.r_variable,
            "c1": cfg.circuit.c1,
            "c2": cfg.circuit.c2,
            "l": cfg.circuit.l,
            "r_series": cfg.circuit.r_series,
            "diode": {
                "g_inner": cfg.circuit.diode.g_inner,
                "g_mid": cfg.circuit.diode.g_mid,
                "g_outer": cfg.circuit.diode.g_outer,
                "bp_inner": cfg.circuit.diode.bp_inner,
                "bp_outer": cfg.circuit.diode.bp_outer,
            },
        },
        "reservoir": {
            "v_min": cfg.reservoir.v_min,
            "v_max": cfg.reservoir.v_max,
            "value_max": cfg.reservoir.value_max,
            "n_mask": cfg.reservoir.n_mask,
            "mask_deviation": cfg.reservoir.mask_deviation,
            "theta": cfg.reservoir.theta,
            "carrier": cfg.reservoir.carrier,
            "f_carrier": cfg.reservoir.f_carrier,
            "n_periods": cfg.reservoir.n_periods,
            "sample_rate": cfg.reservoir.sample_rate,
            "middle_fraction": cfg.reservoir.middle_fraction,
            "use_envelope": cfg.reservoir.use_envelope,
            "seed": cfg.reservoir.seed,
        },
        "task": {
            "kind": cfg.task.kind,
            "x_range": list(cfg.task.x_range),
            "modulo_base": cfg.task.modulo_base,
            "poly_mod_base": cfg.task.poly_mod_base,
            "pair_max": cfg.task.pair_max,
            "inner_radius": cfg.task.inner_radius,
            "outer_radii": list(cfg.task.outer_radii),
        },
        "n_cases": cfg.n_cases,
        "val_fraction": cfg.val_fraction,
        "master_seed": cfg.master_seed,
        "out_dir": cfg.out_dir,
    }
    if cfg.lwe is not None:
        d["lwe"] = lwe_mod.params_to_dict(cfg.lwe)
    return d


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable short hash of the canonical config, embedded in every artifact.

    The output directory is excluded: it does not influence any result.
    """
    payload = serialize_config(cfg)
    payload.pop("out_dir", None)
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seed_for(master_seed: int, *parts) -> int:
    """Deterministic child seed derived from the master seed and a tag tuple."""
    text = ":".join([str(master_seed)] + [repr(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")
