"""Experiment configuration: JSON parsing, defaults, profiles, digests.

The "full" profile mirrors the reference bench setup (1.92 kOhm, 10 nF,
50 masks, square carrier at ~5.8 kHz, 0.4-1 V window, 100 MHz sampling).
The "desk" profile trades fidelity for runtime: 1 MHz sampling, a shorter
hold factor, fewer cases, and a slightly lower resistance where the
piecewise-linear diode model shows the same rich dynamics the reference
op-amp model shows near 1.92 kOhm.

One codec reads and writes every section. It walks ``dataclasses.fields``
of the config dataclasses, picks each leaf parser from the field's type,
and fills an absent field from the profile's defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cache
from pathlib import Path

from . import lwe as lwe_mod
from .circuit import ChuaParams, kennedy_circuit
from .errors import ConfigurationError
from .pipeline import ReservoirConfig
from .tasks import TaskSpec, check_split

#: What each profile sets over the dataclass defaults and the Kennedy
#: circuit: (r_variable, sample_rate, theta, n_cases).
PROFILES = {"full": (1920.0, 1e8, 10, 2900), "desk": (1800.0, 1e6, 4, 320)}


def carrier_frequency(r_variable: float, c1: float) -> float:
    """Drive frequency tied to the circuit's RC corner: 0.7 / (2*pi*R*C1)."""
    return 0.7 / (2.0 * math.pi * r_variable * c1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, seedable and hashable."""

    circuit: ChuaParams
    reservoir: ReservoirConfig
    task: TaskSpec
    lwe: lwe_mod.LweParams | None
    n_cases: int
    val_fraction: float = 0.2
    master_seed: int = 0
    out_dir: str = "out"
    profile: str = "full"

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigurationError("profile", f"must be one of {tuple(PROFILES)}")
        self.task.check_n_cases(self.n_cases)
        if (self.lwe is not None) != self.task.is_lwe:
            raise ConfigurationError("lwe", f"must be set exactly for lwe tasks; task is {self.task.kind}")
        check_split(self.n_cases, self.val_fraction)


def _derive(profile: str, circuit: ChuaParams, task: TaskSpec,
            reservoir: ReservoirConfig) -> ExperimentConfig:
    """The profile's config for this circuit and task: f_carrier follows the
    circuit, the lwe section is there exactly for an LWE task, and the
    profile's case count is capped at task.max_cases()."""
    f_carrier = carrier_frequency(circuit.r_variable, circuit.c1)
    return ExperimentConfig(
        circuit=circuit, reservoir=replace(reservoir, f_carrier=f_carrier), task=task,
        lwe=lwe_mod.LweParams() if task.is_lwe else None, profile=profile,
        n_cases=min(PROFILES.get(profile, PROFILES["full"])[3], task.max_cases()),
    )


def default_config(profile: str = "full", task_kind: str = "polynomial") -> ExperimentConfig:
    """Built-in defaults: the dataclass defaults and the Kennedy circuit,
    with what the profile sets on top (see the module docstring)."""
    # an unknown profile takes the full values; ExperimentConfig rejects it
    r_variable, sample_rate, theta, _ = PROFILES.get(profile, PROFILES["full"])
    return _derive(profile, kennedy_circuit(r_variable), TaskSpec(kind=task_kind),
                   ReservoirConfig(theta=theta, sample_rate=sample_rate))


def _number(value, path: str) -> float:
    """A finite float from a JSON number."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(path, f"must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # the int's repr may exceed Python's digit limit too
        raise ConfigurationError(path, "must be finite, got an integer beyond the float range") from None
    if not math.isfinite(x):
        raise ConfigurationError(path, f"must be finite, got {value!r}")
    return x


def _integer(value, path: str) -> int:
    """An int from a JSON number with an integral value."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
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


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(path, f"must be a string, got {value!r}")
    return value


#: The parser of each leaf field type; every other field is a JSON object.
_LEAVES = {float: _number, int: _integer, bool: _flag, str: _string, tuple: _pair}


@cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)


def _dotted(path: str, name) -> str:
    return f"{path}.{name}" if path else str(name)


def _field_default(f, default):
    """Field ``f`` of the instance ``default``, or its dataclass default when
    ``default`` is None; MISSING when there is neither."""
    if default is not None:
        return getattr(default, f.name)
    if f.default_factory is not MISSING:
        return f.default_factory()
    return f.default


def _decode(hint, raw, path: str, default):
    """The value of type ``hint`` read from the JSON value ``raw`` at dotted
    ``path``. A dataclass is read from an object that holds only its field
    names; an absent field takes its value from ``default`` when that is an
    instance, else its dataclass default. ``X | None`` reads an X. A union
    of dataclasses is tagged: their ``kind`` field names the member, and an
    absent ``kind`` keeps the kind of ``default``."""
    if hint in _LEAVES:
        return _LEAVES[hint](raw, path)
    if not isinstance(raw, dict):
        raise ConfigurationError(path or "<config>", "must be a JSON object")
    if isinstance(hint, types.UnionType):
        members = [t for t in typing.get_args(hint) if t is not type(None)]
        if len(members) > 1:
            tags = {t.kind: t for t in members}
            tag = _string(raw["kind"], f"{path}.kind") if "kind" in raw else default.kind
            if tag not in tags:
                raise ConfigurationError(f"{path}.kind", f"must be one of {tuple(tags)}, got {tag!r}")
            members = [tags[tag]]
        hint = members[0]
    if not isinstance(default, hint):
        default = None
    names = [f.name for f in fields(hint)]
    for key in raw:
        if key not in names:
            raise ConfigurationError(_dotted(path, key), f"unknown key; {path or 'the top level'}"
                                     f" takes {', '.join(names)}")
    values = {}
    for f in fields(hint):
        if not f.init:
            continue
        at, fallback = _dotted(path, f.name), _field_default(f, default)
        if f.name in raw:
            values[f.name] = _decode(_field_types(hint)[f.name], raw[f.name], at, fallback)
        elif fallback is MISSING:
            raise ConfigurationError(at, "required")
        else:
            values[f.name] = fallback
    return hint(**values)


def read_config(source) -> dict:
    """The JSON object in ``source``: a dict or the path of a JSON file."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            text = Path(source).read_bytes()
        except FileNotFoundError:
            raise ConfigurationError("<config>", f"no such file: {source}") from None
        except OSError as exc:
            raise ConfigurationError("<config>", f"{source}: {exc.strerror}") from None
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError("<config>", f"malformed JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError("<config>", "top level must be a JSON object")
    return raw


def parse_config(source) -> ExperimentConfig:
    """Build an ExperimentConfig from a JSON file path or a dict.

    The circuit and the task are read over the profile's defaults, the rest
    over what _derive makes of them; an empty object gives the full bench
    setup. An unknown key, a value of the wrong type, a non-finite number, a
    non-integral value for an integer field, a sample rate below twice the
    carrier frequency, a reservoir.seed or reservoir.value_max off its
    default, and any invariant violation raise ConfigurationError naming the field path."""
    raw = read_config(source)
    profile = _string(raw.get("profile", "full"), "profile")
    defaults = default_config(profile)
    circuit = _decode(ChuaParams, raw.get("circuit", {}), "circuit", defaults.circuit)
    task = _decode(TaskSpec, raw.get("task", {}), "task", defaults.task)
    rest = {key: value for key, value in raw.items() if key not in ("circuit", "task")}
    cfg = _decode(ExperimentConfig, rest, "", _derive(profile, circuit, task, defaults.reservoir))
    # a run takes these from the data and the master seed; the schema keeps
    # them for the config digest, so only their defaults parse
    for name in ("seed", "value_max"):
        default = getattr(ReservoirConfig, name)
        if getattr(cfg.reservoir, name) != default:
            raise ConfigurationError(f"reservoir.{name}", f"is set at run time and must stay {default!r}")
    # carrier_wave checks this again, for the per-resistance carrier of a sweep cell
    if cfg.reservoir.sample_rate < 2.0 * cfg.reservoir.f_carrier:
        raise ConfigurationError("reservoir.sample_rate",
                                 f"must be at least twice f_carrier ({cfg.reservoir.f_carrier!r} Hz),"
                                 f" got {cfg.reservoir.sample_rate!r}")
    return cfg


def serialize_config(value):
    """Canonical JSON form of a config or any value in it: a dataclass
    becomes an object of its fields, with None fields left out, and a tuple
    a list. parse_config(serialize_config(cfg)) == cfg."""
    if is_dataclass(value):
        return {f.name: serialize_config(getattr(value, f.name)) for f in fields(value)
                if getattr(value, f.name) is not None}
    return list(value) if isinstance(value, tuple) else value


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
