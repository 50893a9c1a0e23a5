"""Flat `section.key = value` run configuration with validated defaults.

Every key has a default; an empty file reproduces the reference traveling-
wave setup.  Values are floats (a ratio like 10/9 is accepted and stored as
the parsed double), integers, enum words, or comma-separated lists.  Unknown
keys, duplicate keys and rule violations are rejected with the offending
line number and key.  A rule is owned by the constructor of its domain object
(SolverConfig's for the diffusivity knots, FrontTrack's for the speed level
and window) or by the experiments check of the eps ladder; its FieldError
names the fields it reads, its own first, each reported here as the key it
ends (diffusion.a for diffusivity).  parse_config checks each value's syntax,
builds the domain objects once, then checks sf < sh (its one own rule), the
ladder, the speed level and the speed window; the first error follows that
order.  The RunConfig it returns holds the model, solver configuration and
initial bump it built, and the sweep's settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

from .experiments import FrontTrack, InitialDataSpec, require_eps_ladder
from .model import FieldError, ScaledModel, Variant, WolbachiaParams, require
from .solver import BoundaryCondition, Grid1D, SolverConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "default_config", "format_config"]


class ConfigError(ValueError):
    """Configuration text violated the schema or an invariant."""


def _float(text: str) -> float:
    text = text.strip()
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except OverflowError:
        value = math.inf
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _floats(text: str) -> tuple[float, ...]:
    parts = [s.strip() for s in text.split(",")]
    if not any(parts):
        raise ValueError("empty list")
    if not all(parts):
        raise ValueError("empty list entry")
    return tuple(_float(p) for p in parts)


def _window(text: str) -> tuple[float, float]:
    window = _floats(text)
    if len(window) != 2:
        raise ValueError("need exactly two times")
    return window


def _choice(kind: type[Enum]) -> Callable[[str], Enum]:
    words = tuple(member.value for member in kind)

    def parse(text: str) -> Enum:
        word = text.strip().lower()
        if word not in words:
            raise ValueError(f"expected one of {', '.join(words)}; got {text!r}")
        return kind(word)
    return parse


def _diffusivity(text: str) -> float | tuple[tuple[float, float], ...]:
    if "," not in text and ":" not in text:
        return _float(text)
    pairs = []
    for part in text.split(","):
        if ":" not in part:
            raise ValueError("profile entries are x:value pairs")
        xs, vs = part.split(":", 1)
        pairs.append((_float(xs), _float(vs)))
    return tuple(pairs)  # SolverConfig owns every rule on the knots


# key -> (default text, choice?, parser raising ValueError); the field is the
# part after the dot.  A library field's default is read from that field.
_KEYS: dict[str, tuple[str, bool, Callable[[str], object]]] = {
    "model.fu": ("1.12", False, _float),
    "model.du": ("0.27", False, _float),
    "model.delta": ("10/9", False, _float),
    "model.sf": ("0.1", False, _float),
    "model.sh": ("0.8", False, _float),
    "model.sigma": ("1", False, _float),
    "model.mu": (f"{WolbachiaParams.mu:g}", False, _float),
    "model.variant": (ScaledModel.variant.value, False, _choice(Variant)),
    "model.epsilon": ("0.1", True, _float),
    "grid.xmin": ("-15", False, _float),
    "grid.xmax": ("15", False, _float),
    "grid.dx": ("0.05", False, _float),
    "time.dt": ("0.005", False, _float),
    "time.t_end": ("25", True, _float),
    "time.output_every": (f"{SolverConfig.output_every:g}", True, _int),
    "diffusion.a": (f"{SolverConfig.diffusivity:g}", False, _diffusivity),
    "diffusion.bc": (SolverConfig.bc.value, True, _choice(BoundaryCondition)),
    "init.amplitude": (f"{InitialDataSpec.amplitude:g}", True, _float),
    "init.radius": (f"{InitialDataSpec.radius:g}", True, _float),
    "init.smoothing": (f"{InitialDataSpec.smoothing:g}", True, _float),
    "experiment.epsilons": ("0.3, 0.1, 0.05, 0.02", True, _floats),
    "experiment.speed_level": ("0.5", True, _float),
    "experiment.speed_window": ("75, 125", True, _window),
}
# a FieldError's field is its key's part after the dot; diffusion.a's is diffusivity
_KEY_OF = {key.split(".", 1)[1]: key for key in _KEYS} | {"diffusivity": "diffusion.a"}


@dataclass(frozen=True)
class RunConfig:
    """A validated run from parse_config: the objects its keys build, the
    sweep's ladder and speed settings, and the key values the text set."""

    model: ScaledModel
    solver: SolverConfig
    spec: InitialDataSpec
    epsilons: tuple[float, ...]
    speed_level: float
    speed_window: tuple[float, float]
    raw: dict = field(default_factory=dict, compare=False)


def default_config() -> RunConfig:
    return parse_config("")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate config text; omitted keys take defaults.  A
    broken rule is reported on the first of its keys that the text sets,
    with that key's line; on its first key when the text sets none."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'section.key = value': {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        if not value:
            raise ConfigError(f"line {lineno}: {key}: empty value")
        raw[key], lines[key] = value, lineno

    v: dict[str, object] = {}
    for key, (default_text, _, parse) in _KEYS.items():
        try:
            v[key.split(".", 1)[1]] = parse(raw.get(key, default_text))
        except ValueError as exc:
            raise ConfigError(f"line {lines.get(key, 0)}: {key}: {exc}") from None

    try:
        params = WolbachiaParams(v["fu"], v["du"], v["delta"], v["sf"], v["sh"],
                                 v["sigma"], v["mu"])
        model = ScaledModel(params, v["epsilon"], v["variant"])
        grid = Grid1D.from_spacing(v["xmin"], v["xmax"], v["dx"])
        solver = SolverConfig(grid, v["dt"], v["t_end"], v["a"], v["output_every"], v["bc"])
        spec = InitialDataSpec(v["amplitude"], v["radius"], v["smoothing"])
        spec.check_inside(grid)
        require(params.sf < params.sh, ("sf", "sh"), f"requires sf < sh (sh = {params.sh:g})")
        require_eps_ladder(v["epsilons"])
        FrontTrack(v["speed_window"], v["speed_level"])  # owns the speed rules
    except FieldError as exc:
        keys = [_KEY_OF[name] for name in exc.fields]
        key = next((key for key in keys if key in lines), keys[0])
        where = f"line {lines[key]}: " if key in lines else ""
        raise ConfigError(f"{where}{key}: {exc}") from None
    return RunConfig(model, solver, spec, v["epsilons"], v["speed_level"],
                     v["speed_window"], raw)


def format_config(cfg: RunConfig) -> str:
    """Effective configuration as config text; '# choice' marks values that
    are defaults of this tool rather than reference-setup constants."""
    lines = []
    for key, (default_text, choice, _) in _KEYS.items():
        text = cfg.raw.get(key, default_text)
        mark = "  # choice" if choice else ""
        lines.append(f"{key} = {text}{mark}")
    return "\n".join(lines) + "\n"
