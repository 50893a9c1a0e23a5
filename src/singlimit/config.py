"""Flat `section.key = value` run configuration with validated defaults.

Every key has a default; an empty file reproduces the reference traveling-
wave setup.  Values are floats (a ratio like 10/9 is accepted and stored as
the parsed double), integers, enum words, or comma-separated
lists.  Unknown keys, duplicate keys and invariant violations are rejected
with the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from .experiments import InitialDataSpec
from .model import ScaledModel, Variant, WolbachiaParams
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
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ValueError("empty list")
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
    if any(b[0] <= a[0] for a, b in zip(pairs, pairs[1:])):
        raise ValueError("profile x must increase")
    return tuple(pairs)


# key -> (default text, choice?, parser raising ValueError); the field is the
# part after the dot.  Defaults not marked as choices mirror the reference setup.
_KEYS: dict[str, tuple[str, bool, Callable[[str], object]]] = {
    "model.fu": ("1.12", False, _float),
    "model.du": ("0.27", False, _float),
    "model.delta": ("10/9", False, _float),
    "model.sf": ("0.1", False, _float),
    "model.sh": ("0.8", False, _float),
    "model.sigma": ("1", False, _float),
    "model.mu": ("0", False, _float),
    "model.variant": ("perfect", False, _choice(Variant)),
    "model.epsilon": ("0.1", True, _float),
    "grid.xmin": ("-15", False, _float),
    "grid.xmax": ("15", False, _float),
    "grid.dx": ("0.05", False, _float),
    "time.dt": ("0.005", False, _float),
    "time.t_end": ("25", True, _float),
    "time.output_every": ("200", True, _int),
    "diffusion.a": ("0.1", False, _diffusivity),
    "diffusion.bc": ("neumann", True, _choice(BoundaryCondition)),
    "init.amplitude": ("0.4", True, _float),
    "init.radius": ("1.6", True, _float),
    "init.smoothing": ("0.5", True, _float),
    "experiment.epsilons": ("0.3, 0.1, 0.05, 0.02", True, _floats),
    "experiment.speed_level": ("0.5", True, _float),
    "experiment.speed_window": ("75, 125", True, _window),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration from parse_config; one field per key."""

    fu: float
    du: float
    delta: float
    sf: float
    sh: float
    sigma: float
    mu: float
    variant: Variant
    epsilon: float
    xmin: float
    xmax: float
    dx: float
    dt: float
    t_end: float
    output_every: int
    a: float | tuple[tuple[float, float], ...]
    bc: BoundaryCondition
    amplitude: float
    radius: float
    smoothing: float
    epsilons: tuple[float, ...]
    speed_level: float
    speed_window: tuple[float, float]
    raw: dict = field(default_factory=dict, compare=False)

    def params(self) -> WolbachiaParams:
        return WolbachiaParams(self.fu, self.du, self.delta, self.sf, self.sh,
                               self.sigma, self.mu)

    def scaled_model(self, epsilon: float | None = None,
                     variant: Variant | None = None) -> ScaledModel:
        return ScaledModel(self.params(),
                           self.epsilon if epsilon is None else epsilon,
                           self.variant if variant is None else variant)

    def grid(self) -> Grid1D:
        return Grid1D.from_spacing(self.xmin, self.xmax, self.dx)

    def diffusivity(self):
        if isinstance(self.a, tuple):
            knots_x, knots_v = zip(*self.a)
            return np.interp(self.grid().x, knots_x, knots_v)
        return self.a

    def solver_config(self, t_end: float | None = None) -> SolverConfig:
        return SolverConfig(self.grid(), self.dt,
                            self.t_end if t_end is None else t_end,
                            self.diffusivity(), self.output_every, self.bc)

    def init_spec(self) -> InitialDataSpec:
        return InitialDataSpec(self.amplitude, self.radius, self.smoothing)


def default_config() -> RunConfig:
    return parse_config("")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate config text; omitted keys take defaults."""
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

    values: dict[str, object] = {}
    for key, (default_text, _, parse) in _KEYS.items():
        try:
            values[key.split(".", 1)[1]] = parse(raw.get(key, default_text))
        except ValueError as exc:
            raise ConfigError(f"line {lines.get(key, 0)}: {key}: {exc}") from None

    cfg = RunConfig(**values, raw=raw)
    _validate(cfg, lambda key: lines.get(key, 0))
    return cfg


def _validate(cfg: RunConfig, line_of) -> None:
    def fail(key: str, message: str):
        loc = line_of(key)
        where = f"line {loc}: " if loc else ""
        raise ConfigError(f"{where}{key}: {message}")

    def expect(key: str, ok: bool, message: str):
        if not ok:
            fail(key, message)

    expect("model.fu", cfg.fu > 0, "fu must be positive")
    expect("model.du", cfg.du > 0, "du must be positive")
    expect("model.delta", cfg.delta >= 1, "delta must be >= 1")
    expect("model.sf", 0 <= cfg.sf < 1, "sf must lie in [0, 1)")
    expect("model.sh", 0 < cfg.sh <= 1, "sh must lie in (0, 1]")
    expect("model.sf", cfg.sf < cfg.sh, f"requires sf < sh (sh = {cfg.sh:g})")
    expect("model.sigma", cfg.sigma > 0, "sigma must be positive")
    expect("model.mu", 0 <= cfg.mu < 1, "mu must lie in [0, 1)")
    if cfg.variant is not Variant.IMPERFECT and cfg.mu != 0:
        fail("model.mu", f"variant {cfg.variant.value!r} forces mu = 0")
    expect("model.epsilon", cfg.epsilon > 0, "epsilon must be positive")
    expect("grid.xmax", cfg.xmax > cfg.xmin, "xmax must exceed xmin")
    expect("grid.dx", cfg.dx > 0, "dx must be positive")
    expect("time.dt", cfg.dt > 0, "dt must be positive")
    expect("time.t_end", cfg.t_end >= cfg.dt, "t_end must cover at least one step")
    expect("time.dt", math.isfinite(cfg.t_end / cfg.dt), "t_end/dt is not a finite step count")
    expect("time.output_every", cfg.output_every >= 1, "output_every must be >= 1")
    if isinstance(cfg.a, tuple):
        expect("diffusion.a", all(v > 0 for _, v in cfg.a),
               "diffusivity must be strictly positive")
    else:
        expect("diffusion.a", cfg.a > 0, "diffusivity must be strictly positive")
    expect("init.amplitude", 0 < cfg.amplitude < 1, "amplitude must lie in (0, 1)")
    expect("init.radius", cfg.radius > 0, "radius must be positive")
    expect("init.smoothing", cfg.smoothing >= 0, "smoothing must be >= 0")
    half = min(-cfg.xmin, cfg.xmax)
    expect("init.radius", cfg.radius + cfg.smoothing < half,
           "bump support must sit strictly inside the domain")
    eps = cfg.epsilons
    expect("experiment.epsilons", all(e > 0 for e in eps), "eps values must be positive")
    expect("experiment.epsilons", all(b < a for a, b in zip(eps, eps[1:])),
           "eps ladder must be strictly decreasing")
    expect("experiment.speed_level", 0 < cfg.speed_level < 1,
           "speed_level must lie in (0, 1)")
    expect("experiment.speed_window", 0 <= cfg.speed_window[0] < cfg.speed_window[1],
           "speed_window must be an increasing pair of times")

    # cross-checks by constructing the domain objects
    try:
        cfg.grid()
    except ValueError as exc:
        fail("grid.dx", str(exc))
    try:
        cfg.params()
        cfg.scaled_model()
        cfg.init_spec()
        cfg.solver_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def format_config(cfg: RunConfig) -> str:
    """Effective configuration as config text; '# choice' marks values that
    are defaults of this tool rather than reference-setup constants."""
    lines = []
    for key, (default_text, choice, _) in _KEYS.items():
        text = cfg.raw.get(key, default_text)
        mark = "  # choice" if choice else ""
        lines.append(f"{key} = {text}{mark}")
    return "\n".join(lines) + "\n"
