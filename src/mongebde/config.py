"""Job configuration: flat key=value text or JSON, merged with CLI flags.

The flat format is one ``key = value`` pair per line; ``#`` starts a
comment; repeating a key builds a list.  JSON files (detected by a
leading ``{``) are accepted as an alternative with the same keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import UsageError

COMMANDS = (
    "classify",
    "parabolic",
    "flecnodal",
    "portrait",
    "sweep",
    "verify-locus",
    "golden-check",
)

#: Largest curve-trace resolution.  Marching squares holds several
#: (resolution + 1)^2 float grids (34 MB each at 2048) and visits every
#: cell in a Python loop.
MAX_RESOLUTION = 2048
#: Largest sweep grid.  Each grid cell and each bisection step costs a
#: fingerprint; a grid-12 sweep already takes about a minute.
MAX_GRID = 12


@dataclass
class JobConfig:
    command: str
    surface: str | None = None  # inline polynomial text
    table2: str | None = None  # library label
    moduli: dict = field(default_factory=dict)
    signs: dict = field(default_factory=dict)
    params: tuple | None = None  # (t, u) as Fractions
    window: tuple = (-0.5, 0.5, -0.5, 0.5)
    grid: int = MAX_GRID
    resolution: int = 128
    out: str | None = None
    locus: str | None = None  # closed-form locus polynomial text
    t_range: tuple = (-0.1, 0.1)
    u_range: tuple = (-0.1, 0.1)
    goldens: str = "goldens"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        if self.command not in ("golden-check",):
            if (self.surface is None) == (self.table2 is None):
                raise UsageError(
                    "exactly one surface source required: --surface or --table2"
                )
        for name in ("window", "t_range", "u_range", "params"):
            values = getattr(self, name)
            if values is not None and not all(_finite(v) for v in values):
                raise UsageError(f"{name} {tuple(values)} must be finite")
        x0, x1, y0, y1 = self.window
        if not (x0 < x1 and y0 < y1):
            raise UsageError(f"window {self.window} is not well-formed")
        if self.grid <= 0 or self.resolution <= 0:
            raise UsageError("grid and resolution must be positive")
        if self.resolution > MAX_RESOLUTION:
            raise UsageError(
                f"resolution {self.resolution} exceeds the maximum {MAX_RESOLUTION}"
            )
        if self.grid > MAX_GRID:
            raise UsageError(f"grid {self.grid} exceeds the maximum {MAX_GRID}")


def _finite(value) -> bool:
    return isinstance(value, (int, Fraction)) or math.isfinite(value)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse rational {text!r}: {exc}") from None


def parse_pairs(items) -> dict:
    """Parse repeated ``key=value`` items into a dict of Fractions."""
    out = {}
    for item in items or ():
        if "=" not in item:
            raise UsageError(f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = parse_fraction(value.strip())
    return out


def parse_range(text: str) -> tuple:
    """Parse ``lo:hi`` into a float pair."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError(f"expected lo:hi range, got {text!r}")
    try:
        return (float(lo), float(hi))
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from None


def load_config_file(path: str) -> dict:
    """Read a flat key=value or JSON config file into a raw dict."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad JSON config {path}: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError(f"config {path} must hold a JSON object")
        return data
    data: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in data:
            prev = data[key]
            data[key] = (prev if isinstance(prev, list) else [prev]) + [value]
        else:
            data[key] = value
    return data
