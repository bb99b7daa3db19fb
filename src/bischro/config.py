"""Experiment configuration: a flat sectioned key = value grammar.

Sections are ``[experiment]``, exactly one ``[profile]``, and an optional
``[initial]`` for the simulate/control pipelines.  Everything from the
first ``#`` on a line is a comment.  Every key is read and checked by
one entry of ``_KEYS``: values are Python literals, so coefficient data
reads naturally as ``rho_poly = [1.0, 2.0]`` or
``rho_samples = [(0, 1), (0.5, 2), (1, 1)]``; ``kind`` is a bare word
and ``export_matrices`` is ``true`` or ``false``.  The config describes
the experiment only: where its files go is the CLI's ``--out``.  The
rules that involve several keys follow the table, among them the
trusted-mode minimum of the asymptotics and observability kinds
(:func:`bischro.operator.trusted_count`), so every error the config
alone decides is found before any solve.  Parsing collects every error
with its line number instead of stopping at the first.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

from .asymptotics import MIN_REPORT_MODES
from .operator import MIN_ELEMENTS, constrained_dimension, trusted_count

KINDS = ("spectrum", "asymptotics", "observability", "control", "simulate")
_COEFFICIENTS = ("rho", "sigma", "q")
# trusted modes a kind's reports need; the Beurling density of the
# observability kind is undefined for one frequency
_MIN_TRUSTED = {"asymptotics": MIN_REPORT_MODES, "observability": 2}


class ConfigError(ValueError):
    """Carries the full list of configuration problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    elements: int
    modes: int
    horizons: tuple
    profile_spec: dict
    initial_coefficients: tuple
    export_matrices: bool


def _real(v):
    """A finite int or float; bools are not numbers here."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _int(v, low):
    return isinstance(v, int) and not isinstance(v, bool) and v >= low


def _items(v, check, at_least=1):
    return isinstance(v, (list, tuple)) and len(v) >= at_least and all(map(check, v))


def _word(raw):
    return raw.strip("'\"")


def _flag(raw):
    return {"true": True, "false": False}.get(raw, raw)


_literal = ast.literal_eval
_POSITIVE = (_literal, lambda v: _real(v) and v > 0, "must be a positive real")
_POLY = (_literal, lambda v: _items(v, _real), "must be a nonempty list of numbers")
_SAMPLES = (_literal, lambda v: _items(v, lambda p: _items(p, _real, 2) and len(p) == 2, 2),
            "must be a list of at least two (x, value) pairs")

# {section: {key: (reader, check, message)}}
_KEYS = {
    "experiment": {
        "kind": (_word, KINDS.__contains__, f"must be one of {'|'.join(KINDS)}"),
        "elements": (_literal, lambda v: _int(v, MIN_ELEMENTS),
                     f"must be an integer >= {MIN_ELEMENTS}"),
        "modes": (_literal, lambda v: _int(v, 1), "must be a positive integer"),
        "horizons": (_literal, lambda v: _items(v, lambda t: _real(t) and t > 0),
                     "must be a nonempty list of positive reals"),
        "export_matrices": (_flag, lambda v: isinstance(v, bool), "must be true or false"),
    },
    "profile": {
        "length": _POSITIVE,
        **{f"{name}_poly": _POLY for name in _COEFFICIENTS},
        **{f"{name}_samples": _SAMPLES for name in _COEFFICIENTS},
    },
    "initial": {
        "coefficients": (
            _literal,
            lambda v: _items(v, lambda p: _items(p, _real, 3) and len(p) == 3 and _int(p[0], 1)),
            "must be a list of (mode, re, im) triples with 1-based mode indices",
        ),
    },
}
_REQUIRED = {"experiment": ("kind", "elements", "modes"), "profile": ("length",),
             "initial": ("coefficients",)}


def _parse_sections(text, errors):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), lineno, {})
            sections.append(current)
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current[2]:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        current[2][key] = (value.strip(), lineno)
    return sections


def _read_keys(sections, errors):
    """Read and check every key through ``_KEYS``; returns (values, line numbers)."""
    values, lines = {}, {}
    for name, lineno, body in sections:
        table = _KEYS.get(name)
        if table is None:
            errors.append(f"line {lineno}: unknown section [{name}]")
            continue
        for key, (raw, n) in body.items():
            if key not in table:
                errors.append(f"line {n}: unknown {name} key {key!r}")
                continue
            lines[key] = n
            reader, check, message = table[key]
            try:
                value = reader(raw)
                ok = check(value)
            except (ValueError, TypeError, SyntaxError, OverflowError, RecursionError):
                ok = False
            if ok:
                values[key] = value
            else:
                errors.append(f"line {n}: {key} {message}, got {raw}")
        for key in _REQUIRED[name]:
            if key not in body:
                errors.append(f"missing required {name} key {key!r}")
    return values, lines


def _coefficient(values, name):
    if f"{name}_poly" in values:
        return {"poly": [float(v) for v in values[f"{name}_poly"]]}
    return {"samples": [(float(x), float(v)) for x, v in values[f"{name}_samples"]]}


def parse_config(text):
    """Parse and fully validate a config, collecting all errors."""
    errors = []
    sections = _parse_sections(text, errors)
    names = [s[0] for s in sections]
    for name in ("experiment", "profile"):
        if names.count(name) != 1:
            errors.append(f"config must contain exactly one {name} section, "
                          f"found {names.count(name)}")
    if names.count("initial") > 1:
        errors.append("config may contain at most one initial section")
    values, lines = _read_keys(sections, errors)

    kind = values.get("kind")
    elements, modes = values.get("elements"), values.get("modes")
    indices = [p[0] for p in values.get("coefficients", ())]
    repeated = sorted({n for n in indices if indices.count(n) > 1})
    if repeated:
        errors.append(f"line {lines['coefficients']}: coefficients repeat mode indices {repeated}")
    if elements and modes:
        if modes > constrained_dimension(elements):
            errors.append(f"line {lines['modes']}: modes must be at most "
                          f"{constrained_dimension(elements)}, the constrained dimension "
                          f"of {elements} elements, got {modes}")
        trusted = trusted_count(elements, modes)
        need = _MIN_TRUSTED.get(kind, 1)
        if trusted < need:
            key = "modes" if modes < need else "elements"
            errors.append(f"line {lines[key]}: {key} = {values[key]} leaves {trusted} trusted "
                          f"modes (min(modes, elements // 10)), kind={kind} needs {need}")
        top = max(indices, default=0)
        if top > trusted:
            errors.append(f"line {lines['coefficients']}: coefficients name mode {top}, "
                          f"beyond the {trusted} trusted modes")
    if kind == "control" and len(values.get("horizons", ())) > 1:
        errors.append(f"line {lines['horizons']}: kind=control needs exactly one horizon, "
                      f"got {len(values['horizons'])}")
    if kind in ("observability", "control", "simulate") and "horizons" not in lines:
        errors.append(f"kind={kind} requires a horizons list")
    if kind in ("control", "simulate") and "initial" not in names:
        errors.append(f"kind={kind} requires an [initial] section")
    if "profile" in names:
        for name in _COEFFICIENTS:
            have = [k for k in (f"{name}_poly", f"{name}_samples") if k in lines]
            if len(have) != 1:
                where = f"line {lines[have[0]]}: " if have else ""
                errors.append(f"{where}profile needs exactly one of {name}_poly "
                              f"or {name}_samples")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        kind=kind, elements=elements, modes=modes,
        horizons=tuple(float(t) for t in values.get("horizons", ())),
        profile_spec={"length": float(values["length"]),
                      **{name: _coefficient(values, name) for name in _COEFFICIENTS}},
        initial_coefficients=tuple((n, float(re), float(im))
                                   for n, re, im in values.get("coefficients", ())),
        export_matrices=values.get("export_matrices", False),
    )
