"""Experiment configuration: a flat sectioned key = value grammar.

Sections are ``[experiment]``, exactly one ``[profile]``, and an optional
``[initial]`` for the simulate/control pipelines.  Values are parsed with
Python literal syntax, so coefficient data reads naturally as
``rho_poly = [1.0, 2.0]`` or ``rho_samples = [(0, 1), (0.5, 2), (1, 1)]``.
Parsing collects every error with its line number instead of stopping at
the first.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

from .coefficients import DEFAULT_ORDER
from .control import CONDITION_CAP
from .operator import MIN_ELEMENTS, constrained_dimension

KINDS = ("spectrum", "asymptotics", "observability", "control", "simulate")

_EXPERIMENT_KEYS = {
    "kind", "elements", "modes", "horizons", "quadrature_order",
    "output", "condition_cap", "export_matrices",
}
_PROFILE_KEYS = {
    "length",
    "rho_poly", "rho_samples",
    "sigma_poly", "sigma_samples",
    "q_poly", "q_samples",
}
_INITIAL_KEYS = {"coefficients"}


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
    quadrature_order: int
    output: str
    profile_spec: dict
    initial_coefficients: tuple
    condition_cap: float
    export_matrices: bool


def _parse_sections(text, errors):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
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
        value = value.strip()
        if key in current[2]:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        current[2][key] = (value, lineno)
    return sections


def _literal(value, lineno, key, errors):
    try:
        return ast.literal_eval(value)
    except (ValueError, SyntaxError):
        errors.append(f"line {lineno}: could not parse value for {key!r}: {value!r}")
        return None


def _coefficient_entry(name, body, errors):
    poly_key, samp_key = f"{name}_poly", f"{name}_samples"
    have = [k for k in (poly_key, samp_key) if k in body]
    if len(have) != 1:
        where = f"line {body[have[0]][1]}: " if have else ""
        errors.append(f"{where}profile needs exactly one of {poly_key} or {samp_key}")
        return None
    key = have[0]
    value, lineno = body[key]
    parsed = _literal(value, lineno, key, errors)
    if parsed is None:
        return None
    if key == poly_key:
        if not isinstance(parsed, (list, tuple)) or not parsed or not all(map(_is_real, parsed)):
            errors.append(f"line {lineno}: {key} must be a nonempty list of numbers")
            return None
        return {"poly": [float(v) for v in parsed]}
    ok = isinstance(parsed, (list, tuple)) and len(parsed) >= 2 and all(
        isinstance(p, (list, tuple)) and len(p) == 2
        and all(_is_real(v) for v in p) for p in parsed
    )
    if not ok:
        errors.append(f"line {lineno}: {key} must be a list of at least two (x, value) pairs")
        return None
    return {"samples": [(float(x), float(v)) for x, v in parsed]}


def _is_real(value):
    """A finite int or float literal; bools are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _positive_int(body, key, errors, required=True, default=None):
    if key not in body:
        if required:
            errors.append(f"missing required experiment key {key!r}")
        return default
    value, lineno = body[key]
    parsed = _literal(value, lineno, key, errors)
    if parsed is None:
        return default
    if not isinstance(parsed, int) or isinstance(parsed, bool) or parsed <= 0:
        errors.append(f"line {lineno}: {key} must be a positive integer, got {value}")
        return default
    return parsed


def parse_config(text):
    """Parse and fully validate a config, collecting all errors."""
    errors = []
    sections = _parse_sections(text, errors)

    names = [s[0] for s in sections]
    for name, lineno, _ in sections:
        if name not in ("experiment", "profile", "initial"):
            errors.append(f"line {lineno}: unknown section [{name}]")
    if names.count("profile") != 1:
        errors.append(f"config must contain exactly one profile section, found {names.count('profile')}")
    if names.count("experiment") != 1:
        errors.append(f"config must contain exactly one experiment section, found {names.count('experiment')}")
    if names.count("initial") > 1:
        errors.append("config may contain at most one initial section")

    exp = next((s for s in sections if s[0] == "experiment"), None)
    prof = next((s for s in sections if s[0] == "profile"), None)
    init = next((s for s in sections if s[0] == "initial"), None)

    kind = None
    elements = modes = quad = None
    horizons = ()
    output = "out"
    condition_cap = CONDITION_CAP
    export_matrices = False
    if exp is not None:
        body = exp[2]
        for key, (_, lineno) in body.items():
            if key not in _EXPERIMENT_KEYS:
                errors.append(f"line {lineno}: unknown experiment key {key!r}")
        if "kind" in body:
            value, lineno = body["kind"]
            kind = value.strip().strip("'\"")
            if kind not in KINDS:
                errors.append(f"line {lineno}: kind must be one of {'|'.join(KINDS)}, got {kind!r}")
        else:
            errors.append("missing required experiment key 'kind'")
        elements = _positive_int(body, "elements", errors)
        modes = _positive_int(body, "modes", errors)
        if elements is not None and elements < MIN_ELEMENTS:
            lineno = body["elements"][1]
            errors.append(f"line {lineno}: elements must be at least {MIN_ELEMENTS}, "
                          f"got {elements}")
        elif elements is not None and modes is not None \
                and modes > constrained_dimension(elements):
            lineno = body["modes"][1]
            errors.append(f"line {lineno}: modes must be at most "
                          f"{constrained_dimension(elements)}, the constrained dimension "
                          f"of {elements} elements, got {modes}")
        quad = _positive_int(body, "quadrature_order", errors, required=False,
                             default=DEFAULT_ORDER)
        if quad < 2:
            lineno = body["quadrature_order"][1]
            errors.append(f"line {lineno}: quadrature_order must be at least 2, got {quad}")
        if "horizons" in body:
            value, lineno = body["horizons"]
            parsed = _literal(value, lineno, "horizons", errors)
            if parsed is not None:
                if not isinstance(parsed, (list, tuple)) or not parsed or not all(
                    _is_real(v) and v > 0 for v in parsed
                ):
                    errors.append(f"line {lineno}: horizons must be a nonempty list of positive reals")
                elif kind == "control" and len(parsed) != 1:
                    errors.append(f"line {lineno}: kind=control needs exactly one horizon, "
                                  f"got {len(parsed)}")
                else:
                    horizons = tuple(float(v) for v in parsed)
        elif kind in ("observability", "control", "simulate"):
            errors.append(f"kind={kind} requires a horizons list")
        if "output" in body:
            output = body["output"][0].strip().strip("'\"")
        if "condition_cap" in body:
            value, lineno = body["condition_cap"]
            parsed = _literal(value, lineno, "condition_cap", errors)
            if parsed is not None:
                if not _is_real(parsed) or parsed <= 0:
                    errors.append(f"line {lineno}: condition_cap must be a positive real")
                else:
                    condition_cap = float(parsed)
        if "export_matrices" in body:
            value, lineno = body["export_matrices"]
            if value not in ("true", "false"):
                errors.append(f"line {lineno}: export_matrices must be true or false")
            else:
                export_matrices = value == "true"

    profile_spec = None
    if prof is not None:
        body = prof[2]
        for key, (_, lineno) in body.items():
            if key not in _PROFILE_KEYS:
                errors.append(f"line {lineno}: unknown profile key {key!r}")
        if "length" not in body:
            errors.append("profile section missing 'length'")
            length = None
        else:
            value, lineno = body["length"]
            length = _literal(value, lineno, "length", errors)
            if length is not None and (not _is_real(length) or length <= 0):
                errors.append(f"line {lineno}: length must be a positive real, got {value}")
                length = None
        coeffs = {name: _coefficient_entry(name, body, errors)
                  for name in ("rho", "sigma", "q")}
        if length is not None and all(v is not None for v in coeffs.values()):
            profile_spec = {"length": float(length), **coeffs}

    initial = ()
    if init is not None:
        body = init[2]
        for key, (_, lineno) in body.items():
            if key not in _INITIAL_KEYS:
                errors.append(f"line {lineno}: unknown initial key {key!r}")
        if "coefficients" in body:
            value, lineno = body["coefficients"]
            parsed = _literal(value, lineno, "coefficients", errors)
            ok = isinstance(parsed, (list, tuple)) and parsed and all(
                isinstance(p, (list, tuple)) and len(p) == 3
                and isinstance(p[0], int) and not isinstance(p[0], bool) and p[0] >= 1
                and all(_is_real(v) for v in p[1:]) for p in parsed
            )
            if not ok:
                errors.append(
                    f"line {lineno}: coefficients must be a list of (mode, re, im) "
                    "triples with 1-based mode indices"
                )
            else:
                initial = tuple((int(n), float(re), float(im)) for n, re, im in parsed)
        else:
            errors.append("initial section missing 'coefficients'")
    elif kind in ("control", "simulate"):
        errors.append(f"kind={kind} requires an [initial] section")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        kind=kind, elements=elements, modes=modes, horizons=horizons,
        quadrature_order=quad, output=output, profile_spec=profile_spec,
        initial_coefficients=initial, condition_cap=condition_cap,
        export_matrices=export_matrices,
    )
