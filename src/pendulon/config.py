"""Experiment configuration: INI-style files with strict, typed sections.

Keys are case sensitive (M and m are different constants). Unknown keys and
malformed values are rejected with the offending section and key named, so a
config typo cannot silently fall back to a default.
"""
from __future__ import annotations

import configparser
import math

from .params import ChainParams, ConfiningPotential, ExpansionParams


class ConfigError(Exception):
    pass


def parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_int_at_least(low: int):
    """Parser for integers >= low, for keys that need a minimum count."""
    def parse(raw: str) -> int:
        val = int(raw)
        if val < low:
            raise ValueError(f"not an integer >= {low}: {raw!r}")
        return val
    return parse


parse_positive_int = parse_int_at_least(1)


def parse_finite_float(raw: str) -> float:
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"not a finite number: {raw!r}")
    return val


def parse_positive_float(raw: str) -> float:
    val = float(raw)
    if not 0 < val < math.inf:  # also rejects nan
        raise ValueError(f"not a positive finite number: {raw!r}")
    return val


def parse_order(raw: str) -> int:
    """Series order of the eps expansion: 0, 1 or 2."""
    val = int(raw)
    if val not in (0, 1, 2):
        raise ValueError(f"not an order 0, 1 or 2: {raw!r}")
    return val


def parse_floats(raw: str):
    """A nonempty comma-separated list of finite numbers."""
    vals = [parse_finite_float(tok) for tok in raw.split(",") if tok.strip()]
    if not vals:
        raise ValueError("empty list")
    return vals


def parse_ladder(raw: str):
    """Positive, finite, strictly increasing values (a stiffness ladder)."""
    vals = parse_floats(raw)
    if not (vals[0] > 0 and all(a < b for a, b in zip(vals, vals[1:]))):
        raise ValueError("need positive, strictly increasing values")
    return vals


def parse_eps_list(raw: str):
    """At least two eps values, each positive and finite (a log-log fit)."""
    vals = [parse_positive_float(tok) for tok in raw.split(",") if tok.strip()]
    if len(vals) < 2:
        raise ValueError("need at least two positive eps values")
    return vals


def load_config(path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    cp.optionxform = str  # preserve case
    try:
        with open(path) as f:
            cp.read_file(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return cp


def read_section(cp, name, schema, required=()):
    """Parse one section through a {key: parser} schema."""
    out = {}
    if cp.has_section(name):
        for key, raw in cp.items(name):
            if key not in schema:
                raise ConfigError(f"[{name}] unknown key {key!r}")
            try:
                out[key] = schema[key](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"[{name}] bad value for {key!r}: {raw!r} ({exc})") from exc
    missing = [k for k in required if k not in out]
    if missing:
        have = "missing section" if not cp.has_section(name) else "missing"
        raise ConfigError(f"[{name}] {have} required key(s): "
                          + ", ".join(repr(k) for k in missing))
    return out


_CONFINEMENT_SCHEMA = {"family": str, "phi0": float, "c2": float, "b": float}

_CHAIN_SCHEMA = {"M": float, "m": float, "R": float, "r": float,
                 "kappa_t": float, "kappa_s": float, "g": float,
                 "delta": float, "topology": str}
_CHAIN_REQUIRED = ("M", "m", "R", "r", "kappa_t", "kappa_s", "g", "delta")

_EXPANSION_SCHEMA = {"A": float, "Mhat": float, "Khat": float, "g": float,
                     "eps": float, "r1": float, "r2": float, "m1": float,
                     "m2": float, "k1": float, "k2": float, "v0": float,
                     "v1": float, "v2": float}
_EXPANSION_REQUIRED = ("A", "Mhat", "Khat", "g")


def confinement_from_config(cp) -> ConfiningPotential:
    kw = read_section(cp, "confinement", _CONFINEMENT_SCHEMA)
    try:
        return ConfiningPotential(**kw)
    except ValueError as exc:
        raise ConfigError(f"[confinement] {exc}") from exc


def chain_from_config(cp) -> ChainParams:
    kw = read_section(cp, "chain", _CHAIN_SCHEMA, required=_CHAIN_REQUIRED)
    try:
        return ChainParams(h_spec=confinement_from_config(cp), **kw)
    except ValueError as exc:
        raise ConfigError(f"[chain] {exc}") from exc


def expansion_from_config(cp) -> ExpansionParams:
    kw = read_section(cp, "expansion", _EXPANSION_SCHEMA,
                      required=_EXPANSION_REQUIRED)
    try:
        return ExpansionParams(h_spec=confinement_from_config(cp), **kw)
    except ValueError as exc:
        raise ConfigError(f"[expansion] {exc}") from exc
