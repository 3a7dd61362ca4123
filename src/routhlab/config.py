"""JSON run configurations: model construction and initial data.

A configuration file declares a Lagrangian family with coefficient data
(numbers, or expression strings in the position variables), optional
cyclic-coordinate indices (1-based, as in the variable names x1, x2, ...),
an energy level, initial data, and integration settings. Malformed or
inconsistent declarations raise :class:`ConfigError`; expression syntax
problems keep their precise :class:`ParseError` positions. This is the only
module that reads the format: the command line asks it for each setting.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from .errors import ConfigError
from .expressions import parse_expression
from .homogenize import gauge_shift
from .lagrangian import (
    LagrangianModel,
    MagneticLagrangian,
    MechanicalLagrangian,
    PowerQuadraticLagrangian,
    parse_lagrangian,
    poincare_disk_lagrangian,
)
from .routh import CyclicSplit
from .verify import rescale_to_energy

__all__ = [
    "load_config",
    "build_model",
    "build_split",
    "cyclic_momentum",
    "has_initial",
    "initial_state",
    "time_settings",
    "geodesic_flags",
    "verify_tolerances",
    "plot_unit_disk",
]

_FAMILIES = ("simple", "magnetic", "power", "expression", "poincare_disk")

_floats = partial(np.asarray, dtype=float)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return cfg[key]


def _number(value, where: str, kind=float, above=None):
    """value converted by kind (float, int or _floats); a ConfigError naming where
    if it does not convert, or, with a bound, if it is not above it."""
    try:
        out = kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where} must be numeric, got {value!r}") from exc
    if above is not None and not out > above:
        raise ConfigError(f"{where} must be greater than {above}, got {value!r}")
    return out


def _section(cfg: dict, name: str) -> dict:
    """The optional object cfg[name], empty where it is absent."""
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name!r} must be an object")
    return section


def _flag(cfg: dict, name: str, key: str, default: bool) -> bool:
    """The optional JSON boolean cfg[name][key]; anything but true or false is a ConfigError."""
    value = _section(cfg, name).get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{name}.{key} must be true or false, got {value!r}")
    return value


def _coefficients(data, dim: int, rank: int):
    """Coefficient data of rank 0 (a potential), 1 (a one-form) or 2 (a metric).

    An absent potential or one-form stays None. A number becomes a float and
    a string a function of the positions. A list of dim entries of one rank
    less becomes a tuple where they are all constant, and otherwise a
    function of the positions giving the list, its constants still floats.
    """
    shape = (f"metric must be a {dim}x{dim} array of entries" if rank == 2
             else f"one-form must be a list of {dim} entries")

    def cells(data, rank):
        if rank == 0:
            if isinstance(data, (int, float)):
                return float(data)
            if isinstance(data, str):
                expr = parse_expression(data, dim=dim, allow_velocity=False)
                return lambda xs: expr(xs, ())
            raise ConfigError(
                f"coefficient entries must be numbers or strings, got {data!r}")
        if not isinstance(data, list) or len(data) != dim:
            raise ConfigError(shape)
        out = [cells(entry, rank - 1) for entry in data]
        if not any(map(callable, out)):
            return tuple(out)
        return lambda xs: [c(xs) if callable(c) else c for c in out]

    return None if data is None and rank < 2 else cells(data, rank)


def _domain_spec(entry, dim: int):
    if entry is None:
        return None
    if not isinstance(entry, dict) or len(entry) != 1:
        raise ConfigError("domain must be an object with exactly one of: ball, positive")
    if "ball" in entry:
        r = _number(entry["ball"], "domain ball radius", above=0)
        return lambda x: float(x @ x) < r * r
    if "positive" in entry:
        if not isinstance(entry["positive"], list):
            raise ConfigError("domain 'positive' must be a list of 1-based coordinate indices")
        idx = [_number(i, "domain 'positive' index (1-based)", int, 0) - 1
               for i in entry["positive"]]
        if any(i >= dim for i in idx):
            raise ConfigError(f"domain 'positive' index beyond the model dimension {dim}")
        return lambda x: all(x[i] > 0.0 for i in idx)
    raise ConfigError(f"unknown domain kind {set(entry)!r}")


def build_model(cfg: dict) -> LagrangianModel:
    """Construct the configured Lagrangian, including any gauge shift."""
    spec = _require(cfg, "lagrangian")
    if not isinstance(spec, dict):
        raise ConfigError("'lagrangian' must be an object")
    family = _require(spec, "family", "lagrangian")
    if family not in _FAMILIES:
        raise ConfigError(f"unknown family {family!r}; expected one of {_FAMILIES}")

    if family == "poincare_disk":
        model: LagrangianModel = poincare_disk_lagrangian()
    elif family == "expression":
        source = _require(spec, "source", "lagrangian")
        dim = spec.get("dim")
        dim = None if dim is None else _number(dim, "lagrangian dim", int)
        model = parse_lagrangian(source, dim=dim)
        model._domain = _domain_spec(spec.get("domain"), model.dim)
    else:
        dim = _number(_require(spec, "dim", "lagrangian"), "lagrangian dim", int, 0)
        metric = _coefficients(_require(spec, "metric", "lagrangian"), dim, 2)
        domain = _domain_spec(spec.get("domain"), dim)
        if family == "power":
            degree = _number(_require(spec, "degree", "lagrangian"), "lagrangian degree")
            model = PowerQuadraticLagrangian(dim, metric, degree=degree, domain=domain)
        elif family == "simple":
            model = MechanicalLagrangian(
                dim, metric, potential=_coefficients(spec.get("potential"), dim, 0),
                domain=domain,
            )
        else:
            model = MagneticLagrangian(
                dim,
                metric,
                beta=_coefficients(spec.get("beta"), dim, 1),
                potential=_coefficients(spec.get("potential"), dim, 0),
                domain=domain,
            )

    gauge = spec.get("gauge")
    if gauge is not None:
        if not isinstance(gauge, str):
            raise ConfigError("'gauge' must be an expression string in x variables")
        model = gauge_shift(model, gauge)
    return model


def build_split(cfg: dict, dim: int) -> CyclicSplit | None:
    """Cyclic split from 1-based coordinate indices, or None if not declared."""
    cyclic = cfg.get("cyclic")
    if cyclic is None:
        return None
    if not isinstance(cyclic, list) or not cyclic:
        raise ConfigError("'cyclic' must be a non-empty list of 1-based indices")
    try:
        return CyclicSplit.of(dim, [_number(i, "cyclic index (1-based)", int, 0) - 1
                                    for i in cyclic])
    except ValueError as exc:
        raise ConfigError(f"bad cyclic indices {cyclic!r} for dimension {dim}: {exc}") from exc


def cyclic_momentum(cfg: dict, split: CyclicSplit) -> np.ndarray | None:
    """The configured momentum, one entry per cyclic coordinate, or None if not declared."""
    if cfg.get("momentum") is None:
        return None
    mu = _number(cfg["momentum"], "momentum", _floats)
    if mu.shape != (len(split.cyclic),):
        raise ConfigError(f"momentum must list one number per cyclic coordinate, got {mu.tolist()}")
    return mu


def has_initial(cfg: dict) -> bool:
    """Whether the config declares initial data."""
    return "initial" in cfg


def initial_state(cfg: dict, L: LagrangianModel):
    """(x0, v0, e) from the config; applies the requested energy rescale.

    With ``initial.rescale`` true the velocity is scaled along its ray to
    put the state exactly on the configured energy level (which must then
    be present).
    """
    init = _require(cfg, "initial")
    if not isinstance(init, dict):
        raise ConfigError("'initial' must be an object")
    x0 = _number(_require(init, "x", "initial"), "initial.x", _floats)
    v0 = _number(_require(init, "v", "initial"), "initial.v", _floats)
    if x0.shape != (L.dim,) or v0.shape != (L.dim,):
        raise ConfigError(
            f"initial data must have dimension {L.dim}, "
            f"got x{list(x0.shape)} and v{list(v0.shape)}"
        )
    e = cfg.get("energy")
    e = None if e is None else _number(e, "energy")
    if _flag(cfg, "initial", "rescale", False):
        if e is None:
            raise ConfigError("initial.rescale needs an 'energy' value")
        v0 = rescale_to_energy(L, x0, v0, e)
    return x0, v0, e


def time_settings(cfg: dict, geodesic: bool = False) -> tuple[float, dict]:
    """t_end, and the ``samples`` and ``tol`` the config sets as the integrators' keywords.

    ``geodesic`` lets geodesic.t_end replace time.t_end.
    """
    tc = _section(cfg, "time")
    t_end = tc.get("t_end")
    if geodesic:
        t_end = _section(cfg, "geodesic").get("t_end", t_end)
    if t_end is None:
        raise ConfigError("time.t_end is required for integration commands")
    options = {key: _number(tc[key], f"time.{key}", *rule)
               for key, rule in (("samples", (int, 1)), ("tol", (float, 0))) if key in tc}
    return _number(t_end, "t_end", above=0), options


def verify_tolerances(cfg: dict) -> dict:
    """The ``verify`` bounds the config sets, as ``check_geodesic_equivalence``'s keywords."""
    return {key: _number(value, f"verify.{key}") for key, value in _section(cfg, "verify").items()
            if key in ("pointset_tol", "pointwise_tol", "drift_tol")}


def geodesic_flags(cfg: dict) -> tuple[bool, bool]:
    """(level, unit_speed): hold the base energy (default off); start at unit speed (default on)."""
    return _flag(cfg, "geodesic", "level", False), _flag(cfg, "geodesic", "unit_speed", True)


def plot_unit_disk(cfg: dict) -> bool:
    """Whether the plot draws the unit circle; off by default."""
    return _flag(cfg, "plot", "unit_disk", False)
