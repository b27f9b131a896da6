"""Run configuration: INI schema, field expressions, assembled run inputs.

One INI file fully determines a run.  Sections: [grid], [time], [model],
[cost], [admissible], [optimizer], [controls], [output], [run].  Every
key is optional and falls back to the package defaults; unknown sections
or keys are rejected with a named diagnostic rather than ignored, and an
out-of-range value is rejected by name by the getter that reads its key
("[time] steps must be at least 1, got 0").

Spatial fields (initial data, targets, doses) are given in a small
expression language::

    zero
    const:VALUE
    gaussian:AMP,CX,CY,WIDTH          AMP*exp(-((x-cx)^2+(y-cy)^2)/WIDTH)
    tanh_front:LO,HI,X0,WIDTH         ramp in x from LO to HI around X0
    file:PATH                         snapshot in the text or binary format

Doses are constant in time; time-varying schedules come from the
optimizer, not from configuration.  k1_const / k2_const / s_const
replace the corresponding kinetic maps, and with them their ranges, by
constants, which is what makes a homogeneous run genuinely reducible to
pointwise equations.

load_config(path, refine=m) assembles the same run at 2^m times the
configured cell and step counts, which is what the refinement studies
read; a snapshot-file field holds one resolution only, so a refined load
of it is a config error.
"""
import configparser
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .adjoint import CostWeights, Targets
from .control import AdmissibleSet
from .errors import ConfigError
from .grid import Grid
from .model import DefaultLogisticFamily, ModelSpec, constant_map
from .snapshots import read_snapshot
from .state import Control

# every float parameter of the family, keyed by its lower-cased name
_FAMILY_KEYS = {
    f.name.lower(): f.name for f in fields(DefaultLogisticFamily) if f.name not in ("T", "k2_variable")
}

# each constant-kinetics key and the ModelSpec map it replaces
_CONST_KINETICS = {"k1_const": "k1", "k2_const": "k2", "s_const": "S"}
_FIELD_KEYS = ("phi0", "sigma0", "z0", "iota", "sigma_boundary", "force_x", "force_y")
_TARGET_KEYS = tuple(f.name for f in fields(Targets))

_SCHEMA = {
    "grid": {"nx", "ny", "lx", "ly"},
    "time": {"t_final", "steps"},
    "model": set(_FAMILY_KEYS) | {"k2_variable"} | set(_CONST_KINETICS) | set(_FIELD_KEYS),
    "cost": {f"alpha{i}" for i in range(1, 10)} | set(_TARGET_KEYS),
    "admissible": {f.name for f in fields(AdmissibleSet)},
    "optimizer": {"step0", "tol", "max_iters"},
    "controls": {"chi1", "chi2"},
    "output": {"directory", "stride", "format"},
    "run": {"seed"},
}


def parse_expression(text, grid, base=None):
    """Evaluate one spatial-field expression on the grid; a non-finite value is a ConfigError."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = _evaluate(text, grid, base)
    if not np.isfinite(values).all():
        raise ConfigError(f"field expression {text!r} evaluates to non-finite values")
    return values


def _evaluate(text, grid, base):
    t = str(text).strip()
    if t == "zero":
        return np.zeros(grid.shape)
    head, sep, rest = t.partition(":")
    if not sep:
        raise ConfigError(f"malformed field expression {text!r}")
    if head == "const":
        return np.full(grid.shape, _number(rest, text))
    args = rest.split(",")
    if head == "gaussian":
        amp, cx, cy, width = _numbers(args, 4, text)
        if width <= 0:
            raise ConfigError(f"gaussian width must be positive in {text!r}")
        x, y = grid.meshes
        return amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / width)
    if head == "tanh_front":
        lo, hi, x0, width = _numbers(args, 4, text)
        if width <= 0:
            raise ConfigError(f"front width must be positive in {text!r}")
        x, _ = grid.meshes
        return lo + (hi - lo) * 0.5 * (1.0 + np.tanh((x - x0) / width))
    if head == "file":
        path = Path(rest.strip())
        if base is not None and not path.is_absolute():
            path = Path(base) / path
        if not path.exists():
            raise ConfigError(f"snapshot file not found: {path}")
        try:
            snap, values, _ = read_snapshot(path)
        except (ValueError, OSError) as e:
            raise ConfigError(f"unreadable snapshot {path}: {e}") from e
        if values.shape != grid.shape:
            raise ConfigError(f"snapshot {path} has shape {values.shape}, grid wants {grid.shape}")
        # a hand-written text header may round the cell sizes
        if not (math.isclose(snap.hx, grid.hx, rel_tol=1e-9)
                and math.isclose(snap.hy, grid.hy, rel_tol=1e-9)):
            raise ConfigError(
                f"snapshot {path} has cell sizes {snap.hx:.6g} x {snap.hy:.6g}, "
                f"grid wants {grid.hx:.6g} x {grid.hy:.6g}"
            )
        if not np.isfinite(values).all():
            raise ConfigError(f"snapshot {path} holds non-finite values")
        return values
    raise ConfigError(f"unknown field expression kind {head!r} in {text!r}")


def _number(raw, context):
    try:
        v = float(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"not a number: {raw!r} in {context!r}") from None
    if not np.isfinite(v):
        raise ConfigError(f"non-finite value {raw!r} in {context!r}")
    return v


def _numbers(args, n, context):
    if len(args) != n:
        raise ConfigError(f"expected {n} arguments in {context!r}, got {len(args)}")
    return [_number(a, context) for a in args]


class _Section:
    """Typed access to one INI section with key-level diagnostics."""

    def __init__(self, cp, name):
        self.name = name
        self.data = dict(cp[name]) if cp.has_section(name) else {}

    def get_float(self, key, default, bound=None):
        """The key's number; bound "positive" or "non-negative" rejects the rest."""
        if key not in self.data:
            return default
        v = _number(self.data[key], f"[{self.name}] {key}")
        if (bound == "positive" and v <= 0) or (bound == "non-negative" and v < 0):
            raise ConfigError(f"[{self.name}] {key} must be {bound}, got {v}")
        return v

    def get_int(self, key, default, least=None):
        """The key's integer; a value below least is rejected."""
        if key not in self.data:
            return default
        raw = self.data[key]
        try:
            v = int(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key}: not an integer: {raw!r}") from None
        if least is not None and v < least:
            raise ConfigError(f"[{self.name}] {key} must be at least {least}, got {v}")
        return v

    def get_bool(self, key, default):
        if key not in self.data:
            return default
        raw = self.data[key].strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key}: not a boolean: {raw!r}")

    def get_str(self, key, default):
        return self.data.get(key, default)


@dataclass
class RunConfig:
    """Everything a subcommand reads, assembled from one INI file."""

    spec: ModelSpec
    targets: Targets
    control0: Control
    weights: CostWeights
    admissible: AdmissibleSet
    step0: float
    tol: float
    max_iters: int
    outdir: Path
    stride: int
    fmt: str
    seed: int


def _validated(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def load_config(path, refine=0) -> RunConfig:
    """Parse, validate, and assemble a run configuration file, 2^refine-refined in (tau, h)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e

    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"{path}: unknown config section [{sec}]")
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{sec}]")

    s_grid = _Section(cp, "grid")
    s_time = _Section(cp, "time")
    s_model = _Section(cp, "model")
    s_cost = _Section(cp, "cost")
    s_adm = _Section(cp, "admissible")
    s_opt = _Section(cp, "optimizer")
    s_ctl = _Section(cp, "controls")
    s_out = _Section(cp, "output")
    s_run = _Section(cp, "run")

    nx = s_grid.get_int("nx", 48, least=2)
    ny = s_grid.get_int("ny", 48, least=2)
    lx = s_grid.get_float("lx", 1.0, "positive")
    ly = s_grid.get_float("ly", 1.0, "positive")
    T = s_time.get_float("t_final", 0.5, "positive")
    n_steps = s_time.get_int("steps", 200, least=1)

    family_kw = {
        attr: s_model.get_float(key, None, "positive" if key == "n" else None)
        for key, attr in _FAMILY_KEYS.items()
        if key in s_model.data
    }
    family_kw["k2_variable"] = s_model.get_bool("k2_variable", False)
    const_kinetics = {
        key: s_model.get_float(key, None, "positive") for key in _CONST_KINETICS if key in s_model.data
    }

    field_expr = {k: s_model.data[k] for k in _FIELD_KEYS if k in s_model.data}
    target_expr = {k: s_cost.data[k] for k in _TARGET_KEYS if k in s_cost.data}
    dose_expr = {k: s_ctl.get_str(k, "zero") for k in ("chi1", "chi2")}

    alphas = [
        s_cost.get_float(f"alpha{i}", d)
        for i, d in zip(range(1, 10), CostWeights().as_array())
    ]
    weights = CostWeights(*alphas)
    _validated(weights.validate)

    admissible = AdmissibleSet(
        **{f.name: s_adm.get_float(f.name, f.default) for f in fields(AdmissibleSet)}
    )
    _validated(admissible.validate)
    step0 = s_opt.get_float("step0", 1.0, "positive")
    tol = s_opt.get_float("tol", 1e-6, "non-negative")
    max_iters = s_opt.get_int("max_iters", 100, least=1)

    fmt = s_out.get_str("format", "csv")
    if fmt not in ("csv", "bin"):
        raise ConfigError(f"[output] format must be csv or bin, got {fmt!r}")

    outdir = Path(s_out.get_str("directory", "out"))
    stride = s_out.get_int("stride", 1, least=1)
    seed = s_run.get_int("seed", 0, least=0)

    if refine:
        for key, expr in {**field_expr, **target_expr, **dose_expr}.items():
            if expr.strip().startswith("file:"):
                raise ConfigError(
                    f"field '{key}' comes from a snapshot file and cannot be "
                    "re-evaluated at a refined resolution"
                )
    # the stored trajectory holds 5 float64 fields (phi, sigma, z, ux, uy)
    # per node and level; a run whose trajectory would pass 2^34 bytes is
    # refused here, before any field is built
    n_bytes = 40 * ((n_steps << refine) + 1) * ((nx << refine) + 1) * ((ny << refine) + 1)
    if n_bytes > 1 << 34:
        raise ConfigError(
            f"[grid] nx = {nx}, ny = {ny} and [time] steps = {n_steps} at refinement {refine} "
            f"give a state trajectory of {n_bytes} bytes, above the 2^34-byte bound"
        )
    grid = Grid.unit(nx << refine, ny << refine, lx, ly)
    for key, h in (("lx", grid.hx), ("ly", grid.hy)):
        if not (0 < h * h < math.inf and 1 / (h * h) < math.inf):
            raise ConfigError(f"[grid] {key} gives cell size {h:.3g}, whose square over- or underflows")
    spec = DefaultLogisticFamily(T=T, **family_kw).build(grid)

    def field(expr):
        return parse_expression(expr, grid, path.parent)

    overrides = {}
    for key, expr in field_expr.items():
        if key == "sigma_boundary":
            overrides["sigma_gamma"] = field(expr)
        elif key in ("force_x", "force_y"):
            f = overrides.get("f", spec.f.copy())
            f[0 if key == "force_x" else 1] = field(expr)
            overrides["f"] = f
        else:
            overrides[key] = field(expr)
    for key, value in const_kinetics.items():
        overrides[_CONST_KINETICS[key]] = constant_map(value)
    if overrides:
        spec = replace(spec, **overrides)

    targets = replace(Targets.resting(spec), **{k: field(e) for k, e in target_expr.items()})
    _validated(targets.validate, grid)

    # doses are constant in time: read-only views of one level each
    shape = ((n_steps << refine) + 1,) + grid.shape
    control0 = Control(*(np.broadcast_to(field(e), shape) for e in dose_expr.values()))
    _validated(control0.validate)
    return RunConfig(spec=spec, targets=targets, control0=control0, weights=weights,
                     admissible=admissible, step0=step0, tol=tol, max_iters=max_iters,
                     outdir=outdir, stride=stride, fmt=fmt, seed=seed)
