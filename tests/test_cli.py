"""End-to-end command line tests: exit codes, diagnostics, determinism."""
import math
import re
import struct
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tumorctrl import adjoint, cli, config, model, state
from tumorctrl.cli import main
from tumorctrl.config import load_config, parse_expression
from tumorctrl.errors import ConfigError, DomainError, SeparationError, SolverError
from tumorctrl.grid import Grid
from tumorctrl.snapshots import read_snapshot, read_snapshot_csv, write_snapshot_csv

from scenarios import read_manifest

ZERO_SCENARIO = """
[grid]
nx = 8
ny = 8
[time]
t_final = 0.3
steps = 6
[model]
phi0 = zero
sigma0 = zero
sigma_boundary = zero
z0 = const:0.5
force_x = zero
force_y = zero
[run]
seed = 3
"""

ODE_SCENARIO = """
[grid]
nx = 6
ny = 6
[time]
t_final = 0.5
steps = 50
[model]
k1_const = 0.5
k2_const = 1.0
s_const = 0.8
phi0 = const:0.25
sigma0 = const:0.6
sigma_boundary = const:0.6
z0 = const:0.45
force_x = zero
force_y = zero
[controls]
chi1 = const:0.15
chi2 = const:0.234375
"""


def write_cfg(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_zero_scenario_runs_clean(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ZERO_SCENARIO)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    for name in ("phi_00006", "sigma_00006", "ux_00006"):
        _, values, _ = read_snapshot_csv(tmp_path / "out" / f"{name}.csv")
        assert np.all(values == 0.0)


def test_zero_data_logs_no_negative_clamp(tmp_path, capsys):
    # the fields' minimum is exactly 0.0, so the clamp excess is +0.0, not -0.0
    cfg = write_cfg(tmp_path, ZERO_SCENARIO)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    info = read_manifest(tmp_path / "out" / "run.manifest")
    assert info["phi_clamp_max"] == info["sigma_clamp_max"] == "0.000000e+00"


def test_zero_initial_damage_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[model]\nz0 = zero\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "initial-data-range" in capsys.readouterr().out


OUT_OF_DOMAIN = """
[grid]
nx = 8
ny = 8
[time]
t_final = 0.3
steps = 6
[model]
z0 = const:0.0
"""


@pytest.mark.parametrize("command", ["simulate", "optimize", "gradient-check", "hypothesis-check"])
def test_out_of_domain_data_fails_the_gate(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, OUT_OF_DOMAIN)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "initial-data-range" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_unknown_key_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nnx = 8\nbogus = 1\n")
    rc = main(["simulate", "--config", cfg])
    assert rc == 2
    assert "unknown key 'bogus'" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.ini")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_truncated_binary_snapshot_is_config_error(tmp_path, capsys):
    (tmp_path / "phi0.tcf").write_bytes(b"TCF1" + bytes(10))
    cfg = write_cfg(tmp_path, "[model]\nphi0 = file:phi0.tcf\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "truncated header" in capsys.readouterr().err


def test_binary_snapshot_header_claiming_more_than_the_file_is_config_error(tmp_path, capsys):
    # the header's nx, ny are checked against the file's size before they size a read
    header = struct.pack("<IIddd", 2**32 - 1, 2**32 - 1, 1.0 / 6, 1.0 / 6, 0.0)
    (tmp_path / "huge.tcf").write_bytes(b"TCF1" + header + bytes(8 * 49))
    text = "[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[model]\nphi0 = file:huge.tcf\n"
    rc = main(["separation", "--config", write_cfg(tmp_path, text)])
    assert rc == 2
    assert "truncated payload" in capsys.readouterr().err


@pytest.mark.parametrize("side, code", [(1.0, 0), (3.0, 2)])
def test_snapshot_cell_size_must_match_the_grid(tmp_path, capsys, side, code):
    write_snapshot_csv(tmp_path / "phi0.csv", Grid.unit(8, 8, side, side), np.full((9, 9), 0.1))
    cfg = write_cfg(tmp_path, ZERO_SCENARIO.replace("phi0 = zero", "phi0 = file:phi0.csv"))
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == code
    if code == 2:
        assert "cell sizes 0.375 x 0.375, grid wants 0.125 x 0.125" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("key", ["force_x", "iota", "phi0", "sigma_boundary"])
def test_non_finite_snapshot_is_config_error(tmp_path, capsys, key, bad):
    write_snapshot_csv(tmp_path / "bad.csv", Grid.unit(6, 6), np.full((7, 7), float(bad)))
    text = f"[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[model]\n{key} = file:bad.csv\n"
    cfg = write_cfg(tmp_path, text)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: snapshot {tmp_path / 'bad.csv'} holds non-finite values\n"
    )


@pytest.mark.parametrize("command", ["simulate", "separation"])
@pytest.mark.parametrize("expr", ["tanh_front:-1e308,1e308,0.5,0.1", "tanh_front:-1e308,1e308,100,0.1"],
                         ids=["inf", "nan"])
@pytest.mark.parametrize("key", ["iota", "phi0", "sigma0", "z0"])
def test_non_finite_expression_is_config_error(tmp_path, capsys, recwarn, key, expr, command):
    # finite arguments whose ramp overflows to inf, or to inf * 0 = nan
    text = f"[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[model]\n{key} = {expr}\n"
    rc = main([command, "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"config error: field expression {expr!r} evaluates to non-finite values\n"
    )
    assert not recwarn.list


def test_help_describes_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for name, text in (
        ("simulate", "forward solve, snapshots, invariant report"),
        ("gradient-check", "tangent slope test plus adjoint-vs-difference table"),
        ("optimize", "projected descent, history CSV, optimality report"),
        ("separation", "damage barrier radii and post-hoc containment"),
        ("hypothesis-check", "structural-condition sampling report"),
    ):
        assert f"{name} {text}" in out


def test_infeasible_box_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[admissible]\nchi1_low = 0.9\nchi1_high = 0.1\n")
    rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "boxes are empty" in capsys.readouterr().err


@pytest.mark.parametrize("step0", ["0", "-5"])
def test_nonpositive_step0_is_config_error(tmp_path, capsys, step0):
    cfg = write_cfg(tmp_path, f"[optimizer]\nstep0 = {step0}\n")
    rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "step0 must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, message", [
    ("max_iters", "0", "max_iters must be at least 1, got 0"),
    ("max_iters", "-2", "max_iters must be at least 1, got -2"),
    ("tol", "-1e-6", "tol must be non-negative, got -1e-06"),
])
def test_invalid_optimizer_limits_are_config_errors(tmp_path, capsys, key, value, message):
    text = f"[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[optimizer]\n{key} = {value}\n"
    rc = main(["optimize", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("grid", "nx", "1", "[grid] nx must be at least 2, got 1"),
    ("grid", "lx", "0", "[grid] lx must be positive, got 0.0"),
    ("time", "t_final", "0", "[time] t_final must be positive, got 0.0"),
    ("time", "steps", "0", "[time] steps must be at least 1, got 0"),
    ("model", "n", "0", "[model] n must be positive, got 0.0"),
    ("model", "k2_const", "-1", "[model] k2_const must be positive, got -1.0"),
    ("optimizer", "step0", "0", "[optimizer] step0 must be positive, got 0.0"),
    ("optimizer", "tol", "-1e-6", "[optimizer] tol must be non-negative, got -1e-06"),
    ("optimizer", "max_iters", "0", "[optimizer] max_iters must be at least 1, got 0"),
    ("output", "stride", "0", "[output] stride must be at least 1, got 0"),
    ("run", "seed", "-1", "[run] seed must be at least 0, got -1"),
])
def test_out_of_range_value_is_named_config_error(tmp_path, capsys, section, key, value, message):
    cfg = write_cfg(tmp_path, f"[{section}]\n{key} = {value}\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def unreadable_config(tmp_path, kind):
    """A config path that load_config must reject: a bad seed, a directory, non-UTF-8 bytes,
    a cell size whose square overflows or underflows."""
    if kind == "negative-seed":
        return write_cfg(tmp_path, "[run]\nseed = -1\n")
    if kind == "huge-lx":
        return write_cfg(tmp_path, "[grid]\nlx = 1e200\n")
    if kind == "tiny-ly":
        return write_cfg(tmp_path, "[grid]\nly = 1e-200\n")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[run]\nseed = 3 ; \xff\n")
    return str(path)


@pytest.mark.parametrize("kind", ["negative-seed", "directory", "non-utf8", "huge-lx", "tiny-ly"])
@pytest.mark.parametrize("command", sorted(cli._DISPATCH))
def test_unusable_config_exits_2_on_every_command(tmp_path, capsys, command, kind):
    cfg = unreadable_config(tmp_path, kind)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("config error: ")
    assert "Traceback" not in captured.out + captured.err
    assert not (tmp_path / "out").exists()


SWEEP_BASE = {"grid": {"nx": "6", "ny": "6"}, "time": {"steps": "4"}, "optimizer": {"max_iters": "2"}}
SWEEP_FLOATS = ("0", "-1", "1e200", "1e-200", "1e10", "-1e10")
SWEEP_INT_KEYS = {"nx", "ny", "steps", "max_iters", "stride", "seed"}


def schema_sweep():
    """One (section, key, value) per config of the sweep: each schema key set alone to an
    extreme, zero or negative value of its kind, on top of SWEEP_BASE."""
    field_keys = set(config._FIELD_KEYS) | set(config._TARGET_KEYS) | config._SCHEMA["controls"]
    for section, keys in sorted(config._SCHEMA.items()):
        for key in sorted(keys - {"directory", "format", "k2_variable"}):
            if key in SWEEP_INT_KEYS:
                values = ("0", "-1", "1", "2")
            elif key in field_keys:
                values = tuple(f"const:{v}" for v in SWEEP_FLOATS)
            else:
                values = SWEEP_FLOATS
            yield from ((section, key, v) for v in values)


def test_schema_sweep_exits_with_a_readme_code(tmp_path, capsys):
    # separation gates, assembles the run and marches it; run through all
    # five commands, this sweep escapes on no config that separation passes.
    # A failure is one line on stderr, with no numpy warning ahead of it
    escapes = []
    for section, key, value in schema_sweep():
        sections = {name: dict(keys) for name, keys in SWEEP_BASE.items()}
        sections.setdefault(section, {})[key] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       for name, keys in sections.items())
        try:
            rc = main(["separation", "--config", write_cfg(tmp_path, text)])
        except Exception as e:  # anything that escapes main is a finding
            rc = f"{type(e).__name__}: {e}"
        if rc not in (0, 1, 2, 3) or capsys.readouterr().err.count("\n") > 1:
            escapes.append(f"[{section}] {key} = {value}: {rc}")
    assert not escapes, "\n".join(escapes)


def test_snapshot_field_cannot_be_refined(tmp_path, capsys):
    for section, key in (("model", "phi0"), ("controls", "chi1")):
        write_snapshot_csv(tmp_path / f"{key}.csv", Grid.unit(6, 6), np.full((7, 7), 0.1))
        text = f"[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[{section}]\n{key} = file:{key}.csv\n"
        cfg = write_cfg(tmp_path, text)
        rc = main(["gradient-check", "--config", cfg, "--refine", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: field '{key}' comes from a snapshot file and cannot be "
            "re-evaluated at a refined resolution\n"
        )
        assert main(["gradient-check", "--config", cfg, "--refine", "0"]) == 0
        assert "level 0: 6x6, 4 steps" in capsys.readouterr().out


def test_separation_prints_closed_form_radii(tmp_path, capsys):
    text = """
[grid]
nx = 8
ny = 8
[time]
t_final = 0.3
steps = 12
[model]
c1 = 1.0
c2 = 0.0
iota_const = 1.9
z0 = const:0.5
"""
    cfg = write_cfg(tmp_path, text)
    rc = main(["separation", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.11920 / 0.88080" in out
    assert "contained" in out


def test_separation_gates_before_it_marches(tmp_path, capsys, monkeypatch):
    (marches,) = record_calls(monkeypatch, state.march)
    text = "[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[model]\nphi0 = const:1e200\n"
    rc = main(["separation", "--config", write_cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.startswith("hypothesis gate failed:\n  initial-data-range: ")
    assert captured.err == ""
    assert marches == []


def test_floating_point_fault_is_one_solver_error(tmp_path, capsys):
    # a step of 1e-202 makes 0 * inf in the march; no numpy warning may
    # reach the user ahead of the error line
    text = "[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\nt_final = 1e-200\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("solver error: invalid value encountered") and err.count("\n") == 1


def test_separation_infeasible_slope_names_condition(tmp_path, capsys):
    text = "[model]\nc1 = 0.05\niota_const = 5.0\nz0 = const:0.5\n"
    cfg = write_cfg(tmp_path, text)
    rc = main(["separation", "--config", cfg])
    assert rc == 1
    assert "lower-sign-condition" in capsys.readouterr().out


# code promised in the README, the stream and the text of the message
ERROR_EXITS = [
    (ConfigError("bad key"), 2, "err", "config error: bad key"),
    (SolverError("no convergence"), 3, "err", "solver error: no convergence"),
    (DomainError("beta argument outside (0, 1)"), 3, "err", "solver error: beta argument"),
    (FloatingPointError("overflow encountered in multiply"), 3, "err",
     "solver error: overflow encountered in multiply"),
    (SeparationError("no radius", condition="lower-sign-condition"), 1, "out",
     "separation analysis failed (lower-sign-condition): no radius"),
]


@pytest.mark.parametrize("command", sorted(cli._DISPATCH))
@pytest.mark.parametrize("error, code, stream, message", ERROR_EXITS,
                         ids=[type(e[0]).__name__ for e in ERROR_EXITS])
def test_error_classes_map_to_readme_exit_codes(tmp_path, capsys, monkeypatch,
                                                command, error, code, stream, message):
    def body(cfg, args):
        raise error

    monkeypatch.setitem(cli._DISPATCH, command, body)
    cfg = write_cfg(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == code
    assert message in getattr(captured, stream)


def record_calls(monkeypatch, *fns):
    """Rebind fns in every tumorctrl module; returns one argument list per fn."""
    logs = [[] for _ in fns]

    def recorder(fn, log):
        def wrapped(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)

        return wrapped

    swap = {id(fn): recorder(fn, log) for fn, log in zip(fns, logs)}
    for name, mod in list(sys.modules.items()):
        if name.startswith("tumorctrl"):
            for attr, value in list(vars(mod).items()):
                if id(value) in swap:
                    monkeypatch.setattr(mod, attr, swap[id(value)])
    return logs


OPTIMIZE_SMALL = """
[grid]
nx = 8
ny = 8
[time]
t_final = 0.5
steps = 8
[model]
phi0 = gaussian:0.3,0.5,0.5,0.04
[controls]
chi1 = gaussian:0.3,0.5,0.5,0.1
chi2 = const:0.2
[cost]
alpha1 = 1
alpha2 = 1
alpha6 = 0.3
alpha7 = 1
alpha9 = 0.1
[admissible]
chi1_high = 0.5
chi2_high = 0.5
c_ad = 0.1
[optimizer]
step0 = 50
tol = 1e-4
[run]
seed = 3
"""


def test_optimize_solves_each_state_and_adjoint_once(tmp_path, capsys, monkeypatch):
    states, adjoints = record_calls(monkeypatch, state.solve_state, adjoint.solve_adjoint)
    cfg = write_cfg(tmp_path, OPTIMIZE_SMALL)
    out = tmp_path / "out"
    main(["optimize", "--config", cfg, "--out", str(out)])
    assert "converged" in capsys.readouterr().out

    # line-search trials from the history: each iteration halves from its
    # entry step (step0, then twice the last accepted one) down to the step
    # it accepted; the converged row tries none
    rows = [line.split(",") for line in (out / "history.csv").read_text().split()[1:]]
    step0, step_in, trials = 50.0, 50.0, 0
    for row in rows:
        lam = float(row[3])
        if lam == 0.0:
            break
        trials += round(math.log2(step_in / lam)) + 1
        step_in = min(2.0 * lam, step0)
    assert trials > len(rows) - 1  # the run backtracks at least once
    assert len(states) == 1 + trials
    assert len(adjoints) == len(rows)
    controls = [args[0].chi1.tobytes() + args[0].chi2.tobytes() for args in states]
    assert len(set(controls)) == len(controls)
    assert len({id(args[0]) for args in adjoints}) == len(adjoints)


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_unusable_output_directory_is_config_error(tmp_path, capsys, monkeypatch, command):
    # a regular file on the path leaves no directory below it creatable
    (tmp_path / "file").write_text("")
    marches, states = record_calls(monkeypatch, state.march, state.solve_state)
    cfg = write_cfg(tmp_path, OPTIMIZE_SMALL)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "file" / "sub")])
    assert rc == 2
    assert "config error: cannot create output directory" in capsys.readouterr().err
    assert marches == [] and states == []


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_separation_bounds_computed_once_per_run(tmp_path, capsys, monkeypatch, command):
    # only the commands that print a containment verdict read the interval
    (calls,) = record_calls(monkeypatch, model.separation_bounds)
    cfg = write_cfg(tmp_path, OPTIMIZE_SMALL)
    main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert f"{command}: " in capsys.readouterr().out
    assert len(calls) == {"simulate": 1, "optimize": 0}[command]


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_streamed_simulate_writes_the_saved_trajectory(tmp_path, capsys, fmt):
    path = write_cfg(tmp_path, OPTIMIZE_SMALL + f"[output]\nstride = 3\nformat = {fmt}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    cfg = load_config(path)
    traj = state.solve_state(cfg.control0, cfg.spec)
    # five fields at levels 0, 3 and 6 of 8, and the manifest
    assert len(list(out.iterdir())) == 16
    ext = "csv" if fmt == "csv" else "tcf"
    for n in (0, 3, 6):
        fields = (("phi", traj.phi[n]), ("sigma", traj.sigma[n]), ("z", traj.z[n]),
                  ("ux", traj.u[n, 0]), ("uy", traj.u[n, 1]))
        for name, want in fields:
            grid, values, t = read_snapshot(out / f"{name}_{n:05d}.{ext}")
            assert grid == cfg.spec.grid and t == traj.times[n], (name, n)
            assert values.tobytes() == want.tobytes(), (name, n)
    info = read_manifest(out / "run.manifest")
    assert info["n_steps"] == "8" and info["sigma_cap_heuristic"] == "true"
    assert info["z_excess"] == "0.000e+00"


def test_damage_outside_its_window_is_violated(tmp_path, capsys, monkeypatch):
    separation_bounds = model.separation_bounds

    def narrowed(spec):
        sb = separation_bounds(spec)
        return replace(sb, r_high=sb.r_low + 0.01)

    monkeypatch.setattr(model, "separation_bounds", narrowed)
    path = write_cfg(tmp_path, OPTIMIZE_SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "-> VIOLATED" in printed and "simulate: FAIL" in printed
    assert float(read_manifest(out / "run.manifest")["z_excess"]) > 0.0
    assert main(["separation", "--config", path]) == 1
    printed = capsys.readouterr().out
    assert "-> VIOLATED" in printed and "separation: FAIL" in printed


@pytest.mark.parametrize("command", ["simulate", "separation"])
def test_forward_commands_march_without_a_trajectory(tmp_path, capsys, monkeypatch, command):
    states, marches = record_calls(monkeypatch, state.solve_state, state.march)
    main([command, "--config", write_cfg(tmp_path, OPTIMIZE_SMALL), "--out", str(tmp_path / "out")])
    assert f"{command}: PASS" in capsys.readouterr().out
    assert states == []
    assert len(marches) == 1


def test_solver_error_mid_march_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    step_z, calls = state.step_z, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise SolverError("z-step Newton did not converge in 50 iterations")
        return step_z(*args, **kwargs)

    monkeypatch.setattr(state, "step_z", failing)
    # a manifest left by an earlier run in the same directory must go too
    out = tmp_path / "out"
    out.mkdir()
    (out / "run.manifest").write_text("n_steps = 6\n")
    rc = main(["simulate", "--config", write_cfg(tmp_path, ZERO_SCENARIO), "--out", str(out)])
    assert rc == 3
    assert "solver error: z-step Newton" in capsys.readouterr().err
    assert not (out / "run.manifest").exists()
    # the levels before the failing step were written as the march ran
    assert sorted(p.name for p in out.glob("phi_*")) == [f"phi_0000{n}.csv" for n in range(3)]


def test_simulate_memory_stays_below_the_trajectory(tmp_path, capsys, traced_peak, field_bytes):
    text = "[grid]\nnx = 24\nny = 24\n[time]\nsteps = 400\n[output]\nstride = 100\n"
    # load_config is traced too: its time-constant doses are views of one level
    rc, peak = traced_peak(main, ["simulate", "--config", write_cfg(tmp_path, text),
                                  "--out", str(tmp_path / "out")])
    assert rc == 0
    # a quarter of a trajectory of 8 fields (phi, sigma, z, two displacement
    # and three strain components): 1.15 fields here
    assert peak < 2 * field_bytes(Grid.unit(24, 24), 400)


def test_config_doses_are_read_only_views_of_one_level(tmp_path):
    cfg = load_config(write_cfg(tmp_path, OPTIMIZE_SMALL))
    for dose in (cfg.control0.chi1, cfg.control0.chi2):
        assert dose.shape == (9, 9, 9)
        assert dose.strides[0] == 0  # every time level is the same memory
        with pytest.raises(ValueError, match="read-only"):
            dose[1] += 1.0


def test_gradient_check_small_config(tmp_path, capsys):
    text = """
[grid]
nx = 8
ny = 8
[time]
steps = 16
[controls]
chi1 = const:0.08
chi2 = const:0.12
[cost]
alpha6 = 0.3
alpha7 = 1.0
alpha9 = 0.001
[run]
seed = 5
"""
    cfg = write_cfg(tmp_path, text)
    rc = main(["gradient-check", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "taylor slope" in out
    assert "PASS" in out


def test_gradient_check_reuses_taylor_base_solve(tmp_path, capsys, monkeypatch):
    (states,) = record_calls(monkeypatch, state.solve_state)
    text = "[grid]\nnx = 6\nny = 6\n[time]\nsteps = 6\n[run]\nseed = 5\n"
    main(["gradient-check", "--config", write_cfg(tmp_path, text)])
    assert "level 0" in capsys.readouterr().out
    # Taylor base plus 5 perturbed doses, then 3 central differences of 2
    assert len(states) == 1 + 5 + 3 * 2


def test_gradient_check_gates_every_refined_level(tmp_path, capsys):
    # the 2x2 level passes the gate; the 4x4 one puts phi0 = 1.5 > N on a node
    text = "[grid]\nnx = 2\nny = 2\n[time]\nsteps = 2\n[model]\nphi0 = gaussian:1.5,0.25,0.5,0.001\n"
    cfg = write_cfg(tmp_path, text)
    assert main(["hypothesis-check", "--config", cfg]) == 0
    capsys.readouterr()
    rc = main(["gradient-check", "--config", cfg, "--refine", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines == [
        "hypothesis gate failed at refinement level 1 (4x4, 4 steps):",
        "  initial-data-range: margin -5.000e-01 at (max phi0 = 1.5)",
    ]


GRADIENT_REFINE = """
[grid]
nx = 8
ny = 8
[time]
steps = 8
[cost]
alpha6 = 0.3
alpha9 = 0.1
[controls]
chi1 = const:0.2
chi2 = const:0.3
[run]
seed = 7
"""


def test_gradient_check_refined_level_improves(tmp_path, capsys):
    rc = main(["gradient-check", "--config", write_cfg(tmp_path, GRADIENT_REFINE), "--refine", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[1].startswith("taylor slope ")
    for line, head, tol in ((lines[2], "level 0: 8x8, 8 steps", "6.0e-02"),
                            (lines[3], "level 1: 16x16, 16 steps", "3.0e-02")):
        assert line.startswith(head + ", relative errors ")
        assert line.endswith(f", tolerance {tol} -> ok")
    ratio = re.fullmatch(r"  improvement over previous level (\d+\.\d\d)x \(needs >= 1\.5\) -> ok",
                         lines[4])
    assert ratio and float(ratio[1]) >= 1.5
    assert lines[5:] == ["gradient-check: PASS"]


def test_gradient_check_low_taylor_slope_fails(tmp_path, capsys, monkeypatch):
    taylor = cli.taylor_test
    monkeypatch.setattr(cli, "taylor_test", lambda *args: {**taylor(*args), "slope": 1.0})
    text = "[grid]\nnx = 6\nny = 6\n[time]\nsteps = 6\n[run]\nseed = 5\n"
    rc = main(["gradient-check", "--config", write_cfg(tmp_path, text)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[-2:] == ["taylor slope 1.0 below 1.25", "gradient-check: FAIL"]


def test_optimize_stamps_doses_with_the_forward_times(tmp_path, capsys):
    # at 49 steps n * (T / 49) misses T = 0.5 by one ulp at the last level
    text = "[grid]\nnx = 6\nny = 6\n[time]\nsteps = 49\n[optimizer]\nmax_iters = 1\n[output]\nstride = 49\n"
    cfg = write_cfg(tmp_path, text)
    main(["optimize", "--config", cfg, "--out", str(tmp_path / "opt")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")])
    for n in (0, 49):
        _, _, t_dose = read_snapshot(tmp_path / "opt" / f"chi1_{n:05d}.csv")
        _, _, t_state = read_snapshot(tmp_path / "sim" / f"phi_{n:05d}.csv")
        assert t_dose == t_state
    assert t_dose == 0.5


def test_optimize_effort_only_hits_floor(tmp_path, capsys):
    text = """
[grid]
nx = 6
ny = 6
[time]
t_final = 0.4
steps = 4
[cost]
alpha1 = 0.0
alpha2 = 0.0
alpha9 = 1.0
[controls]
chi1 = const:0.5
chi2 = const:0.5
[optimizer]
max_iters = 20
tol = 1e-10
"""
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    rc = main(["optimize", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert "converged" in capsys.readouterr().out
    rows = (out / "history.csv").read_text().strip().split("\n")[1:]
    assert float(rows[-1].split(",")[1]) < 1e-8


def test_repeated_runs_write_identical_files(tmp_path):
    cfg = write_cfg(tmp_path, ZERO_SCENARIO)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    files = sorted(p.name for p in a.iterdir())
    assert files == sorted(p.name for p in b.iterdir())
    for name in files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_hypothesis_check_reports_all_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    rc = main(["hypothesis-check", "--config", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failing" in out
    assert "initial-data-range" in out


@pytest.mark.parametrize("kinetic", ["k1_const = 0.8", "k2_const = 2.0", "s_const = 1.2"])
def test_constant_kinetics_carry_their_own_range(tmp_path, capsys, kinetic):
    cfg = write_cfg(tmp_path, f"[grid]\nnx = 8\nny = 8\n[model]\n{kinetic}\n")
    rc = main(["hypothesis-check", "--config", cfg])
    assert rc == 0
    assert "0 failing" in capsys.readouterr().out


def test_constant_supply_sets_the_lactate_cap(tmp_path):
    text = "[grid]\nnx = 8\nny = 8\n[model]\ns_const = 1.2\n[controls]\nchi2 = const:0.5\n"
    cfg = load_config(write_cfg(tmp_path, text))
    spec = cfg.spec
    expected = max(spec.M0, float(spec.sigma0.max())) + spec.T * 0.5 * 1.2
    assert state.sigma_cap_for(spec, cfg.control0) == pytest.approx(expected, rel=1e-15)


# each hypothesis row with the [model] lines that fail it and no other row
FALSIFIERS = {
    "proliferation-bounds": "p_star = -1",
    "lactate-kinetics-bounds": "k2_variable = true\nk2_low = -0.9",
    "elasticity-positivity": "mu_min = -5",
    "damage-barrier": "c1 = 0",
    "mechanical-coupling-bounded": "psi_max = -1",
    "boundary-lactate-range": "sigma_boundary = const:2",
    "initial-data-range": "z0 = const:0",
    "stress-weight-bounded": "gamma_max = -1",
}


@pytest.mark.parametrize("row", FALSIFIERS)
def test_each_hypothesis_row_fails_on_its_falsifier_alone(tmp_path, capsys, row):
    text = f"[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[model]\n{FALSIFIERS[row]}\n"
    rc = main(["hypothesis-check", "--config", write_cfg(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 1
    assert next(l for l in out.split("\n") if l.startswith(row)).split()[1] == "FAIL"
    assert "8 conditions, 1 failing" in out


def test_damage_barrier_margin_is_c1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nnx = 6\nny = 6\n[model]\nc1 = -0.5\n")
    main(["hypothesis-check", "--config", cfg])
    out = capsys.readouterr().out
    row = next(l for l in out.splitlines() if l.startswith("damage-barrier")).split(None, 3)[1:]
    assert row == ["FAIL", "-5.000e-01", "(C1=-0.5)"]


@pytest.mark.parametrize("line, row", [
    ("", ["pass", "1.118e-06", "(min phi0 = 1.118e-06)"]),
    ("z0 = const:0", ["FAIL", "0.000e+00", "(min z0 = 0)"]),
    ("sigma0 = const:2", ["FAIL", "-1.000e+00", "(max sigma0 = 2)"]),
], ids=["phi0", "z0", "sigma0"])
def test_initial_data_witness_names_the_datum_that_sets_the_margin(tmp_path, capsys, line, row):
    cfg = write_cfg(tmp_path, f"[grid]\nnx = 8\nny = 8\n[model]\n{line}\n")
    main(["hypothesis-check", "--config", cfg])
    out = capsys.readouterr().out
    assert next(l for l in out.splitlines() if l.startswith("initial-data-range")).split(None, 3)[1:] == row


@pytest.mark.parametrize("command", ["hypothesis-check", "simulate"])
def test_run_too_large_to_hold_is_config_error(tmp_path, capsys, command):
    # rejected before any field is built: nothing of this size is allocated
    cfg = write_cfg(tmp_path, "[grid]\nnx = 1000000\nny = 1000000\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "config error: [grid] nx = 1000000, ny = 1000000 and [time] steps = 200 at refinement 0 "
        "give a state trajectory of 8040016080008040 bytes, above the 2^34-byte bound\n"
    )
    assert not (tmp_path / "out").exists()


def test_refined_load_too_large_to_hold_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "[grid]\nnx = 2\nny = 2\n[time]\nsteps = 2\n")
    assert load_config(cfg, refine=2).spec.grid.nx == 8
    with pytest.raises(ConfigError, match=r"^\[grid\] nx = 2, ny = 2 and \[time\] steps = 2 at "
                                          r"refinement 30 give a state trajectory of \d+ bytes"):
        load_config(cfg, refine=30)


@pytest.mark.parametrize("section, lines, message", [
    ("cost", "\n".join(f"alpha{i} = 0" for i in range(1, 10)),
     "at least one cost weight must be positive"),
    ("model", "iota = tanh_front:-1e308,1e308,100,0.1", "evaluates to non-finite values"),
    ("cost", "phi_track = tanh_front:-1e308,1e308,0.5,0.1", "evaluates to non-finite values"),
], ids=["zero-weights", "iota", "target"])
def test_cost_data_and_field_finiteness_are_checked_at_load(tmp_path, capsys, section, lines, message):
    # the hypothesis gate has no row for these: load_config rejects them first
    text = f"[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n[{section}]\n{lines}\n"
    rc = main(["hypothesis-check", "--config", write_cfg(tmp_path, text)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli._DISPATCH))
def test_zero_carrying_capacity_is_config_error(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "[grid]\nnx = 6\nny = 6\n[model]\nn = 0\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "config error: [model] n must be positive, got 0.0" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_negative_refine_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nnx = 6\nny = 6\n")
    with pytest.raises(SystemExit) as exc:
        main(["gradient-check", "--config", cfg, "--refine", "-2"])
    assert exc.value.code == 2
    assert "argument --refine: must be non-negative, got -2" in capsys.readouterr().err


def test_oracle_on_reducible_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ODE_SCENARIO)
    rc = main(["simulate", "--config", cfg, "--oracle", "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    line = next(l for l in out.split("\n") if "pointwise oracle" in l)
    err = float(line.split("sup error")[1].split()[0])
    assert err < 5e-3


def test_oracle_rejects_drifting_lactate_at_zero_boundary_level(tmp_path, capsys):
    # chi2*S - K(0) = 0.234375*0.8 > 0, so the lactate leaves its boundary level 0
    text = ODE_SCENARIO.replace("const:0.6", "const:0.0")
    rc = main(["simulate", "--config", write_cfg(tmp_path, text), "--oracle",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "balancing second dose" in capsys.readouterr().err


def test_oracle_rejects_inhomogeneous_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[grid]\nnx = 8\nny = 8\n")
    rc = main(["simulate", "--config", cfg, "--oracle", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "pointwise oracle" in capsys.readouterr().err


def test_tanh_front_ramps_between_its_levels():
    g = Grid.unit(8, 8)
    front = parse_expression("tanh_front:0.1,0.9,0.5,0.05", g)
    assert front.shape == g.shape
    assert g.xs[4] == 0.5
    assert np.allclose(front[:, 4], 0.5, rtol=0, atol=1e-15)
    assert np.allclose(front[:, 0], 0.1, rtol=0, atol=1e-8)
    assert np.allclose(front[:, -1], 0.9, rtol=0, atol=1e-8)
    assert np.all(np.diff(front, axis=1) > 0)


@pytest.mark.parametrize("width", ["0", "-0.1"])
def test_tanh_front_width_must_be_positive(width):
    with pytest.raises(ConfigError, match="front width must be positive"):
        parse_expression(f"tanh_front:0.1,0.9,0.5,{width}", Grid.unit(8, 8))
