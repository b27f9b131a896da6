"""Source hygiene: package modules reach each other only by public names,
every factorization (sparse LU, eigen- or singular value decomposition)
stays in linalg, only snapshots picks a snapshot file's reader or writer,
only the command line writes a run directory, only linearized assembles
the linearization coefficients and writes the tangent's substeps, no
handler catches every exception, the command line reads every field of
a run configuration, every definition in the package is named by the
package or the benchmark, the command line loads none of
scipy.sparse.linalg, scipy.linalg, scipy.special and scipy.integrate, at
import or in a run, and the benchmark's tracer still finds every name it
rebinds."""
import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import tumorctrl
from tumorctrl.config import RunConfig


def test_no_private_cross_module_imports():
    offenders = []
    for path in sorted(Path(tumorctrl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            internal = node.level > 0 or (node.module or "").startswith("tumorctrl")
            offenders += [
                f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for alias in node.names
                if internal and alias.name.startswith("_")
            ]
    assert not offenders, "private names imported across modules:\n" + "\n".join(offenders)


def test_no_broad_except():
    # a handler that catches every exception turns a bug into a wrong exit code
    offenders = []
    for path in sorted(Path(tumorctrl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or (isinstance(c, ast.Name) and c.id in ("Exception", "BaseException"))
                   for c in caught):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, "broad except in:\n" + "\n".join(offenders)


def names_outside(owners, names):
    """Where a package module other than owners uses one of names, as 'file:line: name'."""
    found = []
    for path in sorted(Path(tumorctrl.__file__).parent.glob("*.py")):
        if path.name in owners:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            used = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else []
            used += [node.id] if isinstance(node, ast.Name) else []
            used += [node.attr] if isinstance(node, ast.Attribute) else []
            found += [f"{path.name}:{node.lineno}: {n}" for n in used if n in names]
    return found


def test_only_linalg_factorizes():
    offenders = names_outside(("linalg.py",), ("splu", "eigh", "svd"))
    assert not offenders, "factorization outside linalg:\n" + "\n".join(offenders)


def test_only_snapshots_picks_the_snapshot_format():
    formats = ("write_snapshot_csv", "write_snapshot_bin", "read_snapshot_csv", "read_snapshot_bin")
    offenders = names_outside(("snapshots.py",), formats)
    assert not offenders, "snapshot format chosen outside snapshots:\n" + "\n".join(offenders)


def test_only_the_command_line_writes_a_run_directory():
    # the solver does no I/O: snapshots and manifests are written by cli alone
    offenders = names_outside(("cli.py", "snapshots.py"), ("write_snapshots", "write_manifest"))
    assert not offenders, "run directory written outside cli:\n" + "\n".join(offenders)


def test_only_linearized_assembles_coefficients():
    offenders = names_outside(("linearized.py",), ("assemble_coefficients",))
    assert not offenders, "coefficients assembled outside linearized:\n" + "\n".join(offenders)


def test_only_linearized_writes_the_tangent_substeps():
    # the tangent's CG labels name its substeps, written once in TangentStep.apply
    labels = {"omega-step", "zeta-step"}
    found = []
    for path in sorted(Path(tumorctrl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in labels:
                found.append(f"{path.name}:{node.lineno}: {node.value}")
    assert [f.split(":")[0] for f in found] == ["linearized.py"] * 2, "\n".join(found)


def test_every_run_config_field_is_read_by_the_command_line():
    # a field no subcommand reads is a second copy of the run, kept for nothing
    path = Path(tumorctrl.__file__).parent / "cli.py"
    read = {node.attr for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute)}
    unread = [f.name for f in dataclasses.fields(RunConfig) if f.name not in read]
    assert not unread, "RunConfig fields no subcommand reads: " + ", ".join(unread)


def test_every_definition_is_named_by_the_program():
    # a definition only the tests reach belongs beside the tests, in
    # tests/scenarios.py; the __init__ re-exports name the public API
    package = sorted(Path(tumorctrl.__file__).parent.glob("*.py"))
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    named, defined = set(), []
    for path in package + bench:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                named.update(alias.name.rpartition(".")[2] for alias in node.names)
            elif path in package and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((f"{path.name}:{node.lineno}", node.name))
    unused = [f"{where}: {name}" for where, name in defined
              if name not in named and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, "definitions no package module or benchmark names:\n" + "\n".join(unused)


def test_cli_import_loads_no_sparse_linalg(tmp_path):
    # each of these costs memory and start-up time in every run; only
    # simulate --oracle may load scipy.integrate.  gradient-check runs with
    # --refine 1, so the rebuild at a refined resolution is checked too
    ini = tmp_path / "tiny.ini"
    ini.write_text("[grid]\nnx = 8\nny = 8\n[time]\nsteps = 4\n")
    code = (
        "import sys, tumorctrl.cli as cli\n"
        "heavy = {'scipy.sparse.linalg', 'scipy.linalg', 'scipy.special', 'scipy.integrate'}\n"
        "assert not heavy & set(sys.modules), ('import', heavy & set(sys.modules))\n"
        "for cmd in ('simulate', 'optimize', 'gradient-check', 'separation', 'hypothesis-check'):\n"
        "    refine = ['--refine', '1'] if cmd == 'gradient-check' else []\n"
        f"    cli.main([cmd, '--config', {str(ini)!r}, '--out', {str(tmp_path)!r} + '/' + cmd] + refine)\n"
        "    assert not heavy & set(sys.modules), (cmd, heavy & set(sys.modules))\n"
    )
    src = str(Path(tumorctrl.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr


def test_benchmark_tracer_still_hooks_the_package(tmp_path):
    # perfbench/tracer.py rebinds package names by attribute, so a rename
    # or a deletion in the package breaks only traced benchmark runs
    ini = tmp_path / "tiny.ini"
    ini.write_text("[grid]\nnx = 6\nny = 6\n[time]\nsteps = 4\n")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parents[1] / 'perfbench')!r})\n"
        "from tracer import Tracer\n"
        "from tumorctrl import cli\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        f"rc = cli.main(['simulate', '--config', {str(ini)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "assert rc == 0, rc\n"
        "calls = tracer.calls\n"
        "assert calls['state.step_u'] > 0 and calls['model.check_hypotheses'] > 0, dict(calls)\n"
        # a cg_solve call passing its label positionally would count as linalg.cg.cg
        "assert calls['linalg.cg.u-step'] > 0 and calls['linalg.cg.z-newton'] > 0, dict(calls)\n"
    )
    src = str(Path(tumorctrl.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
