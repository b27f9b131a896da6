"""The benchmark's own output checks, run in-process on each workload at seed 0.

Each workload's seeded input goes through the same entry the benchmark
child takes (cli.main, or run_sensitivity for the tangent workload), and
perfbench/workloads.check_outputs compares the printed values and files
with perfbench/reference.json.  An output that drifts from the reference
fails here by the name of the check.
"""
import json
from pathlib import Path

import pytest

from tumorctrl import cli
from tumorctrl.config import load_config

BENCH = Path(__file__).resolve().parents[1] / "perfbench"

with pytest.MonkeyPatch.context() as mp:
    mp.syspath_prepend(str(BENCH))
    from child import run_sensitivity
    from workloads import WORKLOADS, check_outputs, make_inputs, parse_outputs


@pytest.mark.parametrize("name", ["simulate-96", "optimize-48", "sensitivity-24"])
def test_workload_outputs_match_the_reference(tmp_path, capsys, name):
    kind = WORKLOADS[name]["kind"]
    ini_text, direction_seed = make_inputs(name, 0)
    ini = tmp_path / "run.ini"
    ini.write_text(ini_text)
    outdir = tmp_path / "out"
    if kind == "sensitivity":
        tau, _, gaps = run_sensitivity(load_config, str(ini), direction_seed)
        out = {key: [g[key] for g in gaps] for key in ("lhs", "rhs", "rel")}
        out["tau"] = tau
    else:
        cli.main([kind, "--config", str(ini), "--out", str(outdir)])
        out = parse_outputs(kind, capsys.readouterr().out, outdir)
    ref = json.loads((BENCH / "reference.json").read_text())[name]["0"]
    failed = [f"{c.name}: {c.detail}" for c in check_outputs(kind, out, ref) if not c.ok]
    assert not failed, failed
