"""What a process loads: the package entry, the CLI per subcommand, and the call
sites that an outside tracer wraps.

``import kinetics`` and ``import kinetics.cli`` load no other package module but
``errors``; ``parse_config`` loads the modules of the subcommand it resolves,
and the run loads no more. Each module set is read in a fresh interpreter.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kinetics
from kinetics import cli

SRC = str(Path(kinetics.__file__).resolve().parents[1])

# Every public name, by defining module.
PUBLIC = {
    "collision_kernel": ["CollisionBranch", "CollisionEvent", "Species", "collide",
                         "energy_loss_formula", "inverse_collide", "jacobian_analytic",
                         "jacobian_numeric", "jacobian_signed"],
    "collision_operator": ["GainNormalization", "MomentRates", "QuadratureSpec",
                           "RateEstimate", "evaluate_at", "evaluate_field", "moment_rates"],
    "distribution": ["DiscreteDistribution", "VelocityGrid", "bimodal", "interpolate",
                     "maxwellian"],
    "dsmc": ["DsmcConfig", "ParticleEnsemble", "sample_maxwellian_ensemble"],
    "sphere_group": ["ChartCoords", "PureQuaternion", "SpherePoint", "chart_jacobian", "embed",
                     "exp_subgroup", "match_generator", "project_chart",
                     "pushforward_derivative", "quaternion_multiply", "unproject_chart"],
    "transport_solver": ["ForceField", "PhaseGrid1D1V", "exact_solution", "load_phase_grid"],
}

# A small valid config per subcommand, and the package modules loaded once it is parsed.
SUBCOMMANDS = {
    "collide": ({"v1": [0.0, 0.0, 0.0], "v2": [1.0, 0.0, 0.0], "n": [1.0, 0.0, 0.0],
                 "epsilon": 0.5, "branch": "reflective"},
                {"collision_kernel"}),
    "operator": ({"vmax": 6.0, "nodes_per_axis": 37, "samples": 64, "probes": [[0.0, 0.0, 0.0]],
                  "mass": 1.380649e-23, "distribution": {"kind": "maxwellian"}},
                 {"collision_kernel", "collision_operator", "constants", "distribution", "rng"}),
    "dsmc": ({"particles": 20, "steps": 2, "dt": 0.01, "mass": 1.380649e-23},
             {"collision_kernel", "constants", "dsmc", "rng"}),
    "transport": ({"nx": 8, "nv": 8, "dt": 0.02, "steps": 2},
                  {"transport_solver"}),
    "audit": ({"jacobian_configs": 2, "stokes_samples": 64, "stokes_nodes": 34,
               "mass_samples": 64, "mass_nodes": 34},
              {"claim_audit", "collision_kernel", "collision_operator", "constants",
               "distribution", "rng", "sphere_group"}),
}

# In a fresh interpreter: the package modules after each of import, parse and run.
MODULE_SETS = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "kinetics" or m.startswith("kinetics."))
from kinetics import cli
sets = {"import": loaded()}
parse_config = cli.parse_config
def recording_parse_config(*args, **kwargs):
    config = parse_config(*args, **kwargs)
    sets["parse"] = loaded()
    return config
cli.parse_config = recording_parse_config
code = cli.main(sys.argv[1:])
sets["run"] = loaded()
print(json.dumps([code, sets]))
"""

# In a fresh interpreter: wrap the CLI's call sites as a tracer does, before any parse.
TRACER = """
import json, sys
from kinetics import cli
calls = []
def wrap(name):
    fn = getattr(cli, name)
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    setattr(cli, name, wrapper)
for name in ("main", "parse_config", "evaluate_field", "maxwellian", "bimodal"):
    wrap(name)
code = cli.main(sys.argv[1:])
print(json.dumps([code, calls]))
"""


def _python(script: str, args: list[str], cwd: Path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _config(tmp_path: Path, subcommand: str, parameters: dict) -> list[str]:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"subcommand": subcommand, "parameters": parameters,
                                "output_dir": str(tmp_path / "out")}))
    return [subcommand, "--config", str(path)]


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMANDS))
def test_a_subcommand_loads_its_modules_at_parse_and_none_in_the_run(subcommand, tmp_path):
    parameters, modules = SUBCOMMANDS[subcommand]
    code, sets = _python(MODULE_SETS, _config(tmp_path, subcommand, parameters), tmp_path)
    assert code == 0
    base = {"kinetics", "kinetics.cli", "kinetics.errors"}
    assert set(sets["import"]) == base
    assert set(sets["parse"]) == base | {f"kinetics.{m}" for m in modules}
    assert sets["run"] == sets["parse"]


def test_the_tracer_call_sites_resolve_before_a_parse_and_their_wrappers_run(tmp_path):
    parameters = dict(SUBCOMMANDS["operator"][0])
    code, calls = _python(TRACER, _config(tmp_path, "operator", parameters), tmp_path)
    assert (code, calls) == (0, ["main", "parse_config", "maxwellian", "evaluate_field"])
    parameters["distribution"] = {"kind": "bimodal", "bulk_velocity1": [1.0, 0.0, 0.0],
                                  "bulk_velocity2": [-1.0, 0.0, 0.0]}
    code, calls = _python(TRACER, _config(tmp_path, "operator", parameters), tmp_path)
    assert (code, calls) == (0, ["main", "parse_config", "bimodal", "evaluate_field"])


def test_a_replacement_set_on_the_cli_is_what_an_operator_run_calls(monkeypatch, tmp_path):
    seen = []
    original = cli.evaluate_field

    def replacement(*args, **kwargs):
        seen.append(kwargs["threads"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_field", replacement)
    args = _config(tmp_path, "operator", SUBCOMMANDS["operator"][0])
    assert cli.main([*args, "--threads", "2"]) == 0
    assert seen == [2]
    assert (tmp_path / "out" / "rates.csv").is_file()


def test_every_public_name_resolves_to_its_defining_modules_object():
    public = {name for names in PUBLIC.values() for name in names}
    assert set(kinetics.__all__) == public
    assert set(dir(kinetics)) >= public
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"kinetics.{module}")
        for name in names:
            namespace = {}
            exec(f"from kinetics import {name}", namespace)
            assert namespace[name] is getattr(owner, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        kinetics.nope
    with pytest.raises(ImportError):
        exec("from kinetics import nope", {})
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        cli.nope


def test_import_kinetics_loads_no_package_module(tmp_path):
    script = ("import json, sys, kinetics\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kinetics'))))")
    assert _python(script, [], tmp_path) == ["kinetics"]
