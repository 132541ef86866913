"""Config parsing, subcommand execution, atomicity, determinism."""

import json

import pytest

from kinetics import cli
from kinetics.errors import ParseError, ValidationError
from kinetics.transport_solver import load_phase_grid

MINIMAL_DSMC = {
    "subcommand": "dsmc",
    "parameters": {"particles": 200, "steps": 5, "dt": 0.01,
                   "mass": 1.380649e-23},
}


def test_parse_minimal_config_applies_defaults():
    config = cli.parse_config(json.dumps(MINIMAL_DSMC))
    assert config.subcommand == "dsmc"
    assert config.seed == 0
    assert config.output_dir == "out"
    assert config.parameters["sample_every"] == 1
    assert config.parameters["epsilon"] == 1.0
    assert config.parameters["branch"] == "reflective"


def test_parse_rejects_unknown_keys_by_name():
    bad = {"subcommand": "dsmc",
           "parameters": dict(MINIMAL_DSMC["parameters"], epsilonn=0.5)}
    with pytest.raises(ValidationError, match="epsilonn"):
        cli.parse_config(json.dumps(bad))
    with pytest.raises(ValidationError, match="outputdir"):
        cli.parse_config(json.dumps({"subcommand": "dsmc", "outputdir": "x",
                                     "parameters": MINIMAL_DSMC["parameters"]}))


def test_parse_rejects_bad_json_and_values():
    with pytest.raises(ParseError):
        cli.parse_config("{not json")
    with pytest.raises(ParseError):
        cli.parse_config("[1, 2]")
    bad = {"subcommand": "dsmc",
           "parameters": dict(MINIMAL_DSMC["parameters"], dt=-1.0)}
    with pytest.raises(ValidationError, match="dt"):
        cli.parse_config(json.dumps(bad))
    with pytest.raises(ValidationError):
        cli.parse_config(json.dumps(MINIMAL_DSMC), subcommand="audit")


def test_config_echo_round_trips():
    config = cli.parse_config(json.dumps(MINIMAL_DSMC))
    echoed = cli.parse_config(cli.config_to_json(config))
    assert echoed == config


def test_collide_subcommand_writes_expected_output(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "subcommand": "collide",
        "output_dir": str(tmp_path / "out"),
        "parameters": {"v1": [0, 0, 0], "v2": [2, 0, 0], "n": [1, 0, 0],
                       "epsilon": 0.5, "branch": "reflective"},
    }))
    assert cli.main(["collide", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "collision.csv").read_text().strip().split("\n")
    cells = [float(x) for x in lines[1].split(",")]
    assert cells[:6] == [1.5, 0.0, 0.0, 0.5, 0.0, 0.0]
    assert cells[8] == 0.75
    echo = json.loads((tmp_path / "out" / "config_echo.json").read_text())
    assert echo["subcommand"] == "collide"
    assert echo["parameters"]["mass1"] == 1.0


def test_validation_failure_exits_1_without_outputs(tmp_path):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "dsmc",
        "output_dir": str(out_dir),
        "parameters": dict(MINIMAL_DSMC["parameters"], dt=-0.5),
    }))
    assert cli.main(["dsmc", "--config", str(config_path)]) == 1
    assert not out_dir.exists()


def test_runtime_validation_failure_leaves_no_partial_outputs(tmp_path):
    # passes schema validation but fails inside the run (grid too coarse)
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "operator",
        "output_dir": str(out_dir),
        "parameters": {"vmax": 4.5, "nodes_per_axis": 9,
                       "distribution": {"kind": "maxwellian"},
                       "mass": 1.380649e-23,
                       "probes": [[0.0, 0.0, 0.0]]},
    }))
    assert cli.main(["operator", "--config", str(config_path)]) == 1
    assert not out_dir.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_numerical_failure_exits_2_without_outputs(tmp_path):
    # a valid config whose rate estimate overflows: numerical, not config
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "operator",
        "output_dir": str(out_dir),
        "parameters": {"vmax": 4.0, "nodes_per_axis": 41,
                       "distribution": {"kind": "maxwellian", "density": 1e300},
                       "mass": 1.380649e-23, "samples": 2000,
                       "probes": [[0.0, 0.0, 0.0]]},
    }))
    assert cli.main(["operator", "--config", str(config_path)]) == 2
    assert not out_dir.exists()


def test_operator_deterministic_across_thread_counts(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "subcommand": "operator",
        "seed": 11,
        "parameters": {"vmax": 4.5, "nodes_per_axis": 41,
                       "distribution": {"kind": "maxwellian"},
                       "mass": 1.380649e-23, "epsilon": 0.9,
                       "samples": 20000,
                       "probes": [[0.5, 0, 0], [0, 1.0, 0], [0.5, 0, 0],
                                  [0, 0, -0.7]]},
    }))
    outputs = []
    for threads, name in ((1, "a"), (8, "b")):
        out_dir = tmp_path / name
        code = cli.main(["operator", "--config", str(config_path),
                         "--output-dir", str(out_dir), "--threads", str(threads)])
        assert code == 0
        outputs.append((out_dir / "rates.csv").read_bytes())
    assert outputs[0] == outputs[1]
    rows = outputs[0].decode().strip().split("\n")[1:]
    assert rows[0].split(",")[3:] == rows[2].split(",")[3:]


def test_dsmc_subcommand_deterministic(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "subcommand": "dsmc",
        "seed": 5,
        "parameters": {"particles": 500, "steps": 20, "sample_every": 5,
                       "dt": 0.01, "mass": 1.380649e-23, "epsilon": 0.9},
    }))
    outputs = []
    for threads, name in ((1, "a"), (8, "b")):
        out_dir = tmp_path / name
        assert cli.main(["dsmc", "--config", str(config_path),
                         "--output-dir", str(out_dir),
                         "--threads", str(threads)]) == 0
        outputs.append((out_dir / "timeseries.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_seed_override_changes_outputs(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "subcommand": "dsmc",
        "parameters": {"particles": 500, "steps": 10, "dt": 0.01,
                       "mass": 1.380649e-23},
    }))
    digests = []
    for seed, name in ((1, "a"), (2, "b")):
        out_dir = tmp_path / name
        assert cli.main(["dsmc", "--config", str(config_path),
                         "--output-dir", str(out_dir), "--seed", str(seed)]) == 0
        digests.append((out_dir / "timeseries.csv").read_bytes())
        echo = json.loads((out_dir / "config_echo.json").read_text())
        assert echo["seed"] == seed
    assert digests[0] != digests[1]


def test_transport_subcommand_writes_snapshot(tmp_path):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "transport",
        "output_dir": str(out_dir),
        "parameters": {"nx": 48, "nv": 48, "dt": 0.02, "steps": 25,
                       "force": [0.6, 0, 0], "mass": 1.5},
    }))
    assert cli.main(["transport", "--config", str(config_path)]) == 0
    grid = load_phase_grid(out_dir / "phase_snapshot.bin")
    assert grid.nx == 48 and grid.nv == 48
    text = (out_dir / "transport.csv").read_text()
    rows = dict(line.split(",") for line in text.strip().split("\n")[1:])
    assert float(rows["mass_drift"]) < 1e-6
    assert float(rows["linf_error_vs_exact"]) < 0.05


def test_audit_subcommand_small_scale(tmp_path):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "audit",
        "seed": 0,
        "output_dir": str(out_dir),
        "parameters": {"jacobian_configs": 10, "stokes_samples": 4000,
                       "stokes_nodes": 41, "mass_samples": 20000,
                       "mass_nodes": 41},
    }))
    assert cli.main(["audit", "--config", str(config_path)]) == 0
    text = (out_dir / "audit.csv").read_text()
    header = text.split("\n", 1)[0]
    assert header == "claim_id,paper_ref,residual,threshold,verdict,metadata_json"
    assert "pair-map-determinant-equals-restitution" in text
    assert "density-conservation-restitution_weighted-eps0.8" in text
    assert (out_dir / "audit_summary.txt").read_text().startswith("claim audit summary")
