"""Config parsing, subcommand execution, atomicity, determinism."""

import copy
import errno
import json
import os
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kinetics import cli
from kinetics.collision_kernel import CollisionBranch
from kinetics.collision_operator import GainNormalization
from kinetics.errors import ConfigError, ParseError, ValidationError
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


def test_validation_failure_exits_1_without_outputs(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "dsmc",
        "output_dir": str(out_dir),
        "parameters": dict(MINIMAL_DSMC["parameters"], dt=-0.5),
    }))
    assert cli.main(["dsmc", "--config", str(config_path)]) == 1
    assert not out_dir.exists()
    # a non-unit collision normal is bad input too, though collide finds it
    config_path.write_text(json.dumps({
        "subcommand": "collide",
        "output_dir": str(out_dir),
        "parameters": dict(VALID_PARAMETERS["collide"], n=[1, 1, 0]),
    }))
    capsys.readouterr()
    assert cli.main(["collide", "--config", str(config_path)]) == 1
    assert not out_dir.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: |n| = ")


@pytest.mark.parametrize("overrides, key", [
    ({"outputdir": "x"}, "outputdir"),
    ({"seed": 1.5}, "config.seed"), ({"seed": True}, "config.seed"),
    ({"seed": "3"}, "config.seed"),
    ({"output_dir": 3}, "config.output_dir"),
    ({"parameters": []}, "config.parameters"),
    ({"subcommand": "nope"}, "config.subcommand"),
    ({"subcommand": None}, "config.subcommand"),  # an explicit null is not a subcommand
])
def test_bad_top_level_key_is_named(tmp_path, capsys, overrides, key):
    config = {**MINIMAL_DSMC, "output_dir": str(tmp_path / "out"), **overrides}
    with pytest.raises(ValidationError, match=key):
        cli.parse_config(json.dumps(config))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["dsmc", "--config", str(config_path)]) == 1
    assert not (tmp_path / "out").exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]


@pytest.mark.parametrize("subcommand, key, value", [
    ("dsmc", "dt", -1), ("transport", "dt", -1), ("collide", "epsilon", 1.5),
    ("operator", "epsilon", 1.5), ("dsmc", "epsilon", 1.5),
    ("collide", "branch", "sideways"), ("operator", "branch", "sideways"),
    ("dsmc", "branch", "sideways"), ("operator", "normalization", "x")])
def test_broken_domain_rule_names_the_key_once(subcommand, key, value):
    parameters = dict(VALID_PARAMETERS[subcommand], **{key: value})
    with pytest.raises(ValidationError) as caught:
        cli.parse_config(json.dumps({"subcommand": subcommand, "parameters": parameters}))
    assert str(caught.value).count(f"parameters.{key}") == 1
    choices = {"branch": CollisionBranch, "normalization": GainNormalization}.get(key)
    if choices is not None:
        allowed = tuple(member.value for member in choices)
        assert str(caught.value).endswith(f"must be one of {allowed}")


@pytest.mark.parametrize("dt, force", [(1e300, [0, 0, 0]), (1e300, [0.6, 0, 0]),
                                       (1.7e308, [0.6, 0, 0])])
def test_unrepresentable_transport_shift_exits_1_without_outputs(tmp_path, capsys, dt, force):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "transport",
        "output_dir": str(out_dir),
        "parameters": {"nx": 16, "nv": 17, "dt": dt, "steps": 2, "force": force},
    }))
    assert cli.main(["transport", "--config", str(config_path)]) == 1
    assert not out_dir.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: dt ")


@pytest.mark.parametrize("overrides, code, prefix", [
    # the mass sum overflows: a numerical failure, not a drift of 0
    ({"nx": 64, "nv": 64, "amplitude": 1e307}, 2, "numerical failure: mass drift is not finite"),
], ids=["mass-overflow"])
def test_non_finite_transport_exits_without_outputs(tmp_path, capsys, overrides, code, prefix):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "transport",
        "output_dir": str(out_dir),
        "parameters": dict({"dt": 0.01, "steps": 3}, **overrides),
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["transport", "--config", str(config_path)]) == code
    assert not out_dir.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


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


def test_numerical_failure_exits_2_without_outputs(tmp_path, capsys):
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["operator", "--config", str(config_path)]) == 2
    assert not out_dir.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: ")


def test_probe_far_past_the_hull_has_rate_zero_without_warnings(tmp_path):
    # |g . n| and the pre-collision pair overflow there, but f and the gain pair's
    # f-product are 0, so the rate is exactly 0
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "operator",
        "output_dir": str(out_dir),
        "parameters": {"vmax": 4.0, "nodes_per_axis": 41,
                       "distribution": {"kind": "maxwellian"},
                       "mass": 1.380649e-23, "samples": 2000,
                       "probes": [[1.7e308, 1.7e308, 0.0], [1e200, 0.0, 0.0]]},
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["operator", "--config", str(config_path)]) == 0
    rows = (out_dir / "rates.csv").read_text().splitlines()
    assert rows[1:] == ["1.7e+308,1.7e+308,0.0,0.0,0.0", "1e+200,0.0,0.0,0.0,0.0"]


@pytest.mark.parametrize("v1, v2", [
    ([1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]),  # the impulse overflows
    ([1e200, 0.0, 0.0], [1e200, 0.0, 0.0]),   # the energy deficit is NaN
])
def test_overflowing_collide_exits_2_without_outputs(tmp_path, capsys, v1, v2):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({
        "subcommand": "collide",
        "output_dir": str(out_dir),
        "parameters": dict(VALID_PARAMETERS["collide"], v1=v1, v2=v2),
    }))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["collide", "--config", str(config_path)]) == 2
    assert not out_dir.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: collision is not finite")


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


def test_parse_maps_huge_integers_and_deep_nesting_to_config_errors(tmp_path, capsys):
    huge = json.dumps(MINIMAL_DSMC).replace('"dt": 0.01', '"dt": 1' + "0" * 400)
    with pytest.raises(ValidationError, match="dt"):
        cli.parse_config(huge)
    with pytest.raises(ParseError):
        cli.parse_config("[" * 2000 + "]" * 2000)
    with pytest.raises(ParseError):
        cli.parse_config(huge.replace("0" * 400, "0" * 5000))
    config_path = tmp_path / "config.json"
    config_path.write_text(huge)
    assert cli.main(["dsmc", "--config", str(config_path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


VALID_PARAMETERS = {
    "collide": {"v1": [0.0, 0.0, 0.0], "v2": [1.0, 0.0, 0.0], "n": [1.0, 0.0, 0.0],
                "epsilon": 0.5, "branch": "reflective"},
    "operator": {"vmax": 4.5, "nodes_per_axis": 9, "probes": [[0.0, 0.0, 0.0]],
                 "distribution": {"kind": "maxwellian"}},
    "operator-bimodal": {"vmax": 4.5, "nodes_per_axis": 9, "probes": [[0.0, 0.0, 0.0]],
                         "distribution": {"kind": "bimodal",
                                          "bulk_velocity1": [1.0, 0.0, 0.0],
                                          "bulk_velocity2": [-1.0, 0.0, 0.0]}},
    "dsmc": MINIMAL_DSMC["parameters"],
    "transport": {"dt": 0.02, "steps": 3},
    "audit": {"jacobian_configs": 10},
}
DISTRIBUTION_KEYS = {
    "maxwellian": ["kind", "density", "bulk_velocity", "temperature"],
    "bimodal": ["kind", "density1", "bulk_velocity1", "temperature1",
                "density2", "bulk_velocity2", "temperature2"],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)
JSON_TEXTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.integers(min_value=2**1024, max_value=2**1100).map(str),
    st.integers(max_value=-(2**1024), min_value=-(2**1100)).map(str),
    st.integers(309, 5000).map(lambda digits: "9" * digits),
    st.integers(1, 3000).map(lambda depth: "[" * depth + "]" * depth),
)
SPLICE = "\x00splice\x00"


@settings(deadline=None, max_examples=300)
@given(data=st.data(), replacement=JSON_TEXTS, name_the_subcommand=st.booleans())
def test_parse_config_raises_only_config_errors(data, replacement, name_the_subcommand):
    """One value of a valid config replaced by arbitrary JSON: parse or ConfigError."""
    case = data.draw(st.sampled_from(sorted(VALID_PARAMETERS)))
    subcommand = case.split("-")[0]
    config = {"subcommand": subcommand, "seed": 3, "output_dir": "out",
              "parameters": copy.deepcopy(VALID_PARAMETERS[case])}
    targets = [(config, key) for key in ("subcommand", "seed", "output_dir", "parameters")]
    targets += [(config["parameters"], key) for key in cli._schema(subcommand).fields]
    if "distribution" in config["parameters"]:
        distribution = config["parameters"]["distribution"]
        targets += [(distribution, key) for key in DISTRIBUTION_KEYS[distribution["kind"]]]
    owner, key = data.draw(st.sampled_from(targets))
    owner[key] = SPLICE
    text = json.dumps(config).replace(json.dumps(SPLICE), replacement)
    try:
        cli.parse_config(text, subcommand=subcommand if name_the_subcommand else None)
    except ConfigError:
        pass


def test_failed_write_leaves_no_outputs(tmp_path, monkeypatch, capsys):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps(dict(MINIMAL_DSMC, output_dir=str(out_dir))))
    real_fdopen = os.fdopen
    opened = []

    def fail_second_write(fd, *args, **kwargs):
        handle = real_fdopen(fd, *args, **kwargs)
        opened.append(fd)
        if len(opened) == 2:
            handle.close()
            raise OSError(errno.ENOSPC, "No space left on device")
        return handle

    monkeypatch.setattr(cli.os, "fdopen", fail_second_write)
    assert cli.main(["dsmc", "--config", str(config_path)]) == 1
    assert len(opened) == 2
    assert list(out_dir.iterdir()) == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write outputs: ")


BIMODAL = VALID_PARAMETERS["operator-bimodal"]


def _failing_run(tmp_path, capsys, subcommand, parameters, code, options=()):
    """The one stderr line of a run that exits with code, writes nothing and warns not."""
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps({"subcommand": subcommand, "output_dir": str(out_dir),
                                       "parameters": parameters}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([subcommand, "--config", str(config_path), *options]) == code
    assert not out_dir.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return lines[0]


@pytest.mark.parametrize("overrides, code, prefix", [
    # more expected candidates than pairs: the step is too long for NTC selection
    ({"temperature": 1e300}, 1, "error: dt 0.01 is too long for no-time-counter selection"),
    ({"dt": 1e12}, 1, "error: dt 1000000000000.0 is too long for no-time-counter selection"),
    # |v|^2 overflows: a numerical failure, not a nan temperature or a traceback
    ({"steps": 0, "bulk_velocity": [1e200, 0, 0]}, 2, "numerical failure: moments are not finite"),
    ({"bulk_velocity": [1e200, 0, 0]}, 2, "numerical failure: moments are not finite"),
], ids=["hot", "long-dt", "overflow-no-steps", "overflow-steps"])
def test_dsmc_failure_exits_without_outputs(tmp_path, capsys, overrides, code, prefix):
    parameters = dict({"particles": 200, "steps": 5, "dt": 0.01}, **overrides)
    assert _failing_run(tmp_path, capsys, "dsmc", parameters, code).startswith(prefix)


@pytest.mark.parametrize("subcommand, key, value, minimum", [
    ("operator", "nodes_per_axis", 2, 4), ("audit", "stokes_nodes", 3, 4),
    ("audit", "mass_nodes", 3, 4), ("transport", "nx", 3, 4), ("transport", "nv", 3, 4),
    ("dsmc", "particles", 1, 2),
    # one sample has a standard error of 0, and a nonzero rate over it an infinite residual
    ("operator", "samples", 1, 2), ("audit", "stokes_samples", 1, 2),
    ("audit", "mass_samples", 1, 2)])
def test_count_below_the_domain_minimum_names_the_key(tmp_path, capsys, subcommand, key,
                                                      value, minimum):
    parameters = dict(VALID_PARAMETERS[subcommand], **{key: value})
    line = _failing_run(tmp_path, capsys, subcommand, parameters, 1)
    assert line == f"error: parameters.{key}: value must be at least {minimum}, got {value}"


@pytest.mark.parametrize("argv", [
    [], ["dsmc"], ["dsmc", "--config", "{config}", "--threads", "abc"],
    ["nope", "--config", "{config}"], ["dsmc", "--config", "{config}", "extra"],
], ids=["no-subcommand", "no-config", "threads-not-an-integer", "unknown-subcommand",
        "extra-argument"])
def test_usage_error_exits_1_without_outputs(tmp_path, capsys, argv):
    # a usage error is a configuration failure, not exit 2, the numerical code
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_text(json.dumps(dict(MINIMAL_DSMC, output_dir=str(out_dir))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as caught:
            cli.main([token.format(config=config_path) for token in argv])
    assert caught.value.code == 1
    assert not out_dir.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: kinetics ")
    assert err.splitlines()[-1].startswith("kinetics: error: ")


@pytest.mark.parametrize("prefix, path_suffix", [(b"\xff", ""), (b"", "\x00")],
                         ids=["not-utf8", "nul-in-path"])
def test_unreadable_config_exits_1_without_outputs(tmp_path, capsys, prefix, path_suffix):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    config_path.write_bytes(prefix + json.dumps(dict(MINIMAL_DSMC,
                                                     output_dir=str(out_dir))).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["dsmc", "--config", str(config_path) + path_suffix]) == 1
    assert not out_dir.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot read config: ")


@pytest.mark.parametrize("subcommand, parameters, prefix", [
    # the first large arrays need 8 * 10^21 bytes (10^7 cubed floats) and
    # 21 PiB (10^15 x 3), so they fail at once on any machine; the grid's
    # is allocated before any temporary and its failure names the key
    ("operator", dict(VALID_PARAMETERS["operator"], nodes_per_axis=10**7,
                      mass=1.380649e-23),
     "error: nodes_per_axis 10000000 needs 8000000000000000000000 bytes for one grid array"),
    ("operator", dict(BIMODAL, nodes_per_axis=10**7, mass=1.380649e-23),
     "error: nodes_per_axis 10000000 needs 8000000000000000000000 bytes for one grid array"),
    ("dsmc", dict(MINIMAL_DSMC["parameters"], particles=10**15), "error: Unable to allocate "),
    # numpy named only the shape; the x axis alone needs 8 PB
    ("transport", {"nx": 10**15, "nv": 16, "dt": 0.01, "steps": 1},
     "error: nx 1000000000000000 by nv 16 needs 128000000000000000 bytes for one grid array"),
], ids=["operator-grid", "operator-bimodal-grid", "dsmc-ensemble", "transport-grid"])
def test_unmet_allocation_exits_1_without_outputs(tmp_path, capsys, subcommand, parameters,
                                                  prefix):
    line = _failing_run(tmp_path, capsys, subcommand, parameters, 1)
    assert line.startswith(prefix)


@pytest.mark.parametrize("parameters, line", [
    # numpy warned of an overflow in force / mass and the run exited 0
    ({"force": [0.5, -1.7e308, 0.0], "mass": 1e-8},
     "error: force / mass must be finite, got [0.5, -1.7e+308, 0.0] / 1e-08"),
    # linspace warned twice before the grid was rejected without a key
    ({"vmax": 1.7e308}, "error: 2 * vmax / (nv - 1) must be positive and finite, got inf"),
    # the node spacing underflowed to 0 and its division exited 2
    ({"vmax": 5e-324, "nv": 9},
     "error: 2 * vmax / (nv - 1) must be positive and finite, got 0.0"),
    # numpy warned of a division by zero and the error blamed dt
    ({"length": 5e-324}, "error: length / nx must be positive and finite, got 0.0"),
    # 2 * sigma_x**2 overflowed in the Gaussian and the numerical failure named no key
    ({"sigma_x": 2e154},
     "error: parameters.sigma_x: 2 * value**2 must be a positive finite float, got inf"),
    # 2 * sigma_x**2 underflowed to 0: a node on the centre read NaN, others a zero grid
    ({"sigma_x": 1e-200, "center_x": 0.0},
     "error: parameters.sigma_x: 2 * value**2 must be a positive finite float, got 0.0"),
    ({"sigma_x": 1e-200, "center_x": 0.1},
     "error: parameters.sigma_x: 2 * value**2 must be a positive finite float, got 0.0"),
    ({"sigma_v": 1e-170},
     "error: parameters.sigma_v: 2 * value**2 must be a positive finite float, got 0.0"),
], ids=["force-over-mass", "vmax-overflow", "vmax-underflow", "length-underflow",
        "sigma-overflow", "sigma-underflow-on-node", "sigma-underflow-off-node",
        "sigma-v-underflow"])
def test_unrepresentable_transport_input_exits_1_naming_its_keys(tmp_path, capsys, parameters,
                                                                 line):
    parameters = dict({"nx": 16, "nv": 16, "dt": 0.01, "steps": 2}, **parameters)
    assert _failing_run(tmp_path, capsys, "transport", parameters, 1) == line


def test_arithmetic_overflow_exits_2_without_outputs(tmp_path, capsys):
    # t_end**2 of the exact solution overflows a float: a numerical failure
    line = _failing_run(tmp_path, capsys, "transport",
                        {"vmax": 1e-300, "dt": 1e200, "steps": 1}, 2)
    assert line.startswith("numerical failure: ")
    assert "t_end = dt * steps = 1e+200" in line


def test_infinite_transport_end_time_exits_2_without_outputs(tmp_path, capsys):
    # dt * steps itself overflows; the exact solution would be nan, not an error
    line = _failing_run(tmp_path, capsys, "transport",
                        {"vmax": 1e-300, "dt": 1e308, "steps": 2}, 2)
    assert line == "numerical failure: t_end = dt * steps = inf overflows the exact solution"


@pytest.mark.parametrize("subcommand, parameters, options, line", [
    ("dsmc", {"particles": 200, "steps": 5}, (),
     "error: missing required key 'dt' in parameters"),
    ("operator", dict(BIMODAL, distribution=dict(BIMODAL["distribution"], density1=-0.5)), (),
     "error: parameters.distribution.density1: value must be nonnegative and finite, "
     "got -0.5"),
    ("dsmc", MINIMAL_DSMC["parameters"], ("--threads", "0"), "error: --threads must be >= 1"),
    # |n| and |u| are computed without overflow, so each line names the true magnitude
    ("collide", dict(VALID_PARAMETERS["collide"], n=[1e200, 0.0, 0.0]), (),
     "error: |n| = 1e+200 deviates from 1 beyond 1e-09"),
    ("operator", dict(VALID_PARAMETERS["operator"], vmax=6.0, nodes_per_axis=37,
                      mass=1.380649e-23,
                      distribution={"kind": "maxwellian", "bulk_velocity": [1e200, 0.0, 0.0]}),
     (), "error: vmax 6 below |u| + 4 thermal speeds = 1e+200"),
], ids=["missing-key", "negative-mode-density", "zero-threads", "huge-normal",
        "huge-bulk-velocity"])
def test_rejected_run_names_its_reason(tmp_path, capsys, subcommand, parameters, options,
                                       line):
    assert _failing_run(tmp_path, capsys, subcommand, parameters, 1, options) == line


# Config paths, relative to the test's working directory: missing, a directory,
# not UTF-8, not JSON.
UNREADABLE_CONFIGS = {"missing.json": None, "directory": "dir", "binary.json": b"\xff\xfe{}",
                      "text.txt": b"not json"}
ARGV_TOKENS = st.one_of(
    st.sampled_from([*cli.SUBCOMMANDS, "nope"]),
    st.sampled_from(["--config", "--output-dir", "--seed", "--threads", "--help", "-h",
                     "--conf", "--", "-1", "0", "abc"]),
    st.sampled_from(sorted(UNREADABLE_CONFIGS)),
    # lone surrogates excluded: the test's captured stderr cannot encode them
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.lists(ARGV_TOKENS, max_size=7))
def test_any_argv_exits_by_the_contract(tmp_path, monkeypatch, argv):
    """main returns 0, 1 or 2, or argparse exits 0 (help) or 1; nothing else escapes."""
    monkeypatch.chdir(tmp_path)
    for name, content in UNREADABLE_CONFIGS.items():
        if content == "dir":
            os.makedirs(name, exist_ok=True)
        elif content is not None:
            with open(name, "wb") as handle:
                handle.write(content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert cli.main(argv) in (0, 1, 2)
        except SystemExit as exc:
            assert exc.code in (0, 1)
    assert sorted(os.listdir()) == sorted(name for name, content in UNREADABLE_CONFIGS.items()
                                          if content is not None)
