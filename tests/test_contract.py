"""The CLI contract as a property: a run ends in its artifacts or in one named line.

Each example takes a small valid config for one subcommand, built from the
keys of ``cli._schema(subcommand)`` (and ``cli._DISTRIBUTIONS``' for the
distribution), perturbs one number in it and runs ``cli.main`` in-process.
Floats come from the whole range, extremes and both signs included; the
property holds with numpy's warnings recorded, so an overflow that no
finiteness check names fails it.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from kinetics import claim_audit, cli

# Values for the keys without a default, and smaller counts where a default is
# large; every other key takes its schema default.
TOY = {
    "collide": {"v1": [0.0, 0.0, 0.0], "v2": [1.0, 0.0, 0.0], "n": [1.0, 0.0, 0.0],
                "epsilon": 0.5, "branch": "reflective"},
    "operator": {"vmax": 6.0, "nodes_per_axis": 37, "mass": 1.380649e-23, "samples": 200,
                 "probes": [[0.0, 0.0, 0.0], [1.0, -0.5, 0.0]]},
    "dsmc": {"particles": 20, "steps": 3, "dt": 0.01, "mass": 1.380649e-23},
    "transport": {"nx": 8, "nv": 8, "dt": 0.02, "steps": 3},
    "audit": {"jacobian_configs": 2, "stokes_samples": 64, "stokes_nodes": 34,
              "mass_samples": 64, "mass_nodes": 34},
}
TOY_DISTRIBUTION = {"bulk_velocity1": [1.0, 0.0, 0.0], "bulk_velocity2": [-1.0, 0.0, 0.0]}

# ±0, the subnormal floor up to the float ceiling, and ordinary magnitudes
FLOATS = st.builds(
    lambda magnitude, sign: sign * magnitude,
    st.sampled_from([0.0, 5e-324, 1e-300, 1e-150, 1e-8, 1e8, 1e150, 1e154, 1e200, 1e300,
                     1.7e308]) | st.floats(0.1, 7.0),
    st.sampled_from([1.0, -1.0]))
COUNTS = st.integers(-1, 12) | FLOATS


def _defaults(schema, toy: dict) -> dict:
    return {name: toy[name] if name in toy else default[0]
            for name, (checker, *default) in schema.fields.items()}


def _valid(subcommand: str, kind: str = "maxwellian") -> dict:
    distribution = _defaults(cli._DISTRIBUTIONS[kind][0], dict(TOY_DISTRIBUTION, kind=kind))
    return _defaults(cli._schema(subcommand),
                     dict(TOY[subcommand], distribution=distribution))


def _leaves(value, path=()):
    """Paths to the numbers in a config, each with its value."""
    if isinstance(value, dict):
        return [leaf for key, item in value.items() for leaf in _leaves(item, (*path, key))]
    if isinstance(value, list):
        return [leaf for i, item in enumerate(value) for leaf in _leaves(item, (*path, i))]
    return [(path, value)] if isinstance(value, (int, float)) else []


def _replace(value, path, new):
    if not path:
        return new
    value = value.copy()
    value[path[0]] = _replace(value[path[0]], path[1:], new)
    return value


@st.composite
def perturbed_configs(draw):
    subcommand = draw(st.sampled_from(cli.SUBCOMMANDS))
    parameters = _valid(subcommand, draw(st.sampled_from(sorted(cli._DISTRIBUTIONS))))
    path, old = draw(st.sampled_from(_leaves(parameters)))
    new = draw(COUNTS if isinstance(old, int) else FLOATS)
    return subcommand, _replace(parameters, path, new)


def _numbers(path: Path) -> list[float]:
    """Every cell of a CSV's data rows that reads as a number; the header is names.

    A diagnostic audit row's threshold is NaN by design: it has no threshold.
    """
    numbers = []
    with path.open(newline="") as handle:
        for row in csv.DictReader(handle):
            if row.get("verdict") == claim_audit.VERDICT_DIAGNOSTIC:
                del row["threshold"]
            for cell in row.values():
                try:
                    numbers.append(float(cell))
                except ValueError:  # a metric name, a verdict or a JSON object
                    pass
    return numbers


@settings(deadline=None, max_examples=150)
@given(case=perturbed_configs(), threads=st.sampled_from([1, 2]))
# |n| and |u| once overflowed inside their checks, and numpy warned before the error line
@example(case=("collide", _replace(_valid("collide"), ("n",), [1e200, 0.0, 0.0])), threads=1)
@example(case=("operator", _replace(_valid("operator"), ("distribution", "bulk_velocity"),
                                    [1e200, 0.0, 0.0])), threads=1)
# 2 * sigma_x**2 overflowed to a numerical failure naming no key, or underflowed to 0
@example(case=("transport", _replace(_valid("transport"), ("sigma_x",), 2e154)), threads=1)
@example(case=("transport", _replace(_replace(_valid("transport"), ("sigma_x",), 1e-200),
                                     ("center_x",), 0.0)), threads=1)
def test_every_run_ends_in_artifacts_or_one_named_line(case, threads):
    subcommand, parameters = case
    with tempfile.TemporaryDirectory() as scratch:
        config_path, out_dir = Path(scratch) / "config.json", Path(scratch) / "out"
        config_path.write_text(json.dumps({"subcommand": subcommand, "output_dir": str(out_dir),
                                           "parameters": parameters}))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main([subcommand, "--config", str(config_path),
                             "--threads", str(threads)])
        event(f"{subcommand} exit {code}")
        assert [str(w.message) for w in caught] == []
        assert code in (0, 1, 2)
        if code:
            assert not out_dir.exists()
            assert len(stderr.getvalue().splitlines()) == 1
        else:
            assert stderr.getvalue() == ""
            for path in out_dir.glob("*.csv"):
                assert all(map(math.isfinite, _numbers(path))), path.name
