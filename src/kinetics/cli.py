"""Batch front door: JSON config in, CSV and snapshot artifacts out.

Configs are strict: unknown keys are rejected by name, defaults are applied
and echoed to ``config_echo.json``, and outputs are published only after the
run succeeds: every output goes to a temp file first and none is renamed into
place until all are written, so failed runs leave no partial set. Exit codes:
0 success, 1 usage, configuration, validation, allocation or output failure,
2 numerical failure or arithmetic overflow.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    KineticsError,
    NonFiniteEstimate,
    ParseError,
    ValidationError,
    require_count,
    require_nonnegative,
    require_positive,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    parameters: dict
    seed: int
    output_dir: str


# The sibling modules that the subcommands read, each with the names read from it. A
# module is imported and bound here when a subcommand that runs it is resolved, so a
# process loads only what its subcommand runs.
_IMPORTS = {
    "collision_kernel": ("CollisionBranch", "Species", "_validate_restitution", "collide"),
    "collision_operator": ("GainNormalization", "QuadratureSpec", "evaluate_field"),
    "distribution": ("VelocityGrid", "bimodal", "maxwellian"),
    "dsmc": (),
    "transport_solver": ("ForceField",),
    "claim_audit": (),
}


def _load(*modules: str) -> None:
    """Import the sibling modules and bind each here, with the names _IMPORTS lists.

    A name already bound stays, so a wrapper set on this module is what a runner calls.
    """
    namespace = globals()
    for module in modules:
        loaded = importlib.import_module(f".{module}", __package__)
        namespace.setdefault(module, loaded)
        for name in _IMPORTS[module]:
            namespace.setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    """A name of _IMPORTS, read from outside before its subcommand was resolved."""
    for module, names in _IMPORTS.items():
        if name == module or name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Schema:
    """Field table: name -> (checker, default). Missing default means required.

    A ValueError from a checker's domain rule becomes a ValidationError naming the key.
    """

    def __init__(self, fields: dict):
        self.fields = fields

    def resolve(self, params: dict, context: str) -> dict:
        unknown = set(params) - set(self.fields)
        if unknown:
            raise ValidationError(f"unknown key {sorted(unknown)[0]!r} in {context}")
        resolved = {}
        for name, (checker, *default) in self.fields.items():
            if name in params:
                try:
                    resolved[name] = checker(params[name], f"{context}.{name}")
                except ValueError as exc:
                    raise ValidationError(f"{context}.{name}: {exc}") from None
            elif default:
                resolved[name] = default[0]
            else:
                raise ValidationError(f"missing required key {name!r} in {context}")
        return resolved


def _number(value, context) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{context} must be a number")
    value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{context} must be finite")
    return value


def _positive(value, context) -> float:
    return require_positive("value", _number(value, context))


def _gaussian_width(value, context) -> float:
    """A positive sigma whose 2 * sigma**2, a Gaussian's divisor, is a positive finite float."""
    sigma = _positive(value, context)
    try:
        divisor = 2.0 * sigma**2
    except OverflowError:
        divisor = math.inf
    if not 0.0 < divisor < math.inf:
        raise ValueError(f"2 * value**2 must be a positive finite float, got {divisor!r}")
    return sigma


def _nonneg(value, context) -> float:
    return require_nonnegative("value", _number(value, context))


def _vec3(value, context) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValidationError(f"{context} must be a list of 3 numbers")
    return [_number(v, context) for v in value]


def _restitution(value, context) -> float:
    return _validate_restitution(_number(value, context))


def _count(minimum):
    """Checker accepting an integer of at least minimum."""
    def check(value, context) -> int:
        return require_count("value", value, minimum)
    return check


def _choice(allowed):
    """Checker accepting one of the allowed values, which it lists in its error."""
    allowed = tuple(allowed)

    def check(value, context) -> str:
        if value not in allowed:
            raise ValidationError(f"{context} must be one of {allowed}")
        return value
    return check


def _member(enum):
    """Checker accepting the value of one of the enum's members."""
    return _choice(member.value for member in enum)


def _string(value, context) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{context} must be a string")
    return value


def _probes(value, context) -> list[list[float]]:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{context} must be a non-empty list of 3-vectors")
    return [_vec3(item, f"{context}[{i}]") for i, item in enumerate(value)]


def _object(value, context) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{context} must be an object")
    return value


# Each distribution kind's schema and builder. A builder looks maxwellian or bimodal
# up in this module when called, so a wrapper installed here sees every build.
_DISTRIBUTIONS = {
    "maxwellian": (_Schema({
        "kind": (_string,),
        "density": (_positive, 1.0),
        "bulk_velocity": (_vec3, [0.0, 0.0, 0.0]),
        "temperature": (_positive, 1.0),
    }), lambda grid, d, mass: maxwellian(grid, d["density"], d["bulk_velocity"],
                                         d["temperature"], mass)),
    "bimodal": (_Schema({
        "kind": (_string,),
        "density1": (_nonneg, 0.5),
        "bulk_velocity1": (_vec3,),
        "temperature1": (_positive, 1.0),
        "density2": (_nonneg, 0.5),
        "bulk_velocity2": (_vec3,),
        "temperature2": (_positive, 1.0),
    }), lambda grid, d, mass: bimodal(grid, d["density1"], d["bulk_velocity1"], d["temperature1"],
                                      d["density2"], d["bulk_velocity2"], d["temperature2"], mass)),
}


def _distribution_params(value, context) -> dict:
    kind = _choice(_DISTRIBUTIONS)(_object(value, context).get("kind"), f"{context}.kind")
    return _DISTRIBUTIONS[kind][0].resolve(value, context)


# Each subcommand's schema fields, built once its modules are loaded (see _schema).
def _collide_fields() -> dict:
    return {
        "v1": (_vec3,),
        "v2": (_vec3,),
        "n": (_vec3,),
        "epsilon": (_restitution,),
        "branch": (_member(CollisionBranch),),
        "mass1": (_positive, 1.0),
        "mass2": (_positive, 1.0),
        "diameter1": (_positive, 1.0),
        "diameter2": (_positive, 1.0),
    }


def _operator_fields() -> dict:
    return {
        "vmax": (_positive,),
        "nodes_per_axis": (_count(4),),
        "distribution": (_distribution_params,),
        "mass": (_positive, 1.0),
        "diameter": (_positive, 1.0),
        "epsilon": (_restitution, 1.0),
        "branch": (_member(CollisionBranch), CollisionBranch.REFLECTIVE.value),
        "normalization": (_member(GainNormalization),
                          GainNormalization.RESTITUTION_WEIGHTED.value),
        "samples": (_count(2), 100_000),
        "probes": (_probes,),
    }


def _dsmc_fields() -> dict:
    return {
        "particles": (_count(2),),
        "steps": (_count(0),),
        "sample_every": (_count(1), 1),
        "dt": (_positive,),
        "number_density": (_positive, 1.0),
        "epsilon": (_restitution, 1.0),
        "branch": (_member(CollisionBranch), CollisionBranch.REFLECTIVE.value),
        "temperature": (_positive, 1.0),
        "bulk_velocity": (_vec3, [0.0, 0.0, 0.0]),
        "mass": (_positive, 1.0),
        "diameter": (_positive, 1.0),
        "majorant_relative_speed": (_positive, 1.0),
    }


def _transport_fields() -> dict:
    return {
        "nx": (_count(4), 128),
        "length": (_positive, 10.0),
        "nv": (_count(4), 128),
        "vmax": (_positive, 3.0),
        "dt": (_positive,),
        "steps": (_count(0),),
        "force": (_vec3, [0.0, 0.0, 0.0]),
        "mass": (_positive, 1.0),
        "center_x": (_number, 3.0),
        "center_v": (_number, 0.0),
        "sigma_x": (_gaussian_width, 0.5),
        "sigma_v": (_gaussian_width, 0.4),
        "amplitude": (_positive, 1.0),
    }


def _audit_fields() -> dict:
    """Every AuditSettings field but the seed, with its default, checked by the rule its
    metadata states: a count of at least its least value, else a positive float."""
    return {
        item.name: (_count(item.metadata["least"]) if "least" in item.metadata else _positive,
                    item.default)
        for item in fields(claim_audit.AuditSettings) if item.name != "seed"
    }


def _schema(subcommand: str) -> _Schema:
    """The subcommand's config schema, built once its modules are loaded; so every
    import is done when parse_config returns, and none falls in the run."""
    modules, schema_fields, _ = _SUBCOMMANDS[subcommand]
    _load(*modules)
    return _Schema(schema_fields())


def parse_config(text: str, subcommand: str | None = None) -> RunConfig:
    """Validate a JSON config; defaults applied, unknown keys rejected."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # too deep; too many digits
        raise ParseError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ParseError("config must be a single JSON object")
    top = _CONFIG_SCHEMA.resolve(raw, "config")
    declared = top["subcommand"]
    if subcommand is not None and declared is not None and declared != subcommand:
        raise ValidationError(
            f"config declares subcommand {declared!r} but {subcommand!r} was requested")
    chosen = declared or subcommand
    if chosen is None:
        raise ValidationError("no subcommand given (config or command line)")
    resolved = _schema(chosen).resolve(top["parameters"], "parameters")
    return RunConfig(subcommand=chosen, parameters=resolved, seed=top["seed"],
                     output_dir=top["output_dir"])


def config_to_json(config: RunConfig) -> str:
    return json.dumps(asdict(config), indent=2, sort_keys=True) + "\n"


def csv_text(header: list[str], rows) -> str:
    """CSV with "\n" line ends; numbers as shortest round-trip floats."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(x)) if isinstance(x, (int, float, np.floating))
                         else str(x) for x in row])
    return buffer.getvalue()


def _publish(root: Path, outputs: dict[str, str | bytes]) -> None:
    """Write every output to a temp file, then rename all; none appear if a write fails."""
    root.mkdir(parents=True, exist_ok=True)
    temps: list[str] = []
    try:
        for name, data in outputs.items():
            fd, tmp = tempfile.mkstemp(dir=root, prefix=name + ".tmp")
            temps.append(tmp)
            with os.fdopen(fd, "wb") as handle:
                handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        for name, tmp in zip(outputs, temps):
            os.replace(tmp, root / name)
    except BaseException:
        for tmp in filter(os.path.exists, temps):
            os.unlink(tmp)
        raise


def _run_collide(config: RunConfig, threads: int) -> dict:
    p = config.parameters
    s1 = Species(mass=p["mass1"], diameter=p["diameter1"])
    s2 = Species(mass=p["mass2"], diameter=p["diameter2"])
    event = collide(p["v1"], p["v2"], p["n"], p["epsilon"],
                    CollisionBranch(p["branch"]), s1, s2)
    row = [*event.w1, *event.w2, event.lambda1, event.lambda2, event.delta_e]
    return {"collision.csv": csv_text(
        ["w1x", "w1y", "w1z", "w2x", "w2y", "w2z", "lambda1", "lambda2",
         "delta_e"], [row])}


def _run_operator(config: RunConfig, threads: int) -> dict:
    p = config.parameters
    grid = VelocityGrid(vmax=p["vmax"], nodes_per_axis=p["nodes_per_axis"])
    f = _DISTRIBUTIONS[p["distribution"]["kind"]][1](grid, p["distribution"], p["mass"])
    spec = QuadratureSpec(
        samples=p["samples"], seed=config.seed, diameter=p["diameter"],
        mass=p["mass"], epsilon=p["epsilon"], branch=CollisionBranch(p["branch"]),
        normalization=GainNormalization(p["normalization"]))
    estimates = evaluate_field(f, p["probes"], spec, threads=threads)
    rows = [[*probe, est.value, est.std_error] for probe, est in zip(p["probes"], estimates)]
    return {"rates.csv": csv_text(
        ["vx", "vy", "vz", "rate", "std_error"], rows)}


def _run_dsmc(config: RunConfig, threads: int) -> dict:
    p = config.parameters
    species = Species(mass=p["mass"], diameter=p["diameter"])
    ensemble = dsmc.sample_maxwellian_ensemble(
        p["particles"], species, p["bulk_velocity"], p["temperature"], config.seed)
    cfg = dsmc.DsmcConfig(
        dt=p["dt"], number_density=p["number_density"], epsilon=p["epsilon"],
        branch=CollisionBranch(p["branch"]), seed=config.seed,
        majorant_relative_speed=p["majorant_relative_speed"])
    series = dsmc.run(ensemble, cfg, p["steps"], p["sample_every"])
    return {"timeseries.csv": csv_text(
        ["t", "density", "px", "py", "pz", "temperature"], series)}


def _run_transport(config: RunConfig, threads: int) -> dict:
    p = config.parameters
    x0, v0 = p["center_x"], p["center_v"]
    sx, sv, amp = p["sigma_x"], p["sigma_v"], p["amplitude"]

    def initial(x, v):
        return amp * np.exp(-((x - x0) ** 2) / (2.0 * sx**2) - ((v - v0) ** 2) / (2.0 * sv**2))

    field = ForceField(force=p["force"], mass=p["mass"])
    grid0 = transport_solver.phase_grid_from_function(
        initial, p["nx"], p["length"], p["nv"], p["vmax"])
    result = transport_solver.semi_lagrangian_run(grid0, field, p["dt"], p["steps"])
    final, t_end = result.grid, p["dt"] * p["steps"]
    try:
        exact = transport_solver.exact_solution(
            lambda r, w: initial(r[0], w[0]), field, (final.x_axis[:, None], 0.0, 0.0),
            (final.v_axis[None, :], 0.0, 0.0), t_end)
    except (ValueError, OverflowError):  # dt * steps past the float range, or its square
        raise NonFiniteEstimate(f"t_end = dt * steps = {t_end!r} overflows the exact solution"
                                ) from None
    linf = float(np.max(np.abs(final.values - exact)))
    return {"transport.csv": csv_text(
                ["metric", "value"],
                [["mass_drift", result.mass_drift],
                 ["linf_error_vs_exact", linf],
                 ["t_end", t_end]]),
            "phase_snapshot.bin": transport_solver.phase_snapshot(final)}


def audit_csv_text(reports: list) -> str:
    return csv_text(
        ["claim_id", "paper_ref", "residual", "threshold", "verdict", "metadata_json"],
        [[r.claim_id, r.paper_ref, r.residual, r.tolerance_or_sigma, r.verdict,
          json.dumps(r.metadata, sort_keys=True)] for r in reports])


def audit_summary_text(reports: list) -> str:
    """One line per row, then the verdict counts; a NaN threshold marks a diagnostic row."""
    lines = ["claim audit summary", "==================="]
    for report in reports:
        if math.isnan(report.tolerance_or_sigma):
            status = f"diagnostic (residual {report.residual:.3e})"
        else:
            status = (f"{report.verdict} (residual {report.residual:.3e}"
                      f" vs threshold {report.tolerance_or_sigma:.3e})")
        lines.append(f"{report.claim_id}: {status}")
    counts: dict[str, int] = {}
    for report in reports:
        counts[report.verdict] = counts.get(report.verdict, 0) + 1
    lines.append("")
    lines.append(", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return "\n".join(lines) + "\n"


def _run_audit(config: RunConfig, threads: int) -> dict:
    settings = claim_audit.AuditSettings(seed=config.seed, **config.parameters)
    reports = claim_audit.run_all_audits(settings, threads=threads)
    return {"audit.csv": audit_csv_text(reports), "audit_summary.txt": audit_summary_text(reports)}


# Each subcommand's sibling modules, schema fields and runner; a runner maps file names
# to contents. The modules are those its schema and runner read, and no others.
_SUBCOMMANDS = {
    "collide": (("collision_kernel",), _collide_fields, _run_collide),
    "operator": (("collision_kernel", "collision_operator", "distribution"),
                 _operator_fields, _run_operator),
    "dsmc": (("collision_kernel", "dsmc"), _dsmc_fields, _run_dsmc),
    "transport": (("transport_solver",), _transport_fields, _run_transport),
    "audit": (("claim_audit",), _audit_fields, _run_audit),
}
SUBCOMMANDS = tuple(_SUBCOMMANDS)

# The config's own keys; parse_config resolves the parameters by the subcommand's schema.
_CONFIG_SCHEMA = _Schema({
    "subcommand": (_choice(SUBCOMMANDS), None),
    "seed": (_count(-math.inf), 0),
    "output_dir": (_string, "out"),
    "parameters": (_object, {}),
})


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration failure: argparse's message, exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def run(args: argparse.Namespace) -> int:
    """Read, parse, run and publish; the one place a failure becomes an exit code.

    Bad input, an unreadable config or an unmet allocation exits 1 and a numerical
    failure or an arithmetic overflow exits 2, each with one line on stderr.
    """
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, ValueError) as exc:  # missing, not UTF-8, a NUL in the path
            raise ConfigError(f"cannot read config: {exc}") from None
        config = parse_config(text, subcommand=args.subcommand)
        overrides = {"output_dir": args.output_dir, "seed": args.seed}
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
        if args.threads < 1:
            raise ValidationError("--threads must be >= 1")
        with np.errstate(all="ignore"):  # non-stop: each result's finiteness check names a failure
            outputs = _SUBCOMMANDS[config.subcommand][2](config, args.threads)
        try:
            _publish(Path(config.output_dir),
                     {"config_echo.json": config_to_json(config), **outputs})
        except OSError as exc:
            raise ConfigError(f"cannot write outputs: {exc}") from None
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (KineticsError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="kinetics",
        description="collision kernels, collision-term quadrature, particle "
                    "oracle, transport, and claim audits")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--output-dir", help="override the config's output directory")
    parser.add_argument("--seed", type=int, help="override the config's seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker cap; results are identical at any value")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
