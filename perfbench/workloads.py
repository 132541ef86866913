"""The four benchmark workloads: CLI configs made from a seed, work units, output checks.

Each workload is one ``kinetics <subcommand>`` invocation at a stated size.
The output checks decide whether a run failed. They hold for every seed: they
test exact invariants, or statistical verdicts whose margin is tens of
standard errors at the stated size, never a result that sits near its
threshold.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BOLTZMANN = 1.380649e-23   # mass = k_B makes the thermal speed 1 m/s at 1 K

# Mode centers come first so the checks and time-to-accuracy can find them.
OPERATOR_PROBES = [[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                   [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [1.0, 1.0, 0.0],
                   [-1.0, 0.0, 1.0], [3.0, 0.0, 0.0]]

# Audit rows whose verdict does not depend on the seed: exact identities, or
# statistical rows tens of standard errors from their 3-sigma threshold.
# The equilibrium Stokes row and the restitution-weighted eps=0.8 momentum
# row sit near their threshold and are not gated.
AUDIT_VERDICTS = {
    "pair-map-determinant-equals-restitution": "consistent",
    "energy-loss-formula-head-on": "consistent",
    "energy-loss-formula-oblique": "inconsistent",
    "vanishing-collision-term-bimodal": "inconsistent",
    "density-conservation-restitution_weighted-eps0.8": "inconsistent",
    "density-conservation-standard_granular-eps0.8": "consistent",
    "density-conservation-restitution_weighted-eps1": "consistent",
    "momentum-conservation-restitution_weighted-eps1": "consistent",
    "density-conservation-standard_granular-eps1": "consistent",
    "momentum-conservation-standard_granular-eps1": "consistent",
}

DSMC_MOMENTUM_DRIFT = 1e-12     # relative, as in the acceptance conservation test
TRANSPORT_MASS_DRIFT = 1e-8     # observed ~2e-10 at 256x256, 100 steps
TRANSPORT_LINF_ERROR = 1e-3     # observed ~2e-4 at 256x256, 100 steps


class CheckFailed(Exception):
    """An artifact is missing, malformed, or contradicts a stated invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    _require(path.is_file(), f"missing artifact {path.name}")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    _require(len(rows) >= 2, f"{path.name} has no data rows")
    return rows[0], rows[1:]


def _floats(rows: list[list[str]], path: Path) -> list[list[float]]:
    try:
        values = [[float(cell) for cell in row] for row in rows]
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None
    _require(all(math.isfinite(x) for row in values for x in row),
             f"{path.name} has a non-finite value")
    return values


def _check_dsmc(out: Path, params: dict) -> dict:
    path = out / "timeseries.csv"
    header, rows = _read_csv(path)
    _require(header == ["t", "density", "px", "py", "pz", "temperature"],
             f"timeseries.csv header {header}")
    data = _floats(rows, path)
    expected_rows = params["steps"] // params["sample_every"] + 1
    _require(len(data) == expected_rows,
             f"timeseries.csv has {len(data)} rows, expected {expected_rows}")
    density0 = data[0][1]
    _require(all(row[1] == density0 for row in data), "density is not constant")
    # Momentum scale: mass * density * rms speed of the initial state.
    scale = params["mass"] * density0 * math.sqrt(
        3.0 * BOLTZMANN * data[0][5] / params["mass"])
    drift = max(abs(row[k] - data[0][k]) for row in data for k in (2, 3, 4)) / scale
    _require(drift < DSMC_MOMENTUM_DRIFT, f"momentum drift {drift:.3e}")
    temps = [row[5] for row in data]
    _require(all(b <= a for a, b in zip(temps, temps[1:])),
             "temperature increased between samples")
    return {}


def _check_operator(out: Path, params: dict) -> dict:
    path = out / "rates.csv"
    header, rows = _read_csv(path)
    _require(header == ["vx", "vy", "vz", "rate", "std_error"],
             f"rates.csv header {header}")
    data = _floats(rows, path)
    _require([row[:3] for row in data] == params["probes"],
             "rates.csv probes differ from the config")
    worst_rel = 0.0
    for row in data[:2]:
        rate, sigma = row[3], row[4]
        _require(rate < 0.0 and abs(rate) > 3.0 * sigma,
                 f"mode center {row[:3]} rate {rate:.4g} +- {sigma:.2g} is not "
                 "negative by more than 3 sigma")
        worst_rel = max(worst_rel, sigma / abs(rate))
    return {"mode_center_rel_error": worst_rel}


def _check_audit(out: Path, params: dict) -> dict:
    path = out / "audit.csv"
    header, rows = _read_csv(path)
    _require(header[:5] == ["claim_id", "paper_ref", "residual", "threshold", "verdict"],
             f"audit.csv header {header}")
    _require((out / "audit_summary.txt").is_file(), "missing artifact audit_summary.txt")
    verdicts = {row[0]: row[4] for row in rows}
    for claim, expected in AUDIT_VERDICTS.items():
        _require(verdicts.get(claim) == expected,
                 f"audit row {claim}: verdict {verdicts.get(claim)!r}, "
                 f"expected {expected!r}")
    work = 0
    for row in rows:
        meta = json.loads(row[5])
        if row[0].startswith("vanishing-collision-term-"):
            work += meta["probes"] * meta["samples"]
        elif row[0].startswith("density-conservation-"):
            work += meta["samples"]
    return {"work": work}


def _check_transport(out: Path, params: dict) -> dict:
    path = out / "transport.csv"
    header, rows = _read_csv(path)
    _require(header == ["metric", "value"], f"transport.csv header {header}")
    try:
        metrics = {name: float(value) for name, value in rows}
    except ValueError as exc:
        raise CheckFailed(f"transport.csv: {exc}") from None
    drift = metrics.get("mass_drift", math.inf)
    linf = metrics.get("linf_error_vs_exact", math.inf)
    _require(drift < TRANSPORT_MASS_DRIFT, f"mass_drift {drift:.3e}")
    _require(linf < TRANSPORT_LINF_ERROR, f"linf_error_vs_exact {linf:.3e}")
    snapshot = out / "phase_snapshot.bin"
    _require(snapshot.is_file(), "missing artifact phase_snapshot.bin")
    raw = snapshot.read_bytes()
    newline = raw.find(b"\n")
    _require(newline > 0, "phase_snapshot.bin has no header line")
    head = json.loads(raw[:newline])
    _require((head.get("nx"), head.get("nv")) == (params["nx"], params["nv"]),
             f"phase_snapshot.bin header {head}")
    _require(len(raw) - newline - 1 == 8 * params["nx"] * params["nv"],
             "phase_snapshot.bin payload length does not match its header")
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    threads: int
    make_params: Callable[[random.Random, str], dict]
    work_units: Callable[[dict, dict], float]
    check: Callable[[Path, dict], dict]
    artifacts: tuple[str, ...]


def _dsmc_params(rng: random.Random, size: str) -> dict:
    full = size == "full"
    return {"particles": 100_000 if full else 2_000,
            "steps": 200 if full else 20,
            "sample_every": 20 if full else 5,
            "dt": 2.5e-3, "epsilon": 0.9, "mass": BOLTZMANN,
            "temperature": 1.0, "majorant_relative_speed": 1.0}


def _operator_params(rng: random.Random, size: str) -> dict:
    full = size == "full"
    return {"vmax": 6.0, "nodes_per_axis": 61 if full else 41,
            "distribution": {"kind": "bimodal", "bulk_velocity1": [2.0, 0.0, 0.0],
                             "bulk_velocity2": [-2.0, 0.0, 0.0]},
            "mass": BOLTZMANN, "epsilon": 0.9, "normalization": "standard_granular",
            "samples": 100_000 if full else 8_000,
            "probes": OPERATOR_PROBES if full else OPERATOR_PROBES[:4]}


def _audit_params(rng: random.Random, size: str) -> dict:
    if size == "full":
        return {}
    return {"jacobian_configs": 5, "stokes_samples": 4_000, "stokes_nodes": 41,
            "mass_samples": 40_000, "mass_nodes": 37}


def _transport_params(rng: random.Random, size: str) -> dict:
    full = size == "full"
    return {"nx": 256 if full else 96, "nv": 256 if full else 96,
            "dt": 0.01, "steps": 100 if full else 20, "force": [0.5, 0.0, 0.0],
            "center_x": 3.0 + rng.uniform(-0.5, 0.5),
            "center_v": rng.uniform(-0.2, 0.2)}


WORKLOADS = {w.name: w for w in (
    Workload("dsmc-cooling", "dsmc", 1, _dsmc_params,
             lambda p, info: p["particles"] * p["steps"], _check_dsmc,
             ("timeseries.csv",)),
    Workload("operator-bimodal", "operator", 2, _operator_params,
             lambda p, info: len(p["probes"]) * p["samples"], _check_operator,
             ("rates.csv",)),
    Workload("audit-battery", "audit", 2, _audit_params,
             lambda p, info: info["work"], _check_audit,
             ("audit.csv", "audit_summary.txt")),
    Workload("transport-sl", "transport", 1, _transport_params,
             lambda p, info: p["nx"] * p["nv"] * p["steps"], _check_transport,
             ("transport.csv", "phase_snapshot.bin")),
)}


def make_config(workload: Workload, key: str, size: str, output_dir: str) -> dict:
    """The CLI config for one run; the same key gives the same config."""
    rng = random.Random(f"{workload.name}:{size}:{key}")
    return {"subcommand": workload.subcommand, "seed": rng.randrange(2**31),
            "output_dir": output_dir, "parameters": workload.make_params(rng, size)}
