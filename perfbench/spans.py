"""Outside-in spans around the package's public functions, and layer metrics from them.

Functions are wrapped at the name their caller looks up (for example
``kinetics.collision_operator.interpolate_many``, which the estimator calls,
not ``kinetics.distribution.interpolate_many``), so no source file changes.
Worker threads inherit the submitting span through a context-copying thread
pool installed where ``collision_operator`` looks up ``ThreadPoolExecutor``;
spans under ``evaluate_field`` and ``moment_rates`` are therefore attributed
to the call that fanned them out. Spans stay in memory until the process
exits.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _ContextPool(ThreadPoolExecutor):
    """Runs each task in a copy of the submitter's context (and so its span)."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    """Records (name, start, end, thread, id, parent, attrs) per wrapped call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)

    def wrap(self, module: str, attr: str, name: str, attrs=None) -> None:
        """Replace module.attr by a recording wrapper; skip it if it does not exist.

        A missing target leaves its metrics unmeasured, which the benchmark
        reports by name.
        """
        owner = importlib.import_module(module)
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            start = now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                _CURRENT.reset(token)
                extra = attrs(args, kwargs, result) if attrs and result is not None else {}
                self.spans.append({"name": name, "start": start, "end": end,
                                   "thread": threading.get_ident(), "id": span_id,
                                   "parent": parent, **extra})

        setattr(owner, attr, wrapper)


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _interp_attrs(args, kwargs, result):
    f, points = args[0], np.asarray(args[1])
    flat = points.reshape(-1, 3)
    outside = int(np.count_nonzero(np.abs(flat).max(axis=1) > f.grid.vmax))
    return {"points": flat.shape[0], "outside": outside}


def _field_attrs(args, kwargs, result):
    return {"threads": kwargs.get("threads", args[3] if len(args) > 3 else 1)}


def _moments_attrs(args, kwargs, result):
    return {"threads": kwargs.get("threads", args[2] if len(args) > 2 else 1),
            "samples": _arg(args, kwargs, 1, "spec").samples}


AUDITS = ("audit_jacobian", "audit_energy_formula", "audit_stokes_claim",
          "audit_chain_rule", "audit_mass_conservation", "audit_transport_relation")


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary."""
    targets = [
        ("kinetics.cli", "main", "cli.main", None),
        ("kinetics.cli", "parse_config", "cli.parse_config", None),
        ("kinetics.cli", "evaluate_field", "collision_operator.evaluate_field",
         _field_attrs),
        ("kinetics.claim_audit", "evaluate_field", "collision_operator.evaluate_field",
         _field_attrs),
        ("kinetics.claim_audit", "moment_rates", "collision_operator.moment_rates",
         _moments_attrs),
        ("kinetics.collision_operator", "evaluate_at", "collision_operator.evaluate_at",
         lambda a, k, r: {"samples": _arg(a, k, 2, "spec").samples}),
        ("kinetics.collision_operator", "_moment_chunk", "collision_operator.moment_chunk",
         None),
        ("kinetics.collision_operator", "pre_collision_pair",
         "collision_operator.pre_collision_pair", None),
        ("kinetics.collision_operator", "interpolate_many",
         "distribution.interpolate_many", _interp_attrs),
        ("kinetics.cli", "maxwellian", "distribution.build", None),
        ("kinetics.cli", "bimodal", "distribution.build", None),
        ("kinetics.claim_audit", "maxwellian", "distribution.build", None),
        ("kinetics.claim_audit", "bimodal", "distribution.build", None),
        ("kinetics.dsmc", "run", "dsmc.run",
         lambda a, k, r: {"steps": _arg(a, k, 2, "n_steps")}),
        ("kinetics.dsmc", "sample_maxwellian_ensemble", "dsmc.sample_maxwellian_ensemble",
         None),
        ("kinetics.transport_solver", "semi_lagrangian_run",
         "transport_solver.semi_lagrangian_run",
         lambda a, k, r: {"cells": a[0].nx * a[0].nv * _arg(a, k, 3, "n_steps")}),
        ("kinetics.transport_solver", "phase_grid_from_function",
         "transport_solver.phase_grid_from_function", None),
        ("kinetics.claim_audit", "run_all_audits", "claim_audit.run_all_audits", None),
        ("kinetics.rng", "stream", "rng.stream", None),
    ]
    targets += [("kinetics.claim_audit", audit, f"claim_audit.{audit}", None)
                for audit in AUDITS]
    for target in targets:
        tracer.wrap(*target)
    pool_owner = importlib.import_module("kinetics.collision_operator")
    if hasattr(pool_owner, "ThreadPoolExecutor"):
        pool_owner.ThreadPoolExecutor = _ContextPool


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of its interval that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _union_length(children.get(span["id"], [])) for span in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI run; only layers the run reached."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def dur(span):
        return span["end"] - span["start"]

    def total(name, key=None):
        return sum(s[key] if key else dur(s) for s in by_name.get(name, []))

    def self_total(name):
        return sum(own[s["id"]] for s in by_name.get(name, []))

    def efficiency(parent_name, child_name):
        busy = capacity = 0.0
        for parent in by_name.get(parent_name, []):
            kids = [s for s in by_name.get(child_name, []) if s["parent"] == parent["id"]]
            busy += sum(dur(s) for s in kids)
            capacity += dur(parent) * max(1, min(parent["threads"], len(kids)))
        return busy / capacity

    out: dict[str, float] = {}
    if "cli.main" in by_name:
        out["cli.self_s"] = self_total("cli.main")
    if "cli.parse_config" in by_name:
        out["cli.parse_config_s"] = total("cli.parse_config")
    if "distribution.interpolate_many" in by_name:
        name = "distribution.interpolate_many"
        points = total(name, "points")
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.points"] = points
        out[f"{name}.ns_per_point"] = 1e9 * total(name) / points
        out[f"{name}.self_s"] = self_total(name)
        out[f"{name}.outside_frac"] = total(name, "outside") / points
    if "collision_operator.evaluate_at" in by_name:
        name = "collision_operator.evaluate_at"
        out[f"{name}.ns_per_sample"] = 1e9 * total(name) / total(name, "samples")
        out[f"{name}.self_s"] = self_total(name)
    if "collision_operator.pre_collision_pair" in by_name:
        out["collision_operator.pre_collision_pair.self_s"] = self_total(
            "collision_operator.pre_collision_pair")
    if "collision_operator.evaluate_field" in by_name:
        out["collision_operator.evaluate_field.parallel_eff"] = efficiency(
            "collision_operator.evaluate_field", "collision_operator.evaluate_at")
    if "collision_operator.moment_rates" in by_name:
        name = "collision_operator.moment_rates"
        out[f"{name}.ns_per_sample"] = 1e9 * total(name) / total(name, "samples")
        if "collision_operator.moment_chunk" in by_name:
            out[f"{name}.parallel_eff"] = efficiency(name, "collision_operator.moment_chunk")
    if "dsmc.run" in by_name:
        out["dsmc.run.ms_per_step"] = 1e3 * total("dsmc.run") / total("dsmc.run", "steps")
    if "dsmc.sample_maxwellian_ensemble" in by_name:
        out["dsmc.sample_maxwellian_ensemble_s"] = total("dsmc.sample_maxwellian_ensemble")
    if "transport_solver.semi_lagrangian_run" in by_name:
        name = "transport_solver.semi_lagrangian_run"
        out[f"{name}.ns_per_cell_step"] = 1e9 * total(name) / total(name, "cells")
    if "transport_solver.phase_grid_from_function" in by_name:
        out["transport_solver.phase_grid_from_function_s"] = total(
            "transport_solver.phase_grid_from_function")
    if "claim_audit.run_all_audits" in by_name:
        out["claim_audit.self_s"] = self_total("claim_audit.run_all_audits")
        for audit in AUDITS:
            out[f"claim_audit.{audit}_s"] = total(f"claim_audit.{audit}")
    if "distribution.build" in by_name:
        out["distribution.build_s"] = total("distribution.build")
    if "rng.stream" in by_name:
        out["rng.stream.calls"] = len(by_name["rng.stream"])
        out["rng.stream.us_per_call"] = 1e6 * total("rng.stream") / len(by_name["rng.stream"])
    return out
