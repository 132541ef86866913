"""End-to-end and per-layer benchmark of the ``kinetics`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: a fresh ``kinetics`` CLI
process per run, started only after the previous one has exited and its
artifacts have been checked, until the time budget is spent. Configs are made
from the seed; the CLI sees only the generated config file. Every number is
taken from outside ``src/kinetics``: clocks around the process, and spans
around calls into the package's public functions (``perfbench/spans.py``).

``--trace 0`` prints the end-to-end metrics (medians over runs). ``--trace 1``
spends half the budget on untraced runs and half on traced ones, then prints
per-layer metrics and the tracing overhead. A layer the workload does not
reach is reported from one traced toy-size run of the workload that reaches
it, so every traced run reports every layer. The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from spans import layer_metrics, now
from workloads import WORKLOADS, CheckFailed, Workload, make_config

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_RUNS = 3
MIN_TRACE_RUNS = 2
RUN_TIMEOUT_S = 60.0      # ~10x the slowest run; a hung run is killed and counted as failed


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit for "end_to_end" or "per_layer", from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@dataclass
class Run:
    workload: str
    size: str
    traced: bool
    wall: float = 0.0
    setup: float = 0.0
    rss_mb: float = 0.0
    work: float = 0.0
    info: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    problem: str | None = None
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.problem is None


def _threads(workload: Workload) -> int:
    return max(1, min(workload.threads, os.cpu_count() or 1))


def _spawn(argv: list[str], cwd: Path) -> tuple[int, float, float, float]:
    """Run argv to completion; returns (exit code, start, end, peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = now()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, end, usage.ru_maxrss / 1024.0


def run_cli(workload: Workload, size: str, key: str, traced: bool = False,
            threads: int | None = None) -> Run:
    """One CLI process in a fresh directory, checked, then the directory removed."""
    run = Run(workload.name, size, traced)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        config = make_config(workload, key, size, str(tmp / "out"))
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = [sys.executable, str(BENCH / "launch.py"), str(tmp / "probe.json"),
                "1" if traced else "0", "--", workload.subcommand,
                "--config", str(tmp / "config.json"),
                "--threads", str(threads or _threads(workload))]
        code, start, end, run.rss_mb = _spawn(argv, tmp)
        run.wall = end - start
        try:
            probe = json.loads((tmp / "probe.json").read_text(encoding="utf-8"))
            run.setup = probe["parsed"] - start
            run.spans = probe.get("spans", [])
            if not Path(probe["kinetics_file"]).resolve().is_relative_to(SRC.resolve()):
                raise CheckFailed(f"kinetics imported from {probe['kinetics_file']}")
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            out = tmp / "out"
            for name in ("config_echo.json",) + workload.artifacts:
                if not (out / name).is_file():
                    raise CheckFailed(f"missing artifact {name}")
                run.digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
            run.info = workload.check(out, config["parameters"])
            run.work = workload.work_units(config["parameters"], run.info)
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            stderr = (tmp / "stderr.txt").read_text(errors="replace").strip()
            run.problem = f"{exc}" + (f"; stderr: {stderr[-400:]}" if stderr else "")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return run


def measure(workload: Workload, size: str, seed: int, seconds: float, traced: bool,
            min_runs: int, tag: str) -> list[Run]:
    """Closed loop: run after run until another one would overrun the budget."""
    runs: list[Run] = []
    start = now()
    while True:
        runs.append(run_cli(workload, size, f"{seed}:{tag}:{len(runs)}", traced))
        elapsed = now() - start
        typical = statistics.median(r.wall for r in runs)
        if len(runs) >= min_runs and elapsed + typical > seconds:
            return runs


def tally(runs: list[Run]) -> tuple[int, int]:
    """(attempted, failed); a run fails on a nonzero exit, a missing artifact
    or a failed output check."""
    return len(runs), sum(not r.ok for r in runs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(runs: list[Run]) -> dict[str, list[float]]:
    """Per-run samples of every end-to-end metric, from the runs that passed."""
    good = [r for r in runs if r.ok] or runs
    return {
        "wall_s": [r.wall for r in good],
        "setup_s": [r.setup for r in good],
        "work_per_s": [r.work / (r.wall - r.setup) for r in good],
        "peak_rss_mb": [r.rss_mb for r in good],
    }


def time_to_accuracy(runs: list[Run]) -> list[float]:
    """Compute time scaled to 1% relative error at the bimodal mode centers."""
    return [(r.wall - r.setup) * (r.info["mode_center_rel_error"] / 0.01) ** 2
            for r in runs if r.ok and "mode_center_rel_error" in r.info]


def deterministic_across_threads(seed: int) -> bool:
    """rates.csv of one toy operator config is byte-identical at 1 and 2 threads."""
    operator = WORKLOADS["operator-bimodal"]
    one, two = (run_cli(operator, "toy", f"{seed}:threads", threads=t) for t in (1, 2))
    return one.ok and two.ok and one.digests["rates.csv"] == two.digests["rates.csv"]


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None


def environment(workload: Workload, seed: int) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "caches": _cache_sizes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "seed": seed, "cli_threads": _threads(workload),
            "determinism_threads": [1, 2]}


def _print_metric(workload: str, name: str, values: list[float], unit: str) -> None:
    q1, median, q3 = quartiles(values)
    print(f"{workload} {name} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
          f"n={len(values)} unit={unit}")


def traced_metrics(workload: Workload, size: str, seed: int,
                   seconds: float) -> tuple[dict[str, float], dict, list[Run]]:
    """Per-layer metrics: half the budget untraced, half traced, plus microbenches.

    Returns (metrics, details, every CLI run made).
    """
    import micro

    untraced = measure(workload, size, seed, seconds / 2, False, MIN_TRACE_RUNS, "plain")
    traced = measure(workload, size, seed, seconds / 2, True, MIN_TRACE_RUNS, "traced")
    per_run = [layer_metrics(r.spans) for r in traced if r.ok]
    metrics = {name: statistics.median(m[name] for m in per_run)
               for name in (per_run[0] if per_run else {})}
    sources = {name: workload.name for name in metrics}
    companions = [run_cli(other, "toy", f"{seed}:companion", traced=True)
                  for other in WORKLOADS.values() if other is not workload]
    for companion in companions:
        if companion.ok:
            for name, value in layer_metrics(companion.spans).items():
                if name not in metrics:
                    metrics[name] = value
                    sources[name] = f"{companion.workload} (toy)"
    walls = [r.wall for r in untraced if r.ok]
    traced_walls = [r.wall for r in traced if r.ok]
    if walls and traced_walls:
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(walls) - 1.0)
        sources["trace.overhead_frac"] = f"{workload.name}, traced vs untraced"
    sys.path.insert(0, str(SRC))
    micro_metrics, micro_inputs = micro.run(seed)
    metrics.update(micro_metrics)
    sources.update((name, "microbench") for name in micro_metrics)
    runs = untraced + traced + companions
    details = {"sources": sources, "micro_inputs": micro_inputs,
               "spans": [{"workload": r.workload, "size": r.size, "spans": r.spans}
                         for r in runs if r.traced]}
    return metrics, details, runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny configs for the benchmark's own smoke test")
    args = parser.parse_args()
    if not (SRC / "kinetics" / "cli.py").is_file():
        print(f"error: no kinetics sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    deterministic = deterministic_across_threads(args.seed)
    if args.trace:
        units = _units("per_layer")
        measured, details, runs = traced_metrics(workload, args.size, args.seed,
                                                 args.seconds)
        missing = sorted(set(units) - set(measured))
        if missing:
            print(f"warning: not measured, reported as 0: {missing}", file=sys.stderr)
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        for name in units:
            print(f"{workload.name} {name} value={measured.get(name, 0.0):.6g} "
                  f"unit={units[name]} from={details['sources'].get(name, 'nowhere')}")
        print("microbench inputs " + json.dumps(details["micro_inputs"], sort_keys=True))
    else:
        runs = measure(workload, args.size, args.seed, args.seconds, False,
                       MIN_RUNS, "plain")
        samples = end_to_end(runs)
        metrics = {}
        for name, unit in _units("end_to_end").items():
            _print_metric(workload.name, name, samples[name], unit)
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        accuracy = time_to_accuracy(runs)
        if accuracy:
            _print_metric(workload.name, "time_to_1pct_s", accuracy, "s")
        details = {}
    attempted, failed = tally(runs)
    print(f"{workload.name} failed_frac={failed / attempted:.6g} "
          f"({failed} of {attempted} runs); rates.csv identical at 1 and 2 threads: "
          f"{deterministic}")
    for run in runs:
        if run.problem:
            print(f"failed run ({run.workload}, {run.size}): {run.problem}", file=sys.stderr)
    env = environment(workload, args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    record = {"environment": env, "workload": workload.name, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "metrics": metrics,
              "runs": [{"workload": r.workload, "size": r.size, "traced": r.traced,
                        "wall_s": r.wall, "setup_s": r.setup, "peak_rss_mb": r.rss_mb,
                        "work": r.work, "info": r.info, "sha256": r.digests,
                        "problem": r.problem} for r in runs], **details}
    out = WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"details written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
