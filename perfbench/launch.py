"""Runs ``kinetics.cli.main`` in a fresh process and reports timing probes.

Usage: python3 launch.py PROBE_FILE TRACE(0|1) -- <kinetics CLI arguments>

The probe file receives the clock reading at which ``kinetics.cli`` was
imported and its config parsed, where ``kinetics`` was imported from, and,
when tracing, every recorded span. Only ``cli.parse_config`` is wrapped in
an untraced run, so the CLI does the same work as ``python -m kinetics.cli``.
"""

import json
import sys
import time


def main() -> int:
    probe_path, trace = sys.argv[1], sys.argv[2] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    import kinetics
    from kinetics import cli

    probe = {"kinetics_file": kinetics.__file__}
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    parse_config = cli.parse_config

    def timed_parse_config(*args, **kwargs):
        config = parse_config(*args, **kwargs)
        probe["parsed"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        return config

    cli.parse_config = timed_parse_config
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            probe["spans"] = tracer.spans
        with open(probe_path, "w", encoding="utf-8") as handle:
            json.dump(probe, handle)


if __name__ == "__main__":
    sys.exit(main())
