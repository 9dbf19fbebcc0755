"""Run one workload's commands in this fresh process through
``lexsynth.cli.main`` and write what was measured as JSON.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds ``src`` (the directory holding the ``lexsynth`` package),
``work`` (the directory the commands run in), ``commands`` (a list of
``[argv, stdout file or null]``), ``trace`` (wrap module calls in spans) and
``record`` (where to write the result). The clock starts after the imports,
with every input on disk, and stops when the last command has returned, so
every output is committed.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from lexsynth import cli

    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install(cli)
    os.chdir(spec["work"])

    exit_codes = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    for argv, stdout in spec["commands"]:
        name = "cli." + ".".join(argv[:2])
        with tracer.span(name) if tracer else contextlib.nullcontext():
            if stdout is None:
                code = cli.main(argv)
            else:
                with open(stdout, "w", encoding="utf-8", newline="\n") as fh, \
                        contextlib.redirect_stdout(fh):
                    code = cli.main(argv)
        exit_codes.append(code)
        if code != 0:
            break
    wall_s = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "wall_s": wall_s,
        "cpu_s": _cpu_s(after) - _cpu_s(before),
        "peak_rss_mb": after.ru_maxrss / 1024.0,  # Linux reports KiB
        "exit_codes": exit_codes,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s)
        tracer.dump(spec["record"] + ".spans.json")
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
