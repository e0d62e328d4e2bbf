"""Run one gradcv command line in a fresh process and record what it cost.

    python3 child.py --src SRC --result FILE [--trace] -- ARGV...

Imports gradcv from SRC, stamps the moment the package and numpy are
imported and ready (CLOCK_MONOTONIC, comparable with the parent's clock),
then times ``gradcv.cli.main(ARGV)``. With ``--trace`` the package's layers
are wrapped in spans first and the per-layer metrics are recorded too. The
result is written as JSON to FILE. Exit code 3 means gradcv could not be
imported from SRC; otherwise the child exits 0 and FILE holds gradcv's own
exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    try:
        import numpy
        import gradcv
        import gradcv.cli
    except ImportError as err:
        print(f"child: cannot import gradcv from {src}: {err}", file=sys.stderr)
        return 3
    if not os.path.abspath(gradcv.__file__).startswith(src + os.sep):
        print(f"child: gradcv was imported from {gradcv.__file__}, not {src}", file=sys.stderr)
        return 3
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if args.trace:
        from layers import install
        from spans import Tracer

        tracer = Tracer()
        install(tracer)

    t0 = time.perf_counter_ns()
    try:
        code = gradcv.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash of the program under test is a result, not a benchmark error
        traceback.print_exc()
        code = 1
    wall_ns = time.perf_counter_ns() - t0
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"ready": ready, "wall_s": wall_ns / 1e9, "exit_code": code, "maxrss_kib": maxrss_kib}
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer, wall_ns, len(os.sched_getaffinity(0)))
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config instead
        blas = "unknown"
    result["versions"] = {"gradcv": gradcv.__version__, "numpy": numpy.__version__, "blas": blas}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
