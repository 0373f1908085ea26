"""One workload in one fresh interpreter; started by run.py.

  worker.py probe   --workload W --seed N
      set up (import, build the experiment, pick victims) and report when
      the first operation is ready
  worker.py measure --workload W --seed N --seconds S
      run the fixed number of operations that takes about S seconds on the
      reference machine (at least the guard operations), then repeat
      operation 0 to check determinism
  worker.py fixed   --workload W --seed N [--traced --spans PATH]
      run the workload's fixed trace work, with or without the tracer

run.py sets the BLAS and OpenMP thread counts to 1 in this process's
environment before it starts, so numpy loads single-threaded. The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

PROBE_CAL_S = 0.1  # calibration right after set-up, to scale setup_s


def _provenance() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _safe_run(runner, i: int) -> dict:
    """One operation. An exception the program raises fails that operation
    and is kept in "error"; failed output checks are in "failures"."""
    try:
        return dict(runner.run(i), error=None)
    except Exception as exc:  # the run goes on and reports the failure
        error = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return {"seconds": None, "units": 0, "iters": 0, "guard": {}, "digest": None,
                "failures": [], "error": error}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "measure", "fixed"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--config-path", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        from workloads import Runner

        Runner(args.workload, args.seed, args.config_path, args.smoke).prepare()
        ready = time.monotonic()
        from calibrate import Calibrator, speed

        kps = Calibrator().slice(-1, PROBE_CAL_S)
        print(json.dumps({"ready_monotonic": ready, "speed": speed(kps)}))
        return 0

    from calibrate import MIN_SLICE_S, Calibrator, nominal_seconds
    from workloads import WORKLOADS, Runner

    workload = WORKLOADS[args.workload]
    guard_ops = 1 if args.smoke else workload.guard_ops
    out: dict = {"provenance": _provenance(), "guard_ops": guard_ops}

    cal = Calibrator()
    cal.slice(-1, MIN_SLICE_S)
    if args.mode == "measure":
        runner = Runner(args.workload, args.seed, args.config_path, args.smoke)
        # Full records only for the guard operations and failed ones; flat
        # arrays for the rest, so that the harness's own bookkeeping does not
        # grow into peak_rss_mib as the program gets faster.
        kept = {}
        timing = {"seconds": array("d"), "units": array("q"), "iters": array("q")}
        n_ops = max(guard_ops, round(args.seconds * workload.run_rate))
        start = time.perf_counter()
        for i in range(n_ops):
            r = _safe_run(runner, i)
            for key, values in timing.items():
                values.append(r[key] or 0)
            if i < guard_ops or r["error"] or r["failures"]:
                kept[i] = r
            cal.after(i, r["seconds"] or 0.0)
        cal.finish(i)
        out["wall_s"] = time.perf_counter() - start
        repeat = _safe_run(runner, 0)
        out["repeat_ok"] = (repeat["digest"], repeat["error"]) == (
            kept[0]["digest"], kept[0]["error"])
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = [
            kept.get(i) or {"seconds": s, "units": u, "iters": n, "guard": {}, "digest": None,
                            "failures": [], "error": None}
            for i, (s, u, n) in enumerate(zip(*timing.values()))
        ]
    else:
        n_ops = 1 if args.smoke else workload.trace_ops
        tracer = None
        pause = None
        if args.traced:
            from layers import ANNOTATORS, SvdProbe, layer_metrics, svd_oracle_failures, svd_table
            from svdlab import attack, cli, data, defense, flsim, linalg, tinynn
            from tracer import SpanTable, Tracer

            # The tracer wraps first, so Runner's upload capture sits outside
            # the traced defend_update and is not counted in its span.
            tracer = Tracer()
            annotators = dict(ANNOTATORS, **{"linalg.svd": SvdProbe()})
            for module in (linalg, defense, flsim, tinynn, attack, cli, data):
                tracer.wrap_module(module, annotators)
            pause = tracer.pause
        runner = Runner(args.workload, args.seed, args.config_path, args.smoke, pause=pause)
        records = []
        for i in range(n_ops):
            if tracer is not None:
                tracer.run_id = i
            records.append(_safe_run(runner, i))
            cal.after(i, records[-1]["seconds"] or 0.0)
        cal.finish(n_ops - 1)
        work_s = sum(r["seconds"] or 0.0 for r in records)
        if tracer is not None:
            tracer.run_id = -1
            table = SpanTable(tracer.spans)
            with tracer.pause():
                for run_id, message in svd_oracle_failures(table):
                    records[run_id]["failures"].append(message)
            out["layers"] = layer_metrics(table, work_s)
            out["svd_table"] = svd_table(table)
            out["functions"] = table.summary()
            out["span_count"] = len(tracer.spans)
            if args.spans:
                tracer.write(args.spans)
            tracer.unwrap()

    nominal_seconds(records, cal.slices)
    out["records"] = records
    out["calibration_slices"] = cal.slices
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
