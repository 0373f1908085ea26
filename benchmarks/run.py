"""svdlab benchmark: four workloads that separate the SVD defense, the FL
plumbing, plain gradient inversion and replayed inversion.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --smoke

Run from the root of a checkout. Every run starts fresh worker processes
(worker.py) with the BLAS and OpenMP thread counts set to 1, one after the
other, and waits for each. --trace 0 reports BENCHMARK.json's end_to_end
metrics, --trace 1 its per_layer metrics from a traced run. The lines before
the last one list every metric with its unit and sample count; the last line
is the JSON result. The full record, with provenance, goes to
benchmarks/out/. --smoke runs every workload once at tiny size and checks
the harness itself. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_PROBES = 5  # set-up is measured this many times per run; the median is reported
RUN_BUDGET_S = 170  # every worker of one run must end within this; longer ones are killed
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
NO_WAIT_NOTE = (
    "svdlab is single-threaded and has no queues, so no layer waits; "
    "wait time is not reported"
)


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# BENCHMARK.json and result validation

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def validate_spec(spec) -> list[str]:
    """Errors in a BENCHMARK.json object (empty when it is well formed)."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not isinstance(spec, dict) or set(spec) != keys:
        return [f"top-level keys must be exactly {sorted(keys)}"]
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errors.append("command must be 1 to 32 strings of at most 200 characters")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1 to 16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not PATH_RE.fullmatch(p) or p.startswith("/")
                    or ".." in p.split("/")):
                errors.append(f"bad path {p!r}")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")

    names = []

    def entries(key, fields, low, high):
        items = spec[key]
        if not (isinstance(items, list) and low <= len(items) <= high):
            errors.append(f"{key} must hold {low} to {high} entries")
            return []
        good = []
        for item in items:
            if not isinstance(item, dict) or set(item) != fields:
                errors.append(f"{key} entry {item!r} must have exactly {sorted(fields)}")
                continue
            if not isinstance(item["name"], str) or not NAME_RE.fullmatch(item["name"]):
                errors.append(f"bad name {item['name']!r}")
            names.append(item["name"])
            good.append(item)
        return good

    for w in entries("workloads", {"name", "why"}, 2, 8):
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append(f"workload {w['name']}: why must be one line of at most 200 characters")
    metrics = entries("end_to_end", {"name", "unit", "better", "bound"}, 1, 16)
    metrics += entries("per_layer", {"name", "unit", "better"}, 1, 128)
    for m in metrics:
        if not isinstance(m["unit"], str) or not UNIT_RE.fullmatch(m["unit"]):
            errors.append(f"{m['name']}: bad unit {m['unit']!r}")
        if m["better"] not in ("higher", "lower"):
            errors.append(f"{m['name']}: better must be 'higher' or 'lower'")
        if "bound" in m:
            b = m["bound"]
            if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    if len(set(names)) != len(names):
        errors.append("names must be unique")
    e2e = {m["name"]: m for m in spec["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        errors.append("end_to_end must hold setup_s in unit s, better lower")
    elif any(m.get("bound", 0) > setup["bound"] for m in e2e.values()):
        errors.append("setup_s must have the largest bound")
    return errors


def validate_result(obj, names: list[str]) -> list[str]:
    """Errors in a result line against the metric names it must carry."""
    if not isinstance(obj, dict) or set(obj) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    errors = []
    if not isinstance(obj["correct"], bool):
        errors.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 0:
            errors.append(f"{key} must be a whole number")
    if isinstance(obj["attempted"], int) and obj["attempted"] < 1:
        errors.append("attempted must be at least 1")
    metrics = obj["metrics"]
    if not isinstance(metrics, dict) or list(metrics) != names:
        return errors + [f"metrics must be exactly {names}"]
    for name, m in metrics.items():
        if (not isinstance(m, dict) or set(m) != {"value", "unit"}
                or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])
                or not isinstance(m["unit"], str)):
            errors.append(f"metric {name}: needs a finite value and a unit")
    return errors


def load_spec() -> dict:
    try:
        text = SPEC_PATH.read_text()
        spec = json.loads(text)
    except (OSError, json.JSONDecodeError) as exc:
        raise HarnessError(f"cannot read {SPEC_PATH.name}: {exc}") from exc
    errors = validate_spec(spec)
    if len(text.encode()) > 64 * 1024:
        errors.append("BENCHMARK.json exceeds 64 KiB")
    if errors:
        raise HarnessError("BENCHMARK.json: " + "; ".join(errors))
    return spec


# ---------------------------------------------------------------------------
# worker processes


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("SVDLAB_SEED", None)  # the generated config alone sets the seed
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(mode: str, workload: str, seed: int, *extra: str, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON line. The
    worker is killed at `deadline` (a time.monotonic reading)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError(f"no time left for the {mode} worker of {workload}")
    cfg = OUT / f"config-{workload}-{seed}-{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--config-path", str(cfg), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise HarnessError(f"{mode} worker for {workload} exceeded {timeout:.0f}s") from exc
    finally:
        cfg.unlink(missing_ok=True)
    if proc.returncode != 0:
        raise HarnessError(f"{mode} worker for {workload} failed:\n{proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise HarnessError(f"{mode} worker for {workload} printed no result") from exc


def setup_seconds(workload: str, seed: int, smoke: bool, deadline: float) -> tuple[float, float]:
    """Process start to first operation ready: interpreter, imports,
    flsim.build_experiment and, for attacks, cli.pick_victim_batches.
    time.monotonic is one system-wide clock, so the child's reading and the
    parent's compare directly. Returns (seconds, calibrate.speed measured by
    the child right after set-up)."""
    start = time.monotonic()
    ready = worker("probe", workload, seed, *(["--smoke"] if smoke else []), deadline=deadline)
    return ready["ready_monotonic"] - start, ready["speed"]


# ---------------------------------------------------------------------------
# statistics


def failed(record: dict) -> bool:
    return bool(record["error"] or record["failures"])


def rate(records: list[dict], key: str, time_key: str = "nominal_s") -> tuple[float, int]:
    """sum(key) / sum(time_key) over the operations. The cost of an FL
    episode varies by about 30% between seeds, so the rate is a total over
    every operation of the run rather than a median of a few groups;
    calibration has already taken out drift in machine speed."""
    total = sum(r[time_key] for r in records)
    return (sum(r[key] for r in records) / total if total > 0 else 0.0), len(records)


def timing_quantiles(values: list[float]) -> dict:
    """The median and the highest of p90/p99/p99.9 that has at least ten
    samples beyond it."""
    out = {"samples": len(values)}
    if not values:
        return out
    cuts = statistics.quantiles(values, n=1000, method="inclusive") if len(values) > 1 else None
    out["p50"] = statistics.median(values)
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100) >= 10:
            out[f"p{p:g}"] = cuts[round(p * 10) - 1]
            break
    return out


def mean_guard(records: list[dict], key: str) -> tuple[float, int]:
    values = [r["guard"][key] for r in records if key in r["guard"]]
    return (statistics.fmean(values), len(values)) if values else (0.0, 0)


def provenance(worker_out: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return dict(worker_out.get("provenance", {}),
                git_revision=git_revision(), source_sha256=src.hexdigest(),
                platform=platform.platform())


def git_revision():
    """HEAD's commit from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_run(workload: str, seed: int, seconds: float, smoke: bool,
                deadline: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off. Returns (metrics, detail)."""
    probes = [setup_seconds(workload, seed, smoke, deadline)
              for _ in range(1 if smoke else SETUP_PROBES)]
    out = worker("measure", workload, seed, "--seconds", repr(seconds),
                 *(["--smoke"] if smoke else []), deadline=deadline)
    records = out["records"]
    if not out["repeat_ok"]:
        records[0]["failures"].append("repeating operation 0 gave a different output")
    ok = [r for r in records if not failed(r)]
    guards = records[: out["guard_ops"]]
    train = any("final_accuracy" in r["guard"] for r in guards)
    metrics = {
        "setup_s": (statistics.median(t * speed for t, speed in probes), len(probes)),
        "peak_rss_mib": (out["peak_rss_mib"], 1),
        "ops_per_s": rate(ok, "units"),
        "bytes_up_per_op": mean_guard(guards, "bytes_up_per_op"),
    }
    named = {
        "error_rate": ((len(records) - len(ok)) / len(records), len(records)),
        "wall_ops_per_s": rate(ok, "units", "seconds"),
        "wall_setup_s": (statistics.median(t for t, _ in probes), len(probes)),
    }
    if train:
        named["rounds_per_s"] = metrics["ops_per_s"]
        named["bytes_up_per_round"] = metrics["bytes_up_per_op"]
        named["final_accuracy"] = mean_guard(guards, "final_accuracy")
    else:
        named["attack_iters_per_s"] = rate(ok, "iters")
        named["attack_mse"] = mean_guard(guards, "attack_mse")
    detail = {
        "setup_probes": [{"seconds": t, "speed": speed} for t, speed in probes],
        "op_nominal_seconds": timing_quantiles([r["nominal_s"] for r in ok]),
        "op_wall_seconds": timing_quantiles([r["seconds"] for r in ok]),
        "named_metrics": {k: {"value": v, "samples": n} for k, (v, n) in named.items()},
        "wall_s": out["wall_s"],
        "calibration_slices": out["calibration_slices"],
        "repeat_ok": out["repeat_ok"],
        "provenance": provenance(out),
        "records": records,
    }
    return metrics, detail


def trace_run(workload: str, seed: int, smoke: bool, spans: Path,
              deadline: float) -> tuple[dict, dict]:
    """Per-layer metrics: the fixed trace work once untraced and once traced,
    each in a fresh process. Returns (metrics, detail)."""
    flags = ["--smoke"] if smoke else []
    plain = worker("fixed", workload, seed, *flags, deadline=deadline)
    traced = worker("fixed", workload, seed, "--traced", "--spans", str(spans), *flags,
                    deadline=deadline)
    records = traced["records"]
    for r, ref in zip(records, plain["records"]):
        if (r["digest"], r["error"]) != (ref["digest"], ref["error"]):
            r["failures"].append("output differs between two fresh processes")
        r["failures"] += ref["failures"]
    n_failed = sum(1 for r in records if failed(r))
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    plain_s = sum(r["nominal_s"] or 0.0 for r in plain["records"])
    traced_s = sum(r["nominal_s"] or 0.0 for r in records)
    overhead = traced_s / plain_s - 1.0 if plain_s > 0 else 0.0
    metrics["trace.overhead_frac"] = (overhead, len(records))
    metrics["error_rate"] = (n_failed / len(records), len(records))
    metrics["final_accuracy"] = mean_guard(records, "final_accuracy")
    metrics["attack_mse"] = mean_guard(records, "attack_mse")
    detail = {
        "untraced_nominal_s": plain_s,
        "traced_nominal_s": traced_s,
        "span_count": traced["span_count"],
        "spans_file": spans.relative_to(ROOT).as_posix(),
        "svd_table": traced["svd_table"],
        "functions": traced["functions"],
        "waits": NO_WAIT_NOTE,
        "provenance": provenance(traced),
        "records": records,
    }
    return metrics, detail


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int,
             smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run. Returns (result line, detail record)."""
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{'smoke-' if smoke else ''}{workload}-seed{seed}"
    if trace:
        metrics, detail = trace_run(workload, seed, smoke, OUT / f"spans-{tag}.csv.gz", deadline)
        listed = spec["per_layer"]
    else:
        metrics, detail = measure_run(workload, seed, seconds, smoke, deadline)
        listed = spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise HarnessError(f"metrics not computed: {missing}")
    records = detail["records"]
    result = {
        # An exception the program raises fails its operation; a wrong
        # output (a failed check) also makes the run incorrect.
        "correct": not any(r["failures"] for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if failed(r)),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]][0]), "unit": m["unit"]} for m in listed
        },
    }
    detail = dict(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        metrics={m["name"]: {"value": float(metrics[m["name"]][0]), "unit": m["unit"],
                             "samples": metrics[m["name"]][1]} for m in listed},
        **detail,
    )
    (OUT / f"{tag}-trace{trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return result, detail


def report(result: dict, detail: dict) -> None:
    print(f"# {detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for name, m in detail["metrics"].items():
        print(f"#   {name:40s} {m['value']:.6g} {m['unit']} (n={m['samples']})")
    for name, m in detail.get("named_metrics", {}).items():
        print(f"#   [{name}] {m['value']:.6g} (n={m['samples']})")
    for i, r in enumerate(detail["records"]):
        for problem in ([r["error"]] if r["error"] else []) + r["failures"]:
            print(f"#   operation {i} failed: {problem}")


def smoke(spec: dict) -> int:
    """Every workload once at tiny size, traced and untraced; checks that
    every listed metric comes back with a unit and a sample count and that
    the result lines validate."""
    problems = []
    start = time.monotonic()
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, detail = run_once(spec, w["name"], 0, 0.0, trace, smoke=True)
            listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            problems += [f"{w['name']} trace {trace}: {e}"
                         for e in validate_result(json.loads(json.dumps(result)), listed)]
            for name in listed:
                m = detail["metrics"][name]
                if not m["unit"] or not isinstance(m["samples"], int):
                    problems.append(f"{w['name']} trace {trace}: {name} lacks unit or samples")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace {trace}: an operation failed")
                report(result, detail)
    for p in problems:
        print(f"smoke: {p}")
    print(f"smoke: {len(spec['workloads'])} workloads, {len(problems)} problems, "
          f"{time.monotonic() - start:.1f}s")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="harness self-check at tiny size")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "svdlab" / "__init__.py").is_file():
            raise HarnessError("no svdlab source under src/svdlab; run from a checkout")
        spec = load_spec()
        if args.smoke:
            return smoke(spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names or args.seed is None or args.seconds is None:
            parser.error(f"--workload ({', '.join(names)}), --seed and --seconds are required")
        if args.seed < 0 or args.seconds < 0:
            parser.error("--seed and --seconds must be non-negative")
        result, detail = run_once(spec, args.workload, args.seed, args.seconds, args.trace)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
