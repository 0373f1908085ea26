"""Per-layer metrics of a traced run, derived from its spans.

Each metric is returned as name -> (value, samples). Units live in
BENCHMARK.json. A statistic over no samples (the layer did not run on this
workload) reads 0 with 0 samples.
"""

from __future__ import annotations

import numpy as np

from tracer import END, INFO, NAME, RUN, START, SpanTable, quantile

# Numerical-rank buckets of the SVD table: (label, lowest rank, highest rank).
RANK_BUCKETS = (("rle4", 1, 4), ("r5-16", 5, 16), ("rgt16", 17, None))
# Named cells of the SVD table: the default model's 32x64 hidden-layer update
# in every rank bucket, and its 4x32 output-layer update (rank <= 4).
SVD_CELLS = ("32x64.rle4", "32x64.r5-16", "32x64.rgt16", "4x32.rle4")
# Tolerance of the sampled SVD oracle check, relative to ||A||_F; the
# acceptance suite's c01 uses 1e-8 on unit-scale matrices.
SVD_TOL = 1e-8


def rank_bucket(rank: int) -> str:
    for label, low, high in RANK_BUCKETS:
        if rank >= low and (high is None or rank <= high):
            return label
    raise ValueError(f"rank {rank} is below every bucket")


class SvdProbe:
    """Annotator for linalg.svd: records the input shape and the numerical
    rank (the number of singular values above linalg.RANK_TOL that svd
    keeps), and keeps a copy of every `every`-th input with its factors for
    the oracle check."""

    def __init__(self, every: int = 16):
        self.every = every
        self.count = 0

    def __call__(self, args, kwargs, out):
        a = np.asarray(args[0] if args else kwargs["m"], dtype=np.float64)
        sample = (a.copy(), out) if self.count % self.every == 0 else None
        self.count += 1
        return (a.shape[0], a.shape[1], len(out.sigma), sample)


ANNOTATORS = {
    "defense.defend_grad_svd": lambda args, kwargs, out: len(out.sigma_star),
    "attack.run_attack": lambda args, kwargs, out: (out.best_iteration, len(out.loss_trace)),
}


def svd_oracle_failures(table: SpanTable) -> list[tuple[int, str]]:
    """(run id, message) for each sampled linalg.svd call whose factors do
    not reconstruct the input within SVD_TOL * ||A||_F, or whose singular
    values differ from numpy's by more than that."""
    failures = []
    for i in table.of("linalg.svd"):
        sample = table.spans[i][INFO][3]
        if sample is None:
            continue
        a, f = sample
        scale = float(np.linalg.norm(a))
        recon = float(np.linalg.norm(f.assemble() - a))
        ref = np.linalg.svd(a, compute_uv=False)[: len(f.sigma)]
        sigma_err = float(np.max(np.abs(f.sigma - ref)))
        if recon > SVD_TOL * scale or sigma_err > SVD_TOL * scale:
            failures.append(
                (table.spans[i][RUN],
                 f"svd of {a.shape}: reconstruction error {recon:.2e}, sigma error "
                 f"{sigma_err:.2e}, ||A||_F {scale:.2e}")
            )
    return failures


def svd_table(table: SpanTable) -> dict:
    """linalg.svd durations by input shape and numerical-rank bucket."""
    cells: dict[str, list[float]] = {}
    for i in table.of("linalg.svd"):
        s = table.spans[i]
        p, q, rank, _ = s[INFO]
        cells.setdefault(f"{p}x{q}.{rank_bucket(rank)}", []).append(s[END] - s[START])
    return {
        key: {"calls": len(d), "us_p50": quantile(d, 0.5) * 1e6, "us_p90": quantile(d, 0.9) * 1e6}
        for key, d in sorted(cells.items())
    }


def layer_metrics(table: SpanTable, work_s: float) -> dict:
    m: dict[str, tuple[float, int]] = {}

    def stats(name: str, *kinds: str) -> None:
        durs = table.durations.get(name, [])
        value = {
            "calls": lambda: len(durs),
            "busy_s": lambda: table.busy(name),
            "self_s": lambda: table.own(name),
            "share": lambda: table.busy(name) / work_s if work_s > 0 else 0.0,
            "us_p50": lambda: quantile(durs, 0.5) * 1e6,
            "us_p90": lambda: quantile(durs, 0.9) * 1e6,
            "ms_p50": lambda: quantile(durs, 0.5) * 1e3,
            "s_p50": lambda: quantile(durs, 0.5),
        }
        for kind in kinds:
            m[f"{name}.{kind}"] = (value[kind](), len(durs))

    svd_spans = table.of("linalg.svd")
    ranks = [table.spans[i][INFO][2] for i in svd_spans]
    stats("linalg.svd", "calls", "busy_s", "share", "us_p50", "us_p90")
    m["linalg.svd.rank_mean"] = (float(np.mean(ranks)) if ranks else 0.0, len(ranks))
    cells = svd_table(table)
    for key in SVD_CELLS:
        cell = cells.get(key, {"calls": 0, "us_p50": 0.0})
        m[f"linalg.svd.{key}.us_p50"] = (cell["us_p50"], cell["calls"])

    stats("defense.defend_update", "busy_s", "share")
    stats("defense.defend_grad_svd", "self_s")
    stats("defense.serialize_packet", "calls", "busy_s")
    stats("defense.reconstruct_packet", "calls", "busy_s")
    stats("defense.channel_weights", "calls")
    kept = numerical = 0
    for i in table.of("defense.defend_grad_svd"):
        svds = [c for c in table.children.get(i, ()) if table.spans[c][NAME] == "linalg.svd"]
        if svds:  # an all-zero update takes a path without any SVD
            kept += table.spans[i][INFO]
            numerical += table.spans[svds[0]][INFO][2]
    m["defense.kept_triples_frac"] = (kept / numerical if numerical else 0.0, numerical)

    stats("flsim.client_round", "calls", "self_s")
    stats("flsim.aggregate", "calls", "busy_s")
    stats("flsim.aggregation_weights", "calls")
    stats("flsim.build_experiment", "busy_s")

    stats("tinynn.loss_and_grad", "calls", "busy_s")
    stats("tinynn.sgd_step", "busy_s")
    stats("tinynn.accuracy", "busy_s")
    attacks = [table.spans[i][INFO] for i in table.of("attack.run_attack")]
    iters = sum(n for _, n in attacks)
    in_attack = table.under("tinynn.forward_batch", "attack.run_attack")
    m["tinynn.forward_batch.calls_per_iter"] = (in_attack / iters if iters else 0.0, in_attack)

    stats("attack.run_attack", "calls", "busy_s", "ms_p50")
    busy = table.busy("attack.run_attack")
    m["attack.us_per_iter"] = (busy / iters * 1e6 if iters else 0.0, iters)
    fracs = [best / n for best, n in attacks]
    m["attack.best_iter_frac"] = (float(np.mean(fracs)) if fracs else 0.0, len(fracs))

    stats("cli.attack_one", "calls", "s_p50")
    stats("data.make_synthetic", "busy_s")
    partition = [n for n in table.durations if n.startswith("data.partition")]
    m["data.partition.busy_s"] = (
        sum(table.busy(n) for n in partition), sum(table.calls(n) for n in partition)
    )
    return m
