"""Repository benchmark: spec-to-summary host cost and simulated SLO metrics.

Run one workload (untraced; prints every end-to-end metric)::

    python3 perfbench/run.py --workload storm-2tracks --seed 7 --seconds 50

Add ``--trace 1`` for the traced run, which prints the per-layer table,
and use ``--workload all`` to run every workload, each in its own
process. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` for one workload, and
``{"correct", "attempted", "failed", "workloads"}``, holding each
workload's object, for ``all``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import (
    DEFAULT_SEED,
    MAINLY_ON,
    ON_ALL,
    WORKLOADS,
    pass_seeds,
    spec_dict,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
#: Where the traced run writes its spans (ignored by git).
SPAN_DIR = ROOT / ".perfbench"

#: Set before the interpreter starts, so hashing and BLAS threading
#: cannot vary between runs.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: Critical-path components reported as simulated p50s by the traced run.
CP_COMPONENTS = (
    "queue_wait",
    "prefill_compute",
    "prefill_allreduce",
    "kv_transfer",
    "decode_allreduce",
    "fault_redo",
)


class CheckFailed(Exception):
    """A correctness check broke; the message names it."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"),
                    help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"trace seed (default {DEFAULT_SEED})")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="how long the untraced passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run, printing per-layer metrics")
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(SPEC_FILE) as fh:
        spec = json.load(fh)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def warm_up() -> None:
    """Import what the passes import lazily and touch numpy's kernels,
    so no timed window pays for either."""
    import numpy as np

    import repro.core.replan  # noqa: F401
    import repro.faults  # noqa: F401
    import repro.obs  # noqa: F401
    from reference import reference_work

    x = np.random.default_rng(0).random((64, 64))
    float((x @ x).sum())
    np.percentile(x.ravel(), [50.0, 90.0])
    np.bincount(np.arange(8), weights=np.ones(8))
    reference_work()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(ok: bool, workload: str, name: str, detail: str = "") -> None:
    if not ok:
        raise CheckFailed(f"{workload}: check '{name}' failed"
                          + (f": {detail}" if detail else ""))


def canonical(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


def check_pass(workload: str, summary: dict) -> None:
    s = summary
    check(
        s["n_finished"] + s["n_dropped"] == s["n_offered"],
        workload, "finished + dropped == offered",
        f"{s['n_finished']} + {s['n_dropped']} != {s['n_offered']}",
    )


def untraced_passes(workload: str, specs: list, seconds: float) -> list:
    """Run whole rounds of ``specs``, one pass of each in turn, until
    another round would end past ``seconds``, so every spec runs equally
    often. A pass that repeats a spec must repeat its summary exactly."""
    from measure import host_req_per_s, run_pass

    passes = []
    t0 = time.perf_counter()
    while True:
        for k, spec in enumerate(specs):
            i = len(passes)
            p = run_pass(spec)
            check_pass(workload, p.summary)
            if i >= len(specs):
                prev = passes[i - len(specs)]
                check(canonical(p.summary) == canonical(prev.summary),
                      workload, "repeated pass identical",
                      f"pass {i} differs from pass {i - len(specs)}")
            passes.append(p)
            print(f"# pass {i}: trace {k}, "
                  f"{p.summary['n_offered']} offered, setup {p.setup_cpu_s:.3f} s, "
                  f"simulate {p.simulate_cpu_s:.3f} s CPU, wall {p.wall_s:.3f} s, "
                  f"{host_req_per_s([p]):.2f} req/s, "
                  f"reference {p.ref_cpu_s:.4f} s CPU", flush=True)
        elapsed = time.perf_counter() - t0
        per_round = elapsed / (len(passes) // len(specs))
        if elapsed + per_round > seconds:
            return passes


def end_to_end(workload: str, passes: list, n_specs: int) -> dict[str, float]:
    from measure import host_metrics, host_req_per_s, pool, supported_percentile

    sim = pool(passes[:n_specs])
    q = supported_percentile(sim["n_finished"])
    check(q is not None and q >= 90.0, workload, "p90 sample count",
          f"{sim['n_finished']} finished supports only p{q}")
    med, mean = statistics.median, statistics.fmean
    print(f"# unscaled host timings: setup "
          f"{med(p.setup_cpu_s for p in passes):.4f} s CPU, "
          f"wall {med(p.wall_s for p in passes):.4f} s, "
          f"{host_req_per_s(passes):.3f} req/s; reference "
          f"{mean(p.ref_cpu_s for p in passes):.4f} s CPU, "
          f"{mean(p.ref_wall_s for p in passes):.4f} s wall")
    return {
        **host_metrics(passes),
        "peak_rss_mb": peak_rss_mb(),
        **{k: sim[k] for k in ("ttft_p50_s", "ttft_p90_s", "tpot_p90_s",
                               "slo_attainment", "finished_frac")},
    }


def per_layer(workload: str, spec, seed: int, passes) -> dict:
    """Per-layer metrics from one traced pass and one pass with a
    critical-path attribution collector, both of ``spec``; ``passes``
    are the untraced passes of the same spec."""
    from measure import host_req_per_s, run_pass
    from tracing import Tracer

    base = canonical(passes[0].summary)
    with Tracer(keep_results=("core.planner.plan",)) as tracer:
        traced = run_pass(spec)
    check(canonical(traced.summary) == base, workload,
          "traced summary identical to untraced")
    spans = tracer.table()
    SPAN_DIR.mkdir(exist_ok=True)
    spans.save(SPAN_DIR / f"spans-{workload}-seed{seed}.npz")
    layers = spans.layer_times()
    for name in MAINLY_ON[workload] + ON_ALL:
        check(layers[name]["calls"] > 0, workload,
              f"boundary {name} fired", "0 calls: a wrapper missed its callers")

    observed = run_pass(dataclasses.replace(spec, observer={"attribution": True}))
    check(canonical(observed.summary) == base, workload,
          "attributed summary identical to untraced")

    out: dict[str, float] = {}
    for name, row in layers.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.total_s"] = row["total_s"]
        out[f"{name}.self_s"] = row["self_s"]
    reads = layers["network.available"]["calls"]
    writes = layers["network.register"]["calls"] + layers["network.release"]["calls"]
    out["network.writes"] = writes
    out["network.reads_per_write"] = reads / max(writes, 1)
    hits = misses = 0
    for report in tracer.results["core.planner.plan"]:
        hits += int(report.cache_stats.get("hits", 0))
        misses += int(report.cache_stats.get("misses", 0))
    out["core.estcache.lookups"] = hits + misses
    out["core.estcache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    s = traced.summary
    out["requests.offered"] = s["n_offered"]
    out["requests.finished"] = s["n_finished"]
    out["requests.failed_frac"] = s["failed_frac"]
    out["serving.router.affinity_turns"] = s["router_affinity_turns"]
    out["serving.router.affinity_hit_rate"] = s["router_affinity_hit_rate"]
    out["serving.router.kv_bytes_moved"] = s["router_kv_bytes_moved"]
    for key in ("prefill_batches", "decode_iterations", "decode_batch_mean"):
        out[f"serving.engine.{key}"] = s[f"engine_{key}"]
    for key in ("failovers", "requests_lost", "kv_retries", "kv_exhausted"):
        out[f"faults.{key}"] = s[f"faults_{key}"]
    budget = observed.observer.attribution.budget()
    for comp in CP_COMPONENTS:
        out[f"cp.{comp}"] = budget[comp]["p50"]
    untraced = host_req_per_s(passes)
    out["trace_overhead_frac"] = 1.0 - host_req_per_s([traced]) / untraced
    return out


def report(workload: str, metrics: dict, units: dict, passes: list) -> None:
    n = {k: sum(p.summary[k] for p in passes)
         for k in ("n_offered", "n_finished", "n_dropped")}
    print(f"# {workload}: {len(passes)} traces, {n['n_offered']} offered, "
          f"{n['n_finished']} finished, {n['n_dropped']} dropped")
    for name, unit in units.items():
        print(f"{workload:16s} {name:40s} {metrics[name]:>16.6g} {unit}")


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics(args.trace)
    import measure  # noqa: F401  (imports the program before timing)
    from repro.scenario import ScenarioSpec

    warm_up()
    specs = [
        ScenarioSpec.from_dict(spec_dict(args.workload, s))
        for s in pass_seeds(args.workload, args.seed)
    ]
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    try:
        if args.trace:
            # Per-layer numbers come from one trace; its untraced passes
            # are the base the traced pass is compared with.
            specs = specs[:1]
        passes = untraced_passes(args.workload, specs, args.seconds)
        attempted = len(passes)
        if args.trace:
            attempted += 2
            metrics = per_layer(args.workload, specs[0], args.seed, passes)
        else:
            metrics = end_to_end(args.workload, passes, len(specs))
        missing = sorted(set(units) - set(metrics))
        check(not missing, args.workload, "every declared metric measured",
              f"missing {missing}")
        bad = sorted(k for k in units if not math.isfinite(metrics[k]))
        check(not bad, args.workload, "metrics finite", f"non-finite {bad}")
        report(args.workload, metrics, units, passes[: len(specs)])
    except Exception as exc:  # report any failure as a failed run
        # The run stops at the first failure, which counts as one more
        # attempt: the pass that raised, or the run's own checks.
        traceback.print_exc(file=sys.stderr)
        print(f"FAILED {exc}", file=sys.stderr)
        attempted += 1
        failed = 1
        correct = False
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u}
            for k, u in units.items()
            if k in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another. Their
    results are printed together as one JSON object on the last line."""
    code = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, check=False, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}
        code = max(code, proc.returncode)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return code


def main() -> int:
    args = parse_args(sys.argv[1:])
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
