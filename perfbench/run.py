"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload zoo_small --seed 1 --seconds 20 --trace 0

The library is imported from the checkout's ``src/`` (there is nothing to
build).  One process, one thread, one closed-loop client: each job starts
when the previous one has returned.  A run generates one pass of the
workload's job stream from ``--seed``, then:

* ``--trace 0`` times whole passes until ``--seconds`` have elapsed (at
  least one) and reports the end-to-end metrics;
* ``--trace 1`` times one plain pass, then one pass with every layer's
  public entry points wrapped (:mod:`layers`), and reports the per-layer
  metrics, including the tracing overhead between the two passes.

Every job's answer is checked; a wrong answer or an exception counts as a
failed job and the run goes on.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report.  See
``perfbench/README.md`` for the workloads, the metrics and the predictions
they test.
"""

import argparse
import gc
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

from speed import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

#: Fresh processes timed per run for ``setup_s`` (their median is reported).
SETUP_PROBES = 5
PLANTED = ("planted wrong answer",)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import the library from the checkout's ``src/`` and the job module;
    refuse to go on when instrumentation or a resource budget is active,
    since either would change what gets timed."""
    sys.path.insert(0, str(SOURCE))
    try:
        import repro
    except ImportError as error:
        fail(f"cannot import the library from {SOURCE}: {error}")
    if Path(repro.__file__).resolve().parent.parent != SOURCE.resolve():
        fail(f"imported the library from {repro.__file__}, not from {SOURCE}")
    from repro import obs, resilience

    if obs.ENABLED or resilience.ACTIVE:
        fail(
            "refusing to time a run with instrumentation or a resource budget "
            "active (unset REPRO_TRACE and REPRO_BUDGET_*)"
        )
    import jobs

    return jobs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("zoo_small", "symbolic_scale", "synthesis")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few small jobs (self-test)")
    parser.add_argument(
        "--plant-wrong", action="store_true", help="expect a wrong answer for one job (self-test)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spec-indices", default="", help=argparse.SUPPRESS)
    parser.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _indices(text):
    return [int(part) for part in text.split(",") if part]


def setup_probe(args):
    """Time a fresh process importing the library and generating the
    workload's inputs; print the raw and the speed-scaled seconds."""
    with SpeedClock() as clock:
        start = time.perf_counter()
        jobs = load_program()
        jobs.make_jobs(args.workload, args.seed, _indices(args.spec_indices), tiny=args.tiny)
        end = time.perf_counter()
    print(json.dumps({"setup_s": clock.scaled(start, end), "raw_s": end - start}))


def probe_command(args, spec_indices=()):
    return [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--spec-indices", ",".join(map(str, spec_indices)),
    ] + (["--tiny"] if args.tiny else [])


def warm_bytecode(args):
    """Write the bytecode caches of everything a run imports, in an untimed
    child process, before this process imports anything: a fresh checkout
    has none, and compiling would otherwise add to this process's memory
    peak and to the first setup probe.  Failures surface in
    :func:`load_program`."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run(probe_command(args), env=env, capture_output=True, timeout=120, check=False)


def measure_setup(args, spec_indices):
    """The median speed-scaled ``setup_s`` of fresh probe processes, which
    import from the bytecode caches :func:`warm_bytecode` wrote."""
    probes = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        completed = subprocess.run(
            probe_command(args, spec_indices),
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if completed.returncode != 0:
            fail(f"setup probe failed:\n{completed.stderr}")
        probes.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    print(
        "setup probes, scaled (raw) s: "
        + ", ".join(f"{probe['setup_s']:.4f} ({probe['raw_s']:.4f})" for probe in probes)
    )
    return statistics.median(probe["setup_s"] for probe in probes)


class PassLog:
    """The jobs run so far: their intervals, failures and the semantic
    counters they report.  Jobs must run inside ``clock``'s ``with``
    block."""

    def __init__(self, clock):
        self.clock = clock
        self.intervals = []
        self.kinds = []
        self.failures = []
        self.stats = {"rounds": 0, "candidates": 0, "implementations": 0}

    def run_pass(self, job_list, between_jobs=None):
        """Run each job once.  A job's interval ends after a full garbage
        collection, so it pays for reclaiming its own cyclic garbage and
        the next job starts from the same heap."""
        for job in job_list:
            start = time.perf_counter()
            try:
                answer, stats = job.run()
            except Exception:
                self.failures.append(f"{job.describe()} raised:\n{traceback.format_exc()}")
                continue
            finally:
                gc.collect()
                self.intervals.append((start, time.perf_counter()))
                self.kinds.append(job.kind)
                if between_jobs is not None:
                    between_jobs()
            for key in self.stats:
                self.stats[key] += stats[key]
            if not job.check(answer):
                self.failures.append(
                    f"{job.describe()} answered {answer!r}, expected {job.expected!r}"
                )

    def latencies(self):
        """Speed-scaled job latencies, in run order."""
        return [self.clock.scaled(start, end) for start, end in self.intervals]

    def raw_seconds(self):
        return sum(end - start for start, end in self.intervals)

    def report(self):
        latencies = self.latencies()
        by_kind = {}
        for kind, latency in zip(self.kinds, latencies):
            by_kind.setdefault(kind, []).append(latency)
        print(f"{'job kind':<26} {'jobs':>5} {'total s':>9} {'median ms':>10}")
        for kind, values in sorted(by_kind.items()):
            print(
                f"{kind:<26} {len(values):>5} {sum(values):>9.3f} "
                f"{statistics.median(values) * 1000:>10.2f}"
            )
        print(
            f"{len(latencies)} jobs: {sum(latencies):.3f} s speed-scaled, "
            f"{self.raw_seconds():.3f} s wall clock"
        )


def tail_percentile(jobs_per_pass):
    """The highest whole percentile with at least ten jobs of one pass
    beyond it (at least the median, for the self-test's tiny passes)."""
    return max(50, math.floor(100 * (1 - 10 / jobs_per_pass)))


def percentile(values, q):
    """Nearest-rank percentile ``q`` (0-100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb():
    """The process's resident-memory high-water mark (Linux reports KiB).
    Input generation peaks lower than the jobs: the random specs are drawn
    in a child process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def settle_heap():
    """Collect the garbage of input generation and move every object alive
    now out of the collector's sight, so collections scan only what the
    jobs allocate."""
    gc.collect()
    gc.freeze()


def measure_end_to_end(args, jobs, job_list, setup_s):
    """Time whole passes for ``args.seconds``; returns the jobs attempted,
    the failures and the end-to-end metrics."""
    settle_heap()
    with SpeedClock() as clock:
        log = PassLog(clock)
        start = time.perf_counter()
        passes = 0
        while True:
            log.run_pass(jobs.for_pass(job_list, passes))
            passes += 1
            if time.perf_counter() - start >= args.seconds:
                break
    peak = peak_rss_mb()
    latencies = log.latencies()
    q = tail_percentile(len(job_list))
    attempted = len(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (attempted / sum(latencies), "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "job_tail_ms": (percentile(latencies, q) * 1000, "ms"),
        "peak_rss_mb": (peak, "MB"),
        "ok_frac": ((attempted - len(log.failures)) / attempted, "frac"),
    }
    log.report()
    print(f"measured {passes} pass(es); job_tail_ms is the p{q} latency over {attempted} jobs")
    return attempted, log.failures, metrics


def measure_layers(jobs, job_list):
    """Time one plain and one traced pass; returns the jobs attempted, the
    failures and the per-layer metrics."""
    from repro.obs import registry

    from layers import LAYER_NAMES, LayerTracer

    settle_heap()
    with SpeedClock() as clock:
        plain = PassLog(clock)
        plain.run_pass(job_list)

    # Keep every BDD manager a job creates alive until its counters are
    # read; the registry itself only holds managers weakly.
    managers = []
    registry.add_register_hook(managers.append)
    kernel = {"hits": 0, "misses": 0, "nodes_peak": 0, "reorders": 0}
    checkpoint = [registry.checkpoint()]

    def read_kernel():
        metrics = registry.bdd_metrics(since=checkpoint[0])
        if metrics:
            kernel["hits"] += metrics["bdd.cache.ite.hits"] + metrics["bdd.cache.op.hits"]
            kernel["misses"] += metrics["bdd.cache.ite.misses"] + metrics["bdd.cache.op.misses"]
            kernel["nodes_peak"] = max(kernel["nodes_peak"], metrics["bdd.nodes.peak"])
            kernel["reorders"] += metrics["bdd.reorder.count"]
        managers.clear()
        checkpoint[0] = registry.checkpoint()

    tracer = LayerTracer()
    by_kind = {}
    before = dict(tracer.self_s)

    def after_job():
        read_kernel()
        layer_s = by_kind.setdefault(traced.kinds[-1], dict.fromkeys(LAYER_NAMES, 0.0))
        for layer in LAYER_NAMES:
            layer_s[layer] += tracer.self_s[layer] - before[layer]
        before.update(tracer.self_s)

    tracer.install(extra_modules=[jobs])
    try:
        with SpeedClock() as clock:
            traced = PassLog(clock)
            traced.run_pass(jobs.for_pass(job_list, 1), between_jobs=after_job)
    finally:
        tracer.uninstall()
        managers.clear()
    plain_s = sum(plain.latencies())
    traced_s = sum(traced.latencies())
    # Layer times scale with their pass; one factor suffices for them.
    speed = traced_s / traced.raw_seconds()
    lookups = kernel["hits"] + kernel["misses"]
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (tracer.self_s[layer] * speed, "s")
    metrics.update(
        {
            "symbolic.bdd.nodes_peak": (kernel["nodes_peak"], "count"),
            "symbolic.bdd.cache_hit_rate": (kernel["hits"] / lookups if lookups else 0.0, "frac"),
            "symbolic.bdd.reorders": (kernel["reorders"], "count"),
            "interpretation.rounds": (traced.stats["rounds"], "count"),
            "interpretation.candidates": (traced.stats["candidates"], "count"),
            "interpretation.candidate_yield": (
                traced.stats["implementations"] / traced.stats["candidates"]
                if traced.stats["candidates"]
                else 0.0,
                "frac",
            ),
            "trace.overhead_frac": (traced_s / plain_s - 1, "frac"),
        }
    )
    print(f"plain pass {plain_s:.3f} s, traced pass {traced_s:.3f} s (speed-scaled)")
    print(f"{'layer':<18} {'calls':>10} {'self s':>10} {'share':>7}")
    for layer in LAYER_NAMES:
        self_s = metrics[f"{layer}.self_s"][0]
        print(f"{layer:<18} {tracer.calls[layer]:>10} {self_s:>10.4f} {self_s / traced_s:>7.1%}")
    outside = traced_s - tracer.layer_time() * speed
    print(f"{'outside layers':<18} {'':>10} {outside:>10.4f} {outside / traced_s:>7.1%}")
    if not lookups:
        print("no BDD cache lookups: symbolic.bdd.cache_hit_rate reads 0")
    wall_by_kind = {}
    for kind, (start, end) in zip(traced.kinds, traced.intervals):
        wall_by_kind[kind] = wall_by_kind.get(kind, 0.0) + end - start
    print("self-time shares by job kind:")
    for kind, layer_s in sorted(by_kind.items()):
        shares = ", ".join(
            f"{layer} {seconds / wall_by_kind[kind]:.0%}"
            for layer, seconds in layer_s.items()
            if seconds >= 0.005 * wall_by_kind[kind]
        )
        print(f"  {kind}: {shares}")
    return len(plain.intervals) + len(traced.intervals), plain.failures + traced.failures, metrics


def print_oracle(args):
    """Draw the random specs of a synthesis pass and print their indices
    and cross-check answers as JSON."""
    jobs = load_program()
    chosen = jobs.draw_random_specs(args.seed, tiny=args.tiny)
    print(
        json.dumps(
            [
                [index, free, None if constructed is None else sorted(constructed)]
                for index, (free, constructed) in sorted(chosen.items())
            ]
        )
    )


def random_spec_oracle(args):
    """``{index: (free, constructed)}`` from a child process running
    :func:`print_oracle`."""
    command = [
        sys.executable, str(HERE / "run.py"), "--oracle",
        "--workload", args.workload, "--seed", str(args.seed),
    ] + (["--tiny"] if args.tiny else [])
    completed = subprocess.run(command, capture_output=True, text=True, timeout=170, check=False)
    if completed.returncode != 0:
        fail(f"drawing the random specs failed:\n{completed.stderr}")
    rows = json.loads(completed.stdout.strip().splitlines()[-1])
    return {
        index: (
            free,
            None
            if constructed is None
            else frozenset(tuple(tuple(pair) for pair in state) for state in constructed),
        )
        for index, free, constructed in rows
    }


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.oracle:
        print_oracle(args)
        return 0
    warm_bytecode(args)
    jobs = load_program()
    from repro.engine import get_default_backend

    oracle = random_spec_oracle(args) if args.workload == "synthesis" else {}
    spec_indices = sorted(oracle)
    job_list = jobs.make_jobs(args.workload, args.seed, spec_indices, tiny=args.tiny)
    for job in job_list:
        if job.kind == "random_spec_search":
            job.expected = oracle[job.params[0]]
    if args.plant_wrong:
        next(job for job in job_list if job.kind != "random_spec_search").expected = PLANTED
    print(f"workload {args.workload}, seed {args.seed}: {len(job_list)} jobs per pass")
    print(f"inputs sha256 {jobs.digest(job_list)}")
    print(f"default engine: {get_default_backend().name}")
    if oracle:
        checked = sum(1 for _, constructed in oracle.values() if constructed is not None)
        print(
            f"random-spec verdicts are a cross-check against the explicit lowering: "
            f"{len(oracle)} universe sizes, {checked} constructed implementations"
        )

    if args.trace:
        attempted, failures, metrics = measure_layers(jobs, job_list)
    else:
        setup_s = measure_setup(args, spec_indices)
        attempted, failures, metrics = measure_end_to_end(args, jobs, job_list, setup_s)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
