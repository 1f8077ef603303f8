"""cipm benchmark: one seeded, single-process, closed-loop workload per run.

    python3 bench/run.py --workload slot_stream --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): slot_stream, sweep_full_load,
sweep_qpsk_bound, modmap_pdfcheck. A run sets up (imports, constellations,
one reduced warm-up operation), then runs operations one at a time for
``--seconds`` and checks every output outside the timed region.

Each operation's wall latency is also expressed in reference units ("ref"):
latency over the mean time of a fixed, cipm-independent kernel run just
before and just after it (reference.py). Wall time on a shared machine swings
by up to 2x over seconds; the ratio stays put, so the bounded metrics use it.

--trace 0 prints the end-to-end metrics:
    setup_s       median of five set-ups (this process and four fresh ones),
                  each scaled to the reference kernel's nominal speed:
                  wall * NOMINAL_SECONDS / kernel time measured right after
    op_p50_ref    median cost of one operation: a slot (make_problem +
                  solve_cipm), a sweep CLI call, or a cold modmap + warm
                  modmap + pdfcheck cycle
    work_per_ref  work per reference unit: slots, sweep frames, or
                  Monte-Carlo samples (SER-curve symbols plus pdfcheck samples)
    peak_rss_mb   peak resident memory of this process
and, in the table only, the wall-clock figures each workload is known by:
setup_wall_s, slot_p50_us and slot_p99_us, frames_per_s, samples_per_s,
failed_ratio.

--trace 1 wraps every public function of the cipm modules (tracing.py), runs
for half of ``--seconds`` traced, replays the same operations untraced for
trace.overhead_ratio, runs the K=3, Nt=2 overload probe, and prints
per-layer self times and counts per operation.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}. A results file with provenance goes to bench/results/, and spans to
bench/results/spans_<workload>.csv.gz. Failed checks are listed on stderr
with seed, workload and operation index; any failure makes the exit code 1.
"""

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

# numpy's OpenBLAS must not start a thread pool: the workloads are
# single-threaded and the benchmark measures one core's work
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the thread setting; timed as set-up)

from reference import NOMINAL_SECONDS, reference_seconds  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(RESULTS_DIR, "work")
SETUP_SAMPLES = 5
CALIBRATE_EVERY_S = 0.2   # reference-kernel timing between operations
WORKLOAD_NAMES = ("slot_stream", "sweep_full_load", "sweep_qpsk_bound",
                  "modmap_pdfcheck")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(name):
    """Imports and warm-up; returns the imported benchmark modules."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads
    os.makedirs(WORK_DIR, exist_ok=True)
    workloads.warm_up(name, WORK_DIR)
    return workloads


def setup_sample():
    """(wall seconds since start, reference-kernel seconds right after)."""
    wall = time.perf_counter() - T_START
    return wall, statistics.median(reference_seconds() for _ in range(3))


def setup_sample_in_fresh_process(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    wall, ref = done.stdout.split()[-2:]
    return float(wall), float(ref)


class Run:
    """Operations of one measured phase.

    Each successful operation keeps its wall latency and its cost in
    reference units: latency over the mean of the reference-kernel times
    measured just before and just after it.
    """

    def __init__(self):
        self.latencies = []   # seconds, successful operations only
        self.costs = []       # reference units, successful operations only
        self.refs = []        # reference-kernel seconds, every calibration
        self.work = 0
        self.attempted = 0
        self.failures = []    # (operation index, message)

    @property
    def wall(self):
        return sum(self.latencies)

    @property
    def cost(self):
        return sum(self.costs)


def measure(wl, seconds=None, count=None, call=None):
    """Run operations 0, 1, ... until ``seconds`` of wall time or ``count``."""
    run = Run()
    clock = time.perf_counter
    pending = []              # latencies waiting for the next calibration
    ref_before = reference_seconds()
    run.refs.append(ref_before)
    last_ref = start = clock()
    i = 0
    while (count is None and clock() - start < seconds) or (count is not None and i < count):
        inputs = wl.prepare(i)
        t0 = clock()
        try:
            out = call(wl.run, inputs) if call else wl.run(inputs)
            lat = clock() - t0
            msgs = wl.check(i, inputs, out)
        except Exception:  # an operation that raises is a failure, not a crash
            msgs = [traceback.format_exc(limit=3).strip()]
        run.failures += [(i, m) for m in msgs]
        if not msgs:
            pending.append(lat)
            run.work += wl.work(inputs, out)
        run.attempted += 1
        i += 1
        if clock() - last_ref >= CALIBRATE_EVERY_S:
            ref_after = reference_seconds()
            run.refs.append(ref_after)
            last_ref = clock()
            run.latencies += pending
            run.costs += [lat / (0.5 * (ref_before + ref_after)) for lat in pending]
            pending, ref_before = [], ref_after
    ref_after = reference_seconds()
    run.refs.append(ref_after)
    run.latencies += pending
    run.costs += [lat / (0.5 * (ref_before + ref_after)) for lat in pending]
    return run


def end_to_end(name, run, setup_samples):
    lat = run.latencies
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(w * NOMINAL_SECONDS / r for w, r in setup_samples), "s"),
        "op_p50_ref": (statistics.median(run.costs), "ref"),
        "work_per_ref": (run.work / run.cost, "1/ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # wall-clock figures under the names users of each workload know them by
    named = {"setup_s": metrics["setup_s"],
             "setup_wall_s": (statistics.median(w for w, _ in setup_samples), "s"),
             "failed_ratio": (len({i for i, _ in run.failures}) / run.attempted, "ratio"),
             "op_p50_ms": (statistics.median(lat) * 1e3, "ms")}
    if name == "slot_stream":
        named["slot_p50_us"] = (statistics.median(lat) * 1e6, "us")
        named["slot_p99_us"] = (statistics.quantiles(lat, n=100)[98] * 1e6, "us")
        named["slots_measured"] = (len(lat), "count")
    elif name == "modmap_pdfcheck":
        named["samples_per_s"] = (run.work / run.wall, "1/s")
    else:
        named["frames_per_s"] = (run.work / run.wall, "1/s")
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    named["ref_kernel_ms"] = (statistics.median(run.refs) * 1e3, "ms")
    return metrics, named


def per_layer(tracer, run, untraced, probe):
    """Per-operation self times and counts from the traced phase."""
    spans = tracer.self_times()
    n_ops = max(run.attempted, 1)
    total, calls = {}, {}
    for n, s, _ in spans:
        total[n] = total.get(n, 0.0) + s
        calls[n] = calls.get(n, 0) + 1
    obs = tracer.observed
    m = {}
    for fn in ("constellation.constraints_for", "solver.make_problem",
               "solver.solve_cipm", "solver.min_norm_qp", "baselines.solve_ob",
               "baselines.solve_multicast_bound", "simulator.run_frame",
               "simulator.validate_distribution", "simulator.distribution_curves",
               "channel.sample_rayleigh", "channel.eq_power_cdf",
               "constellation.detect", "linkadapt.build_ser_curve", "cli.main"):
        m[f"{fn}.self_s"] = (total.get(fn, 0.0) / n_ops, "s/op")
    for fn in ("constellation.constraints_for", "solver.solve_cipm",
               "solver.min_norm_qp", "simulator.run_frame", "channel.eq_power_cdf"):
        m[f"{fn}.calls"] = (calls.get(fn, 0) / n_ops, "calls/op")
    layers = ("constellation", "solver", "baselines", "channel", "linkadapt",
              "simulator", "cli")
    for layer in layers:
        m[f"{layer}.self_s"] = (sum(s for n, s in total.items()
                                    if n.startswith(layer + ".")) / n_ops, "s/op")
    m["constellation.detect.symbols"] = (obs.get("detect_symbols", 0) / n_ops, "symbols/op")
    m["solver.kkt_residual_max"] = (obs.get("kkt_max", 0.0), "1")
    m["solver.violation_max"] = (obs.get("violation_max", 0.0), "1")
    m["solver.false_infeasible"] = (probe, "count")
    m["baselines.ob_iterations"] = (obs.get("ob_iterations", 0) / n_ops, "iterations/op")
    sca = sum(1 for n, _, p in spans
              if n == "solver.min_norm_qp" and p == "baselines.solve_multicast_bound")
    m["baselines.sca_rounds"] = (sca / n_ops, "rounds/op")
    slots = obs.get("cached_slots", 0)
    m["simulator.cache_hit_ratio"] = (obs.get("cache_hits", 0) / slots if slots else 0.0,
                                      "ratio")
    m["simulator.distinct_solves"] = (obs.get("distinct_solves", 0) / n_ops, "solves/op")
    m["linkadapt.ser_cache_loads"] = (calls.get("linkadapt.SerCurve.load_csv", 0) / n_ops,
                                      "loads/op")
    layer_self = sum(s for n, s in total.items() if n.split(".")[0] in layers)
    m["trace.self_coverage"] = (layer_self / run.wall, "ratio")
    m["trace.overhead_ratio"] = (run.cost / untraced.cost, "ratio")
    return m


def _observe_detect(obs, args, result):
    obs["detect_symbols"] = obs.get("detect_symbols", 0) + int(np.size(args[1]))


def _observe_solve(obs, args, result):
    rep = result[1]
    obs["kkt_max"] = max(obs.get("kkt_max", 0.0), rep.stationarity_residual)
    obs["violation_max"] = max(obs.get("violation_max", 0.0), rep.max_constraint_violation)


def _observe_ob(obs, args, result):
    obs["ob_iterations"] = obs.get("ob_iterations", 0) + result.iterations


def _observe_frame(obs, args, result):
    cfg = args[0]
    if cfg.precoder != "ob":
        obs["cache_hits"] = obs.get("cache_hits", 0) + result.cache_hits
        obs["cached_slots"] = obs.get("cached_slots", 0) + cfg.n_symbols
        obs["distinct_solves"] = obs.get("distinct_solves", 0) + result.cache_entries


OBSERVERS = {
    "constellation.detect": _observe_detect,
    "solver.solve_cipm": _observe_solve,
    "baselines.solve_ob": _observe_ob,
    "simulator.run_frame": _observe_frame,
}


def traced_modules():
    import cipm
    from cipm import baselines, channel, cli, constellation, linkadapt, simulator, solver
    return {"cipm": cipm, "constellation": constellation, "solver": solver,
            "baselines": baselines, "channel": channel, "linkadapt": linkadapt,
            "simulator": simulator, "cli": cli}


def overload_probe(seed, slots=40):
    """solve_cipm verdicts on K=3, Nt=2 QPSK relaxed slots that linprog finds feasible.

    Returns how many feasible slots solve_cipm rejects.
    """
    from scipy.optimize import linprog
    from cipm import SinrTargets, SolverError, get_constellation, make_problem, solve_cipm
    import oracles

    spec = get_constellation("qpsk")
    rng = np.random.default_rng([seed, 3, 2])
    targets = SinrTargets(zeta=np.full(3, 10 ** 0.4712), sigma_z=1.0)
    rejected = 0
    for _ in range(slots):
        h = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / np.sqrt(2)
        symbols = rng.integers(0, 4, size=3)
        rows, rhs, is_eq = oracles.embed_constraints(h, [spec] * 3, symbols, targets.zeta,
                                                     targets.sigma_z, "relaxed")
        lp = linprog(np.zeros(4), A_ub=-rows[~is_eq], b_ub=-rhs[~is_eq],
                     A_eq=rows[is_eq] if is_eq.any() else None,
                     b_eq=rhs[is_eq] if is_eq.any() else None,
                     bounds=[(None, None)] * 4, method="highs")
        if lp.status != 0:
            continue
        try:
            solve_cipm(make_problem(h, [spec] * 3, symbols, targets, "relaxed"))
        except SolverError:
            rejected += 1
    return rejected


def git_revision():
    """HEAD commit read from .git in the checkout, or None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args):
    import hashlib
    import scipy
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cipm")
    for f in sorted(os.listdir(src)):
        if f.endswith(".py"):
            with open(os.path.join(src, f), "rb") as fh:
                digest.update(f.encode() + b"\0" + fh.read())
    return {
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timer": "time.perf_counter per operation; ref = reference.py kernel time",
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "cipm")):
        print(f"error: no cipm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workloads = setup(args.workload)
    setup_samples = [setup_sample()]
    if args.setup_only:
        print(*map(repr, setup_samples[0]))
        return 0
    if not args.trace:
        setup_samples += [setup_sample_in_fresh_process(args)
                          for _ in range(SETUP_SAMPLES - 1)]
    wl = workloads.WORKLOADS[args.workload](args.seed, WORK_DIR)
    import oracles  # noqa: F401  (checks only; bound to untraced functions)
    gc.collect()
    gc.freeze()

    result = {"provenance": provenance(args),
              "setup_samples": [{"wall_s": w, "ref_s": r} for w, r in setup_samples]}
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(traced_modules(), OBSERVERS,
                       methods=[("linkadapt", "SerCurve", "load_csv")])
        try:
            run = measure(wl, seconds=args.seconds / 2, call=tracer.root)
        finally:
            tracer.uninstall()
        untraced = measure(wl, count=run.attempted)
        tracer.write(os.path.join(RESULTS_DIR, f"spans_{args.workload}.csv.gz"))
        # the untraced replay repeats operations 0..n-1; count each once
        failures = sorted(set(run.failures + untraced.failures))
        named, metrics = {}, {}
        if run.latencies and untraced.latencies:
            metrics = per_layer(tracer, run, untraced, overload_probe(args.seed))
    else:
        run = measure(wl, seconds=args.seconds)
        failures = run.failures
        named, metrics = {}, {}
        if run.latencies:
            metrics, named = end_to_end(args.workload, run, setup_samples)
    attempted = run.attempted

    failed = len({i for i, _ in failures})
    for i, msg in failures:
        print(f"FAIL workload={args.workload} seed={args.seed} op={i}: {msg}",
              file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations, {failed} failed")
    for key, (value, unit) in {**named, **metrics}.items():
        print(f"  {key:<40} {value:>16.6g} {unit}")

    result.update({"attempted": attempted, "failed": failed,
                   "failures": [{"op": i, "message": msg} for i, msg in failures],
                   "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
