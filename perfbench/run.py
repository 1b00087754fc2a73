"""hcmkit benchmark: one seeded workload, timed from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,dynamics,oracle,cli} \\
        --seed N --seconds S --trace {0,1}

The load is a closed loop with one caller: the next op starts when the
previous one has finished and been checked. Ops run until S seconds have
passed; each op's output is checked against implementation-independent
references (see refs.py). Set-up is timed in fresh interpreters before the
loop (three times, median).

The gated times (`setup_s`, `op_p50_ms`, `op_tail_ms`) are given at a fixed
reference machine speed: a fixed kernel is timed beside the set-ups and
between the ops, and each wall time is scaled by the kernel's nominal time
over its median (see speedref.py). The detail line holds the wall times.

The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`. The line before it
holds the details: every end-to-end metric of the workload (also those that
apply to it alone), the tail percentile and its sample count, the measured
input properties, the first check failures and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import speedref
import stats
import tracing
from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
SETUP_REF_SAMPLES = 10  # speed-reference kernel runs before each set-up
# Set-up is a fresh interpreter's imports, like the CLI calls.
SETUP_SPEED_REF = "fault"
SETUP_TIMEOUT = 120
WORK_DIR = ".perfbench_work"
# One BLAS thread unless the caller chose otherwise: on a shared 2-core
# machine a second thread makes eigh wait on a descheduled helper, which was
# both slower and far less steady (120 to 416 sweep ops in the same 12 s).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The end-to-end metrics of the result line, with their units. The others
# (work_per_s, snap_p50_ms, cruise_p50_ms, failed_frac) go to the detail
# line: work_per_s spread furthest across seeds on a shared machine, snap and
# cruise exist on dynamics alone, and failed_frac is 0 whenever the code is
# right. `failed` and `attempted` in the result line carry failed_frac.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "max_rel_err": "1",
    "peak_rss_mb": "MB",
}

# Layer whose self time should dominate each workload's op.
DOMINANT = {"sweep": ("buckling", "postbuckle"), "dynamics": ("snapdyn",),
            "oracle": ("oracle",), "cli": ("import",)}

CLI_SUBCOMMANDS = ("analyze", "sweep", "snap", "swim", "oracle", "calibrate", "plot")


def _per_layer_spec() -> dict:
    """Per-layer metrics of a traced run: name -> (unit, better).

    Times and counts are per op of the traced run; `.failed` counts calls
    that raised, expected ones included.
    """
    spec = {}
    for layer in tracing.LAYERS:
        spec[f"{layer}.self_ms"] = ("ms/op", "lower")
        spec[f"{layer}.failed"] = ("count", "lower")
    per_op = {
        "buckling.critical_load.calls": "count/op",
        "buckling.critical_load.busy_ms": "ms/op",
        "buckling.eigh_bytes_computed": "B/op",
        "core.calls": "count/op",
        "core.busy_ms": "ms/op",
        "config.load_config.busy_ms": "ms/op",
        "postbuckle.analyze.calls": "count/op",
        "postbuckle.analyze.self_ms": "ms/op",
        "postbuckle.calibrate.busy_ms": "ms/op",
        "postbuckle.load_calibration.busy_ms": "ms/op",
        "snapdyn.triggered_snap.calls": "count/op",
        "snapdyn.triggered_snap.busy_ms": "ms/op",
        "snapdyn.rk4_steps": "count/op",
        "snapdyn.snap_duration.busy_ms": "ms/op",
        "swim.cruise_speed.calls": "count/op",
        "swim.cruise_speed.busy_ms": "ms/op",
        "swim.rk4_steps": "count/op",
        "oracle.build_discrete.busy_ms": "ms/op",
        "oracle.find_equilibrium.calls": "count/op",
        "oracle.find_equilibrium.self_ms": "ms/op",
        "oracle.find_saddle.self_ms": "ms/op",
        "oracle.lbfgs.stages": "count/op",
        "oracle.lbfgs.nit": "count/op",
        "oracle.lbfgs.nfev": "count/op",
        "oracle.lbfgs.us_per_eval": "us",
        "oracle.lbfgs.stalls_accepted": "count/op",
        "svgplot.render_plots.busy_ms": "ms/op",
        "cli.import_ms": "ms",
        "cli.exit_mismatch": "count",
    }
    spec.update({k: (u, "lower") for k, u in per_op.items()})
    spec["oracle.solves_used_ratio"] = ("1", "higher")
    for sub in CLI_SUBCOMMANDS:
        spec[f"cli.{sub}.self_ms"] = ("ms/op", "lower")
    spec.update({
        "trace.op_p50_ms": ("ms", "lower"),
        "trace.spans_per_op": ("count/op", "lower"),
        "trace.span_cost_us": ("us", "lower"),
        "trace.overhead_frac_est": ("1", "lower"),
    })
    return spec


PER_LAYER = _per_layer_spec()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_setup(root: str, kind: str) -> float:
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), kind, root]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def machine() -> dict:
    import numpy
    import scipy

    blas = {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS}
    try:
        blas_name = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas,
        "cpu": platform.processor() or platform.machine(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_loop(wl, seconds: float, recorder, meter=None) -> tuple[list, list]:
    """Closed loop until `seconds` pass; returns (ops, failure messages).

    A speed-reference meter, if given, is sampled between ops, outside their
    latency.
    """
    ops, failures = [], []
    t_start = time.perf_counter()
    i = 0
    while time.perf_counter() - t_start < seconds:
        if meter is not None:
            meter.maybe()
        op = wl.next_op(i)
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
            error = None
        except Exception as exc:  # an unexpected exception is a failed op
            result, error = None, f"op {i} raised {exc!r}"
        latency = time.perf_counter() - t0
        if recorder is not None:
            recorder.op = None
        errs = []
        if error is None:
            try:
                wl.check(op, result, errs)
            except CheckFailed as exc:
                error = f"op {i}: {exc}"
            except Exception as exc:  # output that cannot be read misses its check
                error = f"op {i}: unreadable output ({exc!r})"
        if error is not None and len(failures) < 5:
            failures.append(error)
        ops.append({"latency": latency, "kind": op.payload.get("kind"), "units": op.units,
                    "failed": error is not None,
                    "errs": errs, "sub": op.sub,
                    "report_out": error is None and wl.report_reaches_output(op, result)})
        i += 1
    return ops, failures


def end_to_end(name: str, ops: list, latencies: list, setup: list, setup_scale: float,
               loop_scale: float) -> dict:
    """End-to-end metrics; latency statistics over `latencies` (s).

    setup_s, op_p50_ms and op_tail_ms are at reference speed (wall time times
    the run's scale); the `_wall` entries are as timed.
    """
    lat_ms = [x * 1e3 for x in latencies]
    tail = stats.tail(lat_ms)
    errs = [e for o in ops for e in o["errs"]]
    sub = {k: [t * 1e3 for o in ops for t in o["sub"].get(k, ())] for k in ("snap", "cruise")}
    setup_wall = statistics.median(setup)
    p50_wall = statistics.median(lat_ms)
    return {
        "setup_s": setup_wall * setup_scale,
        "work_per_s": sum(o["units"] for o in ops) / sum(o["latency"] for o in ops),
        "op_p50_ms": p50_wall * loop_scale,
        "op_tail_ms": tail["value"] * loop_scale,
        "setup_wall_s": setup_wall,
        "op_p50_wall_ms": p50_wall,
        "op_tail_wall_ms": tail["value"],
        "setup_speed_scale": setup_scale,
        "loop_speed_scale": loop_scale,
        "op_tail": {k: tail[k] for k in ("p", "beyond", "n")},
        "snap_p50_ms": statistics.median(sub["snap"]) if sub["snap"] else None,
        "cruise_p50_ms": statistics.median(sub["cruise"]) if sub["cruise"] else None,
        "failed_frac": sum(o["failed"] for o in ops) / len(ops),
        "max_rel_err": max(errs) if errs else None,
        "peak_rss_mb": peak_rss_mb(children=name == "cli"),
        "setup_samples_s": setup,
    }


def _solves_used(spans: list, ops: list) -> tuple[int, int]:
    """(solves whose result reaches the output, solves run).

    A solve is a find_equilibrium or find_saddle call. Its result reaches the
    output when the state is handed to nodes_to_csv, or when it ran inside an
    oracle_report whose report the op outputs.
    """
    printed = [s.stats["state"] for s in spans if s.name == "oracle.nodes_to_csv"]
    used = run = 0
    for s in spans:
        if s.name not in ("oracle.find_equilibrium", "oracle.find_saddle") or s.failed:
            continue
        run += 1
        in_report = False
        p = s.parent
        while p is not None:
            if spans[p].name == "oracle.oracle_report":
                in_report = True
                break
            p = spans[p].parent
        if any(s.stats["result"] is st for st in printed):
            used += 1
        elif in_report and s.op is not None and ops[s.op]["report_out"]:
            used += 1
    return used, run


def per_layer(name: str, spans: list, ops: list, import_ms: float, exit_mismatch: int) -> dict:
    n = len(ops)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(k):
        return sum(s.duration for s in by_name.get(k, ())) * 1e3 / n

    def self_ms(k):
        return sum(s.self_time for s in by_name.get(k, ())) * 1e3 / n

    def calls(k):
        return len(by_name.get(k, ())) / n

    def stat(k, key):
        return sum(s.stats.get(key, 0) for s in by_name.get(k, ()))

    m = {}
    layer_self = {}
    for layer in tracing.LAYERS:
        mine = [s for s in spans if s.name.split(".")[0] == layer]
        layer_self[layer] = sum(s.self_time for s in mine
                                if s.name not in tracing.TRANSPARENT) * 1e3 / n
        m[f"{layer}.self_ms"] = layer_self[layer]
        m[f"{layer}.failed"] = sum(s.failed for s in mine)
    core = [s for s in spans if s.name.startswith("core.")]
    lbfgs = by_name.get("oracle.lbfgs", [])
    nfev = stat("oracle.lbfgs", "nfev")
    used, run = _solves_used(spans, ops)
    m.update({
        "buckling.critical_load.calls": calls("buckling.critical_load"),
        "buckling.critical_load.busy_ms": busy("buckling.critical_load"),
        "buckling.eigh_bytes_computed": stat("buckling.critical_load", "eigh_bytes") / n,
        "core.calls": len(core) / n,
        "core.busy_ms": sum(s.duration for s in core) * 1e3 / n,
        "config.load_config.busy_ms": busy("config.load_config"),
        "postbuckle.analyze.calls": calls("postbuckle.analyze"),
        "postbuckle.analyze.self_ms": self_ms("postbuckle.analyze"),
        "postbuckle.calibrate.busy_ms": busy("postbuckle.calibrate"),
        "postbuckle.load_calibration.busy_ms": busy("postbuckle.load_calibration"),
        "snapdyn.triggered_snap.calls": calls("snapdyn.triggered_snap"),
        "snapdyn.triggered_snap.busy_ms": busy("snapdyn.triggered_snap"),
        "snapdyn.rk4_steps": stat("snapdyn.simulate_snap", "rk4_steps") / n,
        "snapdyn.snap_duration.busy_ms": busy("snapdyn.snap_duration"),
        "swim.cruise_speed.calls": calls("swim.cruise_speed"),
        "swim.cruise_speed.busy_ms": busy("swim.cruise_speed"),
        "swim.rk4_steps": stat("swim.cruise_speed", "rk4_steps") / n,
        "oracle.build_discrete.busy_ms": busy("oracle.build_discrete"),
        "oracle.find_equilibrium.calls": calls("oracle.find_equilibrium"),
        "oracle.find_equilibrium.self_ms": self_ms("oracle.find_equilibrium"),
        "oracle.find_saddle.self_ms": self_ms("oracle.find_saddle"),
        "oracle.lbfgs.stages": len(lbfgs) / n,
        "oracle.lbfgs.nit": stat("oracle.lbfgs", "nit") / n,
        "oracle.lbfgs.nfev": nfev / n,
        "oracle.lbfgs.us_per_eval": (sum(s.duration for s in lbfgs) * 1e6 / nfev
                                     if nfev else 0.0),
        "oracle.lbfgs.stalls_accepted": sum(
            1 for s in lbfgs if not s.stats["success"]
            and s.stats["max_jac"] < tracing.STALL_JAC) / n,
        "oracle.solves_used_ratio": used / run if run else 0.0,
        "svgplot.render_plots.busy_ms": busy("svgplot.render_plots"),
        "cli.import_ms": import_ms,
        "cli.exit_mismatch": exit_mismatch,
    })
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.self_ms"] = self_ms(f"cli.{sub}")
    lat_ms = [o["latency"] * 1e3 for o in ops]
    cost_us = tracing.span_cost_us()
    spans_per_op = len(spans) / n
    mean_ms = statistics.fmean(lat_ms)
    m.update({
        "trace.op_p50_ms": statistics.median(lat_ms),
        "trace.spans_per_op": spans_per_op,
        "trace.span_cost_us": cost_us,
        "trace.overhead_frac_est": spans_per_op * cost_us * 1e-3 / mean_ms,
    })
    layers = DOMINANT[name]
    dom_ms = import_ms if layers == ("import",) else sum(layer_self[x] for x in layers)
    base_ms = mean_ms + (import_ms if layers == ("import",) else 0.0)
    share = {"layers": list(layers), "self_ms_per_op": dom_ms, "op_mean_ms": base_ms,
             "share": dom_ms / base_ms}
    return m, share


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hcmkit", "__init__.py")):
        print("perfbench: src/hcmkit not found; run from the root of an hcmkit checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads, here or in a child
        os.environ.setdefault(var, "1")
    traced = bool(args.trace)
    kind = "cli" if args.workload == "cli" else "design"
    setup_meter, setup = speedref.Meter(SETUP_SPEED_REF), []
    if not traced:
        for _ in range(SETUP_RUNS):
            setup_meter.take(SETUP_REF_SAMPLES)
            setup.append(time_setup(root, kind))

    in_process = args.workload != "cli" or traced
    import_ms = 0.0
    sys.path.insert(0, os.path.join(root, "src"))
    if in_process:
        t0 = time.perf_counter()
        import hcmkit.cli  # noqa: F401

        import_ms = (time.perf_counter() - t0) * 1e3
        import hcmkit

        if not os.path.abspath(hcmkit.__file__).startswith(os.path.join(root, "src") + os.sep):
            print(f"perfbench: imported hcmkit from {hcmkit.__file__}, not this checkout",
                  file=sys.stderr)
            return 2

    work = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    recorder = tracing.Recorder() if traced else None
    try:
        wl = WORKLOADS[args.workload](root, work, args.seed)
        wl.in_process = in_process
        wl.warm_up()
        if recorder is not None:
            recorder.install()
            wl.recorder = recorder
        meter = speedref.Meter(wl.SPEED_REF)
        meter.take()  # warm the kernel's own code paths
        meter.samples.clear()
        wl.start()
        try:
            ops, failures = run_loop(wl, args.seconds, recorder, meter)
            meter.take()
        finally:
            wl.stop()
            if recorder is not None:
                recorder.restore()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    failed = sum(o["failed"] for o in ops)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "ops": len(ops), "failures": failures,
              "inputs": wl.properties(), "machine": machine()}
    if traced:
        metrics, share = per_layer(args.workload, recorder.spans, ops, import_ms,
                                   getattr(wl, "exit_mismatch", 0))
        detail["dominant_self_share"] = share
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, (u, _) in PER_LAYER.items()}
    else:
        e2e = end_to_end(args.workload, ops, wl.latencies(ops), setup,
                         setup_meter.scale(), meter.scale())
        e2e["speed_ref"] = {
            "setup": {"kernel": setup_meter.kind, "median_ms": setup_meter.median_ms(),
                      "samples": len(setup_meter.samples)},
            "loop": {"kernel": meter.kind, "median_ms": meter.median_ms(),
                     "samples": len(meter.samples)},
            "nominal_ms": speedref.NOMINAL_MS}
        detail["end_to_end"] = e2e
        result_metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
