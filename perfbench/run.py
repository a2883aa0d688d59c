"""Benchmark of the frescos command line: one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

The run imports ``frescos`` from ``src/`` of this checkout and calls
``frescos.cli.main`` in-process: one input per call, the next call made
when the previous report has returned.  Inputs come from the workload's
pool (``pool/*.jsonl``) in an order the seed fixes (see
``workloads.schedule``).  Every report is checked after the loop (see
``check.py``); a wrong report, an exit code outside {0, 2} or an
exception counts as failed.

With ``--trace 0`` the loop makes as many reports as take ``--seconds``
at reference speed (see ``WALL_CAP``), and the last line of output is a
JSON object with the end-to-end metrics, their times scaled to reference
speed (see ``calibrate``); with ``--trace 1`` the loop runs for half the time
with every layer wrapped by ``tracer.Tracer``, then the same inputs run
again untraced.  Its JSON holds the per-layer metrics, normalised per
report, and the tracing overhead; the spans are written to
``.perfbench/<workload>.spans``.  Lines before the JSON state each
metric with its unit, the percentile and sample count behind
``report_ms.tail``, and the failed share.
"""

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import check
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A cold process on a shared host runs up to twice as slow for its
# first second or two; calls on the cheapest inputs run untimed first.
WARMUP_S = 2.0
# import plus first call, repeated; the median is setup_s
SETUP_REPEATS = 21
# An end-to-end run makes as many reports as take --seconds at
# reference speed by the pool's stored costs, so every run of a workload
# reads its tail at the same percentile however fast the host is; on a
# slow host it stops at this many times --seconds.
WALL_CAP = 1.2

# name, unit, better
END_TO_END = (
    ("reports_per_s", "1/s", "higher"),
    ("report_ms.p50", "ms", "lower"),
    ("report_ms.tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
_SPAN_METRICS = {
    "series.mul": ("calls", "self_ms"),
    "series.invert": ("calls", "self_ms"),
    "series.addsub": ("self_ms",),
    "series.solve_resonant_ode": ("self_ms",),
    "algebra.normal_form_mul": ("calls", "self_ms"),
    "algebra.left_divide": ("calls", "self_ms"),
    "algebra.expand_factor_form": ("self_ms",),
    "algebra.monicize": ("self_ms",),
    "fresco.adapted_model": ("calls", "self_ms"),
    "fresco.apply_a": ("calls", "self_ms"),
    "fresco.regenerate_presentation": ("calls", "self_ms"),
    "alpha.alpha_invariant": ("calls",),
    "alpha.reduce_step": ("calls", "self_ms"),
    "alpha.is_semisimple": ("self_ms",),
    "alpha.theme_classes": ("self_ms",),
    "oracle.truncate_rep": ("self_ms",),
    "oracle.minimal_annihilator": ("calls", "self_ms"),
    "oracle.span_closure": ("self_ms",),
    "oracle.submodule_analysis": ("self_ms",),
    "xi.generate_module": ("self_ms",),
    "xi.log_filtration": ("self_ms",),
    "xi.model_from_xi": ("self_ms",),
    "dsl.parse": ("self_ms",),
    "cli": ("self_ms",),
}
# (metric, numerator counter, denominator counter or span calls)
_RATIOS = (
    ("alpha.reduce_step.useful_ratio", "alpha.reduce_step.distinct",
     "alpha.reduce_step"),
    ("oracle.span_closure.pivot_yield", "oracle.span_closure.pivots",
     "oracle.span_closure.inserted"),
    ("xi.generate_module.pivot_yield", "xi.generate_module.pivots",
     "xi.generate_module.inserted"),
)
PER_LAYER = tuple(
    ("%s.%s" % (span, kind),
     "calls/report" if kind == "calls" else "ms/report", "lower")
    for span, kinds in _SPAN_METRICS.items() for kind in kinds
) + (
    ("series.mul.coeff_pairs", "pairs/report", "lower"),
) + tuple((name, "ratio", "higher") for name, _, _ in _RATIOS) + (
    ("trace.overhead", "ratio", "lower"),
)


def import_cli():
    """Import ``frescos`` afresh from this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m == "frescos" or m.startswith("frescos.")]:
        del sys.modules[name]
    cli = importlib.import_module("frescos.cli")
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "frescos"):
        raise SystemExit("frescos was imported from %s, not from %s"
                         % (cli.__file__, SRC))
    return cli


def call(cli, argv):
    """One report: (exit code, output, seconds, end).

    An exception is its class name.  The seconds include collecting the
    garbage the report left: that cost is the report's, and paid at its
    end it no longer lands on whichever later report the collector
    happens to interrupt.
    """
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        code = cli.main(argv, stdin=io.StringIO(), stdout=out)
    except Exception as exc:  # the report failed; the run goes on
        code = "raised %s" % type(exc).__name__
    gc.collect()
    end = time.perf_counter()
    return code, out.getvalue(), end - t0, end


def warm_up(cheap):
    cli = import_cli()
    start = time.perf_counter()
    while time.perf_counter() - start < WARMUP_S:
        for argv in cheap:
            call(cli, argv)


def setup(warm):
    """The median of SETUP_REPEATS set-ups, raw and at reference speed."""
    pacer = calibrate.Pacer()
    times, ends = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = import_cli()
        end = call(cli, warm)[3]
        times.append(end - t0)
        ends.append(end)
        pacer.between_reports(end - t0, force=True)
    scaled = pacer.at_reference_speed(times, ends)
    return cli, statistics.median(times), statistics.median(scaled)


def closed_loop(cli, inputs, seconds, tracer=None, pacer=None, count=None):
    """Call until the time is up or ``count`` reports are made.

    Returns the records and the elapsed time.  With a
    ``calibrate.Pacer``, reference slices run between reports.
    """
    records = []
    start = time.perf_counter()
    for i, item in enumerate(inputs):
        if tracer is not None:
            tracer.begin_report(i)
        records.append((item,) + call(cli, item["argv"]))
        if tracer is not None:
            tracer.end_report()
        if pacer is not None:
            pacer.between_reports(records[-1][3])
        if (time.perf_counter() - start >= seconds
                or len(records) == count):
            break
    return records, time.perf_counter() - start


def failures(records):
    engine = check.Engine()
    bad = 0
    for item, code, text, _, _ in records:
        problems = check.check(item["argv"], code, text, item["digest"], engine)
        if problems:
            bad += 1
            print("FAILED %s: %s" % (" ".join(item["argv"]), "; ".join(problems)))
    return bad


def tail(ms):
    """Highest percentile with at least ten reports beyond it, at least p50.

    The floor keeps a run of fewer than 21 reports from reading a tail
    below its median.  Returns the value and its percentile.
    """
    ms = sorted(ms)
    n = len(ms)
    i = max(n - 11, (n - 1) // 2, 0)
    return ms[i], math.floor(1000.0 * (i + 1) / n) / 10


def end_to_end(cli, setup_s, raw_setup_s, inputs, seconds, count):
    """Times are at reference speed (see ``calibrate``); raw ones are noted."""
    pacer = calibrate.Pacer()
    pacer.between_reports()
    records, elapsed = closed_loop(cli, inputs, WALL_CAP * seconds,
                                   pacer=pacer, count=count)
    raw = [r[3] for r in records]
    ms = [t * 1000 for t in pacer.at_reference_speed(raw, [r[4] for r in records])]
    tail_ms, pct = tail(ms)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "reports_per_s": 1000 * len(records) / sum(ms),
        "report_ms.p50": statistics.median(ms),
        "report_ms.tail": tail_ms,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    raw_ms = [t * 1000 for t in raw]
    notes = [
        "report_ms.tail is p%s of %d reports" % (pct, len(records)),
        "%d of %d reports made in %.2f s" % (len(records), count, elapsed),
        "reference slice: median %.4f ms, nominal %.4f ms; raw times: "
        "%.6g reports/s, p50 %.6g ms, tail %.6g ms, setup %.6g s" % (
            1000 * statistics.median(pacer.took), 1000 * calibrate.NOMINAL_S,
            len(raw) / sum(raw), statistics.median(raw_ms),
            tail(raw_ms)[0], raw_setup_s),
    ]
    return records, values, notes


def per_layer(cli, inputs, seconds, workload):
    tracer = Tracer()
    tracer.install()
    try:
        records, traced_s = closed_loop(cli, inputs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    plain = [(item,) + call(cli, item["argv"]) for item, _, _, _, _ in records]
    plain_s = sum(r[3] for r in plain)
    traced_calls_s = sum(r[3] for r in records)
    changed = sum(a[1:3] != b[1:3] for a, b in zip(records, plain))

    profile, root_ns = tracer.profile()
    n = len(records)
    values = {}
    for span, kinds in _SPAN_METRICS.items():
        calls, self_ns = profile.get(span, (0, 0))
        if "calls" in kinds:
            values[span + ".calls"] = calls / n
        if "self_ms" in kinds:
            values[span + ".self_ms"] = self_ns / 1e6 / n
    counters = tracer.counters
    values["series.mul.coeff_pairs"] = counters.get("series.mul.coeff_pairs", 0) / n
    for name, num, den in _RATIOS:
        d = counters.get(den, profile.get(den, (0, 0))[0])
        values[name] = counters.get(num, 0) / d if d else 0.0
    values["trace.overhead"] = traced_calls_s / plain_s

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, workload + ".spans"))
    notes = [
        "traced %d reports in %.2f s, untraced again in %.2f s" % (
            n, traced_calls_s, plain_s),
        "self time of all spans %.3f s, root spans %.3f s, loop %.3f s" % (
            sum(v[1] for v in profile.values()) / 1e9, root_ns / 1e9, traced_s),
        "%d of %d reports differ between traced and untraced" % (changed, n),
    ]
    return records, values, notes, changed


def run(name, seed, seconds, trace):
    workload = workloads.WORKLOADS[name]
    with open(os.path.join(HERE, "pool", name + ".jsonl")) as fh:
        pool = [json.loads(line) for line in fh]
    cheap = [item["argv"] for item in
             sorted(pool, key=lambda item: item["ms"])[:workloads.STRATUM]]
    warm_up(cheap)
    cli, raw_setup_s, setup_s = setup(cheap[0])
    # the pool, the modules and the rest of the harness stay alive all
    # run; the collector need not walk them again in every report
    gc.collect()
    gc.freeze()
    inputs = workloads.schedule(pool, seed)
    if trace:
        records, values, notes, changed = per_layer(cli, inputs, seconds, name)
        table = PER_LAYER
    else:
        count = math.ceil(
            seconds * 1000 / statistics.mean(item["ms"] for item in pool))
        records, values, notes = end_to_end(cli, setup_s, raw_setup_s,
                                            inputs, seconds, count)
        changed = 0
        table = END_TO_END
    failed = failures(records)
    print("workload %s, seed %d: closed loop, one client, %d reports" % (
        name, seed, len(records)))
    for metric, unit, _ in table:
        print("  %-36s %14.6g %s" % (metric, values[metric], unit))
    for note in notes:
        print("  " + note)
    print("  failed_share %.6g (%d of %d)" % (
        failed / len(records), failed, len(records)))
    units = {metric: unit for metric, unit, _ in table}
    return {
        "correct": failed == 0 and changed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "frescos", "cli.py")):
        print("no frescos sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so peak_rss_mb is each workload's own
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
