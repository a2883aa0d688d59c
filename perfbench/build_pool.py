"""Draw each workload's input pool and store it with its expectations.

    python3 perfbench/build_pool.py [workload ...]

For every input the pool line holds the argv, the cost in ms and the
digest of the report's mathematical fields.  The cost is used only to
stratify the schedule: it is the median of COST_REPEATS calls, each
timed at reference speed as a run times it (see ``calibrate``), made in
passes over the whole pool so that the host's drift spreads over all
inputs alike.  The digests are the expected values the benchmark checks
every report against, so rebuild the pool only from a commit whose
reports are trusted; a build refuses to write a pool in which a report
fails a witness.
"""

import gc
import json
import os
import statistics
import sys

import calibrate
import check
import run
import workloads

# a cold process runs up to twice as slow for its first seconds
WARMUP_CALLS = 20
COST_REPEATS = 5


def build(workload):
    cli = run.import_cli()
    engine = check.Engine()
    inputs = workloads.generate(workload, workloads.POOL_SEED,
                                workload.pool_size)
    for argv in inputs[:WARMUP_CALLS]:
        run.call(cli, argv)
    gc.collect()
    gc.freeze()
    items = []
    pacer = calibrate.Pacer()
    pacer.between_reports()
    times, ends = [], []
    for _ in range(COST_REPEATS):
        for argv in inputs:
            code, text, seconds, end = run.call(cli, argv)
            times.append(seconds)
            ends.append(end)
            pacer.between_reports(seconds)
            if len(items) < len(inputs):
                report = json.loads(text)
                digest = check.fields_digest(argv[0], report)
                problems = check.check(argv, code, text, digest, engine)
                if problems or "error" in report:
                    raise SystemExit("%s: %s: %s" % (
                        workload.name, argv[-1], problems or report["error"]))
                items.append({"argv": argv, "ms": None, "digest": digest})
    scaled = pacer.at_reference_speed(times, ends)
    for k, item in enumerate(items):
        ms = statistics.median(scaled[k::len(items)]) * 1000
        item["ms"] = round(ms, 1)
    path = os.path.join(run.HERE, "pool", workload.name + ".jsonl")
    with open(path, "w") as fh:
        for item in items:
            fh.write(json.dumps(item, separators=(",", ":")) + "\n")
    print("%s: %d inputs, %.0f s of calls" % (
        workload.name, len(items), sum(i["ms"] for i in items) / 1000))


if __name__ == "__main__":
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    for name in names:
        build(workloads.WORKLOADS[name])
