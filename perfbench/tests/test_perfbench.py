"""The benchmark's own checks: inputs, schedule, tracer, calibration and report checks.

    python3 -m pytest perfbench/tests
"""

import io
import json
import os
import time

import pytest

import calibrate
import check
import run
import tracer
import workloads

ROOT = os.path.dirname(run.HERE)


def pool(name):
    with open(os.path.join(run.HERE, "pool", name + ".jsonl")) as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    w = workloads.WORKLOADS[name]
    first = json.dumps(workloads.generate(w, 5, 40))
    assert json.dumps(workloads.generate(w, 5, 40)) == first
    assert json.dumps(workloads.generate(w, 6, 40)) != first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_is_what_the_generator_gives(name):
    w = workloads.WORKLOADS[name]
    assert [item["argv"] for item in pool(name)] == \
        workloads.generate(w, workloads.POOL_SEED, w.pool_size)


def test_every_randomized_call_has_an_explicit_seed():
    for w in workloads.WORKLOADS.values():
        for argv in workloads.generate(w, 1, 8):
            assert "--seed" in argv


def test_xi_exponents_stay_above_minus_one():
    for argv in workloads.generate(workloads.WORKLOADS["xi-logs"], 2, 200):
        for exp in check.re.findall(r"s\^\(([-0-9/]+)\)", argv[-1]):
            assert check.Fraction(exp) > -1


def test_schedule_is_seeded_and_visits_every_stratum_each_round():
    items = pool("verify-oracle")
    strata = -(-len(items) // workloads.STRATUM)

    def take(seed, n):
        it = workloads.schedule(items, seed)
        return [next(it)["argv"] for _ in range(n)]

    assert take(3, 100) == take(3, 100)
    assert take(3, 100) != take(4, 100)
    ranked = sorted(items, key=lambda item: item["ms"])
    where = {json.dumps(item["argv"]): i // workloads.STRATUM
             for i, item in enumerate(ranked)}
    first_round = [where[json.dumps(a)] for a in take(9, strata)]
    assert sorted(first_round) == list(range(strata))


def cheap_inputs():
    return [min(pool(name), key=lambda item: item["ms"])["argv"]
            for name in sorted(workloads.WORKLOADS)]


def test_wrappers_are_transparent_and_removable():
    cli = run.import_cli()
    plain = [run.call(cli, argv)[:2] for argv in cheap_inputs()]
    import frescos.algebra as algebra
    import frescos.series as series
    originals = (cli.main, algebra.normal_form_mul, series.SeriesB.__mul__,
                 cli.is_semisimple)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main is not originals[0]
        assert cli.is_semisimple.__name__ == "is_semisimple"
        assert cli.is_semisimple.__doc__ == originals[3].__doc__
        traced = [run.call(cli, argv)[:2] for argv in cheap_inputs()]
    finally:
        t.uninstall()
    assert traced == plain
    assert (cli.main, algebra.normal_form_mul, series.SeriesB.__mul__,
            cli.is_semisimple) == originals
    profile, _ = t.profile()
    for span in ("cli", "dsl.parse", "series.mul", "algebra.normal_form_mul",
                 "oracle.span_closure", "xi.generate_module",
                 "alpha.is_semisimple"):
        assert profile[span][0] > 0, span


def test_self_times_sum_to_the_traced_wall_time():
    cli = run.import_cli()
    t = tracer.Tracer()
    t.install()
    wall = 0.0
    try:
        for i, argv in enumerate(cheap_inputs()):
            t.begin_report(i)
            t0 = time.perf_counter_ns()
            cli.main(argv, stdin=io.StringIO(), stdout=io.StringIO())
            wall += time.perf_counter_ns() - t0
            t.end_report()
    finally:
        t.uninstall()
    profile, root_ns = t.profile()
    assert sum(self_ns for _, self_ns in profile.values()) == root_ns
    assert 0.95 * wall <= root_ns <= wall
    assert all(self_ns >= 0 for _, self_ns in profile.values())
    roots = [i for i in range(len(t.sid)) if t.parent[i] < 0]
    assert [t.names[t.name[i]] for i in roots] == ["cli"] * len(roots)


def test_spans_are_written_with_their_parents(tmp_path):
    cli = run.import_cli()
    t = tracer.Tracer()
    t.install()
    try:
        cli.main(cheap_inputs()[0], stdin=io.StringIO(), stdout=io.StringIO())
    finally:
        t.uninstall()
    path = tmp_path / "x.spans"
    t.write(str(path))
    head, *rows = path.read_text().splitlines()
    assert json.loads(head)["names"] == t.names
    ids = {int(r.split()[0]) for r in rows}
    assert all(int(r.split()[1]) in ids | {-1} for r in rows)


def test_check_compares_fields_not_whole_reports():
    argv = ["identities", "--seed", "1"]
    rep = {"command": "identities", "seed": 1, "samples": 1,
           "exchange": {"pass": 1, "fail": 0},
           "unit_exchange": {"pass": 1, "fail": 0, "documented_outcome": "x"},
           "middle_unit_exchange": {"pass": 1, "fail": 0}}
    digest = check.fields_digest("identities", rep)
    engine = check.Engine()
    grown = dict(rep, extra_field=[1, 2], seed=9)
    assert check.check(argv, 0, json.dumps(grown), digest, engine) == []
    broken = dict(rep, exchange={"pass": 0, "fail": 1})
    assert check.check(argv, 0, json.dumps(broken), digest, engine)
    assert check.check(argv, 3, json.dumps(rep), digest, engine)
    assert check.check(argv, "raised ValueError", "", digest, engine)


def test_analyze_witness_catches_a_wrong_root():
    item = pool("analyze-mix")[0]
    cli = run.import_cli()
    code, text, _, _ = run.call(cli, item["argv"])
    engine = check.Engine()
    assert check.check(item["argv"], code, text, item["digest"], engine) == []
    rep = json.loads(text)
    rep["bernstein_roots"] = rep["bernstein_roots"][::-1] + ["0"]
    assert "witness: bernstein_roots" in check.check(
        item["argv"], code, json.dumps(rep), check.fields_digest("analyze", rep),
        engine)


def test_analyze_witness_catches_a_wrong_rank3_alpha():
    cli = run.import_cli()
    engine = check.Engine()
    for item in pool("analyze-mix"):
        rep = json.loads(run.call(cli, item["argv"])[1])
        if rep["rank"] == 3 and "alpha" in rep:
            break
    rep["alpha"] = str(check.Fraction(rep["alpha"]) + 1)
    assert "witness: alpha" in check.check(
        item["argv"], 0, json.dumps(rep), check.fields_digest("analyze", rep),
        engine)


def test_benchmark_json_matches_the_metrics_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tail_leaves_ten_reports_beyond_and_stays_above_the_median():
    value, pct = run.tail(range(1, 51))
    assert (value, pct) == (40, 80.0)
    assert run.tail(range(1, 15)) == (7, 50.0)


def test_times_scale_by_the_reference_slices_near_each_report():
    n = calibrate.NOMINAL_S
    pacer = calibrate.Pacer()
    pacer.at = [0.0, 0.5, 1.2, 10.0, 30.0]
    pacer.took = [2 * n, 2 * n, 2 * n, n / 2, n]
    # middles 0.6, 10.0 and 20.0: the first has three slices within 1 s,
    # the last none, so it takes the next slice after it
    scaled = pacer.at_reference_speed([0.2, 0.4, 0.3], [0.7, 10.2, 20.15])
    assert scaled == pytest.approx([0.1, 0.8, 0.3])


def test_reference_slice_is_fixed_work():
    assert calibrate.kernel() == calibrate.CHECKSUM
    pacer = calibrate.Pacer()
    pacer.between_reports()
    pacer.between_reports()
    pacer.between_reports(force=True)
    assert len(pacer.took) == len(pacer.at) == 2
    assert all(t > 0 for t in pacer.took)


def test_the_loop_stops_at_its_count_or_its_time():
    class Cli:
        def main(self, argv, stdin, stdout):
            stdout.write("{}")
            return 0

    inputs = iter([{"argv": ["x"]}] * 50)
    records, _ = run.closed_loop(Cli(), inputs, 60, count=7)
    assert len(records) == 7
    records, _ = run.closed_loop(Cli(), iter([{"argv": ["x"]}] * 5), 0)
    assert len(records) == 1
