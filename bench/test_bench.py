"""Tests of the benchmark itself (not of congrex):

    python3 -m pytest bench/test_bench.py
"""

import contextlib
import io
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import congrex  # noqa: E402
import congrex.cli  # noqa: E402
from congrex.algebra import FiniteAlgebra  # noqa: E402


def run_cli(job, directory):
    workloads.write_inputs([job], directory)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = congrex.cli.main(job.argv(str(directory)))
    return code, out.getvalue()


def cheap_jobs():
    """A few fast jobs of every kind the oracle knows."""
    picked = {}
    for name in workloads.WORKLOADS:
        for job in workloads.jobs_for(name, 3):
            kind = job.expect["kind"]
            sizes = [obj.get("size", obj.get("universe_size")) for obj in job.inputs.values()]
            # the arity-3 witness pipeline takes seconds from 8 elements on
            small = sum(sizes) <= (4 if kind == "witness" else 13)
            if kind not in picked and small and "--up-to-n" not in job.args:
                picked[kind] = job
    return picked


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = workloads.jobs_for(name, 11)
    again = workloads.jobs_for(name, 11)
    other = workloads.jobs_for(name, 12)
    assert [(j.args, j.inputs, j.expect) for j in first] == [
        (j.args, j.inputs, j.expect) for j in again
    ]
    assert [j.args for j in first] == [j.args for j in other]
    assert [j.inputs for j in first] != [j.inputs for j in other]
    assert [j.inputs for j in first] != [j.inputs for j in workloads.jobs_for(name, 11, 1)]


def test_relabeling_is_an_isomorphism():
    import random

    alg = workloads.cyclic_product([4, 2])
    copy = workloads.relabel(alg, random.Random(5))
    assert copy.ops != alg.ops
    a = FiniteAlgebra.from_json_dict(alg.to_json())
    b = FiniteAlgebra.from_json_dict(copy.to_json())
    assert len(a.all_congruences()) == len(b.all_congruences()) == 8


def test_oracle_accepts_real_outputs_and_flags_tampered_ones(tmp_path):
    jobs = cheap_jobs()
    assert set(jobs) == set(oracle.CHECKS)
    for kind, job in jobs.items():
        code, stdout = run_cli(job, tmp_path / kind)
        assert oracle.check(job, code, stdout) is None, kind
        assert oracle.check(job, 1, stdout) is not None, kind
        assert oracle.check(job, code, stdout[:-5]) is not None, kind
        payload = json.loads(stdout)
        tampered = TAMPER[kind](payload)
        assert oracle.check(job, code, json.dumps(tampered)) is not None, kind


def _flip_verdict(p):
    p["verdict"] = "finitely-many" if p["verdict"] != "finitely-many" else "infinitely-many"
    return p


def _drop_member(p):
    part = p["members"]["1"]
    part.pop()
    return p


def _bad_family(p):
    p["family"]["1"][0] = p["b"] if p["family"]["1"][0] == p["a"] else p["a"]
    return p


TAMPER = {
    "decide-group": _flip_verdict,
    "decide-product": _flip_verdict,
    "con": lambda p: dict(p, congruences=p["congruences"][:-1], count=p["count"] - 1),
    "lattice": lambda p: dict(p, result=not p["result"]) if "result" in p
    else dict(p, witness=None if p["witness"] else {"delta": 0, "epsilon": 0}),
    "skew": lambda p: dict(p, skew_count=p["skew_count"] + 1),
    "fragment": _drop_member,
    "tensor": lambda p: dict(p, equal=False),
    "clone": lambda p: dict(p, members={"1": p["members"]["1"],
                                        "2": p["members"]["2"][1:]}),
    "witness": _bad_family,
}


def test_brute_congruences_match_the_package():
    import random

    rng = random.Random(2)
    for size in (3, 4, 5):
        alg = workloads.random_algebra(rng, size, "R").to_json()
        got = {
            oracle.canonical(c.block_id)
            for c in FiniteAlgebra.from_json_dict(alg).all_congruences()
        }
        assert got == set(oracle.brute_congruences(alg))


def test_reference_unit_is_fixed_work_and_sampled():
    assert reference.unit() == [8] * 40
    with reference.Sampler(interval=0.001) as sampler:
        time.sleep(0.05)
    assert sampler.samples
    assert all(sec > 0 for _, sec in sampler.samples)
    ends = [end for end, _ in sampler.samples]
    assert ends == sorted(ends)


def test_end_to_end_weighs_each_job_by_the_host_speed_while_it_ran():
    class Done:
        maxrss_kb = 2048

    def one_pass(walls, unit_seconds):
        """Jobs back to back from t=0, each sampled at its middle with the
        unit taking the given seconds."""
        results, samples, t = {}, [], 0.0
        for i, (wall, sec) in enumerate(zip(walls, unit_seconds)):
            results[i] = {"t0": t, "s": wall, "cpu_s": wall}
            samples.append((t + wall / 2, sec))
            t += wall
        return {"jobs": len(walls), "results": results, "samples": samples}

    passes = [
        one_pass([2.0, 2.0], [0.5, 0.5]),  # 8 units
        one_pass([4.0, 4.0], [1.0, 1.0]),  # a host twice as slow: 8 units
        one_pass([2.0, 4.0], [0.5, 1.0]),  # slowed for the second job: 8 units
        one_pass([9.0, 9.0], [0.5, 0.5]),  # an outlier pass: 36 units
    ]
    m = run.end_to_end(Done(), passes, [0.3, 0.2, 0.4])
    assert m["wall_over_ref"]["value"] == pytest.approx(8.0)
    assert m["peak_rss_mb"]["value"] == pytest.approx(2.0)
    assert m["setup_s"]["value"] == pytest.approx(0.3)


def test_a_job_without_samples_takes_the_nearest_one():
    info = {"jobs": 2, "samples": [(0.9, 0.5), (5.0, 1.0)],
            "results": {0: {"t0": 0.0, "s": 1.0}, 1: {"t0": 1.0, "s": 0.1}}}
    # job 0 holds the first sample; job 1 (1.0 to 1.1) none, the nearest is
    # the first one
    assert run.pass_units(info) == pytest.approx(1.0 / 0.5 + 0.1 / 0.5)


def test_exact_clone_part_of_a_semilattice():
    # min on {0, 1} generates exactly the projections and min at arity 2
    gens = [{"arity": 2, "table": [0, 0, 0, 1]}]
    assert oracle.exact_clone_part(2, gens, 2) == {(0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 0, 1)}


def _outputs(jobs, directory):
    return [run_cli(job, directory) for job in jobs]


def test_wrappers_keep_results_and_restore_the_originals(tmp_path):
    jobs = list(cheap_jobs().values())
    plain = _outputs(jobs, tmp_path)
    before = {
        (id(mod), attr): value
        for mod in (congrex, congrex.cli, congrex.analyzer, congrex.lattice,
                    congrex.groups, congrex.algebra, congrex.clones)
        for attr, value in vars(mod).items()
    }
    methods = (congrex.FiniteLattice.__init__, congrex.FiniteAlgebra.all_congruences)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert congrex.cli.main is not before[(id(congrex.cli), "main")]
        assert congrex.analyzer.direct_product is congrex.algebra.direct_product
        assert congrex.analyzer.direct_product is not before[(id(congrex.algebra), "direct_product")]
        traced = _outputs(jobs, tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    after = {
        (id(mod), attr): value
        for mod in (congrex, congrex.cli, congrex.analyzer, congrex.lattice,
                    congrex.groups, congrex.algebra, congrex.clones)
        for attr, value in vars(mod).items()
    }
    assert after == before
    assert (congrex.FiniteLattice.__init__, congrex.FiniteAlgebra.all_congruences) == methods
    names = {s[0] for s in tracer.spans}
    assert {"cli", "algebra.all_congruences", "lattice.init", "clones.clone_closure",
            "analyzer.decide", "groups.normal_subgroups"} <= names
    assert tracer.counts["clones.compose"] > 0
    assert all(s[4] >= s[3] for s in tracer.spans)


def test_summary_self_times_and_ratios():
    spans = [
        ["cli", -1, 0, 0.0, 10.0, None],
        ["groups.normal_subgroups", 0, 0, 1.0, 6.0, 4],
    ]
    leaves = {
        ("groups.subgroup_closure", 1): [2, 3.0],
        ("groups.subgroup_closure", 0): [1, 1.0],
    }
    m = tracing.summarize(spans, leaves, {"clones.compose": 0})
    assert m["cli.self_s"] == pytest.approx(4.0)
    assert m["groups.normal_subgroups.self_s"] == pytest.approx(2.0)
    assert m["groups.subgroup_closure.calls"] == 3
    assert m["groups.subgroup_closure.s"] == pytest.approx(4.0)
    assert m["groups.closures_per_subgroup"] == pytest.approx(0.5)
    assert m["layer.groups.self_s"] == pytest.approx(6.0)
    assert tracing.dominant_layer(m) == "groups"


def test_every_metric_in_benchmark_json_is_emitted():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert set(tracing.summarize([], {}, {"clones.compose": 0})) == set(tracing.PER_LAYER)
