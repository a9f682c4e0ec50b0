"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q

They run every workload at minimal length (one op, or one untraced and one
traced op), feed the checkers deliberately wrong expectations, and check
that a traced op's self times add up to its wall time.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from bks5 import bases, catalog, cli, rays, search  # noqa: E402


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_runs_at_minimal_length(workload, trace):
    result = run.run_workload(workload, seed=1, seconds=0, trace=trace,
                              setup_reps=1)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == 1 + trace
    names = tracing.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == [name for name, _, _ in names]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_scaled_times_cancel_host_speed():
    ref = calibrate.REFERENCE_REP_S
    assert calibrate.scaled([1.0, 2.0], [ref] * 3) == [1.0, 2.0]
    # A host twice as slow doubles both the op and the reference work.
    assert calibrate.scaled([2.0, 4.0], [2 * ref] * 3) == [1.0, 2.0]
    # Each op is scaled by the mean of the samples on either side of it.
    assert calibrate.scaled([3.0], [ref, 2 * ref]) == [2.0]
    with pytest.raises(ValueError):
        calibrate.scaled([1.0, 2.0], [ref, ref])


def test_sampler_times_the_reference_work_while_an_op_runs():
    with calibrate.Sampler() as sampler:
        time.sleep(0.3)
    assert len(sampler.samples) >= 2
    assert sampler.rep() == pytest.approx(
        sum(sampler.samples) / len(sampler.samples))
    assert 0 < sampler.rep() < 0.1


def _small_sweep_state():
    """search_sweep's state over the 21 proof bases: a cheap set-up."""
    graph = bases.build_ortho_graph(rays.build_ray_table())
    proof = [catalog.PROOF_BASES[k] for k in sorted(catalog.PROOF_BASES)]
    return workloads.SweepState(graph, proof, search.find_partitions(proof))


@pytest.mark.parametrize("key, wrong", [("bases_sha256", "0" * 64),
                                        ("partition_count", 10329)])
def test_wrong_sweep_expectation_counts_as_failure(key, wrong):
    state = _small_sweep_state()
    facts = workloads.sweep_facts(state)
    expect = dict(workloads.expectations(), **facts)
    good = workloads.run_ops("search_sweep", state, facts, 3, 0, False,
                             expect=expect)
    assert [op["problems"] for op in good["ops"]] == [[]]
    expect[key] = wrong
    bad = workloads.run_ops("search_sweep", state, facts, 3, 0, False,
                            expect=expect)
    assert len(bad["ops"]) == 1
    assert any(p.startswith(key) for p in bad["ops"][0]["problems"])


def test_wrong_certify_expectation_counts_as_failure():
    expect = dict(workloads.expectations(), aut_order=193)
    result = workloads.run_ops("certify_proof", None, {}, 4, 0, False,
                               expect=expect)
    [problems] = [op["problems"] for op in result["ops"]]
    assert problems and problems[0].startswith("automorphism group")


def test_wrong_verify_expectation_counts_as_failure():
    checks = run.VERIFY_CHECKS[:-1] + ("search_regresion",)
    result = run.run_workload("verify_cold", seed=0, seconds=0, trace=0,
                              setup_reps=1, verify_checks=checks)
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 1, 1)
    assert result["problems"] == ["search_regresion: missing",
                                  "unexpected checks search_regression"]


def test_verify_output_check_rejects_fail_lines_and_exit_codes():
    lines = ["%-22s PASS" % name for name in run.VERIFY_CHECKS]
    assert run.check_verify_output(0, lines) == []
    lines[3] = "coloring_proof_bases   FAIL"
    assert run.check_verify_output(1, lines) == \
        ["exit code 1", "coloring_proof_bases: FAIL"]


def test_traced_op_self_times_sum_to_its_wall_time():
    original = cli.check_colorable
    tracer = tracing.Tracer()
    result = workloads.run_ops("certify_proof", None, {}, 5, 0, True,
                               tracer=tracer)
    assert cli.check_colorable is original  # wrappers are removed again
    plain, traced = result["ops"]
    assert not plain["traced"] and traced["traced"]
    assert plain["problems"] == traced["problems"] == []
    overhead = traced["wall"] / plain["wall"]
    own = tracing.self_times(tracer.spans)
    assert min(own) >= 0
    summed = sum(s for span, s in zip(tracer.spans, own) if span[4] == 1)
    assert abs(traced["wall"] - summed) <= \
        traced["wall"] * max(overhead - 1, 0) + 1e-3
    names = {span[0] for span in tracer.spans}
    assert {"rays.build_ray_table", "coloring.KSInstance.build",
            "dpll.solve", "symmetry.automorphism_group"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "certify_proof", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
