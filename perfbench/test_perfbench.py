"""Tests of the benchmark itself, on the n=4 versions of its workloads."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gate, run, tracer, workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    """n=4 workloads, output under tmp_path, and the test session's own
    monofem modules back in sys.modules afterwards (set-up re-imports)."""
    saved = {k: v for k, v in sys.modules.items()
             if k == "monofem" or k.startswith("monofem.")}
    monkeypatch.setattr(workloads, "WORKLOADS", workloads.TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.01)
    yield
    for k in [k for k in sys.modules
              if k == "monofem" or k.startswith("monofem.")]:
        del sys.modules[k]
    sys.modules.update(saved)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    out = run.run_workload(name, seed=7, seconds=0.01, trace=trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] >= run.MIN_JOBS * (2 if trace else 1)
    if trace:
        metrics = {k: v["value"] for k, v in out["metrics"].items()}
        assert metrics["solver.newton_iterates"] \
            == metrics["assembly.jacobian_calls"]


def test_self_times_go_to_the_layer_of_the_span_or_its_ancestor():
    def span(name, start, end, parent):
        return [name, start, end, parent, None]

    spans = [span("time_march", 0.0, 10.0, -1),
             span("newton_solve", 1.0, 6.0, 0),
             span("linear_solve", 2.0, 4.0, 1),
             span("splu", 2.5, 3.5, 2),
             span("field_at", 4.5, 5.0, 1),
             span("field_at", 7.0, 8.0, 0)]
    assert tracer.self_times(spans) == [4.0, 2.5, 1.0, 1.0, 0.5, 1.0]
    # field_at under newton_solve is assembly; under the phase, no layer
    assert tracer.layer_self_times(spans) == {"assembly.jacobian": 3.0,
                                              "solver.linear": 2.0}


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) \
        == sorted(workloads.WORKLOADS)


def _job(name, seed=7, tmp=None):
    wl = workloads.TINY[name]
    ctx = workloads.setup(wl, seed, str(tmp))
    return wl, ctx, workloads.run_job(wl, ctx)


def _corrupt_probe_row(result):
    t, u, w = result.rows[1]
    result.rows[1] = (t, u + 1e-3, w)


def _corrupt_state(result):
    result.trajectories[0].U[1, 0] += 1.0


def _corrupt_newton(result):
    result.trajectories[-1].newton[0].increments[-1] = 1.0


def _corrupt_estimator(result):
    t, err, est, eff = result.rows[-1]
    result.rows[-1] = (t, err, 0.5 * est, eff)


def _corrupt_estimator_order(result):
    result.rows.reverse()


def _corrupt_effectivity(result):
    t, err, est, _ = result.rows[-1]
    result.rows[-1] = (t, err, est, 0.5)


@pytest.mark.parametrize("name, corrupt, found", [
    ("desk-solve", _corrupt_probe_row, "CSV does not read back"),
    ("desk-solve", _corrupt_state, "checkpoint does not load back"),
    ("desk-solve", _corrupt_newton, "did not converge"),
    ("upperbound-chain", _corrupt_newton, "did not converge"),
    ("upperbound-chain", _corrupt_estimator, "does not reproduce"),
    ("upperbound-chain", _corrupt_estimator_order,
     "cumulative bound decreases"),
    ("upperbound-chain", _corrupt_effectivity, "effectivity below 1"),
])
def test_gate_fails_on_corrupted_output(name, corrupt, found, tmp_path):
    wl, ctx, result = _job(name, tmp=tmp_path)
    assert gate.check_job(wl, ctx, result) == []
    corrupt(result)
    assert any(found in problem
               for problem in gate.check_job(wl, ctx, result))


@pytest.mark.parametrize("name", sorted(workloads.TINY))
def test_gate_compares_against_the_recorded_values(name, tmp_path):
    wl, ctx, result = _job(name, seed=0, tmp=tmp_path)
    recorded = json.loads(json.dumps(gate.recorded_values(wl, result)))
    assert gate.check_job(wl, ctx, result, recorded) == []
    if wl.kind == "solve":
        recorded["probe"][-1][1] *= 1.0 + 1e-4
    else:
        recorded["final_error"] *= 1.0 + 1e-4
    assert gate.check_job(wl, ctx, result, recorded) != []


def test_seed_moves_only_the_excitation_center():
    assert workloads.initial_data(0) is None
    assert workloads.excitation_center(3) == workloads.excitation_center(3)
    assert 0.0 < workloads.excitation_center(3) < 0.1
    u0, w0 = workloads.initial_data(3)
    yc = workloads.excitation_center(3)
    assert u0(1.0, yc) == 1.0 and w0(1.0, yc) == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-solve",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
