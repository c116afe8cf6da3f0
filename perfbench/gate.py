"""Correctness gate: every job's outputs are checked before it counts.

Checks on every job:
  * Newton converged at every step (last increment below the loosest
    acceptance test of `newton_solve`, 1e-8) and every state is finite;
  * the files the job wrote read back to what it computed (probe or
    upper-bound CSV, checkpoint);
  * upperbound only: eta^2 = sum(element) + sum(edge) + ode to rounding,
    the cumulative bound is nondecreasing and reproduces the CSV's
    estimator column, and the effectivity is at least 1 at every step;
  * seed 0 only: the probe series (solve) or the final error and final
    estimator (upperbound) match `seed0.json`, recorded at the seed commit,
    to RECORDED_RTOL.

RECORDED_RTOL is far looser than what separates two solvers that both meet
the 1e-10 relative-residual contract: Newton is driven to increments of
1e-14, so any such solver reaches the same discrete solution up to
rounding-level differences, while a wrong assembly or a wrong step moves
these values in the third digit or earlier.
"""

import json
import os

import numpy as np

RECORDED_RTOL = 1e-6
#: rounding-level tolerance of identities the code satisfies exactly
ROUNDING_RTOL = 1e-12
#: loosest increment `newton_solve` accepts (its stagnation test)
NEWTON_ACCEPT = 1e-8

SEED0_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "seed0.json")


def load_recorded(path=SEED0_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def recorded_values(wl, result):
    """The values `seed0.json` holds for one workload's seed-0 job."""
    if wl.kind == "solve":
        return {"probe": [list(row) for row in result.rows]}
    return {"final_error": result.rows[-1][1],
            "final_estimator": result.rows[-1][2]}


def _close(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), np.finfo(float).tiny)
    return (actual.shape == expected.shape
            and bool(np.all(np.abs(actual - expected)
                            <= RECORDED_RTOL * scale)))


def _check_newton(traj, label):
    failures = []
    if len(traj.newton) != traj.num_steps:
        failures.append(f"{label}: {len(traj.newton)} Newton records for "
                        f"{traj.num_steps} steps")
    for n, rec in enumerate(traj.newton, start=1):
        if not rec.increments or not rec.increments[-1] < NEWTON_ACCEPT:
            failures.append(f"{label}: Newton did not converge at step {n}")
    if not (np.all(np.isfinite(traj.U)) and np.all(np.isfinite(traj.W))):
        failures.append(f"{label}: non-finite state")
    return failures


def _check_csv(mods, path, rows):
    _, back = mods["cli"].read_csv(path)
    if [tuple(r) for r in back] != [tuple(float(v) for v in r)
                                     for r in rows]:
        return ["CSV does not read back to the computed rows"]
    return []


def _check_estimates(mods, traj, rows, params):
    est = mods["estimators"].estimate_trajectory(traj, params,
                                                 simplified=True)
    failures = []
    for rep in est.reports:
        parts = rep.element_terms.sum() + rep.edge_terms.sum() + rep.ode_term
        if not abs(rep.eta ** 2 - parts) <= ROUNDING_RTOL * max(rep.eta ** 2,
                                                                 1e-300):
            failures.append(f"eta^2 != sum of its terms at step {rep.step}")
    estimator = np.array([r[2] for r in rows])
    if np.any(np.diff(estimator) < 0):
        failures.append("cumulative bound decreases")
    if not np.allclose(est.cumulative, estimator, rtol=ROUNDING_RTOL,
                       atol=0.0):
        failures.append("cumulative bound does not reproduce the estimator "
                        "column")
    if not all(r[3] >= 1.0 for r in rows):
        failures.append("effectivity below 1")
    return failures


def check_job(wl, ctx, result, recorded=None):
    """List of failed checks of one job (empty when it passes).

    `recorded` holds this workload's seed-0 values, or None for any other
    seed.
    """
    mods = ctx.mods
    failures = []
    for label, traj in zip(("march", "reference"), result.trajectories):
        failures += _check_newton(traj, label)
    failures += _check_csv(mods, result.files["csv"], result.rows)
    if wl.kind == "solve":
        traj = result.trajectories[0]
        back = mods["solver"].TrajectorySolution.load(
            result.files["checkpoint"])
        if not (np.array_equal(back.U, traj.U)
                and np.array_equal(back.W, traj.W)
                and np.array_equal(back.times, traj.times)):
            failures.append("checkpoint does not load back to the trajectory")
        if recorded is not None and not _close(
                [r[1:] for r in result.rows],
                [r[1:] for r in recorded["probe"]]):
            failures.append("probe series differs from the seed-0 record")
    else:
        failures += _check_estimates(mods, result.trajectories[0],
                                     result.rows, ctx.params)
        if recorded is not None:
            if not _close(result.rows[-1][1], recorded["final_error"]):
                failures.append("final error differs from the seed-0 record")
            if not _close(result.rows[-1][2], recorded["final_estimator"]):
                failures.append("final estimator differs from the seed-0 "
                                "record")
    return failures
