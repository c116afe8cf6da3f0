"""The benchmark workloads: what each one builds in set-up and runs as a job.

Every job makes the public calls the matching CLI command makes
(`monofem solve` or `monofem upperbound`), so its wall time is what a user
of that command waits for, minus interpreter start-up.  Set-up is importing
`monofem` afresh and building the meshes; it is timed separately.

The seed only moves the centre of the initial Gaussian excitation along the
x = 1 edge, from (1, 0) to (1, y_c) with y_c in [0, 0.1).  It reaches the
program through the public `initial=` arguments; seed 0 passes nothing, so
the package default (the CLI's data) is used.
"""

import importlib
import os
import random
import sys
import time
from dataclasses import dataclass

import numpy as np

#: the modules a fresh set-up imports; also the modules the tracer patches
MODULES = ("mesh", "assembly", "ionic", "solver", "estimators", "verify",
           "cli")


@dataclass(frozen=True)
class Solve:
    """`monofem solve`: march, checkpoint, probe series CSV."""

    n: int
    tau: float
    t_end: float
    probe: tuple = (0.5, 0.5)
    kind: str = "solve"

    def sizes(self):
        return {"kind": self.kind, "n": self.n, "tau": self.tau,
                "t_end": self.t_end, "probe": list(self.probe)}


@dataclass(frozen=True)
class UpperBound:
    """`monofem upperbound`: coarse march, reference `levels` refinements up,
    per-step error against the cumulative indicator bound, CSV."""

    n: int
    tau: float
    t_end: float
    levels: int
    ref_tau: float
    ref_tol: float = 1e-15
    kind: str = "upperbound"

    def sizes(self):
        return {"kind": self.kind, "n": self.n, "tau": self.tau,
                "t_end": self.t_end, "reference_n": self.n * 2 ** self.levels,
                "reference_tau": self.ref_tau, "reference_tol": self.ref_tol}


# Why each workload exists is written down in NOTES.md; in short:
# desk-solve is assembly-heavy (small matrices), fine-solve is LU-heavy,
# upperbound-chain is the only one running frozen-LU GMRES, the estimators
# and the error pass.
WORKLOADS = {
    "desk-solve": Solve(n=32, tau=0.05, t_end=2.0),
    "fine-solve": Solve(n=128, tau=0.05, t_end=0.05),
    "upperbound-chain": UpperBound(n=16, tau=0.1, t_end=0.2, levels=2,
                                   ref_tau=0.025),
}

#: the same workloads at n=4 for the benchmark's own tests
TINY = {
    "desk-solve": Solve(n=4, tau=0.05, t_end=0.1),
    "fine-solve": Solve(n=4, tau=0.05, t_end=0.05),
    "upperbound-chain": UpperBound(n=4, tau=0.1, t_end=0.2, levels=2,
                                   ref_tau=0.025),
}


def excitation_center(seed):
    """y coordinate of the initial excitation's centre on the x = 1 edge."""
    return 0.0 if seed == 0 else random.Random(seed).uniform(0.0, 0.1)


def initial_data(seed):
    """The `initial=` pair for this seed; None (package default) for 0."""
    if seed == 0:
        return None
    yc = excitation_center(seed)

    def u0(x, y):
        return np.exp(-((np.asarray(x) - 1.0) ** 2
                        + (np.asarray(y) - yc) ** 2) / 0.25)

    def w0(x, y):
        return np.zeros_like(u0(x, y))

    return u0, w0


def import_monofem():
    """Import every monofem module afresh and return them by short name.

    Earlier monofem entries are dropped from sys.modules first, so the
    module code really runs again; the fresh modules stay registered.
    """
    for name in [k for k in sys.modules
                 if k == "monofem" or k.startswith("monofem.")]:
        del sys.modules[name]
    importlib.import_module("monofem")
    return {name: importlib.import_module(f"monofem.{name}")
            for name in MODULES}


@dataclass
class Context:
    """What set-up hands to the jobs: modules, meshes, parameters, inputs."""

    mods: dict
    meshes: list
    params: object
    initial: object
    out_dir: str


@dataclass
class JobResult:
    """One job's outputs, kept for the correctness gate."""

    wall_s: float
    dof_steps: int
    trajectories: list
    rows: list
    files: dict


def setup(wl, seed, out_dir, on_import=None):
    """Fresh import plus mesh construction; `on_import(mods)` runs between
    the two (the tracer uses it to patch the new modules)."""
    mods = import_monofem()
    if on_import is not None:
        on_import(mods)
    mesh = mods["mesh"]
    if wl.kind == "solve":
        meshes = [mesh.unit_square_mesh(wl.n)]
    else:
        meshes = mesh.mesh_chain(wl.n, wl.levels)
    return Context(mods=mods, meshes=meshes,
                   params=mods["ionic"].AlievPanfilovParams(),
                   initial=initial_data(seed), out_dir=out_dir)


def run_job(wl, ctx):
    """Run one job; returns its JobResult with the wall time filled in."""
    t0 = time.perf_counter()
    if wl.kind == "solve":
        result = _solve_job(wl, ctx)
    else:
        result = _upperbound_job(wl, ctx)
    result.wall_s = time.perf_counter() - t0
    return result


def _dof_steps(trajectories):
    return sum(2 * t.mesh.num_vertices * t.num_steps for t in trajectories)


def _solve_job(wl, ctx):
    m = ctx.mods
    mesh = ctx.meshes[0]
    traj = m["solver"].time_march(mesh, ctx.params, wl.tau, wl.t_end,
                                  cfg=m["solver"].NewtonConfig(),
                                  initial=ctx.initial)
    checkpoint = os.path.join(ctx.out_dir, "trajectory.npz")
    traj.save(checkpoint)
    px, py = wl.probe
    evaluate = m["assembly"].evaluate_p1
    rows = [(float(t), evaluate(mesh, traj.U[n], px, py),
             evaluate(mesh, traj.W[n], px, py))
            for n, t in enumerate(traj.times)]
    csv_path = os.path.join(ctx.out_dir, "probe.csv")
    m["cli"].write_csv(["t", "u_probe", "w_probe"], rows, csv_path)
    return JobResult(0.0, _dof_steps([traj]), [traj], rows,
                     {"checkpoint": checkpoint, "csv": csv_path})


def _upperbound_job(wl, ctx):
    m = ctx.mods
    coarse_mesh, ref_mesh = ctx.meshes[0], ctx.meshes[-1]
    traj = m["solver"].time_march(coarse_mesh, ctx.params, wl.tau, wl.t_end,
                                  cfg=m["solver"].NewtonConfig(),
                                  initial=ctx.initial)
    ref = m["verify"].build_reference(ref_mesh, wl.ref_tau, wl.t_end,
                                      ctx.params, tol=wl.ref_tol,
                                      initial=ctx.initial)
    found = m["verify"].upper_bound_study(traj, ref, ctx.params)
    rows = [(r.time, r.error, r.estimator, r.effectivity) for r in found]
    csv_path = os.path.join(ctx.out_dir, "upperbound.csv")
    m["cli"].write_csv(["t", "error", "estimator", "effectivity"], rows,
                       csv_path)
    return JobResult(0.0, _dof_steps([traj, ref]), [traj, ref], rows,
                     {"csv": csv_path})
