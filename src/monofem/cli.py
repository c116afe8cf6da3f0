"""Experiment driver: configuration parsing, the four commands, CSV output.

Configs are ini-style key=value text with bracketed section headers;
unknown sections or keys are rejected.  The commands mirror the standard
experiment set: `solve` (trajectory + probe series + optional VTK frames),
`upperbound` (error vs cumulative indicator per step), `convergence`
(h-tau halving ladder with fitted orders) and `newton-study` (per-iterate
linearization indicator vs linearization error).

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O
failure.
"""

import argparse
import configparser
import csv
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ionic
from .assembly import evaluate_p1
from .mesh import unit_square_mesh, write_vtk
from .solver import (NewtonConfig, SolverError, step_count, time_march,
                     trajectory_nbytes)
from .verify import (REFERENCE_TOL, build_reference, convergence_study,
                     newton_study, upper_bound_study)

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "write_csv",
    "read_csv",
    "run_command",
    "main",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_SOLVER",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

OUTPUT_ENV_VAR = "MONOFEM_OUT"


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class RunConfig:
    """Fully validated run settings with the desk-scale defaults."""

    mesh_n: int = 32
    tau: float = 0.05
    t_end: float = 2.0
    A: float = ionic.AlievPanfilovParams.A
    a: float = ionic.AlievPanfilovParams.a
    eps: float = ionic.AlievPanfilovParams.eps
    M: float = ionic.AlievPanfilovParams.M_scalar
    mode: str = NewtonConfig.mode
    tol: float = NewtonConfig.tol
    sigma: float = NewtonConfig.sigma
    max_iterations: int = NewtonConfig.max_iterations
    out_dir: str = ""
    vtk_every: int = 0
    checkpoint: str = "trajectory.npz"
    probe: tuple = (0.5, 0.5)
    ladder: tuple = ((8, 0.1), (16, 0.05), (32, 0.025))
    reference_n: int = 128
    reference_tau: float = 1.0 / 256.0
    reference_tol: float = REFERENCE_TOL
    newton_n: int = 64
    newton_tau: float = 1.0 / 128.0
    instants: tuple = (0.5, 1.5)

    def params(self):
        return ionic.AlievPanfilovParams(A=self.A, a=self.a, eps=self.eps,
                                         M_scalar=self.M)

    def newton_config(self):
        return NewtonConfig(mode=self.mode, tol=self.tol, sigma=self.sigma,
                            max_iterations=self.max_iterations)

    def resolved_out_dir(self):
        return (self.out_dir or os.environ.get(OUTPUT_ENV_VAR)
                or "monofem-out")


#: named parameter sets; a preset is applied before explicit keys
PRESETS = {
    "desk": {},
    "paper-fig2-coarse": {"mesh_n": 20, "tau": 0.1, "t_end": 16.0},
    "paper-fig2-fine": {"mesh_n": 80, "tau": 0.025, "t_end": 16.0},
    "paper-reference": {"mesh_n": 250, "tau": 0.002, "t_end": 16.0,
                        "tol": REFERENCE_TOL},
}


def _parse_pair_list(text, what):
    rungs = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"bad {what} entry {item!r}; expected n:tau")
        rungs.append((_as_int(parts[0], what), _as_float(parts[1], what)))
    if not rungs:
        raise ConfigError(f"{what} must not be empty")
    return tuple(rungs)


def _as_int(text, key):
    try:
        return int(str(text).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") \
            from None


def _as_float(text, key):
    try:
        value = float(str(text).strip())
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") \
            from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: value must be finite")
    return value


def _as_point(text, key):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'x,y'")
    return (_as_float(parts[0], key), _as_float(parts[1], key))


def _as_floats(text, key):
    return tuple(_as_float(v, key) for v in str(text).split(",") if v.strip())


def _as_str(text, key):
    return str(text).strip()


_SCHEMA = {
    ("run", "preset"): ("preset", _as_str),
    ("run", "mesh_n"): ("mesh_n", _as_int),
    ("run", "tau"): ("tau", _as_float),
    ("run", "t_end"): ("t_end", _as_float),
    ("params", "A"): ("A", _as_float),
    ("params", "a"): ("a", _as_float),
    ("params", "eps"): ("eps", _as_float),
    ("params", "M"): ("M", _as_float),
    ("newton", "mode"): ("mode", _as_str),
    ("newton", "tol"): ("tol", _as_float),
    ("newton", "sigma"): ("sigma", _as_float),
    ("newton", "max_iterations"): ("max_iterations", _as_int),
    ("output", "dir"): ("out_dir", _as_str),
    ("output", "vtk_every"): ("vtk_every", _as_int),
    ("output", "checkpoint"): ("checkpoint", _as_str),
    ("output", "probe"): ("probe", _as_point),
    ("study", "ladder"): ("ladder", _parse_pair_list),
    ("study", "reference_n"): ("reference_n", _as_int),
    ("study", "reference_tau"): ("reference_tau", _as_float),
    ("study", "reference_tol"): ("reference_tol", _as_float),
    ("study", "newton_n"): ("newton_n", _as_int),
    ("study", "newton_tau"): ("newton_tau", _as_float),
    ("study", "instants"): ("instants", _as_floats),
}


def _validate(cfg):
    def positive(name):
        if not getattr(cfg, name) > 0:
            raise ConfigError(f"{name} must be positive")

    for name in ("mesh_n", "tau", "t_end", "tol", "sigma", "max_iterations",
                 "reference_n", "reference_tau", "reference_tol", "newton_n",
                 "newton_tau"):
        positive(name)
    try:
        cfg.params()
    except ValueError as exc:
        raise ConfigError(f"[params] {exc}") from exc
    try:
        cfg.newton_config()
    except ValueError as exc:
        raise ConfigError(f"[newton] {exc}") from exc
    if cfg.vtk_every < 0:
        raise ConfigError("vtk_every must be >= 0")
    if not all(0.0 <= c <= 1.0 for c in cfg.probe):
        raise ConfigError(f"probe {cfg.probe} lies outside the unit square")
    name = cfg.checkpoint
    if (os.path.basename(name) != name or not name.endswith(".npz")
            or name == ".npz"):
        raise ConfigError(f"checkpoint {name!r} must be a file name ending "
                          "in .npz, with no directory part: it is written "
                          "into the output directory")
    ns = [n for n, _ in cfg.ladder]
    for i, (n, tau) in enumerate(cfg.ladder):
        if n < 1 or tau <= 0:
            raise ConfigError(f"ladder rung {i}: n and tau must be positive")
        if i and n != 2 * ns[i - 1]:
            raise ConfigError("ladder mesh sizes must double at each rung")
    if not cfg.instants:
        raise ConfigError("instants must not be empty")
    for t in cfg.instants:
        try:
            step_count(cfg.newton_tau, t)
        except SolverError as exc:
            raise ConfigError(f"instants: {t} is not a positive multiple of "
                              f"newton_tau={cfg.newton_tau}") from exc
    return cfg


def _apply_items(items):
    """RunConfig keyword arguments of the preset named in `items`,
    updated with every other item in order."""
    preset = None
    updates = {}
    for (section, key), raw in items:
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown key [{section}] {key}")
        name, conv = _SCHEMA[(section, key)]
        if name == "preset":
            preset = str(raw).strip()
            continue
        updates[name] = conv(raw, f"[{section}] {key}")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}; available: "
                              f"{sorted(PRESETS)}")
        return {**PRESETS[preset], **updates}
    return updates


def parse_config(text, overrides=()):
    """Build a RunConfig from ini-style text plus 'section.key=value'
    overrides.

    A missing or empty document yields the full desk-scale defaults.  A
    `preset` key in [run], in the text or in an override (the last one
    named wins), applies a named parameter set first; every explicit key
    of the text, then of the overrides, applies after it, in order.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError("key outside of a [section] header",
                          line=exc.lineno) from None
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ConfigError("malformed line", line=line) from None

    items = [((section.strip(), key.strip()), value)
             for section in parser.sections()
             for key, value in parser.items(section)]
    for text_kv in overrides:
        if "=" not in text_kv:
            raise ConfigError(f"override {text_kv!r} is not "
                              "section.key=value")
        lhs, value = text_kv.split("=", 1)
        if "." not in lhs:
            raise ConfigError(f"override {text_kv!r} is not "
                              "section.key=value")
        section, key = lhs.split(".", 1)
        items.append(((section.strip(), key.strip()), value))
    return _validate(RunConfig(**_apply_items(items)))


def write_csv(header, rows, path):
    """Write an RFC-4180-style CSV with round-trip float formatting.

    Floats are written with repr (shortest digits that parse back to the
    same double); non-finite values are a hard error.
    """

    def cell(v):
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} in CSV output")
            return repr(v)
        return str(v)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell(v) for v in row])


def read_csv(path):
    """Read back a CSV written by :func:`write_csv`; numeric cells become
    ints/floats."""

    def cell(text):
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [tuple(cell(c) for c in row) for row in reader]


#: bytes per mesh vertex that a command holds besides its trajectory
#: arrays: the peak RSS (ru_maxrss) of a one-step `monofem solve` grows by
#: 1,170 B per vertex from n = 128 to n = 250 and on to n = 400 (see
#: CHANGES.md), taken with a margin of about 1.5 for what one step does
#: not hold, the estimators and the error pass's LU of the H1 Gram matrix
_WORKING_SET_PER_VERTEX = 1800


def _physical_memory():
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_marches(cfg, marches, unstored=()):
    """Refuse a command whose time marches cannot run, before it writes
    anything.

    `marches` lists (key, n, tau, store_penultimate) for every march the
    command stores: on a mesh of n cells per side ((n + 1)^2 vertices),
    with step tau read from config key `key`, up to t_end.  `unstored`
    lists the n of every march that keeps no trajectory.  Raises
    ConfigError when a tau does not divide t_end, or when the trajectory
    arrays of all the marches together, plus a working set of
    `_WORKING_SET_PER_VERTEX` bytes per vertex of each of their meshes,
    counted as if all were held at once, exceed physical memory.
    """
    trajectories = 0
    ns = list(unstored)
    for key, n, tau, store_penultimate in marches:
        try:
            steps = step_count(tau, cfg.t_end)
        except SolverError as exc:
            raise ConfigError(f"{key}: {exc}") from None
        trajectories += trajectory_nbytes((n + 1) ** 2, steps,
                                          store_penultimate)
        ns.append(n)
    working = sum(_WORKING_SET_PER_VERTEX * (n + 1) ** 2 for n in ns)
    memory = _physical_memory()
    if trajectories + working > memory:
        raise ConfigError(f"this run needs "
                          f"{(trajectories + working) / 2 ** 30:.1f} GiB "
                          f"({trajectories / 2 ** 30:.1f} GiB of "
                          f"trajectories, {working / 2 ** 30:.1f} GiB of "
                          f"working set), more than the "
                          f"{memory / 2 ** 30:.1f} GiB of physical memory")


def _ensure_out_dir(cfg):
    out = cfg.resolved_out_dir()
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_solve(cfg):
    _check_marches(cfg, [("run.tau", cfg.mesh_n, cfg.tau, True)])
    out = _ensure_out_dir(cfg)
    mesh = unit_square_mesh(cfg.mesh_n)
    p = cfg.params()
    traj = time_march(mesh, p, cfg.tau, cfg.t_end, cfg=cfg.newton_config())
    traj.save(os.path.join(out, cfg.checkpoint))

    px, py = cfg.probe
    rows = [(float(t), evaluate_p1(mesh, traj.U[n], px, py),
             evaluate_p1(mesh, traj.W[n], px, py))
            for n, t in enumerate(traj.times)]
    write_csv(["t", "u_probe", "w_probe"], rows,
              os.path.join(out, "probe.csv"))

    if cfg.vtk_every > 0:
        for n in range(0, traj.num_steps + 1, cfg.vtk_every):
            write_vtk(mesh, os.path.join(out, f"state_{n:06d}.vtk"),
                      {"u": traj.U[n], "w": traj.W[n]},
                      title=f"t={traj.times[n]:.6g}")

    counts = traj.newton_counts()
    krylov = sum(rec.krylov_vectors for rec in traj.newton)
    print(f"solve: n={cfg.mesh_n} (h_cell={1.0 / cfg.mesh_n:.6g}, "
          f"h_max={mesh.max_diameter:.6g}), tau={cfg.tau:.6g}, "
          f"{traj.num_steps} steps, Newton iterations "
          f"min/mean/max = {counts.min()}/{counts.mean():.2f}/"
          f"{counts.max()}, total {counts.sum()}, Krylov vectors {krylov}")
    print(f"solve: wrote {cfg.checkpoint} and probe.csv to {out}")
    return EXIT_OK


def _reference_levels(cfg, n):
    """Refinements from the coarse mesh size `n` up to reference_n;
    ConfigError unless reference_n is n times a power of two, 2 or more."""
    ratio = cfg.reference_n / n
    levels = int(round(math.log2(ratio))) if ratio > 0 else -1
    if levels < 1 or n * 2 ** levels != cfg.reference_n:
        raise ConfigError(
            f"reference_n={cfg.reference_n} must be n={n} times a power "
            "of two")
    return levels


def _cmd_upperbound(cfg):
    _reference_levels(cfg, cfg.mesh_n)
    _check_marches(cfg, [
        ("run.tau", cfg.mesh_n, cfg.tau, True),
        ("study.reference_tau", cfg.reference_n, cfg.reference_tau, False)])
    out = _ensure_out_dir(cfg)
    p = cfg.params()
    mesh = unit_square_mesh(cfg.mesh_n)
    traj = time_march(mesh, p, cfg.tau, cfg.t_end, cfg=cfg.newton_config())
    ref = build_reference(unit_square_mesh(cfg.reference_n),
                          cfg.reference_tau, cfg.t_end, p,
                          tol=cfg.reference_tol)
    rows = upper_bound_study(traj, ref, p)
    write_csv(["t", "error", "estimator", "effectivity"],
              [(r.time, r.error, r.estimator, r.effectivity) for r in rows],
              os.path.join(out, "upperbound.csv"))
    last = rows[-1]
    print(f"upperbound: n={cfg.mesh_n}, tau={cfg.tau:.6g} vs reference "
          f"n={cfg.reference_n}, tau={cfg.reference_tau:.6g}")
    print(f"upperbound: final error {last.error:.6e}, estimator "
          f"{last.estimator:.6e}, effectivity {last.effectivity:.3f}")
    return EXIT_OK


def _cmd_convergence(cfg):
    if len(cfg.ladder) < 2:
        raise ConfigError("study.ladder needs at least two rungs to fit "
                          "convergence orders")
    levels = _reference_levels(cfg, cfg.ladder[-1][0])
    _check_marches(cfg, [("study.ladder", n, tau, True)
                         for n, tau in cfg.ladder]
                   + [("study.reference_tau", cfg.reference_n,
                       cfg.reference_tau, False)])
    out = _ensure_out_dir(cfg)
    result = convergence_study(list(cfg.ladder), cfg.t_end, cfg.params(),
                               ref_levels=levels, ref_tau=cfg.reference_tau,
                               ref_tol=cfg.reference_tol,
                               newton_cfg=cfg.newton_config())
    write_csv(["n", "h", "h_max", "tau", "error", "estimator",
               "effectivity"],
              [(r.n, r.h, r.h_max, r.tau, r.error, r.estimator,
                r.effectivity) for r in result.rows],
              os.path.join(out, "convergence.csv"))
    write_csv(["error_order", "estimator_order"],
              [(result.error_order, result.estimator_order)],
              os.path.join(out, "orders.csv"))
    print(f"convergence: fitted error order {result.error_order:.3f}, "
          f"estimator order {result.estimator_order:.3f}")
    return EXIT_OK


def _cmd_newton_study(cfg):
    # the study marches to its last instant and stores nothing that the
    # memory check could count, so run.t_end bounds the march instead
    late = [t for t in cfg.instants
            if t > cfg.t_end + 1e-9 * max(1.0, cfg.t_end)]
    if late:
        raise ConfigError(f"instants {late} lie after run.t_end="
                          f"{cfg.t_end}, past which newton-study does not "
                          "march")
    _check_marches(cfg, [], unstored=[cfg.newton_n])
    out = _ensure_out_dir(cfg)
    p = cfg.params()
    mesh = unit_square_mesh(cfg.newton_n)
    tables = newton_study(mesh, cfg.newton_tau, cfg.instants, p,
                          tol=cfg.reference_tol)
    rows = [(r.time, r.k, r.gamma, r.error_combined, r.error_u_h1,
             r.error_w_l2)
            for t in sorted(tables) for r in tables[t]]
    write_csv(["t", "k", "gamma", "error_combined", "error_u_h1",
               "error_w_l2"],
              rows, os.path.join(out, "newton_study.csv"))
    for t in sorted(tables):
        ks = tables[t]
        print(f"newton-study: t={t:g}, {len(ks)} iterations recorded, "
              f"final gamma {ks[-1].gamma:.3e}")
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "upperbound": _cmd_upperbound,
    "convergence": _cmd_convergence,
    "newton-study": _cmd_newton_study,
}


def run_command(command, cfg):
    """Run one experiment command; returns a process exit code."""
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    return _COMMANDS[command](cfg)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="monofem",
        description="Monodomain Newton-Galerkin experiments with "
                    "a posteriori error indicators")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", metavar="PATH",
                        help="ini-style configuration file")
    parser.add_argument("--set", metavar="SECTION.KEY=VALUE",
                        action="append", default=[], dest="overrides",
                        help="override a single configuration key "
                             "(repeatable)")
    args = parser.parse_args(argv)

    try:
        text = ""
        if args.config is not None:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        cfg = parse_config(text, overrides=args.overrides)
        return run_command(args.command, cfg)
    except ConfigError as exc:
        print(f"monofem: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"monofem: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"monofem: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
