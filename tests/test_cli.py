import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from monofem import cli
from monofem.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SOLVER,
                         ConfigError, RunConfig, main, parse_config,
                         read_csv, run_command, write_csv)
from monofem.ionic import AlievPanfilovParams
from monofem.mesh import unit_square_mesh
from monofem.solver import NewtonConfig, time_march
from monofem.verify import REFERENCE_TOL


def test_empty_config_gives_desk_defaults():
    cfg = parse_config("")
    assert cfg.mesh_n == 32
    assert cfg.tau == 0.05
    assert cfg.t_end == 2.0
    assert cfg.A == 8.0 and cfg.a == 0.15 and cfg.eps == 0.2 and cfg.M == 1.0
    assert cfg.tol == 1e-14
    assert cfg.sigma == 0.1
    assert cfg.probe == (0.5, 0.5)


def test_run_config_defaults_are_the_model_and_newton_defaults():
    assert RunConfig().params() == AlievPanfilovParams()
    assert RunConfig().newton_config() == NewtonConfig()
    assert RunConfig().reference_tol == REFERENCE_TOL


def test_paper_preset():
    cfg = parse_config("[run]\npreset = paper-fig2-fine\n")
    assert (cfg.mesh_n, cfg.tau, cfg.t_end) == (80, 0.025, 16.0)


def test_explicit_keys_override_preset():
    cfg = parse_config("[run]\npreset = paper-fig2-fine\ntau = 0.05\n")
    assert cfg.mesh_n == 80
    assert cfg.tau == 0.05


@pytest.mark.parametrize("text, overrides", [
    ("", ["run.mesh_n=10", "run.preset=paper-fig2-fine"]),
    ("", ["run.preset=paper-fig2-fine", "run.mesh_n=10"]),
    ("[run]\nmesh_n = 10\n", ["run.preset=paper-fig2-fine"]),
    ("[run]\npreset = paper-fig2-fine\n", ["run.mesh_n=10"]),
])
def test_preset_applies_before_every_explicit_key(text, overrides):
    cfg = parse_config(text, overrides)
    assert (cfg.mesh_n, cfg.tau, cfg.t_end) == (10, 0.025, 16.0)


def test_overrides_win_over_file():
    cfg = parse_config("[run]\nmesh_n = 16\n",
                       overrides=["run.mesh_n=64", "newton.tol=1e-12"])
    assert cfg.mesh_n == 64
    assert cfg.tol == 1e-12


def test_rejects_out_of_range_threshold():
    with pytest.raises(ConfigError, match="a must lie"):
        parse_config("[params]\na = 1.5\n")


def test_rejects_unknown_keys_and_sections():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[run]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown preset"):
        parse_config("[run]\npreset = nope\n")


def test_parse_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("key before any section\n")


def test_validation_names_the_key():
    with pytest.raises(ConfigError, match="tau"):
        parse_config("[run]\ntau = -0.5\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("[newton]\nmode = magic\n")
    with pytest.raises(ConfigError, match="ladder"):
        parse_config("[study]\nladder = 8:0.1,12:0.05\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config("[run]\ntau = fast\n")


def test_bad_override_syntax():
    with pytest.raises(ConfigError):
        parse_config("", overrides=["mesh_n=8"])
    with pytest.raises(ConfigError):
        parse_config("", overrides=["run.mesh_n"])


@settings(deadline=None, max_examples=50,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False))))
@example(rows=list(enumerate(
    [float(v) for v in np.random.default_rng(0).standard_normal(20)]
    + [1e-308, 1.7976931348623157e308, 0.1, 2.0 / 3.0, -0.0])))
def test_csv_roundtrip_bit_exact(tmp_path, rows):
    path = tmp_path / "t.csv"
    write_csv(["i", "x"], rows, path)
    header, back = read_csv(path)
    assert header == ["i", "x"]
    assert len(back) == len(rows)
    for (i, v), (j, w) in zip(rows, back):
        assert i == j
        assert v == w and np.signbit(v) == np.signbit(w)


def test_csv_empty_table_writes_header_only(tmp_path):
    path = tmp_path / "e.csv"
    write_csv(["a", "b"], [], path)
    assert path.read_text().strip() == "a,b"


def test_csv_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_csv(["x"], [(float("nan"),)], tmp_path / "bad.csv")
    with pytest.raises(ValueError):
        write_csv(["x"], [(float("inf"),)], tmp_path / "bad.csv")


@pytest.fixture
def out_env(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("MONOFEM_OUT", str(out))
    return out


def _mini(*extra):
    base = ["--set", "run.mesh_n=8", "--set", "run.tau=0.125",
            "--set", "run.t_end=0.25"]
    return base + list(extra)


def test_solve_command_artifacts(out_env):
    rc = main(["solve"] + _mini("--set", "output.vtk_every=1"))
    assert rc == EXIT_OK
    files = sorted(os.listdir(out_env))
    assert "trajectory.npz" in files
    assert "probe.csv" in files
    assert "state_000000.vtk" in files and "state_000002.vtk" in files
    header, rows = read_csv(out_env / "probe.csv")
    assert header == ["t", "u_probe", "w_probe"]
    assert len(rows) == 3
    assert rows[0][0] == 0.0 and rows[-1][0] == 0.25


def test_solve_reports_the_march_totals(out_env, capsys):
    assert main(["solve"] + _mini()) == EXIT_OK
    traj = time_march(unit_square_mesh(8), AlievPanfilovParams(), 0.125,
                      0.25)
    krylov = sum(rec.krylov_vectors for rec in traj.newton)
    assert krylov > 0
    assert (f"total {traj.newton_counts().sum()}, Krylov vectors {krylov}"
            in capsys.readouterr().out)


def test_solve_default_step_count(out_env):
    # t_end/tau + 1 checkpoint states on the default schedule
    rc = main(["solve", "--set", "run.mesh_n=8"])
    assert rc == EXIT_OK
    from monofem.solver import TrajectorySolution
    traj = TrajectorySolution.load(out_env / "trajectory.npz")
    assert traj.U.shape[0] == 41


def test_solve_is_reproducible(tmp_path, monkeypatch):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        monkeypatch.setenv("MONOFEM_OUT", str(out))
        assert main(["solve"] + _mini()) == EXIT_OK
        outs.append((out / "probe.csv").read_bytes())
    assert outs[0] == outs[1]


def test_upperbound_command(out_env):
    rc = main(["upperbound"] + _mini("--set", "study.reference_n=32",
                                     "--set", "study.reference_tau=0.015625",
                                     "--set", "study.reference_tol=1e-13"))
    assert rc == EXIT_OK
    header, rows = read_csv(out_env / "upperbound.csv")
    assert header == ["t", "error", "estimator", "effectivity"]
    assert len(rows) == 2
    est = [r[2] for r in rows]
    assert est[1] >= est[0] >= 0.0
    for t, err, bound, eff in rows:
        assert bound >= err


def test_upperbound_rejects_non_power_reference(out_env):
    rc = main(["upperbound"] + _mini("--set", "study.reference_n=24"))
    assert rc == EXIT_CONFIG


def test_convergence_command(out_env):
    rc = main(["convergence",
               "--set", "run.t_end=0.25",
               "--set", "study.ladder=4:0.125,8:0.0625",
               "--set", "study.reference_n=16",
               "--set", "study.reference_tau=0.015625",
               "--set", "study.reference_tol=1e-13"])
    assert rc == EXIT_OK
    header, rows = read_csv(out_env / "convergence.csv")
    assert header == ["n", "h", "h_max", "tau", "error", "estimator",
                      "effectivity"]
    assert [r[0] for r in rows] == [4, 8]
    assert rows[0][2] == pytest.approx(np.sqrt(2) / 4)   # true max diameter
    _, orders = read_csv(out_env / "orders.csv")
    assert np.isfinite(orders[0][0]) and np.isfinite(orders[0][1])


def test_newton_study_command(out_env):
    # an instant at run.t_end itself is the last one newton-study accepts
    rc = main(["newton-study",
               "--set", "study.newton_n=8",
               "--set", "study.newton_tau=0.125",
               "--set", "study.instants=0.25",
               "--set", "run.t_end=0.25",
               "--set", "study.reference_tol=1e-15"])
    assert rc == EXIT_OK
    header, rows = read_csv(out_env / "newton_study.csv")
    assert header == ["t", "k", "gamma", "error_combined", "error_u_h1",
                      "error_w_l2"]
    assert all(r[0] == 0.25 for r in rows)
    ks = [r[1] for r in rows]
    assert ks == list(range(1, len(ks) + 1))


@pytest.mark.parametrize("instants", ["0.3", "0"])
def test_newton_study_rejects_instants_off_the_grid(out_env, instants):
    rc = main(["newton-study",
               "--set", "study.newton_n=4",
               "--set", "study.newton_tau=0.25",
               "--set", f"study.instants={instants}"])
    assert rc == EXIT_CONFIG
    assert not (out_env / "newton_study.csv").exists()


@pytest.mark.parametrize("instants", ["1e11", "2.0078125", "0.5,1e11"])
def test_newton_study_refuses_instants_after_t_end(out_env, no_marching,
                                                   capsys, instants):
    # newton-study marches to its last instant and stores no trajectory
    # that the memory check could count: 1e11 at the default
    # newton_tau = 1/128 would be 1.28e13 steps; run.t_end = 2 bounds it
    assert main(["newton-study", "--set",
                 f"study.instants={instants}"]) == EXIT_CONFIG
    assert "after run.t_end=2.0" in capsys.readouterr().err
    assert not out_env.exists()


@pytest.mark.parametrize("probe", ["2,2", "-0.1,0.5", "0.5,1.5"])
def test_solve_rejects_probe_outside_the_domain(out_env, probe):
    rc = main(["solve"] + _mini("--set", f"output.probe={probe}"))
    assert rc == EXIT_CONFIG
    assert not out_env.exists()


def test_probe_on_the_boundary_is_accepted(out_env):
    assert main(["solve"] + _mini("--set", "output.probe=1,0")) == EXIT_OK
    _, rows = read_csv(out_env / "probe.csv")
    assert rows[0][1] > 0.9       # the initial excitation peaks at (1, 0)


@pytest.fixture
def no_marching(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("marched before the configuration was refused")

    for name in ("time_march", "build_reference", "convergence_study",
                 "newton_study"):
        monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize("command, overrides", [
    ("solve", ["run.mesh_n=4", "run.tau=0.3", "run.t_end=1"]),
    ("upperbound", ["run.mesh_n=4", "run.tau=0.25", "run.t_end=1",
                    "study.reference_n=8", "study.reference_tau=0.3"]),
    ("convergence", ["run.t_end=1", "study.ladder=4:0.25,8:0.3",
                     "study.reference_n=16", "study.reference_tau=0.125"]),
    # t_end / tau overflows to inf, which has no integer step count
    ("solve", ["run.mesh_n=4", "run.tau=1e-320", "run.t_end=1"]),
    ("solve", ["run.mesh_n=4", "run.tau=0.05", "run.t_end=1e308"]),
], ids=["solve", "upperbound-reference", "convergence-ladder",
        "solve-subnormal-tau", "solve-huge-t_end"])
def test_tau_not_dividing_t_end_is_a_config_error(out_env, no_marching,
                                                  capsys, command,
                                                  overrides):
    argv = [command]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == EXIT_CONFIG
    assert "does not divide" in capsys.readouterr().err
    assert not out_env.exists()


def test_convergence_needs_two_rungs(out_env, no_marching, capsys):
    # one rung fits no order; the ladder is refused before anything runs
    assert main(["convergence", "--set", "study.ladder=4:0.1",
                 "--set", "study.reference_n=16",
                 "--set", "study.reference_tau=0.025",
                 "--set", "run.t_end=0.1"]) == EXIT_CONFIG
    assert "at least two rungs" in capsys.readouterr().err
    assert not out_env.exists()


def test_single_rung_ladder_is_accepted_by_solve(out_env):
    assert main(["solve"] + _mini("--set", "study.ladder=4:0.1")) == EXIT_OK


def test_solve_checks_only_its_own_tau(out_env):
    # the default reference_tau = 1/256 does not divide 0.3; solve does
    # not march a reference, so it runs
    assert main(["solve", "--set", "run.mesh_n=4", "--set", "run.tau=0.1",
                 "--set", "run.t_end=0.3"]) == EXIT_OK


@pytest.mark.parametrize("command, overrides, memory", [
    ("solve", _mini(), 4096),
    ("upperbound", _mini("--set", "study.reference_n=16"), 4096),
    ("convergence", ["--set", "study.ladder=4:0.125,8:0.0625",
                     "--set", "study.reference_n=16"], 4096),
    # n=250, tau=0.002, t_end=16: (4 * 8000 + 2) * 251^2 * 8 B, 15 GiB
    ("solve", ["--set", "run.preset=paper-reference"], 8 * 2 ** 30),
], ids=["solve", "upperbound", "convergence", "paper-reference"])
def test_runs_larger_than_memory_are_refused(out_env, no_marching,
                                             monkeypatch, capsys, command,
                                             overrides, memory):
    monkeypatch.setattr(cli, "_physical_memory", lambda: memory)
    assert main([command] + overrides) == EXIT_CONFIG
    assert "physical memory" in capsys.readouterr().err
    assert not out_env.exists()


def test_trajectory_bytes_fit_just_inside_memory(out_env, monkeypatch):
    # n=8, tau=0.125, t_end=0.25: 2 steps, (4 * 2 + 2) states of 81
    # values, plus the working set of the 81 vertices
    need = 10 * 81 * 8 + cli._WORKING_SET_PER_VERTEX * 81
    monkeypatch.setattr(cli, "_physical_memory", lambda: need)
    assert main(["solve"] + _mini()) == EXIT_OK
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert main(["solve"] + _mini()) == EXIT_CONFIG


@pytest.mark.parametrize("command, overrides, vertices", [
    ("solve", _mini(), 81),
    # the run on 9^2 vertices and the reference on 17^2 both count
    ("upperbound", _mini("--set", "study.reference_n=16"), 81 + 289),
    # the study's march keeps no trajectory; its 5^2 vertices count
    ("newton-study", ["--set", "study.newton_n=4"], 25),
], ids=["solve", "upperbound", "newton-study"])
def test_working_set_is_counted_against_memory(out_env, no_marching,
                                               monkeypatch, capsys, command,
                                               overrides, vertices):
    # trajectories that fit many times over are refused when the working
    # set of every mesh of the command does not fit beside them; a byte
    # short of the working set alone refuses the march that stores none
    working = cli._WORKING_SET_PER_VERTEX * vertices
    assert working > 10 * 1024
    monkeypatch.setattr(cli, "_physical_memory", lambda: working - 1)
    assert main([command] + overrides) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "working set" in err and "physical memory" in err
    assert not out_env.exists()


@pytest.mark.parametrize("name", ["", "nodir/x.npz", "/abs/x.npz", "x",
                                  ".npz"],
                         ids=["empty", "subdir", "absolute", "no_suffix",
                              "suffix_only"])
def test_checkpoint_name_is_checked_before_marching(out_env, no_marching,
                                                    capsys, name):
    # an empty name wrote a hidden ".npz", a missing directory failed
    # only after the whole march; both are configuration errors now
    argv = ["solve"] + _mini("--set", f"output.checkpoint={name}")
    assert main(argv) == EXIT_CONFIG
    assert "checkpoint" in capsys.readouterr().err
    assert not out_env.exists()


def test_checkpoint_is_written_under_its_name(out_env):
    assert main(["solve"] + _mini("--set",
                                  "output.checkpoint=run.npz")) == EXIT_OK
    assert (out_env / "run.npz").is_file()
    assert not (out_env / "trajectory.npz").exists()


def test_missing_config_file_is_io_error(tmp_path):
    rc = main(["solve", "--config", str(tmp_path / "absent.ini")])
    assert rc == EXIT_IO


def test_config_file_is_read(tmp_path, out_env):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nmesh_n = 8\ntau = 0.125\nt_end = 0.125\n")
    assert main(["solve", "--config", str(ini)]) == EXIT_OK


#: the keys that `_validate` requires to be positive, by field name
_POSITIVE = ["mesh_n", "tau", "t_end", "tol", "sigma", "max_iterations",
             "reference_n", "reference_tau", "reference_tol", "newton_n",
             "newton_tau"]


@pytest.mark.parametrize("name", _POSITIVE)
def test_every_positive_key_is_refused_at_zero(name):
    # refused by its own name, whether or not the command runs it; the
    # Newton configuration and the step counts check some of them again,
    # but the first message names the key
    (section, key), = [k for k, (field, _) in cli._SCHEMA.items()
                       if field == name]
    with pytest.raises(ConfigError, match=f"^{name} must be positive$"):
        parse_config("", [f"{section}.{key}=0"])


@pytest.mark.parametrize("ladder", ["0:0.1", "4:0", "4:0.1,0:0.05"])
def test_a_ladder_rung_needs_a_positive_size_and_step(ladder):
    # "0:0.1" doubles nothing and would divide by zero in the reference
    # levels; the rung check names it first
    with pytest.raises(ConfigError,
                       match=r"^ladder rung \d: n and tau must be positive$"):
        parse_config("", [f"study.ladder={ladder}"])


def test_bad_config_exit_code(out_env):
    assert main(["solve", "--set", "params.a=2.0"]) == EXIT_CONFIG


def test_run_command_rejects_unknown():
    with pytest.raises(ConfigError):
        run_command("frobnicate", parse_config(""))


def test_overflowing_newton_system_fails_at_its_step(out_env, capsys):
    # with A = 1e300 the norm of the first right-hand side overflows;
    # every x would meet a residual contract relative to an infinite |b|,
    # so the march must fail there instead of reporting converged steps
    rc = main(["solve", "--set", "params.A=1e300", "--set", "run.mesh_n=4",
               "--set", "run.tau=0.1", "--set", "run.t_end=0.3"])
    assert rc == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure: step 1 (t=0.1)" in err
    assert "not finite" in err


#: a small run of every command (n <= 8, t_end <= 0.2) that each drawn
#: item of the property test below is applied on top of
_SMALL_RUN = ["run.mesh_n=4", "run.tau=0.05", "run.t_end=0.1",
              "study.ladder=2:0.05,4:0.025", "study.reference_n=8",
              "study.reference_tau=0.025", "study.newton_n=4",
              "study.newton_tau=0.05", "study.instants=0.05"]

#: valid values of every configuration key that keep the run small
_VALID = {
    ("run", "preset"): ["desk", "paper-fig2-coarse", "paper-fig2-fine",
                        "paper-reference"],
    ("run", "mesh_n"): ["1", "2", "4", "8"],
    ("run", "tau"): ["0.025", "0.05", "0.1"],
    ("run", "t_end"): ["0.05", "0.1", "0.2"],
    ("params", "A"): ["0.5", "8", "20"],
    ("params", "a"): ["0.01", "0.15", "0.99"],
    ("params", "eps"): ["0.01", "0.2", "1"],
    ("params", "M"): ["0.1", "1", "5"],
    ("newton", "mode"): ["increment_tolerance", "estimator_balance"],
    ("newton", "tol"): ["1e-14", "1e-8"],
    ("newton", "sigma"): ["0.01", "0.1", "1"],
    ("newton", "max_iterations"): ["1", "3", "30"],
    ("output", "dir"): ["sub", "a/b"],
    ("output", "vtk_every"): ["0", "1", "3"],
    ("output", "checkpoint"): ["run.npz"],
    ("output", "probe"): ["0,0", "1,1", "0.3,0.7"],
    ("study", "ladder"): ["2:0.05,4:0.025", "1:0.1,2:0.05,4:0.025"],
    ("study", "reference_n"): ["8"],
    ("study", "reference_tau"): ["0.025", "0.05"],
    ("study", "reference_tol"): ["1e-12", "1e-14"],
    ("study", "newton_n"): ["1", "4", "8"],
    ("study", "newton_tau"): ["0.025", "0.05"],
    ("study", "instants"): ["0.05", "0.05,0.1"],
}

#: boundary, malformed, NaN, huge and empty values, drawn for every key;
#: the huge integer only for integer keys, where it names a mesh or a
#: count, and the huge instant only for the instants, which newton-study
#: refuses after run.t_end
_INVALID = ["", " ", "0", "-1", "1", "nan", "inf", "-inf", "1e308",
            "1e-320", "abc", "1:0.1:2", "0.1,", ",", "x:y"]
_HUGE_INT = "99999999999"
_HUGE_INSTANT = "1e11"


@st.composite
def _items(draw):
    key = draw(st.sampled_from(sorted(cli._SCHEMA)))
    bad = _INVALID + ([_HUGE_INT] if cli._SCHEMA[key][1] is cli._as_int
                      else [_HUGE_INSTANT] if key == ("study", "instants")
                      else [])
    value = draw(st.sampled_from(_VALID[key]) | st.sampled_from(bad))
    return f"{key[0]}.{key[1]}={value}"


def test_property_values_cover_the_schema():
    assert set(_VALID) == set(cli._SCHEMA)


@settings(deadline=None, max_examples=60, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(cli._COMMANDS)),
       items=st.lists(_items(), max_size=3))
def test_any_configuration_runs_or_fails_with_its_exit_code(
        tmp_path_factory, monkeypatch, capsys, command, items):
    # every key and value either runs or fails with a documented exit
    # code and message and no traceback; a refused configuration marches
    # nothing and writes nothing
    marches = []

    def counted(name):
        real = getattr(cli, name)

        def march(*args, **kwargs):
            marches.append(name)
            return real(*args, **kwargs)

        return march

    for name in ("time_march", "build_reference", "convergence_study",
                 "newton_study"):
        monkeypatch.setattr(cli, name, counted(name))
    root = tmp_path_factory.mktemp("run")
    monkeypatch.chdir(root)
    monkeypatch.setenv("MONOFEM_OUT", str(root / "out"))
    argv = [command]
    for item in _SMALL_RUN + items:
        argv += ["--set", item]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_IO)
    assert "Traceback" not in out + err
    if code == EXIT_CONFIG:
        assert marches == [] and list(root.iterdir()) == []
        assert err.startswith("monofem: configuration error: ")
