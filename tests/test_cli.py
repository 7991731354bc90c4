from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from hitchinlab import cli
from hitchinlab.catalog import IDENTITY_NAMES, MUTATIONS, RunConfig, select_entries
from hitchinlab.cli import main
from hitchinlab.config import FIELDS, load_config

FAST_TORUS = "basis_multiplier,gram_rank,heat_mode,basis_holomorphy"


def _read(path):
    return path.read_bytes()


def test_default_config_roundtrip(tmp_path):
    assert load_config(None) == RunConfig()
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\n"
        "backend = torus\n"
        "grid = 32\n"
        "levels = 1,2\n"
        "taus = 1j, 1+1j\n"
        "eps = 2e-4\n"
    )
    cfg = load_config(str(ini))
    assert cfg.backend == "torus"
    assert cfg.grid == 32
    assert cfg.levels == (1, 2)
    assert cfg.taus == (1j, 1 + 1j)
    assert cfg.eps == 2e-4


def test_config_has_one_parser_per_runconfig_field():
    assert set(FIELDS) == {f.name for f in dataclasses.fields(RunConfig)}


def test_config_rejects_unknown_key(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nnot_a_key = 1\n")
    with pytest.raises(ValueError):
        load_config(str(ini))
    ini.write_text("[run]\nseed = 7\n")  # the old unused seed option is gone
    with pytest.raises(ValueError, match="unknown key 'seed'"):
        load_config(str(ini))


def test_config_rejects_missing_file_and_section(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "absent.ini"))
    ini = tmp_path / "nosec.ini"
    ini.write_text("[other]\ngrid = 8\n")
    with pytest.raises(ValueError):
        load_config(str(ini))


def test_select_entries_rejects_unknown_identity():
    with pytest.raises(ValueError):
        select_entries(RunConfig(identities=("no_such_identity",)))
    # every advertised name selects at least one entry
    for name in IDENTITY_NAMES:
        assert select_entries(RunConfig(identities=(name,)))


def test_verify_reports_are_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(
            [
                "verify",
                "--backend",
                "torus",
                "--identities",
                FAST_TORUS,
                "--out",
                str(out),
            ]
        )
        assert code == 0
    for name in ("report.jsonl", "report.csv"):
        assert _read(out1 / name) == _read(out2 / name)
    rows = [json.loads(line) for line in (out1 / "report.jsonl").read_text().splitlines()]
    assert all(r["status"] == "ok" for r in rows)
    assert {r["identity"] for r in rows} == set(FAST_TORUS.split(","))
    text = capsys.readouterr().out
    assert "[PASS]" in text


def test_verify_reports_the_same_bytes_at_one_and_two_jobs(tmp_path):
    """The worker threads share the run's families; the report does not
    depend on how many there are."""
    ids = ",".join(i for i in IDENTITY_NAMES if i not in ("transport_oracle", "loop_offscalar"))
    codes = [
        main(["verify", "--grid", "24", "--identities", ids, "--jobs", jobs, "--out", str(tmp_path / jobs)])
        for jobs in ("1", "2")
    ]
    assert codes[0] == codes[1]
    assert _read(tmp_path / "1" / "report.jsonl") == _read(tmp_path / "2" / "report.jsonl")


def test_verify_config_file_applies(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nbackend = torus\nidentities = {FAST_TORUS}\nlevels = 1,2\n")
    assert main(["verify", "--config", str(ini)]) == 0


def test_verify_mutation_flips_verdict(tmp_path):
    assert "transfer-rho" in MUTATIONS
    code = main(
        [
            "verify",
            "--backend",
            "chart",
            "--identities",
            "holomorphy_transfer",
            "--mutate",
            "transfer-rho",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    rows = [json.loads(line) for line in (tmp_path / "report.jsonl").read_text().splitlines()]
    assert any(r["status"] == "unexpected" and r["verdict"] == "fail" for r in rows)


def test_sweep_subcommand(tmp_path):
    code = main(
        [
            "sweep",
            "--identities",
            "defining_equation",
            "--grids",
            "64,96",
            "--eps-pair",
            "0.1,0.05",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in (tmp_path / "sweep.jsonl").read_text().splitlines()]
    axes = {r["axis"] for r in rows}
    assert axes == {"h", "eps"}
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_takes_no_grid_from_the_config_file(tmp_path, capsys):
    """``sweep`` runs on the chart at its ``--grids``: a config file's grid,
    even one that leaves a chart no interior, changes no order line."""
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ngrid = 12\n")
    argv = ["sweep", "--identities", "defining_equation", "--grids", "24,32"]
    out = []
    for extra in ([], ["--config", str(ini)]):
        assert main(argv + extra) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1] and "defining_equation" in out[0]


def test_transport_subcommand(capsys):
    code = main(
        [
            "transport",
            "--grid",
            "32",
            "--k",
            "1",
            "--steps",
            "80",
            "--loop-radius",
            "0.05",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "endpoint deviation" in out
    assert "loop off-scalar" in out


@pytest.mark.parametrize(
    "bad, message",
    [
        (["--k", "0"], "positive level"),
        (["--steps", "0"], "at least one step"),
        (["--path", "1-1j,1+1j"], "Im tau > 0"),
        (["--k", "-1"], "positive level"),
        (["--tol", "-1"], "tol must be positive and finite"),
        (["--tol", "nan"], "tol must be positive and finite"),
        (["--grid", "0"], "torus grid 0"),
        (["--loop-radius", "-0.05"], "loop-radius must be finite and not negative"),
        (["--loop-radius", "nan"], "loop-radius must be finite and not negative"),
    ],
    ids=[
        "k0",
        "steps0",
        "lower_half_plane",
        "k_negative",
        "tol_negative",
        "tol_nan",
        "grid0",
        "loop_radius_negative",
        "loop_radius_nan",
    ],
)
def test_transport_rejects_bad_input(capsys, bad, message):
    code = main(["transport", "--grid", "16", "--k", "1", "--steps", "4"] + bad)
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and message in err[0]
    assert "Traceback" not in captured.err


def test_transport_grid_is_a_torus_grid(tmp_path, capsys):
    """A grid too small for a chart interior is a valid torus grid, from the
    command line or from a config file, and transport has no backend to
    choose."""
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ngrid = 8\n")
    for source in (["--grid", "8"], ["--config", str(ini)]):
        assert main(["transport", "--k", "1", "--steps", "4"] + source) == 0
        assert "endpoint deviation" in capsys.readouterr().out
    assert main(["transport", "--backend", "torus"]) == 2
    assert "unrecognized arguments: --backend torus" in capsys.readouterr().err


def test_transport_takes_steps_from_the_config_file(tmp_path, capsys):
    """The file's ``steps`` reaches transport when ``--steps`` is not given;
    the flag still wins over it."""
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nsteps = 4\n")
    base = ["transport", "--grid", "16", "--k", "1", "--config", str(ini)]
    assert main(base) == 0
    assert "steps 4" in capsys.readouterr().out
    assert main(base + ["--steps", "6"]) == 0
    assert "steps 6" in capsys.readouterr().out


def test_verify_basis_rows(capsys):
    """The basis diagnostics are catalog rows, judged by the catalog's budgets."""
    torus = "basis_holomorphy,basis_multiplier,gram_rank"
    for backend, grid, ids in (("torus", "64", torus), ("chart", "48", "basis_holomorphy")):
        argv = ["verify", "--backend", backend, "--grid", grid, "--identities", ids]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        for identity in ids.split(","):
            assert any(line.split()[:3] == ["[PASS]", identity, backend] for line in lines)


def test_subcommands_match_the_docs(capsys):
    """The subcommands of the usage line are the ones the ``cli`` module
    docstring describes and the README's *CLI* section runs."""
    with pytest.raises(SystemExit):
        main(["--help"])
    usage = capsys.readouterr().out.splitlines()[0]
    commands = set(re.search(r"\{([\w,]+)\}", usage).group(1).split(","))
    assert commands == {"verify", "sweep", "transport"}
    doc = cli.__doc__.split("Subcommands\n-----------\n")[1].split("\n\n")[0]
    assert set(re.findall(r"^(\w+)$", doc, re.M)) == commands
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    assert set(re.findall(r"^hitchinlab (\w+)", section, re.M)) == commands


def test_basis_subcommand_is_gone(capsys):
    assert main(["basis"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "invalid choice: 'basis'" in err[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--backend", "torus", "--config", "{ini}"], "Im tau > 0"),
        (["verify", "--eps", "0"], "eps must be positive"),
        (["verify", "--grid", "12"], "no interior"),
        (["verify", "--identities", "no_such_identity"], "unknown identities"),
        (["sweep", "--grids", "12,24"], "no interior"),
        (["sweep", "--eps-pair", "0,0.05"], "eps must be positive"),
        (["sweep", "--eps-pair", "0.1,0.1"], "two distinct eps steps"),
        (["sweep", "--grids", "64"], "two or more distinct grids"),
        (["sweep", "--grids", "48,32"], "strictly increasing), got (48, 32)"),
        (["sweep", "--grids", "64,64"], "strictly increasing), got (64, 64)"),
        (["sweep", "--level", "0"], "levels must be at least 1"),
        (["sweep", "--eps-pair", "0.1,0.05,0.02"], "eps pair"),
        (["verify", "--backend", "torus", "--grid", "0"], "torus grid 0"),
        (["transport", "--tol", "-1"], "tol must be positive and finite"),
        (["transport", "--tol", "nan"], "tol must be positive and finite"),
        (["transport", "--path", "1j,-1j"], "Im tau > 0 at every waypoint"),
        (["transport", "--path", "1j,1+0j"], "Im tau > 0 at every waypoint"),
        (["transport", "--path", "0.005j,1j", "--loop-radius", "0.01"], "Im tau > 0 on its circle"),
        (["transport", "--path", "1j,-1j", "--loop-radius", "0.01"], "Im tau > 0 at every waypoint"),
        (["verify", "--backend", "bogus"], "backend must be one of torus, chart, both"),
        (["verify", "--config", "{backend_ini}"], "backend must be one of torus, chart, both"),
        (["verify", "--mutate", "bogus"], "unknown mutation 'bogus'"),
        (["verify", "--backend", "torus", "--config", "{mutate_ini}"], "unknown mutation"),
        (["verify", "--identities", "transport_oracle", "--backend", "chart"], "no catalog row"),
        (
            ["verify", "--backend", "torus", "--identities", "heat_mode"]
            + ["--mutate", "transfer-rho"],
            "flips holomorphy_transfer, which this run does not select",
        ),
        (["verify", "--config", "{missing_ini}"], "config file not found"),
        (["verify", "--config", "{levels_ini}"], "levels must be at least 1"),
        (["verify", "--jobs", "0"], "jobs must be at least 1 worker thread, got 0"),
        (["verify", "--config", "{jobs_ini}"], "jobs must be at least 1 worker thread, got -2"),
        (["verify", "--config", "{grid_ini}"], "bad value for 'grid': invalid literal"),
        (["verify", "--config", "{headless_ini}"], "no section headers"),
        (["verify", "--grid", "abc"], "argument --grid: invalid int value: 'abc'"),
        (["sweep", "--grids", "64,x"], "argument --grids: invalid int list value: '64,x'"),
        (["verify", "--config", "{eps_inf_ini}"], "eps must be positive and finite, got inf"),
        (["sweep", "--eps-pair", "inf,0.05"], "eps must be positive and finite, got inf"),
        (["verify", "--config", "{taus_nan_ini}"], "taus must be finite with Im tau > 0, got [(nan+1j)]"),
        (["verify", "--config", "{taus_inf_ini}"], "taus must be finite with Im tau > 0, got [(inf+1j)]"),
        (["verify", "--config", "{sigma_nan_ini}"], "sigma must be finite, got (nan+0j)"),
        (["transport", "--path", "nan+1j,1+1j"], "a finite tau with Im tau > 0 at every waypoint"),
        (
            ["transport", "--path", "nan+1j,1+1j", "--loop-radius", "0.5"],
            "a finite tau with Im tau > 0 at every waypoint",
        ),
        (
            ["sweep", "--backend", "torus", "--grid", "24", "--grids", "24,32"],
            "unrecognized arguments: --backend torus --grid 24",
        ),
        (["sweep", "--grid", "12", "--grids", "24,32"], "unrecognized arguments: --grid 12"),
    ],
    ids=[
        "verify_lower_half_plane",
        "verify_eps0",
        "verify_grid12",
        "verify_unknown_identity",
        "sweep_grid12",
        "sweep_eps0",
        "sweep_eps_equal",
        "sweep_one_grid",
        "sweep_grids_decreasing",
        "sweep_grids_equal",
        "sweep_level0",
        "sweep_eps_three",
        "verify_torus_grid0",
        "transport_tol_negative",
        "transport_tol_nan",
        "transport_path_lower_half_plane",
        "transport_path_on_real_axis",
        "transport_loop_leaves_half_plane",
        "transport_path_checked_before_loop",
        "verify_backend_bogus",
        "verify_ini_backend_bogus",
        "verify_mutate_bogus",
        "verify_ini_mutate_bogus",
        "verify_no_row",
        "verify_mutation_target_unselected",
        "verify_missing_config",
        "verify_ini_level0",
        "verify_jobs0",
        "verify_ini_jobs_negative",
        "verify_ini_grid_not_int",
        "verify_ini_no_section_header",
        "verify_flag_grid_not_int",
        "sweep_flag_grids_not_int",
        "verify_ini_eps_inf",
        "sweep_eps_inf",
        "verify_ini_taus_nan",
        "verify_ini_taus_inf",
        "verify_ini_sigma_nan",
        "transport_path_nan",
        "transport_path_nan_with_loop",
        "sweep_backend_and_grid_flags",
        "sweep_grid_flag",
    ],
)
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, message):
    files = {
        "ini": "[run]\ntaus = 1-1j\nidentities = heat_mode\n",
        "backend_ini": "[run]\nbackend = bogus\n",
        "mutate_ini": "[run]\nmutate = bogus\nidentities = heat_mode\n",
        "grid_ini": "[run]\ngrid = abc\n",
        "headless_ini": "grid = 32\n",
        "levels_ini": "[run]\nlevels = 0\n",
        "jobs_ini": "[run]\njobs = -2\n",
        "eps_inf_ini": "[run]\neps = inf\n",
        "taus_nan_ini": "[run]\ntaus = nan+1j\n",
        "taus_inf_ini": "[run]\ntaus = inf+1j\n",
        "sigma_nan_ini": "[run]\nsigma = nan+0j\n",
    }
    paths = {"missing_ini": tmp_path / "missing.ini"}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.ini"
        paths[name].write_text(text)
    assert main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"hitchinlab {argv[0]}: error:")
    assert message in err[0]
    assert captured.out == ""


@pytest.mark.parametrize(
    "ini, argv",
    [
        ("eps = 0", ["verify", "--eps", "1e-4"]),
        ("backend = bogus", ["verify", "--backend", "torus"]),
        ("grid = 0", ["verify", "--grid", "16"]),
        ("identities = no_such", ["verify", "--identities", "heat_mode"]),
    ],
    ids=["verify_eps", "verify_backend", "verify_grid", "verify_ids"],
)
def test_flag_repairs_bad_file_value(tmp_path, ini, argv):
    """File and flags are checked together: a flag replaces a file value
    before the check, so a bad file value it overrides is no error."""
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\n{ini}\n")
    fast = ["--backend", "torus", "--grid", "32"]  # flags after these win
    if argv[0] == "verify":
        fast += ["--identities", "heat_mode"]
    assert main(argv[:1] + fast + argv[1:] + ["--config", str(path)]) == 0
