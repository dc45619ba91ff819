"""CLI surface: exit codes, manifests, file outputs, determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest

from hardspheres import bounds, checks, cli, construction, geometry, percolation2d, poisson
from hardspheres.cli import (
    EXIT_CANNOT_REALIZE,
    EXIT_OK,
    EXIT_STAT_FAIL,
    EXIT_USAGE,
    SEED_ENV_VAR,
    f17,
    main,
)
from hardspheres.construction import MAX_LATTICE_RADIUS, ConstructionError
from hardspheres.poisson import RegistryError


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_f17_roundtrip():
    for x in (0.1, 1.0 / 3.0, 2.86155261391081e-11, 3789930467390.0293):
        assert float(f17(x)) == x


def test_bounds_scan_json(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = main(["bounds-scan", "--dim-min", "11", "--dim-max", "50",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert "min dimension at threshold 0.892: 45" in capsys.readouterr().err
    doc = read_json(out)
    man = doc["manifest"]
    assert man["command"] == "bounds-scan"
    assert man["min_dimension"] == 45
    assert "Philox" in man["rng_algorithm"]
    assert man["wall_time_seconds"] >= 0
    rows = doc["results"]
    assert len(rows) == 40
    by_d = {r["d"]: r for r in rows}
    assert by_d[30]["lambda_star"] is None
    assert not by_d[44]["passes_threshold"]
    assert by_d[45]["passes_threshold"]
    assert by_d[45]["F_star"] == pytest.approx(0.9097161693966154, rel=1e-12)


def test_bounds_scan_csv(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["bounds-scan", "--dim-min", "31", "--dim-max", "46",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    by_d = {int(r["d"]): r for r in rows}
    assert float(by_d[45]["F_star"]) == pytest.approx(
        0.9097161693966154, rel=1e-12
    )
    assert by_d[45]["passes_threshold"] == "1"
    assert by_d[44]["passes_threshold"] == "0"
    assert float(by_d[31]["lambda_star"]) == pytest.approx(
        603692.0924729021, rel=1e-12
    )
    man = read_json(str(out) + ".manifest.json")
    assert man["command"] == "bounds-scan"
    assert man["config"]["format"] == "csv"


def test_bounds_scan_usage_error(capsys):
    assert main(["bounds-scan", "--dim-min", "50", "--dim-max", "20"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    assert main(["bounds-scan", "--dim-min", "5", "--dim-max", "20"]) == EXIT_USAGE


@pytest.mark.parametrize("threshold", ["1.5", "nan", "-0.1"])
def test_bounds_scan_unreachable_threshold_is_usage_error(capsys, threshold):
    assert main(["bounds-scan", "--threshold", threshold]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: threshold must lie in [0, 1], got {float(threshold)}\n"


def test_bounds_scan_threshold_one_is_reached(tmp_path, capsys):
    out = tmp_path / "scan.json"
    assert main(["bounds-scan", "--threshold", "1.0", "--out", str(out)]) == EXIT_OK
    assert read_json(out)["manifest"]["min_dimension"] == 186
    capsys.readouterr()


def test_bounds_scan_threshold_applies_to_every_row(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = main(["bounds-scan", "--dim-min", "35", "--dim-max", "46",
                 "--threshold", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    doc = read_json(out)
    min_d = doc["manifest"]["min_dimension"]
    assert min_d == 37
    assert f"min dimension at threshold 0.5: {min_d}" in capsys.readouterr().err
    for row in doc["results"]:
        assert row["threshold"] == 0.5
        assert row["passes_threshold"] == (row["d"] >= min_d)
    by_d = {r["d"]: r for r in doc["results"]}
    assert by_d[40]["F_star"] == pytest.approx(0.736, abs=5e-4)


def test_bounds_scan_dimension_cap(capsys):
    top = str(bounds.MAX_DIMENSION_SUPPORTED)
    assert main(["bounds-scan", "--dim-min", top, "--dim-max", top]) == EXIT_OK
    capsys.readouterr()
    over = str(bounds.MAX_DIMENSION_SUPPORTED + 1)
    assert main(["bounds-scan", "--dim-max", over]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "error: need 11 <= d_from <= d_to <= 450, got 11..451\n"
    assert len(err.splitlines()) == 1


SIM5 = ["simulate", "--dim", "5", "--lambda", "5.0", "--cells-C", "4.0"]


def test_simulate_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(SIM5 + ["--seed", "3", "--out", str(out1)]) == EXIT_OK
    assert main(SIM5 + ["--seed", "3", "--out", str(out2)]) == EXIT_OK
    sph1 = (tmp_path / "run1.spheres.txt").read_bytes()
    sph2 = (tmp_path / "run2.spheres.txt").read_bytes()
    assert sph1 == sph2
    steps1 = (tmp_path / "run1.steps.csv").read_bytes()
    steps2 = (tmp_path / "run2.steps.csv").read_bytes()
    assert steps1 == steps2
    man1 = read_json(str(out1) + ".manifest.json")
    man2 = read_json(str(out2) + ".manifest.json")
    for man in (man1, man2):
        man.pop("wall_time_seconds")
        man.pop("timings")
        man["config"].pop("out")
    assert man1 == man2
    assert man1["seed"] == 3
    assert man1["command"] == "simulate"
    assert man1["hard_sphere"]["passed"]
    counts = man1["counts"]
    n_lines = sum(1 for ln in sph1.decode().splitlines() if ln)
    assert counts["constructed"] + counts["leftovers"] == n_lines
    n_rows = len(steps1.decode().strip().splitlines()) - 1
    assert counts["steps"] == n_rows
    rows = list(csv.DictReader(io.StringIO(steps1.decode())))
    brackets = [(float(r["mass_lower"]), float(r["mass_upper"])) for r in rows]
    assert all(0.0 <= lo <= hi for lo, hi in brackets)
    # step 0 picks in the origin cell, its own bounding region
    assert brackets[0][0] == brackets[0][1] > 0.0


@pytest.mark.parametrize("out", [True, False])
def test_simulate_timings_fit_in_the_wall_time(tmp_path, capsys, out):
    prefix = tmp_path / "run"
    assert main(SIM5 + ["--seed", "3"] + (["--out", str(prefix)] if out else [])) == EXIT_OK
    man = read_json(str(prefix) + ".manifest.json") if out else json.loads(capsys.readouterr().out)
    timings = man["timings"]
    assert sorted(timings) == ["clusters_s", "layers_s", "verify_s", "write_s"]
    assert all(t >= 0 for t in timings.values())
    assert sum(timings.values()) <= man["wall_time_seconds"]


def test_simulate_stdout_mode(capsys):
    assert main(SIM5 + ["--seed", "3"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert "spheres" in doc
    assert "step_log" in doc
    assert doc["config"]["lambda"] == 5.0
    assert doc["stop_reasons"]["0,0,0"] in (
        "rule-iii", "step-budget", "lattice-truncation"
    )


def test_simulate_auto_lambda_needs_high_dimension(capsys):
    assert main(["simulate", "--dim", "5"]) == EXIT_USAGE
    assert main(["simulate", "--dim", "12", "--cells-C", "4.0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "auto lambda" in err


def test_simulate_usage_errors(capsys):
    assert main(SIM5 + ["--layers", "0"]) == EXIT_USAGE
    assert main(["simulate", "--dim", "5", "--lambda", "-2",
                 "--cells-C", "4.0"]) == EXIT_USAGE
    assert main(["simulate", "--dim", "5", "--lambda", "1",
                 "--cells-C", "-1"]) == EXIT_USAGE
    # parameter validation surfaces as a usage error, not a traceback
    assert main(SIM5 + ["--eta", "0.9"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("radius", ["1e9", "inf", "nan", "200.5"])
def test_simulate_refuses_lattice_radius_before_building(monkeypatch, capsys, radius):
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice must not be built")

    monkeypatch.setattr(construction, "build_lattice", no_lattice)
    argv = ["simulate", "--dim", "5", "--lambda", "5", "--cells-C", "4",
            "--lattice-radius", radius, "--max-steps", "1"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (
        f"error: lattice_radius must lie in [2, {MAX_LATTICE_RADIUS:g}], "
        f"got {float(radius)}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--dim", "45", "--lambda", "nan", "--cells-C", "16"],
         "lambda must be finite and >= 0, got nan"),
        (["--dim", "45", "--lambda", "auto", "--cells-C", "nan"],
         "layer radius C must be finite and > 0, got nan"),
        (["--dim", "45", "--lambda", "auto", "--cells-C", "inf"],
         "layer radius C must be finite and > 0, got inf"),
        (["--dim", "451", "--lambda", "auto", "--cells-C", "16"],
         "lambda_star needs 11 <= d <= 450, got d=451"),
        (["--dim", "45", "--cells-C", "16", "--layers", "0"],
         "need at least one layer vector"),
        (["--dim", "45", "--lambda", "1", "--cells-C", "1e300"],
         "layer radius C = 1e+300 is too large at d = 45: a cell's volume overflows"),
        (["--dim", "3", "--lambda", "1", "--cells-C", "1e300"],
         "layer radius C = 1e+300 exceeds 1.04858e+06: float64 layer coordinates "
         "could not resolve tangency"),
        (["--dim", "5", "--lambda", "1e300", "--cells-C", "4"],
         "lambda = 1e+300 is too large at d = 5: an isolation ball would hold "
         "1.249e+300 points on average, above the registry's materialization "
         "cap 3.628e+06"),
        (["--dim", "2", "--lambda", "1"], "construction needs d >= 3, got 2"),
        (["--dim", "1", "--lambda", "1"], "construction needs d >= 3, got 1"),
        (["--dim", "0", "--lambda", "1"], "construction needs d >= 3, got 0"),
        (["--dim", "3", "--lambda", "4e7", "--cells-C", "2"],
         "lambda = 4e+07 is too large at d = 3: an isolation ball would hold "
         "7.069e+07 points on average, above the registry's materialization "
         "cap 4.628e+06"),
    ],
)
def test_simulate_refuses_bad_parameters_before_any_work(monkeypatch, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("no overlap search or step may run")

    monkeypatch.setattr(geometry, "search_overlap_constant", no_work)
    monkeypatch.setattr(construction, "run_layer", no_work)
    assert main(["simulate"] + argv + ["--max-steps", "1"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "error",
    [RegistryError("stream cap exceeded below the saturation minimum"),
     ConstructionError("implied radius outside the window")],
)
def test_simulate_cannot_realize_exit_code(monkeypatch, capsys, error):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_multilayer", refuse)
    assert main(SIM5 + ["--seed", "3"]) == EXIT_CANNOT_REALIZE
    err = capsys.readouterr().err
    assert err == f"error: cannot realize this run exactly: {error}\n"


def test_simulate_refusal_names_layer_step_and_vertex(monkeypatch, capsys):
    pick = poisson.RegionRegistry.pick_in_region
    calls = []

    def refuse_at_step_3(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 4:
            raise RegistryError("stream cap exceeded")
        return pick(self, *args, **kwargs)

    monkeypatch.setattr(poisson.RegionRegistry, "pick_in_region", refuse_at_step_3)
    argv = ["simulate", "--dim", "31", "--lambda", "7244305.109674826",
            "--cells-C", "16", "--lattice-radius", "6", "--seed", "71"]
    assert main(argv) == EXIT_CANNOT_REALIZE
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"error: cannot realize this run exactly: layer 0, step 3, vertex \d+: "
        r"stream cap exceeded\n",
        err,
    ), err


def test_simulate_overlap_search_failure_is_usage_error(monkeypatch, capsys):
    def no_constant(*args, **kwargs):
        raise RuntimeError("no power-of-two overlap constant up to 2^12 passed")

    monkeypatch.setattr(geometry, "search_overlap_constant", no_constant)
    assert main(["simulate", "--dim", "5", "--lambda", "5.0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: no power-of-two")
    assert "pass --cells-C explicitly" in err
    assert len(err.splitlines()) == 1


def _no_work(*args, **kwargs):
    raise AssertionError("the run must not start")


@pytest.mark.parametrize(
    "command, patch, missing",
    [
        (SIM5, (cli, "run_multilayer"), "r.spheres.txt"),
        (["bounds-scan"], (bounds, "scan_dimensions"), "r"),
        (["bounds-scan", "--format", "csv"], (bounds, "scan_dimensions"), "r"),
        (["perc2d", "--p", "0.7"], (cli, "estimate_theta"), "r"),
        (["verify", "sampler"], (poisson, "consistency_counts_lazy"), "r"),
    ],
)
def test_unwritable_output_fails_before_any_work(
    monkeypatch, capsys, tmp_path, command, patch, missing
):
    monkeypatch.setattr(*patch, _no_work)
    prefix = tmp_path / "no-such-dir" / "r"
    assert main(command + ["--out", str(prefix)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: cannot write {prefix.parent / missing}: No such file or directory\n"
    )


def test_output_probe_leaves_no_files(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise ConstructionError("implied radius outside the window")

    monkeypatch.setattr(cli, "run_multilayer", refuse)
    (tmp_path / "r.steps.csv").write_text("kept\n")
    assert main(SIM5 + ["--seed", "3", "--out", str(tmp_path / "r")]) == EXIT_CANNOT_REALIZE
    capsys.readouterr()
    # the probe removes what it created and leaves an existing file as it was
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.steps.csv"]
    assert (tmp_path / "r.steps.csv").read_text() == "kept\n"


def test_perc2d_json(tmp_path):
    out = tmp_path / "perc.json"
    code = main(["perc2d", "--p", "0.7", "--radius", "20", "--trials", "200",
                 "--seed", "1", "--out", str(out)])
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["manifest"]["command"] == "perc2d"
    assert doc["theta"]["p"] == 0.7
    assert 0.0 <= doc["theta"]["theta_hat"] <= 1.0
    assert doc["theta"]["seed"] == 1


def test_perc2d_validates_p(capsys):
    assert main(["perc2d", "--p", "1.5"]) == EXIT_USAGE
    assert main(["perc2d", "--p", "-0.1"]) == EXIT_USAGE
    assert main(["perc2d", "--p", "0.5", "--trials", "0"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("radius", ["inf", "nan", "1e7", "400.5", "-1"])
def test_perc2d_refuses_radius_before_building(monkeypatch, capsys, radius):
    def no_lattice(*args, **kwargs):
        raise AssertionError("the lattice must not be built")

    monkeypatch.setattr(percolation2d, "build_lattice", no_lattice)
    argv = ["perc2d", "--p", "0.8", "--trials", "5", "--radius", radius]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: radius must lie in [0, {percolation2d.MAX_WINDOW_RADIUS:g}], "
        f"got {float(radius)}\n"
    )


def test_verify_geometry(tmp_path):
    out = tmp_path / "ver.json"
    code = main(["verify", "geometry", "--budget", "100000", "--seed", "0",
                 "--out", str(out)])
    doc = read_json(out)
    assert code == EXIT_OK, doc
    assert doc["passed"]
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == 8
    assert any(n.startswith("cell-volume") for n in names)
    assert any(n.startswith("overlap-constant") for n in names)
    assert any(n.startswith("slab-section") for n in names)
    assert any(n.startswith("step-region") for n in names)


@pytest.mark.parametrize("budget", ["1", "10", "100"])
def test_verify_geometry_refuses_a_budget_that_decides_nothing(capsys, budget):
    assert main(["verify", "geometry", "--dim", "3", "--budget", budget]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f" of {budget} samples hit, so the standard error is 0" in err
    assert err.endswith("; raise --budget\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("dim", ["1", "2", "65"])
def test_verify_geometry_refuses_a_dimension_outside_its_range(monkeypatch, capsys, dim):
    monkeypatch.setattr(checks, "mc_region_volume", _no_work)
    assert main(["verify", "geometry", "--dim", dim]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the geometry checks need 3 <= dim <= 64 (a batch of 2^18 points "
        f"holds 2 MiB per dimension), got {dim}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [(["--budget", "0"], "error: need trials >= 1, got 0\n"),
     (["--dim", "0"],
      "error: the isolation check needs 1 <= dim <= 5 (a trial realizes "
      "6 * 3^(dim-1) points on average), got 0\n"),
     # one trial at d = 12 realizes about a million points
     (["--dim", "12", "--budget", "1"],
      "error: the isolation check needs 1 <= dim <= 5 (a trial realizes "
      "6 * 3^(dim-1) points on average), got 12\n")],
)
def test_verify_isolation_bad_input_is_usage_error(capsys, argv, message):
    assert main(["verify", "isolation", *argv]) == EXIT_USAGE
    assert capsys.readouterr().err == message


def test_verify_isolation_refuses_a_budget_the_conditioning_rejects(capsys):
    # about 1 trial in 23 survives the empty-ball conditioning (e^-pi)
    for budget, kept in ((5, 0), (20, 1)):
        argv = ["verify", "isolation", "--budget", str(budget), "--seed", "0"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: {kept} of {budget} trials survived the conditioning, fewer "
            f"than the {checks.MIN_CONDITIONED_TRIALS} the check needs; raise --budget\n"
        )


def test_verify_sampler_small_budget(tmp_path):
    out = tmp_path / "ver.json"
    code = main(["verify", "sampler", "--budget", "400", "--seed", "0",
                 "--out", str(out)])
    doc = read_json(out)
    assert code == EXIT_OK, doc
    assert doc["checks"][0]["n_seeds"] == 400
    assert doc["checks"][0]["n_tests"] == 17


@pytest.mark.parametrize("budget", ["100", "300", "399"])
def test_verify_sampler_refuses_a_budget_below_its_floor(monkeypatch, capsys, budget):
    monkeypatch.setattr(poisson, "consistency_counts_lazy", _no_work)
    assert main(["verify", "sampler", "--budget", budget]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: the chi-squared table needs at least 400 seeds, got {budget}; "
        "raise --budget\n"
    )


def test_verify_sampler_refuses_a_dimension_before_the_budget(capsys):
    argv = ["verify", "sampler", "--dim", "3", "--budget", "100"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the consistency script is planar (dim = 2)\n"
    )


def test_verify_sampler_refuses_a_degenerate_table(monkeypatch, capsys):
    # Only a projection whose values are all equal is degenerate: the
    # commonest value always keeps a category of its own.
    for name in ("consistency_counts_lazy", "consistency_counts_oracle"):
        monkeypatch.setattr(poisson, name, lambda dim, lam, seed: (1,) * 10)
    assert main(["verify", "sampler", "--budget", "400", "--seed", "3"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: count law projection n1 is degenerate at 400 seeds; raise --budget\n"
    )


def test_seed_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "77")
    out = tmp_path / "perc.json"
    code = main(["perc2d", "--p", "0.6", "--radius", "10", "--trials", "50",
                 "--out", str(out)])
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["manifest"]["seed"] == 77
    # explicit --seed still wins over the environment
    code = main(["perc2d", "--p", "0.6", "--radius", "10", "--trials", "50",
                 "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert read_json(out)["manifest"]["seed"] == 5


def test_seed_env_var_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv(SEED_ENV_VAR, "abc")
    assert main(["perc2d", "--p", "0.5"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: HARDSPHERES_SEED must be an integer, got 'abc'\n"
    )


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 0.6 s to import; only the chi-squared battery
    # needs it, so it must not land in every command's start-up.
    code = "import sys, hardspheres.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert out.stdout == "False\n"


def test_perc2d_bounds_scan_and_verify_isolation_leave_scipy_unloaded(tmp_path):
    # scipy costs about 0.3 s of start-up and 35 MB; only the overlap
    # constant, the contact scans and the chi-squared battery call it.
    out = str(tmp_path / "out.json")
    argvs = [
        ["perc2d", "--p", "0.7", "--radius", "10", "--trials", "10", "--out", out],
        ["bounds-scan", "--out", out],
        ["verify", "isolation", "--dim", "2", "--budget", "3000", "--out", out],
    ]
    code = (
        "import sys\n"
        "from hardspheres import cli\n"
        "print('scipy' in sys.modules)\n"
        f"for argv in {argvs!r}:\n"
        "    print(cli.main(argv), 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True)
    assert res.stdout.splitlines() == ["False"] + ["0 False"] * len(argvs)


def test_version_and_missing_command():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
