"""The demo scripts run end to end with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (arguments, lines its output must hold).  theta_sweep repeats a
# density, which once counted its hits twice and overflowed theta above 1.
DEMOS = {
    "theta_sweep.py": (["--radius", "10", "--trials", "20", "--p", "0.5", "0.7957", "0.7957"],
                       ["radius 10, 20 trials, seed 0"]),
    "grow_cluster.py": (["--max-steps", "4"], [
        "hard-sphere check: pass",
        "largest tangency cluster: 3 spheres (3 constructed) within radius 2.173",
    ]),
    "threshold_scan.py": (["--dim-min", "30", "--dim-max", "32"],
                          ["first dimension with F(lambda*) >= 0.892: 45"]),
}


def run_demo(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs(script):
    args, expected = DEMOS[script]
    proc = run_demo(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for line in expected:
        assert line in proc.stdout


def test_theta_sweep_refuses_an_infinite_radius_in_one_line():
    proc = run_demo("theta_sweep.py", ["--radius", "inf", "--trials", "5"])
    assert proc.returncode == 1
    assert proc.stderr == "error: radius must lie in [0, 400], got inf\n"
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "script, args, message",
    [
        ("threshold_scan.py", ["--threshold", "1.5"],
         "threshold must lie in [0, 1], got 1.5"),
        ("threshold_scan.py", ["--dim-max", "500"],
         "need 11 <= d_from <= d_to <= 450, got 28..500"),
        ("grow_cluster.py", ["--dim", "2"],
         "lambda_star needs 11 <= d <= 450, got d=2"),
        ("grow_cluster.py", ["--dim", "20"],
         "no lambda* at d=20; give --lam explicitly"),
        ("theta_sweep.py", ["--p"], "need at least one occupation density"),
    ],
)
def test_demo_refuses_a_bad_argument_in_one_line(script, args, message):
    proc = run_demo(script, args)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""
