"""Fuzz gate: every argv the CLI parses either reaches the run or is refused
with a documented exit code and one ``error:`` line, never a traceback.

The calls that start each command's work raise a sentinel, so no valid run
executes; reaching one means every check before it passed.  Each numeric
option draws from nan, +-inf, -1, 0, 1, 1e300, its documented bounds and
each bound + 1, keeping the values its argparse type can parse.
"""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardspheres import bounds, checks, cli, construction, percolation2d, poisson
from hardspheres.geometry import RADIUS_MIN

SPECIAL = (math.nan, math.inf, -math.inf, -1, 0, 1, 1e300)
# No float option may let these through to the run.
NOT_RUNNABLE = {"nan", "inf", "-inf", "1e+300"}

# The calls that start the work.  bounds-scan does no lattice, registry or
# Monte Carlo work, so its closed forms run in full up to the manifest.
SENTINELS = (
    (cli, "_manifest"),
    (construction, "run_layer"),
    (percolation2d, "build_lattice"),
    (checks, "mc_region_volume"),
    (checks, "_isolation_trials"),
    (poisson, "consistency_counts_lazy"),
)


class Reached(Exception):
    """A sentinel was called."""


def _reached(*args, **kwargs):
    raise Reached


def numeric(kind, *limits, extra=()):
    values = list(SPECIAL) + [v for b in limits for v in (b, b + 1)]
    if kind is int:
        texts = [str(v) for v in values if isinstance(v, int)]
    else:
        texts = [repr(float(v)) for v in values]
    return texts + list(extra)


D_LO, D_HI = bounds.MIN_DIMENSION_SUPPORTED, bounds.MAX_DIMENSION_SUPPORTED
SEED = numeric(int)
VERIFY = {
    "--budget": numeric(
        int, checks.MIN_CONDITIONED_TRIALS, checks.MIN_CONSISTENCY_SEEDS
    ),
    "--dim": numeric(int, 2, *checks.GEOMETRY_DIMS, checks.MAX_ISOLATION_DIM),
    "--seed": SEED,
}
# command -> (a valid argv, {option: values}).  The sweep below starts from
# the valid argv, whose small dimension keeps every volume finite, so that a
# size limit has to refuse a huge value on its own.
COMMANDS = {
    "bounds-scan": ([], {
        "--dim-min": numeric(int, D_LO, D_HI),
        "--dim-max": numeric(int, D_LO, D_HI),
        "--threshold": numeric(float, 1),
    }),
    "simulate": (["--dim=3", "--lambda=1", "--cells-C=2"], {
        "--dim": numeric(int, 3, D_LO, D_HI),
        "--lambda": numeric(float, extra=["auto"]),
        "--cells-C": numeric(float, construction.MAX_LAYER_RADIUS, extra=["auto"]),
        "--eta": numeric(float, RADIUS_MIN),
        "--layers": numeric(int, 1),
        "--lattice-radius": numeric(float, 2, construction.MAX_LATTICE_RADIUS),
        "--max-steps": numeric(int, 1),
        "--seed": SEED,
    }),
    "perc2d": (["--p=0.5"], {
        "--p": numeric(float, 1),
        "--radius": numeric(float, percolation2d.MAX_WINDOW_RADIUS),
        "--trials": numeric(int, 1),
        "--seed": SEED,
    }),
    **{f"verify {suite}": ([], VERIFY) for suite in cli.VERIFY_SUITES},
}
REQUIRED = {"simulate": "--dim", "perc2d": "--p"}


def check(argv):
    """Run argv with every sentinel in place: it must reach the run, with
    no float value that cannot run, or exit 2-5 with one error line.
    Returns the exit code, None when the run was reached."""
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for module, name in SENTINELS:
            mp.setattr(module, name, _reached)
        try:
            code = cli.main(argv)
        except Reached:
            code = None
    err = err.getvalue()
    if code is None:
        values = {arg.split("=", 1)[1] for arg in argv if "=" in arg}
        assert not values & NOT_RUNNABLE, argv
        assert err == ""
    else:
        assert code in (2, 3, 4, 5), (argv, code)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert err.endswith("\n") and err.count("error:") == 1, (argv, err)
    return code


@st.composite
def argvs(draw, command):
    argv = command.split()
    for option, values in COMMANDS[command][1].items():
        if option == REQUIRED.get(command) or draw(st.booleans()):
            argv.append(f"{option}={draw(st.sampled_from(values))}")
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_argv_reaches_the_run_or_is_refused_in_one_line(command, data):
    check(data.draw(argvs(command)))


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_value_of_each_option_alone(command):
    # Random argvs seldom hold one bad value among otherwise valid ones, so
    # every value of every option is also tried in the valid argv.
    valid, options = COMMANDS[command]
    assert check(command.split() + valid) is None
    for option, values in options.items():
        kept = [arg for arg in valid if not arg.startswith(option + "=")]
        for value in values:
            check(command.split() + kept + [f"{option}={value}"])
