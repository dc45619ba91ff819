"""Tests of the benchmark itself, not of the program.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hardspheres import cli  # noqa: E402

TINY_SIMULATE = [
    "simulate", "--dim", "31", "--lambda", "1e6", "--cells-C", "16",
    "--lattice-radius", "4", "--max-steps", "6", "--seed", "3",
]


def tiny_perc2d(out):
    return ["perc2d", "--p", "0.7", "--radius", "6", "--trials", "5", "--out", str(out)]


def test_uninstall_restores_every_patched_attribute():
    targets = tracing.patch_targets()
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    with tracer:
        assert all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(targets, originals))
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(targets, originals))


def test_untraced_run_records_no_spans(tmp_path):
    tracer = tracing.Tracer()
    assert run.run_argv(cli, tiny_perc2d(tmp_path / "a")) == 0
    assert tracer.spans == [] and tracer.stats == {} and tracer.counts == {}
    with tracer:
        assert run.run_argv(cli, tiny_perc2d(tmp_path / "b")) == 0
    spans, stats = len(tracer.spans), {k: list(v) for k, v in tracer.stats.items()}
    assert spans and stats["percolation2d.origin_cluster"][0] == 5
    assert run.run_argv(cli, tiny_perc2d(tmp_path / "c")) == 0
    assert len(tracer.spans) == spans and tracer.stats == stats


def test_traced_output_is_byte_identical(tmp_path):
    assert run.run_argv(cli, TINY_SIMULATE + ["--out", str(tmp_path / "plain")]) == 0
    with tracing.Tracer() as tracer:
        assert run.run_argv(cli, TINY_SIMULATE + ["--out", str(tmp_path / "traced")]) == 0
    for ext in ("spheres.txt", "steps.csv"):
        plain = (tmp_path / f"plain.{ext}").read_bytes()
        assert plain == (tmp_path / f"traced.{ext}").read_bytes()
    assert tracer.stats["construction.explore_step"][0] >= 1
    # Self times never exceed the traced span that encloses them all.
    root = tracer.spans[0]
    assert root.parent == -1 and root.name == "cli.simulate"
    assert sum(s for _, s in tracer.stats.values()) <= root.end - root.start + 1e-6


def test_escaped_exception_is_one_failed_operation(tmp_path, monkeypatch):
    def boom(argv):
        raise RuntimeError("no power-of-two overlap constant\nup to 2^20 passed")

    monkeypatch.setattr(cli, "main", boom)
    res = run.attempt(workloads.WORKLOADS["perc2d_r100"], cli, 80, tmp_path / "x")
    assert res["outcome"].problems == [
        "RuntimeError: no power-of-two overlap constant up to 2^20 passed"
    ]


def test_ledger_fails_same_source_and_reports_other_sources(tmp_path):
    ledger = run.Ledger(tmp_path / "fp.json")
    assert ledger.compare("w", 7, "src-a", {"h": 1}) == ([], [])
    ledger.save()
    ledger = run.Ledger(tmp_path / "fp.json")
    problems, _ = ledger.compare("w", 7, "src-a", {"h": 2})
    assert len(problems) == 1 and "h: 1 != 2" in problems[0]
    assert ledger.compare("w", 7, "src-b", {"h": 3}) == ([], ["src-a"])


@pytest.mark.parametrize("key", ["end_to_end", "per_layer"])
def test_benchmark_json_matches_the_code(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec[key]]
    assert declared == list(run.END_TO_END if key == "end_to_end" else run.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_scaled_time_is_wall_time_at_the_nominal_reference_speed():
    import reference

    assert run.scaled(2.0, reference.REF_S) == pytest.approx(2.0)
    # A host running the reference at half speed halves the scaled time.
    assert run.scaled(2.0, 2 * reference.REF_S) == pytest.approx(1.0)
