"""Tests of the benchmark itself: generators, oracle, tracer and output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed   # noqa: E402
import oracle      # noqa: E402
import run         # noqa: E402
import tracing     # noqa: E402
import workloads   # noqa: E402

import planeaut.cli as cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def answer(req):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(req.argv))
    return code, out.getvalue()


def quick_sample(requests, per_kind=2, max_flag_degree=20):
    """A few requests of every kind and verdict, skipping the costliest."""
    picked, seen = [], {}
    for req in requests:
        bound = [int(a.split("=")[1]) for a in req.argv if a.startswith("--max-degree=")]
        if bound and bound[0] > max_flag_degree:
            continue
        key = (req.kind, req.code, req.spec[0])
        if seen.get(key, 0) < per_kind:
            seen[key] = seen.get(key, 0) + 1
            picked.append(req)
    return picked


def test_workload_names_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_generators_are_deterministic(name):
    first = workloads.generate(name, 11)
    assert first == workloads.generate(name, 11)
    assert first != workloads.generate(name, 12)
    assert [r.kind for r in first] == [r.kind for r in workloads.generate(name, 12)]


@pytest.mark.parametrize("name", NAMES)
def test_flag_values_are_attached(name):
    for req in workloads.generate(name, 3):
        for arg in req.argv[1:]:
            assert not arg.startswith("-") or (arg.startswith("--") and "=" in arg)


@pytest.mark.parametrize("name", NAMES)
def test_expected_verdicts_agree_with_a_quick_pass(name):
    rng = random.Random(0)
    sample = quick_sample(workloads.generate(name, 5))
    assert sample
    for req in sample:
        code, out = answer(req)
        assert oracle.check(req, code, out, rng) is None, (req.argv, code, out)


def test_linearize_covers_both_sides_of_the_answer():
    kinds = {(r.kind, r.code) for r in workloads.generate("linearize", 1)}
    assert kinds == {("min-degree", 0), ("min-degree", 1),
                     ("linearize", 0), ("linearize", 1)}


def test_oracle_field_is_sound():
    assert (oracle.Q - 1) % oracle.ORDER == 0
    for a in (2, 3, 5, 7, 11, 13):          # Fermat witnesses for the prime Q
        assert pow(a, oracle.Q - 1, oracle.Q) == 1
    for p, n in ((2, 8), (3, 5), (5, 3), (7, 3)):
        z = oracle.zeta(p ** n)          # of order exactly p^n
        assert pow(z, p ** n, oracle.Q) == 1
        assert pow(z, p ** (n - 1), oracle.Q) != 1
    # z(8)^2 = z(4): the images are compatible across levels
    assert oracle.scalar("z(8)^2") == oracle.scalar("z(4)")
    # 1 + z(3) + z(3)^2 = 0, the cyclotomic relation
    assert oracle.scalar("1 + z(3) + z(3)^2") == 0


def test_oracle_rejects_wrong_maps():
    rng = random.Random(1)
    req = next(r for r in workloads.generate("maps", 2) if r.kind == "compose")
    code, out = answer(req)
    assert oracle.check(req, code, out, rng) is None
    assert oracle.check(req, code, out.replace("x1", "(x1 + 1)", 1), rng) is not None
    assert oracle.check(req, 1, out, rng) is not None
    inv = next(r for r in workloads.generate("maps", 2) if r.kind == "invert")
    code, out = answer(inv)
    assert oracle.check(inv, code, out, rng) is None
    assert oracle.check(inv, code, out.replace("x2", "(2*x2)", 1), rng) is not None


def test_oracle_rejects_a_wrong_witness():
    rng = random.Random(2)
    req = next(r for r in workloads.generate("nonconj", 2) if r.spec[0] == "satisfiable")
    code, out = answer(req)
    assert oracle.check(req, code, out, rng) is None
    gamma = next(line for line in out.splitlines() if line.startswith("gamma = "))
    wrong = out.replace(gamma, gamma + "*2")
    assert oracle.check(req, code, wrong, rng) is not None


def test_cap_defect_probes_are_still_failing_or_right():
    rng = random.Random(3)
    for req in workloads.cap_defect_probes():
        try:
            code, out = answer(req)
        except RuntimeError:
            continue   # the known defect
        assert oracle.check(req, code, out, rng) is None


def test_tracer_counts_and_restores():
    from planeaut.cyclotomic import CycNum
    original = CycNum.__dict__["__mul__"]
    req = workloads.generate("formula", 1)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        assert answer(req)[0] == 0
    finally:
        tracer.uninstall()
    assert CycNum.__dict__["__mul__"] is original
    assert tracer.stats["cli.main"][0] == 1
    assert tracer.stats["prufer.verify_formula"][0] == 1
    assert tracer.stats["cyclotomic.mul"][0] > 0
    total, self_s = tracer.stats["cli.main"][1:]
    assert 0 <= self_s <= total
    assert {s[0] for s in tracer.spans} == {0}


def test_percentile_is_smooth_across_a_gap():
    assert run.percentile([5.0] * 10, 0.9) == pytest.approx(5.0)
    values = [1.0] * 20 + [2.0] * 20
    assert 1.3 < run.percentile(values, 0.5) < 1.7
    # one request moving across the gap moves the estimate a little, not by the gap
    moved = [1.0] * 19 + [2.0] * 21
    assert abs(run.percentile(moved, 0.5) - run.percentile(values, 0.5)) < 0.25
    assert run.percentile(list(range(50)), 0.5) < run.percentile(list(range(50)), 0.9)


def test_percentile_counts_a_failure_near_the_quantile_as_infinite():
    assert run.percentile([1.0, 2.0, 3.0, math.inf], 0.5) == math.inf
    assert math.isfinite(run.percentile([float(i) for i in range(100)] + [math.inf], 0.5))


def test_host_scale_is_one_at_the_reference_time():
    assert hostspeed.scale(hostspeed.REFERENCE_S) == pytest.approx(1.0)
    assert hostspeed.reference_loop() > 0


def bench_json(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    code, result = bench_json("--workload", "maps", "--seed", "1",
                              "--seconds", "0.01", "--trace", trace)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "formula",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
