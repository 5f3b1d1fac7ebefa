"""Tests of the benchmark's own parts: the query generator, the pinned
membership facts, the span arithmetic, the traced summary and the
runner's refusal to run without sources.

    PYTHONPATH=src python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from clawtoric.core import Binomial, Monomial, Word, in_kernel
from clawtoric.groebner import BinomialReducer
from clawtoric.ideal import build_generators

import passes
import run
from queries import fiber_queries, kernel_queries
from spans import Tracer, span_cost

HERE = Path(__file__).resolve().parent


def as_binomial(n: int, query) -> Binomial:
    plus, minus = (Monomial(n, tuple(Word(v, n) for v in side)) for side in query)
    return Binomial(plus, minus)


def test_queries_depend_only_on_the_seed():
    def draw(seed):
        return kernel_queries(6, 3, 50, random.Random(seed))

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


@pytest.mark.parametrize("n,degree", [(3, 2), (5, 2), (5, 3), (8, 2), (8, 3), (8, 4)])
def test_queries_are_nonzero_kernel_binomials(n, degree):
    queries = kernel_queries(n, degree, 200, random.Random(n * 10 + degree))
    assert len(queries) == 200
    for plus, minus in queries:
        assert len(plus) == len(minus) == degree
        assert plus == tuple(sorted(plus)) and minus == tuple(sorted(minus))
        assert plus != minus
        assert in_kernel(as_binomial(n, (plus, minus)))


def test_fiber_queries_span_the_degree_two_kernel():
    # one query per degree-2 monomial beyond the first of its fiber; at n = 5
    # every fiber query is a kernel binomial and the count is |G_5|
    queries = fiber_queries(5)
    assert len(queries) == passes.total_count(5)
    assert all(in_kernel(as_binomial(5, q)) for q in queries)


def test_every_degree_two_fiber_query_reduces_to_zero_under_g8():
    queries = fiber_queries(8)
    assert len(queries) == 23_310 == passes.total_count(8)
    reducer = BinomialReducer(build_generators(8).sorted_generators())
    stuck = [q for q in queries if not reducer.in_ideal(as_binomial(8, q))]
    assert stuck == []


def test_default_seed_membership_tally():
    queries = passes.membership_queries(passes.DEFAULT_SEED)
    assert [d for d, _ in queries] == [2] * passes.QUERIES_PER_DEGREE + [3] * passes.QUERIES_PER_DEGREE
    reducer = BinomialReducer(build_generators(passes.QUERY_N).sorted_generators())
    answers = {d: sum(reducer.in_ideal(b) for e, b in queries if e == d) for d in (2, 3)}
    assert answers == {2: passes.QUERIES_PER_DEGREE, 3: passes.DEFAULT_SEED_DEGREE3_ZERO}


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_forms_match_the_build(n):
    gens = build_generators(n)
    assert len(gens) == passes.total_count(n)
    assert len(gens.fixed_leaf) == passes.fixed_leaf_count(n)


def test_self_time_excludes_direct_children():
    tracer = Tracer(True, pass_id=3)
    leaf = tracer.wrap("leaf", lambda: sum(range(20_000)))
    inner = tracer.wrap("inner", lambda: (leaf(), leaf()))
    outer = tracer.wrap("outer", lambda: (inner(), sum(range(20_000))))
    outer()
    spans = {s[0]: s for s in tracer.spans}
    assert spans["inner"][3] == 0 and spans["outer"][3] == -1
    assert all(s[4] == 3 for s in tracer.spans)
    totals = tracer.self_times()
    assert totals["leaf"][1] == 2
    duration = {name: s[2] - s[1] for name, s in spans.items()}
    assert totals["outer"][0] == pytest.approx(duration["outer"] - duration["inner"])
    assert sum(t for t, _ in totals.values()) == pytest.approx(duration["outer"])


def test_span_cost_is_positive():
    assert 0 < span_cost(10_000) < 1e-3


def test_disabled_tracer_returns_the_function_itself():
    assert Tracer(False).wrap("f", len) is len


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "groebner_strict",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_traced_summary_pairs_each_traced_pass_with_its_partner(tmp_path):
    layers = passes.Pass(Tracer(True), tmp_path).layers()
    records = [
        {"traced": traced, "wall_s": wall, "attempted": 1, "failed": 0, "layers": layers if traced else None}
        for traced, wall in ((False, 10.0), (True, 12.0), (False, 20.0), (True, 21.0))
    ]
    result = run.summarize(records, traced_run=True)
    assert result["correct"] and result["attempted"] == 4
    metrics = result["metrics"]
    assert metrics["trace.overhead_s"] == {"value": 1.5, "unit": "s"}
    assert [(name, m["unit"]) for name, m in metrics.items()] == [(m["name"], m["unit"]) for m in run.SPEC["per_layer"]]
