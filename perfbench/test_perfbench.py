"""Tests of the benchmark's reference verdicts, checks and tracer.

They run in a few seconds: the workload graphs are built, but lapexcess is
only called on small graphs.
"""

import copy
import json
import random
import sys
from collections import deque

import networkx as nx
import numpy as np
import pytest

import reference
import run
import tracing

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from lapexcess import cli, orthopoly, theorem  # noqa: E402


def brute_array(n, edges):
    """Intersection array [b, c] by BFS and a scan of every pair, or None
    when some count is not constant over the pairs at one distance."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    counts = {}
    for u in range(n):
        dist = [-1] * n
        dist[u] = 0
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for v in range(n):
            i = dist[v]
            c = sum(dist[w] == i - 1 for w in adj[v])
            b = sum(dist[w] == i + 1 for w in adj[v])
            if counts.setdefault(i, (c, b)) != (c, b):
                return None
    diameter = max(counts)
    return [[counts[i][1] for i in range(diameter)], [counts[i][0] for i in range(1, diameter + 1)]]


def laplacian_spectrum(n, edges):
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    spectrum = reference.cluster(np.linalg.eigvalsh(lap))
    spectrum[0][0] = 0.0
    return spectrum


def assert_same_spectrum(got, want):
    assert [m for _, m in got] == [m for _, m in want]
    assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_and_path_facts_agree_with_networkx_at_small_n(n):
    assert reference.cycle_array(n) == [list(x) for x in nx.intersection_array(nx.cycle_graph(n))]
    assert not nx.is_distance_regular(nx.path_graph(n))


@pytest.mark.parametrize("n", [30, 31, 128])
def test_cycle_facts_hold_where_networkx_refuses(n):
    edges = [(i, (i + 1) % n) for i in range(n)]
    assert brute_array(n, edges) == reference.cycle_array(n)
    assert brute_array(n, edges[:-1]) is None


def test_long_cases_match_brute_force_and_eigvalsh():
    for case in reference.long_cases():
        assert case["n"] == reference.LONG_N
        assert brute_array(case["n"], case["edges"]) == case["array"]
        assert case["drg"] == (case["array"] is not None)
        assert_same_spectrum(case["spectrum"], laplacian_spectrum(case["n"], case["edges"]))


def test_dense_cases_match_family_facts_and_eigvalsh():
    n = reference.DENSE_N
    m = n // 2
    # K_n is {n-1; 1} and K_{m,m} is {m, m-1; 1, m}; K_n minus an edge and
    # the star are not regular.
    arrays = [[[n - 1], [1]], [[m, m - 1], [1, m]], None, None]
    cases = reference.dense_cases()
    assert [c["array"] for c in cases] == arrays
    assert [c["drg"] for c in cases] == [True, True, False, False]
    for case in cases:
        assert case["n"] == n
        assert_same_spectrum(case["spectrum"], laplacian_spectrum(case["n"], case["edges"]))


@pytest.mark.parametrize("parts", [(1, 1, 1, 1), (3, 3), (2, 1, 1), (1, 4), (2, 3, 3)])
def test_multipartite_closed_form(parts):
    g = nx.complete_multipartite_graph(*parts)
    assert_same_spectrum(
        reference.multipartite_spectrum(parts), laplacian_spectrum(g.number_of_nodes(), g.edges())
    )


def test_atlas_cases():
    cases = reference.atlas_cases()
    assert len(cases) == 996
    by_name = {c["name"]: c for c in cases}
    # Atlas 6 is the path on 3 vertices, 7 is K_3 and 16 is C_4.
    assert not by_name["atlas_6"]["drg"]
    assert by_name["atlas_7"]["array"] == [[2], [1]]
    assert by_name["atlas_16"]["array"] == [[2, 1], [1, 2]]
    assert sum(c["drg"] for c in cases) == sum(brute_array(c["n"], c["edges"]) is not None for c in cases)


def cycle_case(n):
    return {
        "name": f"cycle_{n}",
        "n": n,
        "edges": [[i, (i + 1) % n] for i in range(n)],
        "drg": True,
        "array": reference.cycle_array(n),
        "spectrum": reference.cycle_spectrum(n),
    }


def run_case(case, text):
    _, code, stdout, error = run.call(cli.main, text)
    assert error is None
    return code, json.loads(stdout)


def test_relabel_is_a_seeded_permutation():
    case = cycle_case(9)
    first = run.relabel(case, random.Random(5))
    assert first == run.relabel(case, random.Random(5))
    assert first != run.relabel(case, random.Random(6))
    lines = first.splitlines()
    assert lines[0] == "n 9"
    g = nx.Graph([tuple(map(int, line.split())) for line in lines[1:]])
    assert nx.is_isomorphic(g, nx.cycle_graph(9))


def test_check_accepts_a_correct_verdict_and_names_each_mismatch():
    case = cycle_case(6)
    base = run_case(case, run.identity_text(case))
    code, doc = run_case(case, run.relabel(case, random.Random(1)))
    assert run.check(case, *base, None) == []
    assert run.check(case, code, doc, base) == []

    def kinds(mutate):
        bad = copy.deepcopy(doc)
        mutate(bad)
        return {kind for kind, _ in run.check(case, code, bad, base)}

    assert kinds(lambda d: d["excess"].update(verdict="not_distance_regular")) >= {"verdict", "relabel"}
    assert kinds(lambda d: d["oracle"]["intersection_array"].update(c=[1, 1, 1])) >= {"array"}
    assert kinds(lambda d: d["spectrum"]["multiplicities"].append(1)) == {"spectrum"}
    assert kinds(lambda d: d["spectrum"]["distinct"].__setitem__(1, 1.001)) == {"spectrum"}
    assert kinds(lambda d: d["hoffman"].update(max_residual=1e30)) == {run.KNOWN_FAULT}
    assert kinds(lambda d: d["excess"].update(average=d["excess"]["spectral"] - 1.0)) >= {
        "excess_equality",
        "relabel",
    }
    assert {kind for kind, _ in run.check(dict(case, drg=False), code, doc, base)} == {"exit_code"}


def test_tally_separates_the_known_fault():
    tally = run.Tally()
    case = {"name": "g"}
    tally.add(case, [])
    tally.add(case, [(run.KNOWN_FAULT, "residual")])
    tally.add(case, [("verdict", "wrong")])
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)


def test_tracer_records_layers_and_restores_the_program():
    case = cycle_case(8)
    before = (cli.analyze, theorem.eval_matrix, vars(orthopoly.SpectralMeasure)["from_spectrum"])
    tracer = tracing.Tracer()
    with tracer.installed(cli, theorem, orthopoly):
        tracer.verdict = 1
        _, code, _, error = run.call(tracer.wrap("cli.main", cli.main), run.identity_text(case))
    assert (code, error) == (0, None)
    assert before == (cli.analyze, theorem.eval_matrix, vars(orthopoly.SpectralMeasure)["from_spectrum"])

    metrics = {name: value for name, (value, _) in tracer.layer_metrics(1).items()}
    assert set(metrics) == set(tracing.LAYER_TIMES.values()) | set(tracing.SELF_TIMES.values()) | set(
        tracing.COUNT_METRICS
    )
    # d = 4: the Hoffman polynomial has 5 coefficients, r_0..r_4 have 1..5.
    assert metrics["orthopoly.residual_matmuls"] == 5 + sum(range(1, 6))
    assert metrics["theorem.oracle_pairs"] == 64
    assert all(value > 0 for value in metrics.values())
    total, self_time = tracer.durations()
    children = sum(total[name] for name in ("graphs.parse", "theorem.analyze", "report.build", "report.dumps"))
    assert self_time["cli.main"] == pytest.approx(total["cli.main"] - children)
