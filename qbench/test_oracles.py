"""Tests of the benchmark's oracles: they must catch planted faults.

Run with ``python -m pytest qbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
for path in (str(HERE), str(HERE.parent / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles  # noqa: E402
from oracles import OracleError  # noqa: E402


# ----------------------------------------------------------------------
# A tiny stand-in graph with the surface the oracles read
# ----------------------------------------------------------------------
class Features(dict):
    pass


@dataclasses.dataclass
class FakeEdge:
    edge_id: str
    u: str
    v: str
    features: Features
    fixed_cost: float = None
    kind: SimpleNamespace = dataclasses.field(default_factory=lambda: SimpleNamespace(value="association"))
    metadata: dict = dataclasses.field(default_factory=dict)


class FakeGraph:
    def __init__(self, nodes, edges, minimum=1e-6):
        self._nodes = {n: SimpleNamespace(node_id=n, kind=SimpleNamespace(value="relation"), relation=None, attribute=None) for n in nodes}
        self._edges = {e.edge_id: e for e in edges}
        self.config = SimpleNamespace(minimum_edge_cost=minimum)

    def nodes(self):
        return list(self._nodes.values())

    def edges(self):
        return list(self._edges.values())

    def edge(self, edge_id):
        return self._edges[edge_id]

    def node(self, node_id):
        return self._nodes[node_id]


def random_graph(rng: random.Random, n: int, m: int):
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    weights = {}
    for i in range(m):
        u, v = rng.sample(nodes, 2)
        if rng.random() < 0.2:
            edges.append(FakeEdge(f"e{i}", u, v, Features(), fixed_cost=0.0))
        else:
            edges.append(FakeEdge(f"e{i}", u, v, Features({f"f{i}": 1.0, "default": 0.5})))
            weights[f"f{i}"] = rng.choice([0.1, 0.5, 1.0, 1.5, 2.0])
    weights["default"] = 0.2
    return FakeGraph(nodes, edges), weights


def tree(edge_ids, cost):
    return SimpleNamespace(edge_ids=frozenset(edge_ids), cost=cost)


@pytest.mark.parametrize("seed", range(40))
def test_dreyfus_wagner_matches_brute_force(seed):
    rng = random.Random(seed)
    graph, weights = random_graph(rng, n=rng.randint(4, 7), m=rng.randint(4, 9))
    node_ids = [node.node_id for node in graph.nodes()]
    terminals = rng.sample(node_ids, rng.randint(2, min(4, len(node_ids))))
    expected = oracles.brute_force_optimum(graph, terminals, weights)
    actual = oracles.steiner_optimum(graph, terminals, weights)
    if math.isinf(expected):
        assert math.isinf(actual)
    else:
        assert actual == pytest.approx(expected, abs=1e-9)


def path_graph():
    # a - b - c with a costly shortcut a - c, plus a zero-cost spur b - d.
    edges = [
        FakeEdge("ab", "a", "b", Features({"w1": 1.0})),
        FakeEdge("bc", "b", "c", Features({"w2": 1.0})),
        FakeEdge("ac", "a", "c", Features({"w3": 1.0})),
        FakeEdge("bd", "b", "d", Features(), fixed_cost=0.0),
    ]
    weights = {"w1": 1.0, "w2": 1.0, "w3": 5.0}
    return FakeGraph("abcd", edges), weights


def test_check_trees_accepts_a_ranked_valid_list():
    graph, weights = path_graph()
    trees = [tree({"ab", "bc"}, 2.0), tree({"ab", "ac"}, 6.0)]
    oracles.check_trees(graph, ["a", "c"], trees, weights)


@pytest.mark.parametrize(
    "trees, message",
    [
        ([tree({"ab", "bc"}, 2.5)], "recomputed"),  # mispriced tree
        ([tree({"ab", "bc", "ac"}, 7.0)], "acyclic"),  # not a tree (cycle)
        ([tree({"ab"}, 1.0)], "span"),  # misses a terminal
        ([tree({"ab", "ac"}, 6.0), tree({"ab", "bc"}, 2.0)], "less than"),  # swapped order
        ([tree({"ab", "bc"}, 2.0), tree({"bc", "ab"}, 2.0)], "repeats"),  # duplicate edge set
        ([tree({"ab", "ac"}, 6.0)], "optimum"),  # valid but not optimal
    ],
)
def test_check_trees_catches_planted_faults(trees, message):
    graph, weights = path_graph()
    with pytest.raises(OracleError, match=message):
        oracles.check_trees(graph, ["a", "c"], trees, weights)


def test_preference_and_ranking_checks():
    graph, weights = path_graph()
    oracles.check_preference(graph, {"ab", "bc"}, {"ab", "ac"}, weights)
    with pytest.raises(OracleError):
        oracles.check_preference(graph, {"ab", "ac"}, {"ab", "bc"}, weights)
    answers = [SimpleNamespace(values={"x": i}, cost=float(i), provenance=None) for i in range(5)]
    oracles.check_page(answers, answers[1:3], 1, 2)
    with pytest.raises(OracleError):
        oracles.check_page(answers, answers[2:4], 1, 2)
    with pytest.raises(OracleError):
        oracles.check_same_ranking(answers, [answers[1], answers[0], *answers[2:]], "swapped")


def test_shared_value_checks():
    rows = oracles.RowStore()
    rows.add_payload({"name": "a", "relations": {"a": {"attributes": ["k", "x"], "rows": [["1", "p"], ["2", "q"]]}}})
    rows.add_payload({"name": "b", "relations": {"b": {"attributes": ["k", "y"], "rows": [[" 2", "r"], ["2", "s"]]}}})
    rows.add_payload({"name": "c", "relations": {"c": {"attributes": ["z"], "rows": [["t"]]}}})

    def pair(left, right):
        side = lambda qualified: SimpleNamespace(relation=qualified.rsplit(".", 1)[0],
                                                 attribute=qualified.rsplit(".", 1)[1], qualified=qualified)
        return SimpleNamespace(source=side(left), target=side(right))

    joined, by_name, unrelated = pair("a.a.k", "b.b.k"), pair("a.a.x", "b.b.y"), pair("a.a.x", "c.c.z")
    oracles.check_shared_values([joined], rows)
    oracles.check_filter_admitted([joined, by_name], rows)
    with pytest.raises(OracleError, match="shares no value"):
        oracles.check_shared_values([joined, by_name], rows)
    with pytest.raises(OracleError, match="share no value in any attribute"):
        oracles.check_filter_admitted([joined, unrelated], rows)


# ----------------------------------------------------------------------
# The oracles against the real program on a small GBCO view
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gbco_view():
    from repro.api import QService, QueryRequest
    from repro.datasets import build_gbco
    from repro.datastore.csvio import source_from_dict, source_to_dict
    from repro.graph.edges import set_edge_id_counter

    set_edge_id_counter(0)
    payloads = [source_to_dict(s) for s in build_gbco(seed=3, rows_per_relation=10).catalog]
    service = QService(sources=[source_from_dict(p) for p in payloads], backend="memory")
    service.bootstrap_alignments()
    info = service.create_view(QueryRequest(keywords=("pancreas", "sample")))
    view = service.view(info.view_id)
    answers = list(service.stream_answers(QueryRequest(view=info.view_id)))
    rows = oracles.RowStore()
    for payload in payloads:
        rows.add_payload(payload)
    assert len({a.provenance.query_id for a in answers}) >= 2
    return view, answers, rows


def test_real_view_passes(gbco_view):
    view, answers, rows = gbco_view
    graph = view.query_graph.graph
    oracles.check_trees(graph, view.terminals, view.trees(), graph.weights)
    assert oracles.check_answers(answers, graph, view.trees_by_signature(), graph.weights, rows) == len(answers)


def test_real_view_planted_faults(gbco_view):
    view, answers, rows = gbco_view
    graph = view.query_graph.graph
    trees = view.trees_by_signature()

    def fails(candidate, match):
        with pytest.raises(OracleError, match=match):
            oracles.check_answers(candidate, graph, trees, graph.weights, rows)

    mispriced = [dataclasses.replace(answers[0], cost=answers[0].cost + 0.25), *answers[1:]]
    fails(mispriced, "recomputes")
    last = len(answers) - 1
    first_other = next(i for i, a in enumerate(answers) if a.cost > answers[0].cost + 1e-6)
    swapped = list(answers)
    swapped[0], swapped[first_other] = swapped[first_other], swapped[0]
    fails(swapped, "recomputes|less than")
    relation, row_id = next(iter(answers[last].provenance.base_tuples))
    ghost = dataclasses.replace(
        answers[last].provenance, base_tuples=frozenset({(relation, 10_000)})
    )
    fails([*answers[:last], dataclasses.replace(answers[last], provenance=ghost)], "does not exist")
    projected = dict(answers[0].values)
    key = next(k for k, v in projected.items() if v is not None)
    projected[key] = "not-a-row-value"
    fails([dataclasses.replace(answers[0], values=projected), *answers[1:]], "projection")
    joined = next((a for a in answers if len(a.provenance.base_tuples) > 1), None)
    if joined is not None:
        index = answers.index(joined)
        moved = frozenset((rel, (rid + 1) % 10) for rel, rid in joined.provenance.base_tuples)
        broken = dataclasses.replace(joined, provenance=dataclasses.replace(joined.provenance, base_tuples=moved))
        with pytest.raises(OracleError):
            oracles.check_answers([*answers[:index], broken, *answers[index + 1:]], graph, trees, graph.weights, rows)


def test_real_tree_planted_faults(gbco_view):
    view, _, _ = gbco_view
    graph = view.query_graph.graph
    trees = view.trees()
    first = trees[0]
    with pytest.raises(OracleError, match="recomputed"):
        oracles.check_trees(graph, view.terminals, [tree(first.edge_ids, first.cost + 0.5)], graph.weights)
    pruned = tree(sorted(first.edge_ids)[1:], first.cost)
    with pytest.raises(OracleError):
        oracles.check_trees(graph, view.terminals, [pruned], graph.weights)


def test_spans_restore_and_self_time():
    from spans import SpanTracer
    from repro.steiner.topk import KBestSteiner

    original = KBestSteiner.__dict__["solve"]
    tracer = SpanTracer().install()
    try:
        assert KBestSteiner.__dict__["solve"] is not original
        outer = tracer.wrap("outer", lambda: inner())
        inner = tracer.wrap("inner", lambda: sum(range(10_000)))
        outer()
        times = tracer.layer_times()
        assert times["outer"][2] == 1 and times["inner"][2] == 1
        assert times["outer"][1] == pytest.approx(times["outer"][0] - times["inner"][0], abs=1e-6)
    finally:
        tracer.uninstall()
    assert KBestSteiner.__dict__["solve"] is original


def test_tail_percentile_needs_ten_samples_beyond():
    from harness import tail_percentile

    assert tail_percentile(39) is None
    assert tail_percentile(40) == 75.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0


def test_brute_force_is_exhaustive_on_a_triangle():
    graph, weights = path_graph()
    assert oracles.brute_force_optimum(graph, ["a", "c"], weights) == pytest.approx(2.0)
    assert oracles.steiner_optimum(graph, ["a", "c", "d"], weights) == pytest.approx(2.0)
