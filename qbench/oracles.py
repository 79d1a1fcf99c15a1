"""Independent correctness oracles for the Q benchmark.

Everything here recomputes what the program claims from first principles:
edge costs from ``edge.features`` and the weight vector, the optimal Steiner
cost from a Dreyfus–Wagner DP over scipy shortest paths, answer rows from the
benchmark's own copy of the generated source data.  Nothing is compared
against stored output of an earlier run.  Each check raises
:class:`OracleError` with a message naming the first violation.

The oracles read graphs through a narrow duck-typed surface — ``nodes()``,
``edges()``, ``node(id)``, ``weights`` and ``config.minimum_edge_cost`` — so
the tests can feed them small hand-built graphs.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: Absolute tolerance on recomputed costs (sums of a few dozen floats).
COST_TOL = 1e-6

#: Largest terminal set the Dreyfus–Wagner oracle accepts (3^t subsets).
DW_MAX_TERMINALS = 5


class OracleError(AssertionError):
    """A benchmark output contradicts an independent oracle."""


# ----------------------------------------------------------------------
# Source data owned by the benchmark
# ----------------------------------------------------------------------
class RowStore:
    """The benchmark's own copy of every relation it handed to the program.

    Built from ``source_to_dict`` payloads before the program sees them, so
    provenance checks never read rows back through the program.
    """

    def __init__(self) -> None:
        self._relations: Dict[str, Tuple[Tuple[str, ...], List[Tuple]]] = {}

    def add_payload(self, payload: Mapping) -> None:
        source = payload["name"]
        for relation, spec in payload["relations"].items():
            rows = [tuple(row) for row in spec.get("rows", ())]
            self._relations[f"{source}.{relation}"] = (tuple(spec["attributes"]), rows)

    def row(self, qualified: str, row_id: int) -> Dict[str, object]:
        if qualified not in self._relations:
            raise OracleError(f"provenance names unknown relation {qualified!r}")
        attributes, rows = self._relations[qualified]
        if not isinstance(row_id, int) or not 0 <= row_id < len(rows):
            raise OracleError(f"provenance row {qualified}#{row_id} does not exist")
        return dict(zip(attributes, rows[row_id]))

    def attributes(self, qualified: str) -> Tuple[str, ...]:
        return self._relations[qualified][0]

    def values(self, qualified: str, attribute: str) -> Set[str]:
        attributes, rows = self._relations[qualified]
        index = attributes.index(attribute)
        return {str(row[index]) for row in rows if row[index] is not None}


# ----------------------------------------------------------------------
# Edge costs
# ----------------------------------------------------------------------
def edge_cost(edge, weights: Mapping[str, float], minimum: float) -> float:
    """``fixed_cost`` if set, else ``max(w · f, minimum)`` — recomputed here.

    ``weights`` is anything with ``get(feature, default)``: a dict, or the
    program's weight vector / tenant overlay read feature by feature.
    """
    if edge.fixed_cost is not None:
        return float(edge.fixed_cost)
    dot = 0.0
    for feature, value in edge.features.items():
        dot += weights.get(feature, 0.0) * value
    return max(dot, minimum)


def tree_cost(graph, edge_ids: Iterable[str], weights: Mapping[str, float]) -> float:
    minimum = graph.config.minimum_edge_cost
    return sum(edge_cost(graph.edge(eid), weights, minimum) for eid in edge_ids)


# ----------------------------------------------------------------------
# Dreyfus–Wagner optimum
# ----------------------------------------------------------------------
def _adjacency(graph, weights: Mapping[str, float]):
    node_ids = [node.node_id for node in graph.nodes()]
    index = {nid: i for i, nid in enumerate(node_ids)}
    minimum = graph.config.minimum_edge_cost
    best: Dict[Tuple[int, int], float] = {}
    for edge in graph.edges():
        u, v = index[edge.u], index[edge.v]
        if u == v:
            continue
        cost = edge_cost(edge, weights, minimum)
        key = (min(u, v), max(u, v))
        if key not in best or cost < best[key]:
            best[key] = cost
    return node_ids, index, best


def steiner_optimum(graph, terminals: Sequence[str], weights: Mapping[str, float]) -> float:
    """Optimal Steiner-tree cost by Dreyfus–Wagner over scipy shortest paths.

    ``dp[S][v]`` is the cheapest tree connecting terminal subset ``S`` and
    node ``v``.  Singletons come from one Dijkstra per terminal; each larger
    subset merges two complementary halves at every node, then relaxes the
    merged costs through the graph with one multi-source Dijkstra (a
    virtual source wired to every node at its merged cost).  Returns
    ``inf`` when the terminals are disconnected.
    """
    terminals = list(dict.fromkeys(terminals))
    if len(terminals) > DW_MAX_TERMINALS:
        raise ValueError(f"Dreyfus–Wagner oracle limited to {DW_MAX_TERMINALS} terminals")
    if len(terminals) <= 1:
        return 0.0
    node_ids, index, best = _adjacency(graph, weights)
    n = len(node_ids)
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for (u, v), cost in best.items():
        rows += [u, v]
        cols += [v, u]
        data += [cost, cost]
    virtual = n
    size = n + 1

    def relax(seed: np.ndarray) -> np.ndarray:
        finite = np.flatnonzero(np.isfinite(seed))
        r = rows + [virtual] * len(finite)
        c = cols + finite.tolist()
        d = data + seed[finite].tolist()
        # Explicit zeros are edges for csgraph; keep them stored.
        matrix = csr_matrix((np.asarray(d, dtype=float), (r, c)), shape=(size, size))
        dist = dijkstra(matrix, directed=True, indices=virtual)
        return dist[:n]

    t = len(terminals)
    full = (1 << t) - 1
    dp: Dict[int, np.ndarray] = {}
    for i, terminal in enumerate(terminals):
        seed = np.full(n, np.inf)
        seed[index[terminal]] = 0.0
        dp[1 << i] = relax(seed)
    for mask in range(1, full + 1):
        if mask in dp:
            continue
        merged = np.full(n, np.inf)
        low = mask & -mask
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # each unordered split once
                merged = np.minimum(merged, dp[sub] + dp[mask ^ sub])
            sub = (sub - 1) & mask
        dp[mask] = relax(merged)
    return float(dp[full][index[terminals[0]]])


def brute_force_optimum(graph, terminals: Sequence[str], weights: Mapping[str, float]) -> float:
    """Cheapest connected edge subset spanning the terminals (tiny graphs only)."""
    edges = list(graph.edges())
    minimum = graph.config.minimum_edge_cost
    terminals = set(terminals)
    if len(terminals) <= 1:
        return 0.0
    best = float("inf")
    for r in range(1, len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            nodes = {e.u for e in subset} | {e.v for e in subset}
            if not terminals <= nodes or not _connected(nodes, subset):
                continue
            best = min(best, sum(edge_cost(e, weights, minimum) for e in subset))
    return best


def _connected(nodes: Set[str], edges) -> bool:
    adjacency: Dict[str, List[str]] = {node: [] for node in nodes}
    for edge in edges:
        adjacency[edge.u].append(edge.v)
        adjacency[edge.v].append(edge.u)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen == nodes


# ----------------------------------------------------------------------
# Steiner trees
# ----------------------------------------------------------------------
def check_trees(graph, terminals: Sequence[str], trees, weights: Mapping[str, float]) -> None:
    """Every tree is a valid, correctly priced Steiner tree; the list is ranked.

    ``trees`` are program tree objects (``edge_ids``, ``cost``).  For terminal
    sets small enough for :func:`steiner_optimum`, the first tree must attain
    the optimum.
    """
    if not trees:
        return
    terminals = set(terminals)
    seen: Set[frozenset] = set()
    previous = -float("inf")
    for rank, tree in enumerate(trees):
        edge_ids = frozenset(tree.edge_ids)
        if edge_ids in seen:
            raise OracleError(f"tree #{rank} repeats the edge set of an earlier tree")
        seen.add(edge_ids)
        edges = [graph.edge(eid) for eid in edge_ids]
        nodes = {e.u for e in edges} | {e.v for e in edges} | (terminals if not edges else set())
        if not terminals <= nodes:
            raise OracleError(f"tree #{rank} does not span the terminals")
        if edges and (len(edges) != len(nodes) - 1 or not _connected(nodes, edges)):
            raise OracleError(f"tree #{rank} is not a connected acyclic edge set")
        cost = tree_cost(graph, edge_ids, weights)
        if abs(cost - tree.cost) > COST_TOL:
            raise OracleError(f"tree #{rank} reports cost {tree.cost!r}, recomputed {cost!r}")
        if cost < previous - COST_TOL:
            raise OracleError(f"tree #{rank} costs {cost!r}, less than tree #{rank - 1} ({previous!r})")
        previous = cost
    if len(terminals) > DW_MAX_TERMINALS:
        return
    optimum = steiner_optimum(graph, sorted(terminals), weights)
    if abs(trees[0].cost - optimum) > COST_TOL:
        raise OracleError(f"first tree costs {trees[0].cost!r}; the Steiner optimum is {optimum!r}")


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def _tree_attribute_columns(graph, edge_ids) -> Tuple[Set[Tuple[str, str]], List[Tuple[str, str, str, str]]]:
    """(relation, attribute) pairs a tree touches, and its cross-relation joins."""
    attributes: Set[Tuple[str, str]] = set()
    joins: List[Tuple[str, str, str, str]] = []
    for eid in edge_ids:
        edge = graph.edge(eid)
        ends = [graph.node(edge.u), graph.node(edge.v)]
        for node in ends:
            kind = node.kind.value
            if kind == "attribute" and node.relation and node.attribute:
                attributes.add((node.relation, node.attribute))
            elif kind == "value" and node.relation and node.attribute:
                attributes.add((node.relation, node.attribute))
        a, b = ends
        if (
            edge.kind.value == "association"
            and a.kind.value == "attribute"
            and b.kind.value == "attribute"
            and a.relation != b.relation
        ):
            joins.append((a.relation, a.attribute, b.relation, b.attribute))
        elif edge.kind.value == "foreign_key" and edge.metadata.get("foreign_key"):
            src_rel, src_attr, dst_rel, dst_attr = edge.metadata["foreign_key"]
            rel_u, rel_v = a.relation, b.relation
            if rel_u and rel_v and rel_u != rel_v:
                if rel_u.endswith(f".{src_rel}") or rel_u == src_rel:
                    joins.append((rel_u, src_attr, rel_v, dst_attr))
                else:
                    joins.append((rel_v, src_attr, rel_u, dst_attr))
    return attributes, joins


def _norm(value) -> str:
    return str(value).strip()


def check_answers(
    answers: Sequence,
    graph,
    trees_by_signature: Mapping[str, object],
    weights: Mapping[str, float],
    rows: RowStore,
) -> int:
    """Check a ranked answer list against its trees and the source rows.

    ``trees_by_signature`` maps the program's ``provenance.query_id`` to the
    producing tree (the program never fills ``provenance.tree_edges``).
    Returns the number of answers checked.
    """
    previous = -float("inf")
    cache: Dict[str, Tuple[float, Set[Tuple[str, str]], List]] = {}
    for rank, answer in enumerate(answers):
        provenance = answer.provenance
        if provenance is None:
            raise OracleError(f"answer #{rank} carries no provenance")
        tree = trees_by_signature.get(provenance.query_id)
        if tree is None:
            raise OracleError(f"answer #{rank} names query {provenance.query_id!r}, not a retained tree")
        if provenance.query_id not in cache:
            columns, joins = _tree_attribute_columns(graph, tree.edge_ids)
            cache[provenance.query_id] = (tree_cost(graph, tree.edge_ids, weights), columns, joins)
        cost, columns, joins = cache[provenance.query_id]
        if abs(answer.cost - cost) > COST_TOL:
            raise OracleError(f"answer #{rank} costs {answer.cost!r}; its tree recomputes to {cost!r}")
        if answer.cost < previous - COST_TOL:
            raise OracleError(f"answer #{rank} costs {answer.cost!r}, less than answer #{rank - 1} ({previous!r})")
        previous = answer.cost
        by_relation: Dict[str, Dict[str, object]] = {}
        for relation, row_id in provenance.base_tuples:
            if relation in by_relation:
                raise OracleError(f"answer #{rank} joins relation {relation} twice")
            by_relation[relation] = rows.row(relation, row_id)
        for rel_a, attr_a, rel_b, attr_b in joins:
            if rel_a in by_relation and rel_b in by_relation:
                left, right = by_relation[rel_a].get(attr_a), by_relation[rel_b].get(attr_b)
                if left is None or right is None or _norm(left) != _norm(right):
                    raise OracleError(
                        f"answer #{rank} violates join {rel_a}.{attr_a} = {rel_b}.{attr_b}: {left!r} vs {right!r}"
                    )
            else:
                raise OracleError(f"answer #{rank} lacks a row for join {rel_a} / {rel_b}")
        expected = {
            _norm(by_relation[rel][attr])
            for rel, attr in columns
            if rel in by_relation and by_relation[rel].get(attr) is not None
        }
        produced = {_norm(v) for v in answer.values.values() if v is not None}
        if columns and produced != expected:
            raise OracleError(
                f"answer #{rank} values {sorted(produced)} are not the projection {sorted(expected)} of its rows"
            )
    return len(answers)


def answer_key(answer) -> Tuple:
    """Values, cost and producing rows of one answer (order-sensitive checks)."""
    prov = answer.provenance
    return (
        tuple(sorted((k, _norm(v)) for k, v in answer.values.items() if v is not None)),
        round(answer.cost, 9),
        tuple(sorted(prov.base_tuples)) if prov is not None else (),
    )


def check_same_ranking(expected: Sequence, actual: Sequence, what: str) -> None:
    """Two answer lists agree on values, costs and order."""
    if len(expected) != len(actual):
        raise OracleError(f"{what}: {len(actual)} answers, expected {len(expected)}")
    for rank, (a, b) in enumerate(zip(expected, actual)):
        if answer_key(a) != answer_key(b):
            raise OracleError(f"{what}: answer #{rank} differs")


def check_page(full: Sequence, page: Sequence, offset: int, size: int) -> None:
    """A random-access page equals the same slice of the full stream."""
    check_same_ranking(list(full[offset:offset + size]), list(page), f"page at offset {offset}")


def check_preference(graph, preferred_edges, other_edges, weights: Mapping[str, float]) -> None:
    """After PREFERRED_OVER feedback the preferred tree must cost less."""
    preferred = tree_cost(graph, preferred_edges, weights)
    other = tree_cost(graph, other_edges, weights)
    if not preferred < other:
        raise OracleError(f"preferred tree costs {preferred!r}, not less than the other tree's {other!r}")


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def check_registration(graph, edges_added, new_relations: Set[str], existing_relations: Set[str]) -> None:
    """Every added edge joins a new-source attribute to an existing attribute."""
    for edge in edges_added:
        a, b = graph.node(edge.u), graph.node(edge.v)
        if a.kind.value != "attribute" or b.kind.value != "attribute":
            raise OracleError(f"added edge {edge.edge_id} does not join two attributes")
        sides = {a.relation in new_relations, b.relation in new_relations}
        other = b if a.relation in new_relations else a
        if sides != {True, False} or other.relation not in existing_relations:
            raise OracleError(f"added edge {edge.edge_id} does not join the new source to an existing attribute")


def check_shared_values(correspondences, rows: RowStore) -> None:
    """Every accepted correspondence pairs attributes sharing a raw value."""
    for c in correspondences:
        left = rows.values(c.source.relation, c.source.attribute)
        right = rows.values(c.target.relation, c.target.attribute)
        if left.isdisjoint(right):
            raise OracleError(f"accepted pair {c.source.qualified} ~ {c.target.qualified} shares no value")


def check_filter_admitted(correspondences, rows: RowStore) -> None:
    """Every relation pair with an accepted correspondence has an attribute pair sharing a raw value.

    This is what ``value_filter=True`` does guarantee: it drops relation
    pairs without any value-sharing attribute pair before scoring.
    """
    for left, right in sorted({(c.source.relation, c.target.relation) for c in correspondences}):
        if not any(
            not rows.values(left, a).isdisjoint(rows.values(right, b))
            for a in rows.attributes(left)
            for b in rows.attributes(right)
        ):
            raise OracleError(f"accepted a pair of {left} and {right}, which share no value in any attribute")


def correspondence_set(correspondences) -> Set[Tuple[str, str, str]]:
    """Order-independent identity of accepted correspondences."""
    return {
        (*sorted((c.source.qualified, c.target.qualified)), c.matcher)
        for c in correspondences
    }
