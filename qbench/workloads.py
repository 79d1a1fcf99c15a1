"""The three benchmark workloads, each a closed loop over whole cycles.

A *cycle* is the unit a run repeats while time is left: every cycle of a
workload performs exactly the same operations on inputs made from the seed,
so a run's medians do not depend on how many cycles fit.  Each cycle builds
fresh sessions; their construction time is the ``setup_s`` sample.

* ``trials_served`` — the paper's §5.1 query log replayed through
  :class:`~repro.service.QServer` on a file-backed SQLite catalog, one
  session per trial.
* ``steiner_fourkw`` — one four-keyword view over the full GBCO catalog on the
  memory backend, driven through :class:`~repro.api.QService`.
* ``catalog_registration`` — a stream of value-filtered PROFILE_BLOCKED
  registrations into a community-pooled synthetic catalog of a few thousand
  relations (run by name only; not in ``BENCHMARK.json``).

Every workload also carries each other user-visible operation (a cold read,
warm reads, feedback, a registration, a save and reopen) so that every
end-to-end metric is measured on every workload; the proportions keep the
named layer dominant.  All oracle checks run outside the timed sections.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import FeedbackRequest, QService, QueryRequest, RegisterSourceRequest, ServiceConfig
from repro.core.query_generation import tree_signature
from repro.datasets import build_gbco
from repro.datasets.synthetic import make_community_source
from repro.datastore.csvio import source_from_dict, source_to_dict
from repro.graph.edges import set_edge_id_counter
from repro.learning import AnnotationKind
from repro.learning.overlays import graph_with_weights
from repro.service import QServer
from repro.steiner.topk import KBestSteiner

import oracles
from harness import OpFailed, Recorder, run_concurrently

#: Answers per page of every read.
PAGE = 25

#: Offset of the random-access page compared against the full stream.
PAGE_OFFSET = 10

#: Rows per GBCO relation (the §5.1 configuration the reference figures use).
GBCO_ROWS = 30

TENANT = "tenant-a"


def gbco_payloads(seed: int) -> Tuple[Dict[str, dict], list]:
    """The GBCO catalog as ``source_to_dict`` payloads, plus its query log."""
    dataset = build_gbco(seed=seed, rows_per_relation=GBCO_ROWS)
    return {source.name: source_to_dict(source) for source in dataset.catalog}, list(dataset.query_log)


def row_store(payloads) -> oracles.RowStore:
    rows = oracles.RowStore()
    for payload in payloads:
        rows.add_payload(payload)
    return rows


def relations_of(payload) -> set:
    return {f"{payload['name']}.{relation}" for relation in payload["relations"]}


def source_of(relation: str) -> str:
    return relation.split(".")[0]


def mirror(payload: dict, name: str) -> dict:
    """A copy of one source payload under another source and relation name."""
    (spec,) = payload["relations"].values()
    return {**payload, "name": name, "relations": {name: spec}, "foreign_keys": []}


def feedback_pair(answers) -> Optional[Tuple[object, object]]:
    """(preferred, other): the best answer of a second tree over the top answer."""
    if not answers:
        return None
    top = answers[0]
    for answer in answers[1:]:
        if answer.provenance.query_id != top.provenance.query_id:
            return answer, top
    return None


class Workload:
    """Shared plumbing: recorder, optional tracer, seed and scratch directory."""

    name = ""

    def __init__(self, seed: int, recorder: Recorder, workdir: Path, tracer=None) -> None:
        self.seed = seed
        self.rec = recorder
        self.tracer = tracer
        self.workdir = workdir
        self.setups: List[float] = []
        #: Program counters read from QService/QServer stats, summed over sessions.
        self.counters: Dict[str, float] = {}
        self.saved_bytes: List[int] = []
        self.cycles = 0

    # -- helpers --------------------------------------------------------
    def quiet(self):
        """Oracle work is never traced."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def bump(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def trace_count(self, name: str, amount: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)

    def timed_setup(self, build):
        start = time.perf_counter()
        result = build()
        self.setups.append(time.perf_counter() - start)
        return result

    def harvest_service(self, service: QService) -> None:
        stats = service.stats()
        self.bump("core.view_refreshes", stats.view_refreshes)
        self.bump("storage.pushdown_union_queries", stats.pushdown_union_queries)
        self.bump("matching.pairs_scored", stats.pairs_scored)

    def scratch(self, name: str) -> Path:
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / name
        for stale in (path, Path(f"{path}.journal")):
            if stale.exists():
                stale.unlink()
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- oracles on a plain QService view --------------------------------
    def check_service_view(self, service: QService, view_id: str, page, rows: oracles.RowStore) -> List:
        """Trees, answers and pagination of one view; returns the full ranking."""
        with self.quiet():
            view = service.view(view_id)
            graph = view.query_graph.graph
            full = list(service.stream_answers(QueryRequest(view=view_id)))
            self.rec.check("trees", oracles.check_trees, graph, view.terminals, view.trees(), graph.weights)
            self.rec.check(
                "answers", oracles.check_answers, full, graph, view.trees_by_signature(), graph.weights, rows
            )
            self.rec.check("first page", oracles.check_page, full, page, 0, PAGE)
            later = service.answers_page(QueryRequest(view=view_id, page_size=PAGE, offset=PAGE_OFFSET))
            self.rec.check("offset page", oracles.check_page, full, later, PAGE_OFFSET, PAGE)
        return full

    def check_registration(self, service: QService, response, payload, existing: set, rows, value_filter: bool) -> None:
        with self.quiet():
            self.rec.check(
                "registration edges",
                oracles.check_registration,
                service.graph,
                response.alignment.edges_added,
                relations_of(payload),
                existing,
            )
            if value_filter:
                self.rec.check(
                    "filter admitted", oracles.check_filter_admitted, response.alignment.correspondences, rows
                )
        self.trace_count("matching.pairs_scored_by_registration", response.alignment.pairs_scored)
        self.trace_count("profiling.exhaustive_pairs", len(payload["relations"]) * len(existing))

    # -- the feedback / register / reopen tail on a QService view ---------
    def service_feedback(self, service: QService, view_id: str, full: List):
        """PREFERRED_OVER feedback, then the re-ranked first page (returned)."""
        pair = feedback_pair(full)
        if pair is None:
            # These views are built to have answers from two trees.
            self.rec.check_failures.append(f"view {view_id} has no second tree to prefer")
            raise OpFailed("feedback")
        preferred, other = pair
        trees = service.view(view_id).trees_by_signature()
        graph = service.view(view_id).query_graph.graph
        start = time.perf_counter()
        self.rec.op(
            "feedback",
            service.feedback,
            FeedbackRequest(view=view_id, answer=preferred, kind=AnnotationKind.PREFERRED_OVER, other=other),
        )
        page = self.rec.op("fresh_read", service.answers_page, QueryRequest(view=view_id, page_size=PAGE))
        self.rec.add_sample("feedback_fresh", time.perf_counter() - start)
        with self.quiet():
            self.rec.check(
                "preference",
                oracles.check_preference,
                graph,
                trees[preferred.provenance.query_id].edge_ids,
                trees[other.provenance.query_id].edge_ids,
                graph.weights,
            )
        return page

    def service_reopen(self, service: QService, view_id: str, path: Path, live: List, rows):
        """save → close → open → first page; returns the reopened session."""
        self.rec.op("save", service.save, path)
        self.saved_bytes.append(os.path.getsize(path))
        self.harvest_service(service)
        service.close()
        start = time.perf_counter()
        reopened = self.rec.op("open", QService.open, path)
        page = self.rec.op("reopen_read", reopened.answers_page, QueryRequest(view=view_id, page_size=PAGE))
        self.rec.add_sample("reopen", time.perf_counter() - start)
        full = self.check_service_view(reopened, view_id, page, rows)
        with self.quiet():
            self.rec.check("reopen parity", oracles.check_same_ranking, live, full, "reopened session")
        return reopened


# ----------------------------------------------------------------------
# trials_served
# ----------------------------------------------------------------------
#: Strategy rotation over a trial's new sources.
ROTATION = ("exhaustive", "preferential", "view_based", "profile_blocked")

#: Trials whose view has no trees on the catalog minus their new sources (a
#: keyword occurs only in a held-out source: "expression" in trial 1,
#: "adipose" in trial 15).  VIEWBASED raises RegistrationError by design
#: there, so the rotation gives those trials the next strategy instead.
TREELESS_TRIALS = frozenset({1, 15})

#: Warm page reads per client thread per trial.
WARM_READS = 6


class TrialsServed(Workload):
    name = "trials_served"

    def run_cycle(self) -> None:
        payloads, log = gbco_payloads(self.seed)
        for trial, entry in enumerate(log):
            with contextlib.suppress(OpFailed):
                self.run_trial(trial, entry, payloads)
        self.cycles += 1

    def strategy_for(self, trial: int, index: int) -> str:
        strategy = ROTATION[(trial + index) % len(ROTATION)]
        if strategy == "view_based" and trial in TREELESS_TRIALS:
            strategy = ROTATION[(trial + index + 1) % len(ROTATION)]
        return strategy

    def run_trial(self, trial: int, entry, payloads: Dict[str, dict]) -> None:
        held_out = [source_of(r) for r in entry.new_relations]
        base = [p for name, p in payloads.items() if name not in held_out]
        rows = row_store(payloads.values())
        existing = set().union(*(relations_of(p) for p in base))
        db = self.scratch(f"trial{trial:02d}.sqlite")

        def build():
            set_edge_id_counter(0)
            service = QService(
                sources=[source_from_dict(p) for p in base],
                config=ServiceConfig(read_workers=2),
                backend=f"sqlite:{db}",
            )
            service.bootstrap_alignments()
            return service, QServer(service, read_workers=2)

        service, server = self.timed_setup(build)
        try:
            view_id, live = self.serve_trial(trial, entry, service, server, payloads, held_out, rows, existing)
        finally:
            server.close(timeout=60)
            self.bump("service.materializations", server.stats().pinned_materializations)
            self.bump("service.carryovers", server.stats().pinned_carryovers)
            service.close()
        self.reopen_trial(db, view_id, live, rows)

    def served_read(self, server: QServer, op: str, view: str, tenant: Optional[str] = None, sequential=True):
        return self.rec.op(op, server.query, QueryRequest(view=view, tenant=tenant), sequential=sequential)

    def check_served(self, server: QServer, result, rows) -> Tuple[object, Dict[str, object]]:
        """Oracles for one served read, against the snapshot it was served from.

        The served ranking was solved on a transient view; the same
        deterministic solve over the snapshot's frozen expansion and weights
        recovers its trees, whose signatures the answers must name.
        """
        with self.quiet():
            snapshot = server.snapshot()
            if snapshot.snapshot_id != result.snapshot_id:
                self.rec.check_failures.append("snapshot moved between a read and its check")
            sv = snapshot.views[result.view_id]
            graph = graph_with_weights(sv.query_graph.graph, snapshot.weights)
            terminals = list(sv.query_graph.terminals)
            trees = KBestSteiner().solve(graph, terminals, sv.k) if terminals else []
            by_signature = {tree_signature(tree): tree for tree in trees}
            self.rec.check("trees", oracles.check_trees, graph, terminals, trees, snapshot.weights)
            self.rec.check(
                "answers", oracles.check_answers, list(result.answers), graph, by_signature, snapshot.weights, rows
            )
        return graph, by_signature

    def serve_trial(self, trial, entry, service, server, payloads, held_out, rows, existing) -> Tuple[str, List]:
        rec = self.rec
        keywords = tuple(entry.keywords)
        cold = rec.op("cold_read", server.query, QueryRequest(keywords=keywords))
        rec.add_sample("cold", rec.samples["cold_read"][-1])
        view_id = cold.view_id
        self.check_served(server, cold, rows)

        # Warm reads from two client threads: the base ranking and a tenant.
        self.served_read(server, "tenant_first_read", view_id, TENANT)
        warm: Dict[Optional[str], List] = {}

        def client(tenant):
            def loop():
                for _ in range(WARM_READS):
                    warm[tenant] = self.served_read(server, "warm_read", view_id, tenant, sequential=False).answers
            return loop

        wall, errors = run_concurrently([client(None), client(TENANT)])
        rec.add_busy(wall)
        if errors:
            raise OpFailed("warm reads")
        with self.quiet():
            rec.check("tenant parity", oracles.check_same_ranking, warm[None], warm[TENANT], "tenant ranking")

        for index, name in enumerate(held_out):
            strategy = self.strategy_for(trial, index)
            request = RegisterSourceRequest(
                source=source_from_dict(payloads[name]),
                strategy=strategy,
                view=view_id if strategy == "view_based" else None,
                value_filter=strategy == "profile_blocked",
            )
            start = time.perf_counter()
            response = rec.op("register", server.register, request)
            fresh = self.served_read(server, "fresh_read", view_id)
            rec.add_sample("register_fresh", time.perf_counter() - start)
            self.check_registration(service, response, payloads[name], existing, rows, request.value_filter)
            existing |= relations_of(payloads[name])
            self.check_served(server, fresh, rows)

        latest = fresh
        graph, by_signature = self.check_served(server, latest, rows)
        pair = feedback_pair(list(latest.answers))
        if pair is not None:
            preferred, other = pair
            start = time.perf_counter()
            rec.op(
                "feedback",
                server.feedback,
                FeedbackRequest(view=view_id, answer=preferred, kind=AnnotationKind.PREFERRED_OVER, other=other),
            )
            latest = self.served_read(server, "fresh_read", view_id)
            rec.add_sample("feedback_fresh", time.perf_counter() - start)
            with self.quiet():
                rec.check(
                    "preference",
                    oracles.check_preference,
                    graph,
                    by_signature[preferred.provenance.query_id].edge_ids,
                    by_signature[other.provenance.query_id].edge_ids,
                    server.snapshot().weights,
                )
            self.check_served(server, latest, rows)

        rec.op("save", server.submit_mutation(service.save, kind="save").result)
        self.harvest_service(service)
        return view_id, list(latest.answers)

    def reopen_trial(self, db: Path, view_id: str, live: List, rows) -> None:
        self.saved_bytes.append(os.path.getsize(db))
        start = time.perf_counter()
        reopened = self.rec.op("open", QService.open, db)
        try:
            page = self.rec.op("reopen_read", reopened.answers_page, QueryRequest(view=view_id, page_size=PAGE))
            self.rec.add_sample("reopen", time.perf_counter() - start)
            full = self.check_service_view(reopened, view_id, page, rows)
            with self.quiet():
                self.rec.check("reopen parity", oracles.check_same_ranking, live, full, "reopened session")
        finally:
            reopened.close()


# ----------------------------------------------------------------------
# steiner_fourkw
# ----------------------------------------------------------------------
#: The query-log entries whose combined keywords ("insulin pathway pancreas
#: sample") form the four-terminal view of every cycle.  The view has
#: answers from at least two trees, its cold solve takes exactly 69 base
#: solves, and it has 90 answers on every seed, so seeds do equal work.
FOURKW_VIEW = (0, 2)

#: GBCO relations copied under a new name; none of them holds a keyword of
#: the view.  The registrar session registers all but the last, one in each
#: pause of the writer (EXHAUSTIVE); the writer registers the last
#: (PROFILE_BLOCKED with the value filter) before its registration re-read.
MIRRORED = ("author", "annotation", "ortholog", "variant", "gene2phenotype", "phenotype")

#: Warm page reads of the reader's unchanged view in each pause of the writer.
WARM_GROUP = 6


class SteinerFourKw(Workload):
    """Three sessions per cycle, built alike: a writer, a reader and a registrar.

    The writer reads the view cold, gives feedback, registers a source and
    reopens, each followed by a re-read (the heavy solves).  In every pause
    between them the reader makes a group of warm reads of its own copy of
    the view, which nothing changes, and the registrar registers one more
    source into a session without views.  The light operations are thus
    spread over the whole run, each sample the same work.
    """

    name = "steiner_fourkw"

    def run_cycle(self) -> None:
        def build():
            payloads, log = gbco_payloads(self.seed)
            set_edge_id_counter(0)
            service = QService(sources=[source_from_dict(p) for p in payloads.values()], backend="memory")
            service.bootstrap_alignments()
            return service, payloads, log

        sessions = []
        try:
            for _ in range(3):
                sessions.append(self.timed_setup(build))
            (writer, payloads, log), (reader, _, _), (registrar, _, _) = sessions
            a, b = FOURKW_VIEW
            keywords = tuple(log[a].keywords) + tuple(log[b].keywords)
            mirrors = [mirror(payloads[name], f"mirror_{name}") for name in MIRRORED]
            rows = row_store([*payloads.values(), *mirrors])
            catalog = set().union(*(relations_of(p) for p in payloads.values()))
            with contextlib.suppress(OpFailed):
                self.run_clients(writer, reader, registrar, keywords, mirrors, catalog, rows)
        finally:
            for service, _, _ in sessions:
                service.close()
        with contextlib.suppress(OpFailed):
            self.rec.op("filtered_register", filtered_register)
        self.cycles += 1

    def cold_read(self, service: QService, keywords, rows) -> Tuple[str, List]:
        start = time.perf_counter()
        info = self.rec.op("create_view", service.create_view, QueryRequest(keywords=keywords), materialize=False)
        page = self.rec.op("cold_read", service.answers_page, QueryRequest(view=info.view_id, page_size=PAGE))
        self.rec.add_sample("cold", time.perf_counter() - start)
        return info.view_id, self.check_service_view(service, info.view_id, page, rows)

    def register(self, service: QService, payload: dict, value_filter: bool):
        request = RegisterSourceRequest(
            source=source_from_dict(payload),
            strategy="profile_blocked" if value_filter else "exhaustive",
            value_filter=value_filter,
        )
        return self.rec.op("register", service.register_source, request)

    def run_clients(self, writer, reader, registrar, keywords, mirrors, catalog: set, rows) -> None:
        rec = self.rec
        reader_view, _ = self.cold_read(reader, keywords, rows)
        registered = set(catalog)
        pending = iter(mirrors[:-1])

        def pause():
            for _ in range(WARM_GROUP):
                rec.op("warm_read", reader.answers_page, QueryRequest(view=reader_view, page_size=PAGE))
            payload = next(pending)
            response = self.register(registrar, payload, False)
            self.check_registration(registrar, response, payload, registered, rows, False)
            registered.update(relations_of(payload))

        pause()
        view_id, full = self.cold_read(writer, keywords, rows)
        pause()
        page = self.service_feedback(writer, view_id, full)
        self.check_service_view(writer, view_id, page, rows)
        pause()

        start = time.perf_counter()
        response = self.register(writer, mirrors[-1], True)
        page = rec.op("fresh_read", writer.answers_page, QueryRequest(view=view_id, page_size=PAGE))
        rec.add_sample("register_fresh", time.perf_counter() - start)
        self.check_registration(writer, response, mirrors[-1], catalog, rows, True)
        full = self.check_service_view(writer, view_id, page, rows)
        pause()

        reopened = self.service_reopen(writer, view_id, self.scratch("fourkw.json"), full, rows)
        self.harvest_service(reopened)
        reopened.close()
        pause()


#: The fixed (seed-independent) pair of sources of the one operation kept
#: although it fails: a value-filtered registration whose accepted pairs
#: must all share a value.  Both sources come from one community, so
#: ``attr_1`` overlaps while ``attr_2`` never does; the aligner scores the
#: whole relation pair and accepts ``attr_2 ~ attr_2`` by name.
FILTERED_PAIR = (("filtered_a", 0, 0), ("filtered_b", 0, 1))


def filtered_register():
    """Register with the value filter and hold every accepted pair to a shared value.

    Raises :class:`~oracles.OracleError` (counted as a failed operation)
    when an accepted pair shares no value; see ``FILTERED_PAIR``.
    """
    (name_a, comm_a, seed_a), (name_b, comm_b, seed_b) = FILTERED_PAIR
    existing, new = community_payload(name_a, comm_a, seed_a), community_payload(name_b, comm_b, seed_b)
    set_edge_id_counter(0)
    service = QService([source_from_dict(existing)], backend="memory")
    try:
        response = service.register_source(
            RegisterSourceRequest(source=source_from_dict(new), strategy="profile_blocked", value_filter=True)
        )
    finally:
        service.close()
    oracles.check_shared_values(response.alignment.correspondences, row_store([existing, new]))
    return response


# ----------------------------------------------------------------------
# catalog_registration
# ----------------------------------------------------------------------
#: Existing relations in the synthetic catalog and their communities.
CATALOG_RELATIONS = 2000
COMMUNITIES = 16

#: Registrations per cycle: 48 x ~125 scored pairs overflow the profile
#: index's 4,096-entry pair memo within every cycle.
CATALOG_REGISTRATIONS = 48

#: Stream position of the probe pass (a view read, feedback, one more
#: registration and a reopen).  It comes early: after a few registrations
#: the probe view's trees cross relations, while feedback, whose MIRA step
#: adds one positivity constraint per learnable edge of the whole graph,
#: still costs about a second (ten after 84 registrations).
PROBE_AT = 3

#: Registrations per run whose PROFILE_BLOCKED correspondences are compared
#: with EXHAUSTIVE + value filter in a separate session.
EXHAUSTIVE_SAMPLE = 2

#: MinHash shape and posting shards of the catalog sessions.
SKETCH_NUM_PERM = 48
PROFILE_SHARDS = 4


def catalog_config() -> ServiceConfig:
    return ServiceConfig(profile_shards=PROFILE_SHARDS, sketch_num_perm=SKETCH_NUM_PERM)


def community_payload(name: str, community: int, seed: int) -> dict:
    return source_to_dict(make_community_source(name, community=community, seed=seed))


#: Warm page reads right after the cold read of the catalog probe view.
WARM_BURST = 32


def probe_keywords(anchor: dict, partner: dict) -> Tuple[str, str]:
    """Both values of the first anchor row whose ``attr_1`` the partner shares.

    ``attr_1`` is shared across the community and ``attr_2`` is unique, so
    one tree stays inside the anchor row and another joins it, through an
    association edge, to the already registered same-community partner:
    the view always has answers from two trees to give feedback on.
    """
    (partner_spec,) = partner["relations"].values()
    shared = {str(row[0]) for row in partner_spec["rows"]}
    (spec,) = anchor["relations"].values()
    row = next(row for row in spec["rows"] if str(row[0]) in shared)
    return str(row[0]), str(row[1])


class CatalogRegistration(Workload):
    name = "catalog_registration"

    def catalog_payloads(self) -> List[dict]:
        base = self.seed * 100_003
        return [
            community_payload(f"rel_{i:05d}", i % COMMUNITIES, base + i) for i in range(CATALOG_RELATIONS)
        ]

    def incoming_payloads(self) -> List[dict]:
        base = self.seed * 100_003 + CATALOG_RELATIONS
        return [
            community_payload(f"new_{j:04d}", j % COMMUNITIES, base + j)
            for j in range(CATALOG_REGISTRATIONS + 1)
        ]

    def build(self, payloads) -> QService:
        set_edge_id_counter(0)
        return QService([source_from_dict(p) for p in payloads], config=catalog_config(), backend="memory")

    def run_cycle(self) -> None:
        payloads: List[dict] = []

        def setup():
            payloads.extend(self.catalog_payloads())
            return self.build(payloads)

        service = self.timed_setup(setup)
        incoming = self.incoming_payloads()
        rows = row_store(payloads + incoming)
        existing = set().union(*(relations_of(p) for p in payloads))
        stream = incoming[:CATALOG_REGISTRATIONS]
        blocked: List[set] = []
        try:
            for position, payload in enumerate(stream):
                if position == PROBE_AT:
                    keywords = probe_keywords(payloads[0], stream[0])
                    service = self.probe(service, keywords, incoming[-1], rows, existing)
                blocked.append(self.register(service, payload, existing, rows))
        except OpFailed:
            pass
        self.harvest_service(service)
        service.close()
        if self.cycles == 0:
            self.check_exhaustive(payloads, stream[:EXHAUSTIVE_SAMPLE], blocked[:EXHAUSTIVE_SAMPLE])
        self.cycles += 1

    def submit(self, service: QService, payload: dict):
        request = RegisterSourceRequest(source=source_from_dict(payload), strategy="profile_blocked", value_filter=True)
        return self.rec.op("register", service.register_source, request)

    def register(self, service: QService, payload: dict, existing: set, rows) -> set:
        response = self.submit(service, payload)
        self.check_registration(service, response, payload, existing, rows, True)
        existing |= relations_of(payload)
        return oracles.correspondence_set(response.alignment.correspondences)

    def warm_reads(self, service: QService, view_id: str) -> None:
        for _ in range(WARM_BURST):
            self.rec.op("warm_read", service.answers_page, QueryRequest(view=view_id, page_size=PAGE))

    def probe(self, service: QService, keywords, extra: dict, rows, existing: set) -> QService:
        """One read/feedback/register/reopen pass over a view on the catalog.

        Returns the reopened session, which the stream continues on.
        """
        rec = self.rec
        start = time.perf_counter()
        info = rec.op("create_view", service.create_view, QueryRequest(keywords=keywords), materialize=False)
        page = rec.op("cold_read", service.answers_page, QueryRequest(view=info.view_id, page_size=PAGE))
        rec.add_sample("cold", time.perf_counter() - start)
        view_id = info.view_id
        full = self.check_service_view(service, view_id, page, rows)
        self.warm_reads(service, view_id)
        page = self.service_feedback(service, view_id, full)
        self.check_service_view(service, view_id, page, rows)

        start = time.perf_counter()
        response = self.submit(service, extra)
        page = rec.op("fresh_read", service.answers_page, QueryRequest(view=view_id, page_size=PAGE))
        rec.add_sample("register_fresh", time.perf_counter() - start)
        self.check_registration(service, response, extra, existing, rows, True)
        existing |= relations_of(extra)
        full = self.check_service_view(service, view_id, page, rows)
        return self.service_reopen(service, view_id, self.scratch("catalog.json"), full, rows)

    def check_exhaustive(self, payloads, sample: List[dict], blocked: List[set]) -> None:
        """EXHAUSTIVE + value filter, in a separate session, accepts the same pairs."""
        with self.quiet():
            # The reference session is built exactly like the cycle's own,
            # so its construction is one more set-up sample.
            reference = self.timed_setup(lambda: self.build(payloads))
            try:
                for payload, accepted in zip(sample, blocked):
                    response = reference.register_source(
                        RegisterSourceRequest(
                            source=source_from_dict(payload), strategy="exhaustive", value_filter=True
                        )
                    )
                    exhaustive = oracles.correspondence_set(response.alignment.correspondences)
                    self.rec.check("blocked = exhaustive", _same_set, accepted, exhaustive, payload["name"])
            finally:
                reference.close()


def _same_set(blocked: set, exhaustive: set, name: str) -> None:
    if blocked != exhaustive:
        raise oracles.OracleError(
            f"{name}: PROFILE_BLOCKED accepted {len(blocked)} pairs, EXHAUSTIVE {len(exhaustive)}; "
            f"{len(blocked ^ exhaustive)} differ"
        )


WORKLOADS = {cls.name: cls for cls in (TrialsServed, SteinerFourKw, CatalogRegistration)}
