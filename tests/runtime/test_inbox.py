"""``receive_message`` read from the previous superstep's send log.

Each case is a send log, grouped by receiver as the engine's barrier
does, and the ``receive_message`` rows every receiver must read — rows written down from the envelope inbox the engine used to
deliver: one per distinct (sender, payload), first occurrences in arrival
order.
"""

import pytest

from repro.core import queries as Q
from repro.analytics.pagerank import PageRank
from repro.engine.config import EngineConfig
from repro.engine.engine import SendLog
from repro.engine.vertex import VertexProgram
from repro.graph.digraph import from_edge_list
from repro.graph.generators import web_graph
from repro.runtime import db as rdb
from repro.runtime import online
from repro.runtime.db import Inbox
from repro.runtime.online import run_online

S = 4
PAIR = [1, 2]

CASES = {
    "one sender, one payload twice": dict(
        log=[(5, [7, 7], [1.5, 1.5])], sites=[7],
        senders=[5, 5], rows={7: [(7, 5, 1.5, 4)]}),
    "two senders, equal payloads": dict(
        log=[(1, [9], [2.0]), (4, [9], [2.0])], sites=[9],
        senders=[1, 4], rows={9: [(9, 1, 2.0, 4), (9, 4, 2.0, 4)]}),
    "self-loop": dict(
        log=[(3, [3, 8], ["x", "x"])], sites=[3, 8],
        senders=[3, 3], rows={3: [(3, 3, "x", 4)], 8: [(8, 3, "x", 4)]}),
    # vertex 6 sent nothing at S - 1: the message alone runs it at S
    "woken by the message": dict(
        log=[(2, [6], [PAIR])], sites=[6],
        senders=[2], rows={6: [(6, 2, (1, 2), 4)]}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rows(name):
    case = CASES[name]
    log = SendLog.of(case["log"])
    inbox = Inbox(log.group_by_receiver()[1], case["sites"], S, log)
    rows = case["rows"]
    assert list(inbox.groups()) == list(rows)
    assert {v: inbox.rows(v) for v in rows} == rows
    assert {v: inbox.rows(v, stamped=False) for v in rows} == {
        v: [row[:3] for row in vrows] for v, vrows in rows.items()}
    assert inbox.values(1) == case["senders"]
    assert inbox.count == len(case["senders"])
    assert inbox.distinct_count() == sum(map(len, rows.values()))
    # the batch repeats a repeated message; the rows keep it once
    assert inbox.values(0) == [v for v, (_start, n) in inbox.groups().items()
                               for _ in range(n)]
    assert inbox.values(3) == [S] * inbox.count
    assert set(zip(*[inbox.values(pos) for pos in range(4)])) == {
        row for vrows in rows.values() for row in vrows}


def test_frozen_send_payloads_are_reused(monkeypatch):
    """A payload the ``send`` frame froze is looked up, not frozen again."""
    calls = []
    monkeypatch.setattr(rdb, "freeze", lambda v: calls.append(v) or v)
    log = SendLog.of([(2, [6], [PAIR])])
    inbox = Inbox(log.group_by_receiver()[1], [6], S, log,
                  frozen=[(1, 2)])
    assert inbox.rows(6) == [(6, 2, (1, 2), 4)]
    assert calls == []


class Script(VertexProgram):
    """Sends what ``SCRIPT`` lists for ``(superstep, vertex)``, then
    halts; its value is every message list it saw."""

    name = "script"
    SCRIPT = {
        (0, 0): [(1, 1.5), (1, 1.5)],    # one payload twice to one target
        (0, 2): [(0, 2.0)],              # two senders, equal payloads ...
        (0, 3): [(0, 2.0), (3, "x")],    # ... and a self-loop
        (1, 0): [(2, PAIR)],             # 2 last ran at superstep 0
    }

    def initial_value(self, vertex_id, graph):
        return ()

    def compute(self, ctx, messages):
        for target, payload in self.SCRIPT.get(
                (ctx.superstep, ctx.vertex_id), ()):
            ctx.send(target, payload)
        ctx.set_value(ctx.value + ((ctx.superstep, tuple(messages)),))
        ctx.vote_to_halt()


SCRIPT_ROWS = [(0, 2, 2.0, 1), (0, 3, 2.0, 1), (1, 0, 1.5, 1),
               (2, 0, (1, 2), 2), (3, 3, "x", 1)]


@pytest.mark.parametrize("workers", [1, 3, 7])
def test_online_rows(workers):
    graph = from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)])
    result = run_online(
        graph, Script(),
        "got(X, Y, M, I) :- receive_message(X, Y, M, I)."
        "heard(X, Y, M, I) :- receive(X, Y, M), superstep(X, I).",
        config=EngineConfig(num_workers=workers),
    )
    assert (result.analytic.metrics.total_cross_worker_messages > 0) == (
        workers > 1)
    assert result.query.rows("got") == SCRIPT_ROWS
    assert result.query.rows("heard") == SCRIPT_ROWS
    # the frames dropped: five distinct messages as receive_message and
    # as receive, and eight superstep rows (4 + 3 + 1 executions)
    assert result.query.stats["pruned_rows"] == 2 * 5 + 8


class Clearing(Script):
    """:class:`Script` that empties each message list it is handed."""

    def compute(self, ctx, messages):
        super().compute(ctx, messages)
        if isinstance(messages, list):
            messages.clear()


def test_analytic_editing_its_messages_changes_no_row():
    """The engine's receiver table is what the Inbox reads after the
    superstep, so an analytic that edits its message list must not edit
    ``receive_message``."""
    graph = from_edge_list([(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)])
    result = run_online(graph, Clearing(),
                        "got(X, Y, M, I) :- receive_message(X, Y, M, I).")
    assert result.query.rows("got") == SCRIPT_ROWS


def test_query4_freezes_no_payload(monkeypatch):
    """Query 4 never binds ``M``: no payload is frozen."""
    calls = []

    def counted(value):
        calls.append(value)
        return value

    monkeypatch.setattr(rdb, "freeze", counted)
    monkeypatch.setattr(online, "freeze", counted)
    # float payloads are their own frozen column: count the column calls too
    monkeypatch.setattr(rdb, "frozen_payloads", counted)
    monkeypatch.setattr(online, "frozen_payloads", counted)
    graph = web_graph(60, avg_degree=4, target_diameter=6, seed=3)
    result = run_online(graph, PageRank(num_supersteps=5),
                        Q.PAGERANK_CHECK_QUERY)
    assert result.query.stats["pruned_rows"] > 0
    assert calls == []
