"""Property tests for Tracer.ingest id-remapping.

The query server evaluates each request under a thread-local tracer and
merges its events into the main trace afterwards; each private tracer
assigns span ids from 1, so merging must remap ids to fresh ones while
preserving the parent-link structure. These properties pin the invariants
for arbitrary span forests — including merges of already-merged traces,
which is what happens when many requests' events pass through the same
main tracer.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.sinks import InMemorySink, meta_event, validate_events
from repro.obs.trace import Tracer

SLOW = settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def forests(draw):
    """A worker-shaped event batch: spans with ids 1..n (parents may point
    at other batch spans, be None, or dangle outside the batch — a worker
    never re-sends spans the master already has), plus optional instants."""
    n = draw(st.integers(min_value=1, max_value=10))
    events = []
    for i in range(n):
        span_id = i + 1
        parent = draw(st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=n + 3).filter(
                lambda p, s=span_id: p != s
            ),
        ))
        events.append({
            "type": "span", "name": f"s{span_id}", "cat": "worker",
            "id": span_id, "parent": parent,
            "ts": 100 * span_id, "dur": 7, "attrs": {"k": span_id},
        })
    for j in range(draw(st.integers(min_value=0, max_value=3))):
        pos = draw(st.integers(min_value=0, max_value=len(events)))
        events.insert(pos, {
            "type": "instant", "name": f"i{j}", "cat": "worker",
            "ts": 50 * (j + 1), "attrs": {},
        })
    return events


def _shape(events):
    """Canonical parent structure: for each event (in order), the index of
    its parent within the batch, or None for roots/external parents.
    Invariant under id remapping."""
    index = {}
    for i, event in enumerate(events):
        if "id" in event:
            index[event["id"]] = i
    return [
        (event["type"], event["name"], index.get(event.get("parent")))
        for event in events
    ]


def _ingest(events, parent_id=None, **extra):
    sink = InMemorySink()
    tracer = Tracer(sink)
    # burn some ids so worker ids always collide with master history
    tracer._next_id = 5
    tracer.ingest(events, parent_id=parent_id, **extra)
    return sink.events


class TestIngestProperties:
    @SLOW
    @given(forests())
    def test_ids_are_fresh_and_unique(self, events):
        out = _ingest(events)
        out_ids = [e["id"] for e in out if "id" in e]
        assert len(out_ids) == len(set(out_ids))
        assert all(oid >= 5 for oid in out_ids)

    @SLOW
    @given(forests(), st.one_of(st.none(), st.integers(1, 4)))
    def test_parent_links_are_remapped_consistently(self, events, parent_id):
        out = _ingest(events, parent_id=parent_id)
        id_map = {
            src["id"]: dst["id"]
            for src, dst in zip(events, out) if "id" in src
        }
        batch_ids = set(id_map)
        for src, dst in zip(events, out):
            if src["type"] != "span":
                continue
            if src["parent"] in batch_ids:
                assert dst["parent"] == id_map[src["parent"]]
            else:
                # roots and dangling parents reparent under the graft point
                assert dst["parent"] == parent_id

    @SLOW
    @given(forests())
    def test_structure_is_isomorphic_after_merge(self, events):
        assert _shape(_ingest(events)) == _shape(events)

    @SLOW
    @given(forests())
    def test_merge_of_merges_preserves_structure(self, events):
        once = _ingest(events)
        twice = _ingest(once)
        assert _shape(twice) == _shape(once) == _shape(events)
        ids = [e["id"] for e in twice if "id" in e]
        assert len(ids) == len(set(ids))

    @SLOW
    @given(forests(), st.integers(0, 7))
    def test_extra_attrs_stamped_and_originals_kept(self, events, worker):
        out = _ingest(events, worker=worker)
        for src, dst in zip(events, out):
            assert dst["attrs"].get("worker") == worker
            for key, value in src["attrs"].items():
                assert dst["attrs"][key] == value
            assert "worker" not in src["attrs"]  # input not mutated

    @SLOW
    @given(st.lists(forests(), min_size=2, max_size=4))
    def test_many_workers_never_collide(self, batches):
        """Worker tracers all start ids at 1; merging several batches into
        one master must still yield globally unique ids and a valid trace."""
        sink = InMemorySink()
        master = Tracer(sink)
        sink.emit(meta_event())
        root = master.span("root", "run")
        for w, batch in enumerate(batches):
            master.ingest(batch, parent_id=root.span_id, worker=w)
        root.end()
        ids = [e["id"] for e in sink.events if "id" in e]
        assert len(ids) == len(set(ids))
        assert validate_events(sink.events) == []
