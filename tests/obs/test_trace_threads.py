"""One tracer, many threads: each thread's spans nest under its own open
spans, span ids stay unique, and the trace validates.

The query server traces its evaluation threads, its event loop and its
registration work into the one process-wide tracer, so a span opened on
one thread must never become the parent of a span opened on another.
"""

import sys
import threading

import pytest

from repro.obs.sinks import InMemorySink, meta_event, validate_events
from repro.obs.trace import Tracer


def spans(sink):
    return [e for e in sink.events if e["type"] == "span"]


def traced_sink():
    sink = InMemorySink()
    sink.emit(meta_event())
    return sink


def run_threads(count, target):
    errors = []

    def guarded(index):
        try:
            target(index)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def assert_nested_by_thread(events):
    """Every span's parent is the span its own thread opened one level
    out; the outermost spans are roots."""
    by_id = {e["id"]: e for e in events}
    assert len(by_id) == len(events), "span ids are not unique"
    for event in events:
        level, thread = event["attrs"]["level"], event["attrs"]["thread"]
        if level == 0:
            assert event["parent"] is None
            continue
        parent = by_id[event["parent"]]
        assert (parent["attrs"]["thread"], parent["attrs"]["level"]) == \
            (thread, level - 1), event
    assert len(events) == len({(e["attrs"]["thread"], e["attrs"]["level"],
                                e["attrs"].get("rep", 0))
                               for e in events})


class TestThreadsShareOneTracer:
    THREADS = 4
    DEPTH = 5

    def test_lockstep_nesting_parents_within_each_thread(self):
        """Every thread opens level L before any opens level L + 1, and
        ends level L + 1 before any ends level L: with one shared stack
        each inner span would parent to another thread's span."""
        sink = traced_sink()
        tracer = Tracer(sink)
        barrier = threading.Barrier(self.THREADS, timeout=30)

        def worker(index):
            opened = []
            for level in range(self.DEPTH):
                opened.append(tracer.span("nested", "worker", thread=index,
                                          level=level))
                barrier.wait()
            for span in reversed(opened):
                barrier.wait()
                span.end()

        run_threads(self.THREADS, worker)
        events = spans(sink)
        assert len(events) == self.THREADS * self.DEPTH
        assert_nested_by_thread(events)
        assert validate_events(sink.events) == []

    def test_contended_nesting_keeps_ids_unique(self):
        """Free-running threads, switched as often as the interpreter
        allows, each open 200 nested pairs."""
        sink = traced_sink()
        tracer = Tracer(sink)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def worker(index):
                for rep in range(200):
                    with tracer.span("outer", "worker", thread=index,
                                     level=0, rep=rep):
                        with tracer.span("inner", "worker", thread=index,
                                         level=1, rep=rep):
                            pass

            run_threads(self.THREADS, worker)
        finally:
            sys.setswitchinterval(interval)
        events = spans(sink)
        assert len(events) == self.THREADS * 400
        by_id = {e["id"]: e for e in events}
        for event in events:
            if event["attrs"]["level"] == 1:
                parent = by_id[event["parent"]]
                assert parent["attrs"]["thread"] == event["attrs"]["thread"]
                assert parent["attrs"]["rep"] == event["attrs"]["rep"]
        assert_nested_by_thread(events)
        assert validate_events(sink.events) == []

    def test_record_parents_to_the_calling_threads_span(self):
        sink = traced_sink()
        tracer = Tracer(sink)
        opened = threading.Event()
        recorded = threading.Event()

        def holder(_index):
            with tracer.span("held", "worker"):
                opened.set()
                assert recorded.wait(30)

        thread = threading.Thread(target=holder, args=(0,))
        thread.start()
        assert opened.wait(30)
        tracer.record("request", "serve", 0.001)
        recorded.set()
        thread.join(30)
        request = next(e for e in spans(sink) if e["name"] == "request")
        assert request["parent"] is None


class TestClose:
    def test_close_ends_only_the_calling_threads_spans(self):
        sink = traced_sink()
        tracer = Tracer(sink)
        opened, closed = threading.Event(), threading.Event()

        def other(_index):
            span = tracer.span("other", "worker")
            opened.set()
            assert closed.wait(30)
            span.end()  # after close: dropped, not raised
            tracer.event("late", "worker")
            with tracer.span("later", "worker"):
                pass

        thread = threading.Thread(target=other, args=(0,))
        thread.start()
        assert opened.wait(30)
        tracer.span("run", "run")
        tracer.span("superstep", "superstep")
        tracer.close()
        closed.set()
        thread.join(30)
        assert sorted(e["name"] for e in spans(sink)) == ["run", "superstep"]
        assert validate_events(sink.events) == []

    def test_emit_after_close_never_reaches_a_closed_sink(self):
        class StrictSink(InMemorySink):
            closed = False

            def emit(self, event):
                if self.closed:
                    raise ValueError("I/O operation on closed file")
                super().emit(event)

            def close(self):
                self.closed = True

        sink = StrictSink()
        tracer = Tracer(sink)
        span = tracer.span("open", "worker")
        tracer.close()
        span.end()
        tracer.record("late", "serve", 0.5)
        tracer.event("late")
        tracer.flush()
        tracer.close()
        assert [e["name"] for e in sink.events] == ["open"]


@pytest.mark.parametrize("threads", [2, 8])
def test_ids_come_from_one_counter(threads):
    sink = traced_sink()
    tracer = Tracer(sink)

    def worker(index):
        for level in range(50):
            tracer.span("s", "worker", thread=index, level=level).end()

    run_threads(threads, worker)
    ids = sorted(e["id"] for e in spans(sink))
    assert ids == list(range(1, threads * 50 + 1))
