"""Unit tests for repro.obs.trace: spans, contexts, and exporters."""

import json
import threading

from repro.obs import Tracer, to_chrome, to_jsonl, write_trace
from repro.obs import trace


class TestNoActiveContext:
    def test_helpers_are_noops(self):
        assert not trace.active()
        with trace.span("anything"):
            pass  # no context: must not raise or record
        trace.leaf("leaf", 1.0)
        trace.event("event")
        trace.advance(5.0)
        assert not trace.active()


class TestSpanRecording:
    def test_request_root_and_nesting(self):
        tracer = Tracer()
        with tracer.request("the request", 3):
            with trace.span("step:execution", note="n"):
                trace.leaf("op", 0.5, rows=2)
            trace.leaf("lm.call", 1.5)
        [(index, root)] = tracer.roots
        assert index == 3
        assert root.name == "request"
        assert root.attrs == {"index": 3, "request": "the request"}
        assert root.duration_s == 2.0
        step, call = root.children
        assert step.name == "step:execution"
        assert step.attrs == {"note": "n"}
        assert step.start_s == 0.0 and step.end_s == 0.5
        assert step.children[0].name == "op"
        assert call.start_s == 0.5 and call.end_s == 2.0

    def test_leaves_lay_out_sequentially(self):
        tracer = Tracer()
        with tracer.request("r", 0):
            trace.leaf("a", 1.0)
            trace.leaf("b", 2.0)
        [(_, root)] = tracer.roots
        a, b = root.children
        assert (a.start_s, a.end_s) == (0.0, 1.0)
        assert (b.start_s, b.end_s) == (1.0, 3.0)
        assert root.end_s == 3.0

    def test_events_attach_to_innermost_open_span(self):
        tracer = Tracer()
        with tracer.request("r", 0):
            with trace.span("outer"):
                trace.leaf("work", 1.0)
                trace.event("breaker.trip", state="open")
        [(_, root)] = tracer.roots
        outer = root.children[0]
        [happened] = outer.events
        assert happened.name == "breaker.trip"
        assert happened.at_s == 1.0
        assert happened.attrs == {"state": "open"}

    def test_advance_moves_cursor_inside_open_span(self):
        tracer = Tracer()
        with tracer.request("r", 0):
            with trace.span("op"):
                trace.advance(0.25)
        [(_, root)] = tracer.roots
        assert root.children[0].duration_s == 0.25

    def test_suspended_hides_context(self):
        tracer = Tracer()
        with tracer.request("r", 0):
            with trace.suspended():
                assert not trace.active()
                trace.leaf("hidden", 9.0)
            assert trace.active()
        [(_, root)] = tracer.roots
        assert root.children == []
        assert root.end_s == 0.0

    def test_walk_is_depth_first_preorder(self):
        tracer = Tracer()
        with tracer.request("r", 0):
            with trace.span("a"):
                trace.leaf("a1")
            trace.leaf("b")
        [(_, root)] = tracer.roots
        assert [s.name for s in root.walk()] == ["request", "a", "a1", "b"]

    def test_roots_sorted_by_request_index(self):
        tracer = Tracer()
        for index in (2, 0, 1):
            with tracer.request(f"r{index}", index):
                trace.leaf("work", float(index))
        assert [index for index, _ in tracer.roots] == [0, 1, 2]
        tracer.clear()
        assert tracer.roots == []

    def test_contexts_are_thread_local(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["active"] = trace.active()

        with tracer.request("r", 0):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["active"] is False


class TestExporters:
    def _tracer(self):
        tracer = Tracer()
        with tracer.request("question", 0):
            with trace.span("step:execution"):
                trace.leaf("op:Scan", 0.001, rows_out=5)
            trace.event("note", detail=1)
        return tracer

    def test_jsonl_one_record_per_span(self):
        lines = to_jsonl(self._tracer()).splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == [
            "request",
            "step:execution",
            "op:Scan",
        ]
        assert records[0]["parent"] is None
        assert records[1]["parent"] == records[0]["id"]
        assert records[2]["parent"] == records[1]["id"]
        assert records[2]["attrs"] == {"rows_out": 5}
        assert records[0]["events"][0]["name"] == "note"

    def test_chrome_document_shape(self):
        document = json.loads(to_chrome(self._tracer()))
        assert document["displayTimeUnit"] == "ms"
        spans = [
            e for e in document["traceEvents"] if e["ph"] == "X"
        ]
        instants = [
            e for e in document["traceEvents"] if e["ph"] == "i"
        ]
        assert [s["name"] for s in spans] == [
            "request",
            "step:execution",
            "op:Scan",
        ]
        assert spans[2]["dur"] == 1000  # 0.001 s -> 1000 us
        assert [i["name"] for i in instants] == ["note"]
        assert all(e["tid"] == 0 for e in document["traceEvents"])

    def test_empty_tracer_exports(self):
        tracer = Tracer()
        assert to_jsonl(tracer) == ""
        assert json.loads(to_chrome(tracer)) == {
            "displayTimeUnit": "ms",
            "traceEvents": [],
        }

    def test_write_trace_formats(self, tmp_path):
        tracer = self._tracer()
        chrome = write_trace(tracer, tmp_path / "t.json")
        jsonl = write_trace(
            tracer, tmp_path / "t.jsonl", format="jsonl"
        )
        assert json.loads(chrome.read_text())["traceEvents"]
        assert len(jsonl.read_text().splitlines()) == 3

    def test_write_trace_rejects_unknown_format(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            write_trace(Tracer(), tmp_path / "t.bin", format="binary")
