"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main
from repro.graph.generators import chain_graph, web_graph, with_random_weights
from repro.graph.io import write_edge_list
from repro.provenance.spill import SpillManager, open_store_view
from tests.conftest import expected_facts


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "graph.txt"
    g = with_random_weights(
        web_graph(80, avg_degree=4, target_diameter=6, seed=81), seed=81
    )
    write_edge_list(g, path, weighted=True)
    return str(path)


class TestCLI:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "IN-04" in out and "UK-05" in out

    def test_run(self, graph_file, capsys):
        code = main(["run", "--analytic", "sssp", "--graph", graph_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "supersteps:" in out

    def test_monitor_named_query(self, graph_file, capsys):
        code = main([
            "monitor", "--analytic", "sssp", "--graph", graph_file,
            "--query", "query5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "check_failed: 0 rows" in out

    def test_monitor_inline_query(self, graph_file, capsys):
        code = main([
            "monitor", "--analytic", "sssp", "--graph", graph_file,
            "--query", "got(X, I) :- receive_message(X, Y, M, I).",
        ])
        assert code == 0
        assert "got:" in capsys.readouterr().out

    def test_apt(self, graph_file, capsys):
        code = main([
            "apt", "--analytic", "sssp", "--graph", graph_file,
            "--eps", "0.1",
        ])
        assert code == 0
        assert "verdict" in capsys.readouterr().out

    def test_capture_query_inspect_roundtrip(self, graph_file, tmp_path,
                                             capsys):
        store_dir = str(tmp_path / "prov")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir,
        ]) == 0
        assert os.path.exists(os.path.join(store_dir, "static.slab"))
        capsys.readouterr()

        assert main([
            "query", "--store", store_dir, "--query", "query10",
            "--param", "alpha=0", "--param", "sigma=0",
            "--show", "back_lineage",
        ]) == 0
        out = capsys.readouterr().out
        assert "back_trace:" in out

        assert main(["inspect", "--store", store_dir]) == 0
        assert "provenance store" in capsys.readouterr().out

        assert main(["inspect", "--store", store_dir, "--vertex", "0"]) == 0
        assert "vertex 0" in capsys.readouterr().out

    def test_spill_flags_rejected(self, graph_file, tmp_path):
        # one capture path: there is no switch left to pick another
        store_dir = str(tmp_path / "prov")
        for flag in (["--spill-sync"], ["--spill-compression", "raw"]):
            with pytest.raises(SystemExit):
                main(["capture", "--analytic", "sssp", "--graph", graph_file,
                      "--out", store_dir, *flag])
        with pytest.raises(SystemExit):
            main(["store", "migrate", store_dir,
                  "--spill-compression", "raw"])
        assert not os.path.exists(store_dir)

    def test_no_vectorize_flag_rejected(self, tmp_path):
        # one offline evaluator: there is no switch left to pick the rows
        for command in (["query", "--store", str(tmp_path), "--query",
                         "query10"],
                        ["monitor", "--analytic", "sssp", "--query",
                         "query5"]):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--no-vectorize"])
            assert exc.value.code == 2

    def test_capture_default_is_async_zlib(self, graph_file, tmp_path,
                                           capsys):
        store_dir = str(tmp_path / "prov-zlib")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir,
        ]) == 0
        assert "(zlib)" in capsys.readouterr().out

    def test_missing_query_errors(self, graph_file, capsys):
        code = main(["monitor", "--analytic", "sssp", "--graph", graph_file])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_param_errors(self, graph_file):
        code = main([
            "monitor", "--analytic", "sssp", "--graph", graph_file,
            "--query", "query5", "--param", "oops",
        ])
        assert code == 2

    def test_unknown_analytic_errors(self, graph_file):
        code = main(["run", "--analytic", "nope", "--graph", graph_file])
        assert code == 2


class TestObservabilityFlags:
    def test_run_prints_metrics_line(self, graph_file, capsys):
        assert main(["run", "--analytic", "sssp", "--graph", graph_file]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "vertex_executions=" in out
        assert "frontier_skip_ratio=" in out

    def test_monitor_prints_metrics_line(self, graph_file, capsys):
        assert main([
            "monitor", "--analytic", "sssp", "--graph", graph_file,
            "--query", "query5",
        ]) == 0
        assert "metrics:" in capsys.readouterr().out

    def test_run_trace_writes_valid_jsonl(self, graph_file, tmp_path,
                                          capsys):
        from repro.obs.sinks import read_trace, validate_events

        trace_file = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--analytic", "sssp", "--graph", graph_file,
            "--trace", trace_file,
        ]) == 0
        events = read_trace(trace_file)
        assert validate_events(events) == []
        cats = {e["cat"] for e in events if e["type"] == "span"}
        assert {"run", "superstep", "compute"} <= cats
        assert "trace (jsonl) written" in capsys.readouterr().err

    def test_stats_summarizes_cli_trace(self, graph_file, tmp_path, capsys):
        trace_file = str(tmp_path / "cap.jsonl")
        store_dir = str(tmp_path / "prov")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir, "--trace", trace_file,
        ]) == 0
        capsys.readouterr()
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "1 run(s)" in out
        assert "provenance-capture" in out

    @pytest.mark.parametrize("fmt", [[], ["--format", "otel"]],
                             ids=["text", "otel"])
    def test_stats_names_a_foreign_trace_invalid(self, tmp_path, capsys,
                                                 fmt):
        """A JSONL file in another span schema is named invalid, exit 1,
        by every output format: no output reads it unchecked."""
        trace_file = str(tmp_path / "foreign.jsonl")
        with open(trace_file, "w", encoding="utf-8") as fh:
            fh.write('{"type":"span","name":"x","start_us":0,"end_us":5}\n')
        assert main(["stats", trace_file, *fmt]) == 1
        captured = capsys.readouterr()
        assert "invalid: event 0 (span): missing key 'dur'" in captured.err
        assert "invalid: trace has no meta event" in captured.err
        assert captured.out == ""

    def test_query_verbose_prints_stratum_timings(self, graph_file,
                                                  tmp_path, capsys):
        store_dir = str(tmp_path / "prov")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir,
        ]) == 0
        capsys.readouterr()
        assert main([
            "query", "--store", store_dir, "--query", "query10",
            "--param", "alpha=0", "--param", "sigma=0", "-v",
        ]) == 0
        assert "observed stratum timings:" in capsys.readouterr().out


class TestExportAndExplainCommands:
    def test_export_roundtrip(self, graph_file, tmp_path, capsys):
        store_dir = str(tmp_path / "prov2")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir,
        ]) == 0
        capsys.readouterr()
        out_file = str(tmp_path / "prov.jsonl")
        assert main(["export", "--store", store_dir, "--out", out_file]) == 0
        assert "exported" in capsys.readouterr().out
        with open(out_file, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            facts = [json.loads(line) for line in fh]
        with SpillManager.open(store_dir) as spill:
            store = open_store_view(spill)
            assert set(header["schemas"]) == set(store.relations())
            assert all(
                header["schemas"][relation]["arity"]
                == store.registry.get(relation).arity
                for relation in store.relations()
            )
            assert len(facts) == store.num_rows > 0
            assert facts == expected_facts(store)

    def test_explain_named_query(self, capsys):
        assert main([
            "explain", "--query", "query10",
            "--param", "alpha=0", "--param", "sigma=5",
        ]) == 0
        out = capsys.readouterr().out
        assert "direction: backward" in out

    def test_explain_verbose(self, capsys):
        assert main([
            "explain", "--query", "query4", "--verbose",
        ]) == 0
        out = capsys.readouterr().out
        assert "setup plan (prebound: none) [layer program]" in out
        assert "layer program:" in out and "row function" not in out


class TestSimulatedWorkerFlags:
    def test_run_worker_counts_match(self, graph_file, capsys):
        assert main(["run", "--analytic", "sssp", "--graph", graph_file,
                     "--num-workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["run", "--analytic", "sssp", "--graph", graph_file,
                     "--num-workers", "7"]) == 0
        seven = capsys.readouterr().out
        assert "workers:     7 simulated\n" in seven
        # everything except the worker-count and wall lines is identical
        strip = lambda out: [l for l in out.splitlines()
                             if not l.startswith(("workers:", "wall:"))]
        assert strip(seven) == strip(one)

    def test_transport_flag(self, graph_file):
        # one transport: there is no switch left to pick another
        with pytest.raises(SystemExit):
            main(["run", "--analytic", "sssp", "--graph", graph_file,
                  "--transport", "queue"])

    @pytest.mark.parametrize("backend", ["serial", "parallel"])
    def test_backend_flag_is_rejected(self, graph_file, backend):
        # one engine: there is no switch left to pick another
        with pytest.raises(SystemExit):
            main(["run", "--analytic", "sssp", "--graph", graph_file,
                  "--backend", backend])

    def test_partitioner_flag_is_rejected(self, graph_file, capsys):
        # hash partitioning only: there is no switch left to pick another
        with pytest.raises(SystemExit) as info:
            main(["run", "--analytic", "sssp", "--graph", graph_file,
                  "--partitioner", "range"])
        assert info.value.code == 2
        assert "--partitioner" in capsys.readouterr().err

    def test_apt_simulated_workers(self, graph_file, capsys):
        assert main([
            "apt", "--analytic", "sssp", "--graph", graph_file,
            "--eps", "0.1", "--num-workers", "7",
        ]) == 0
        assert "verdict" in capsys.readouterr().out

    def test_worker_config_recorded_in_trace(self, graph_file, tmp_path,
                                             capsys):
        from repro.obs.sinks import read_trace, validate_events

        trace_file = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--analytic", "sssp", "--graph", graph_file,
            "--num-workers", "7", "--trace", trace_file,
        ]) == 0
        events = read_trace(trace_file)
        assert validate_events(events) == []
        configs = [e for e in events if e.get("name") == "run-config"]
        assert configs and configs[0]["attrs"] == {"num_workers": 7}
        runs = [e for e in events
                if e.get("type") == "span" and e.get("cat") == "run"]
        assert runs and all(e["attrs"]["workers"] == 7 for e in runs)

    def test_trace_with_transport_spans_still_validates(
            self, graph_file, tmp_path, capsys):
        """A trace written while the multiprocess backend existed — a
        ``transport`` span, barrier spans carrying ``network_bytes`` — still
        validates and summarizes."""
        from repro.obs.sinks import read_trace

        trace_file = str(tmp_path / "run.jsonl")
        assert main(["run", "--analytic", "sssp", "--graph", graph_file,
                     "--trace", trace_file]) == 0
        events = read_trace(trace_file)
        barriers = [e for e in events if e.get("cat") == "message-barrier"]
        assert barriers
        for event in barriers:
            event["attrs"].update(network_bytes=512, messages_combined=0,
                                  messages_precombined=3,
                                  transport_wait_seconds=0.001)
        first = barriers[0]
        events.append(dict(first, name="transport", cat="transport",
                           id=max(e.get("id") or 0 for e in events) + 1,
                           parent=first["parent"], attrs={"worker": 1}))
        with open(trace_file, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event) + "\n")
        capsys.readouterr()
        assert main(["stats", trace_file, "--validate"]) == 0
        assert "trace OK" in capsys.readouterr().out
        assert main(["stats", trace_file]) == 0
        out = capsys.readouterr().out
        assert "\ntransport " in out  # a phase row like any other
        assert "bytes shipped" not in out


class TestRunLedgerAndAudit:
    @pytest.fixture()
    def audited_store(self, graph_file, tmp_path, capsys):
        """A captured store plus one query against it, both ledgered (the
        store directory is the default ledger for both commands)."""
        store_dir = str(tmp_path / "prov")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir,
        ]) == 0
        assert main([
            "query", "--store", store_dir, "--query", "query10",
            "--param", "alpha=0", "--param", "sigma=0",
        ]) == 0
        capsys.readouterr()
        return store_dir

    def test_capture_and_query_records_are_linked(self, audited_store):
        from repro.obs.ledger import RunLedger

        records = RunLedger(audited_store).records()
        assert [r["command"] for r in records] == ["capture", "query"]
        capture, query = records
        assert query["parent_run_id"] == capture["run_id"]
        assert capture["run_id"].startswith("r")
        store = capture["results"]["store"]
        assert "static.slab" in store["slabs"]
        assert sorted(capture["config"]) == ["max_supersteps", "num_workers"]
        assert capture["config"]["num_workers"] == 4
        assert capture["workers"] is None
        assert capture["dataset"]["edges_sha256"]
        assert query["results"]["mode"] == "layered"
        assert query["query"]["sha256"]

    def test_manifest_names_the_capture_run(self, audited_store):
        from repro.obs.ledger import RunLedger
        from repro.provenance.spill import read_manifest

        manifest = read_manifest(audited_store)
        capture = RunLedger(audited_store).latest("capture")
        assert manifest["run_id"] == capture["run_id"]
        assert set(manifest["slabs"]) == set(
            capture["results"]["store"]["slabs"]
        )

    def test_explicit_ledger_flag_overrides_default(self, graph_file,
                                                    tmp_path, capsys):
        from repro.obs.ledger import RunLedger

        store_dir = str(tmp_path / "prov")
        ledger_dir = str(tmp_path / "ledger")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir, "--ledger", ledger_dir,
        ]) == 0
        assert RunLedger(ledger_dir).latest("capture") is not None
        assert not os.path.exists(os.path.join(store_dir, "ledger.jsonl"))

    def test_run_records_with_ledger_flag_only(self, graph_file, tmp_path,
                                               capsys):
        from repro.obs.ledger import RunLedger

        ledger_dir = str(tmp_path / "ledger")
        assert main([
            "run", "--analytic", "sssp", "--graph", graph_file,
            "--ledger", ledger_dir,
        ]) == 0
        record = RunLedger(ledger_dir).latest("run")
        assert record["results"]["values_sha256"]
        assert record["metrics"]["supersteps"] >= 1

    def test_audit_list_and_show(self, audited_store, capsys):
        assert main(["audit", "list", "--store", audited_store]) == 0
        out = capsys.readouterr().out
        assert "capture" in out and "query" in out and "run id" in out

        assert main([
            "audit", "show", "latest:capture", "--store", audited_store,
        ]) == 0
        import json

        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "capture"

    def test_audit_verify_fresh_store_passes(self, audited_store, capsys):
        assert main(["audit", "verify", "--store", audited_store]) == 0
        assert "audit verify OK" in capsys.readouterr().out

    def test_audit_verify_detects_tampering(self, audited_store, capsys):
        slab = os.path.join(audited_store, "layer-000000.slab")
        with open(slab, "r+b") as fh:
            fh.seek(16)
            fh.write(b"\x00\x01\x02")
        assert main(["audit", "verify", "--store", audited_store]) == 1
        err = capsys.readouterr().err
        assert "audit verify FAILED" in err
        assert "drift" in err

    def test_audit_diff_and_compare(self, tmp_path, capsys):
        """`audit diff` names every differing content field; `compare`,
        which gated on wall time, is no longer a command."""
        from repro.obs.ledger import RunLedger, make_record

        ledger_dir = str(tmp_path / "ledger")
        ledger = RunLedger(ledger_dir)
        a = ledger.append(make_record(
            "run", analytic="sssp", wall_seconds=1.0,
            metrics={"supersteps": 5, "messages": 100},
            results={"values_sha256": "d1"},
        ))
        b = ledger.append(make_record(
            "run", analytic="sssp", wall_seconds=1.5,
            metrics={"supersteps": 5, "messages": 140},
            results={"values_sha256": "d1"},
        ))
        assert main([
            "audit", "diff", a["run_id"], b["run_id"],
            "--ledger", ledger_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "metrics.messages" in out and "field(s) differ" in out
        assert "wall_seconds" not in out  # timing is not a content field

        with pytest.raises(SystemExit):
            main(["compare", a["run_id"], b["run_id"],
                  "--ledger", ledger_dir])
        assert "invalid choice: 'compare'" in capsys.readouterr().err

    def test_compare_against_record_with_removed_switches(
        self, graph_file, tmp_path, capsys
    ):
        """Records written while EngineConfig still had backend, transport,
        ring_capacity, warm_pool, frontier_scheduling, spill_async,
        spill_compression and transport_wait_seconds — with a worker-process
        stamp and measured network_bytes / messages_precombined metrics —
        still load and verify."""
        from repro.obs.ledger import RunLedger

        ledger_dir = str(tmp_path / "ledger")
        assert main([
            "run", "--analytic", "sssp", "--graph", graph_file,
            "--num-workers", "7", "--ledger", ledger_dir,
        ]) == 0
        ledger = RunLedger(ledger_dir)
        (current,) = ledger.records()
        removed = {"backend", "transport", "ring_capacity", "warm_pool",
                   "frontier_scheduling", "spill_async", "spill_compression",
                   "transport_wait_seconds"}
        assert not removed & set(current["config"])
        assert current["workers"] is None
        assert not {"network_bytes", "messages_precombined"} & set(
            current["metrics"])

        older = dict(current, run_id="r" + "0" * 16)
        older["config"] = dict(
            current["config"], backend="parallel", transport="ring",
            ring_capacity=1 << 20, warm_pool=True, frontier_scheduling=True,
            spill_async=False, spill_compression="raw",
            transport_wait_seconds=60.0,
        )
        older["workers"] = {"backend": "parallel", "num_workers": 7,
                            "worker_pids": [101, 102, 103, 104, 105, 106,
                                            107],
                            "transport": "ring", "warm_pool": True}
        older["metrics"] = dict(current["metrics"], network_bytes=4096,
                                messages_precombined=5)
        with open(ledger.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(older, sort_keys=True) + "\n")
        loaded = ledger.get(older["run_id"])
        assert loaded["config"]["backend"] == "parallel"
        assert loaded["config"]["transport"] == "ring"
        assert loaded["config"]["spill_compression"] == "raw"
        assert loaded["workers"]["worker_pids"][0] == 101
        assert loaded["metrics"]["network_bytes"] == 4096

        capsys.readouterr()
        assert main([
            "audit", "verify", older["run_id"], "--ledger", ledger_dir,
        ]) == 0
        assert "audit verify OK" in capsys.readouterr().out

    def test_audit_without_ledger_errors(self, tmp_path, capsys):
        assert main(["audit", "list"]) == 2
        assert "no ledger to read" in capsys.readouterr().err


class TestOTelTraceFormat:
    def test_stats_otel_names_the_traced_run(self, graph_file, tmp_path,
                                             capsys):
        """``--trace`` streams JSONL; ``stats --format otel`` derives the
        OTLP document from it, named after the run on the meta line."""
        import hashlib

        from repro.obs.otel import validate_otlp

        trace_file = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--graph", graph_file, "--supersteps", "3",
            "--trace", trace_file,
        ]) == 0
        assert "trace (jsonl) written" in capsys.readouterr().err
        with open(trace_file, "r", encoding="utf-8") as fh:
            run_id = json.loads(fh.readline())["run_id"]
        out_file = str(tmp_path / "run.otel.json")
        assert main([
            "stats", trace_file, "--format", "otel", "--out", out_file,
        ]) == 0
        with open(out_file, "r", encoding="utf-8") as fh:
            otlp = json.load(fh)
        assert validate_otlp(otlp) == []
        resource = {
            kv["key"]: kv["value"]
            for kv in otlp["resourceSpans"][0]["resource"]["attributes"]
        }
        assert resource["repro.run_id"]["stringValue"] == run_id
        trace_id = hashlib.sha256(("run:" + run_id).encode()).hexdigest()[:32]
        spans = otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]
        assert spans and {span["traceId"] for span in spans} == {trace_id}

    @pytest.mark.parametrize("argv", [
        ["run", "--trace", "t.json", "--trace-format", "otel"],
        ["stats", "t.jsonl", "--format", "chrome"],
        ["stats", "t.jsonl", "--format", "prom"],
    ], ids=["trace-format", "stats-chrome", "stats-prom"])
    def test_removed_trace_formats_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_stats_converts_and_validates_otel(self, graph_file, tmp_path,
                                               capsys):
        trace_file = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--graph", graph_file, "--supersteps", "3",
            "--trace", trace_file,
        ]) == 0
        capsys.readouterr()
        assert main([
            "stats", trace_file, "--format", "otel", "--validate",
        ]) == 0
        assert "otel trace OK" in capsys.readouterr().out

        out_file = str(tmp_path / "out.otel.json")
        assert main([
            "stats", trace_file, "--format", "otel", "--out", out_file,
        ]) == 0
        import json

        from repro.obs.otel import validate_otlp

        with open(out_file, "r", encoding="utf-8") as fh:
            assert validate_otlp(json.load(fh)) == []

    def test_jsonl_meta_carries_schema_v2_run_id(self, graph_file,
                                                 tmp_path, capsys):
        import json

        trace_file = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--graph", graph_file, "--supersteps", "3",
            "--trace", trace_file,
        ]) == 0
        with open(trace_file, "r", encoding="utf-8") as fh:
            meta = json.loads(fh.readline())
        assert meta["type"] == "meta"
        assert meta["schema"] == 2
        assert meta["run_id"].startswith("r")

    def test_unknown_schema_version_is_rejected(self, tmp_path, capsys):
        import json

        from repro.obs.sinks import meta_event, read_trace, validate_events

        bad = meta_event()
        bad["schema"] = 99
        trace_file = str(tmp_path / "bad.jsonl")
        with open(trace_file, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        problems = validate_events(read_trace(trace_file))
        assert any("unsupported schema version 99" in p for p in problems)
        assert any("this build reads 1, 2" in p for p in problems)


class TestVerboseLogging:
    def test_inspect_verbose_logs_store_details(self, graph_file, tmp_path,
                                                capsys):
        store_dir = str(tmp_path / "prov")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", "--store", store_dir, "-v"]) == 0
        out = capsys.readouterr().out
        assert "inspect: opening sealed store" in out

        assert main([
            "export", "--store", store_dir,
            "--out", str(tmp_path / "prov.ttl"), "-v",
        ]) == 0
        assert "export: opening sealed store" in capsys.readouterr().out

    def test_explain_and_stats_verbose_logs(self, graph_file, tmp_path,
                                            capsys):
        assert main([
            "explain", "--query", "query10",
            "--param", "alpha=0", "--param", "sigma=0", "-v",
        ]) == 0
        assert "explain: compiling" in capsys.readouterr().out

        trace_file = str(tmp_path / "run.jsonl")
        assert main([
            "run", "--graph", graph_file, "--supersteps", "2",
            "--trace", trace_file,
        ]) == 0
        capsys.readouterr()
        assert main(["stats", trace_file, "-v"]) == 0
        out = capsys.readouterr().out
        assert "stats: reading trace" in out

    def test_quiet_suppresses_info_logs(self, graph_file, tmp_path, capsys):
        store_dir = str(tmp_path / "prov")
        assert main([
            "capture", "--analytic", "sssp", "--graph", graph_file,
            "--out", store_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", "--store", store_dir, "--quiet"]) == 0
        assert "inspect: opening" not in capsys.readouterr().out
