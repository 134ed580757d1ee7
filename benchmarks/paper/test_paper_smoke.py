"""Tests of ``run.py``, which regenerates Section 6 of the paper: its
waiver logic, its record stamp, and one (analytic, dataset) workload at
smoke scale.

Run explicitly with ``pytest benchmarks/paper``; it sits outside the
tier-1 ``testpaths``.
"""

import importlib.util
import os

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "paper_run", os.path.join(HERE, "run.py"))
paper = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paper)

STAMP = {"seed": 0}
ORDERING = "fig12.same_lineage"


def all_hold():
    return [(ordering, "cell", True) for ordering in paper.ORDERINGS]


def statuses(found, waivers):
    records, passed = paper.verdicts(found, waivers, STAMP)
    return {r["ordering"]: r for r in records}, passed


class TestWaivers:
    def test_every_ordering_holding_passes(self):
        records, passed = statuses(all_hold(), {})
        assert passed
        assert {r["status"] for r in records.values()} == {"holds"}

    def test_an_unwaived_failure_fails_the_run(self):
        found = all_hold() + [(ORDERING, "pagerank/IN-04", False)]
        records, passed = statuses(found, {})
        assert not passed
        assert records[ORDERING]["status"] == "fails"
        assert records[ORDERING]["failed_cells"] == ["pagerank/IN-04"]

    def test_a_waived_failure_passes_and_is_recorded(self):
        found = all_hold() + [(ORDERING, "pagerank/IN-04", False)]
        records, passed = statuses(found, {ORDERING: "ROADMAP item 1"})
        assert passed
        record = records[ORDERING]
        assert record["status"] == "deviation"
        assert record["waiver"] == "ROADMAP item 1"
        assert record["failed_cells"] == ["pagerank/IN-04"]
        assert record["cells"] == 2 and record["stamp"] == STAMP

    def test_a_waived_ordering_that_holds_fails_the_run(self):
        records, passed = statuses(all_hold(), {ORDERING: "ROADMAP item 1"})
        assert not passed
        assert records[ORDERING]["status"] == "stale waiver"

    def test_an_ordering_no_cell_covers_fails_the_run(self):
        found = [check for check in all_hold() if check[0] != ORDERING]
        records, passed = statuses(found, {})
        assert not passed
        assert records[ORDERING]["status"] == "unchecked"

    def test_each_waiver_names_an_ordering_and_its_roadmap_item(self):
        assert paper.WAIVERS
        for ordering, owner in paper.WAIVERS.items():
            assert ordering in paper.ORDERINGS
            assert owner.startswith("ROADMAP item")


def test_timed_takes_turns_and_keeps_each_last_result():
    calls = []

    def tagged(tag):
        def run():
            calls.append(tag)
            return len(calls)
        return run

    (a_s, a), (b_s, b) = paper.timed(tagged("a"), tagged("b"))
    assert calls == ["a", "b"] * paper.REPEATS
    assert (a, b) == (2 * paper.REPEATS - 1, 2 * paper.REPEATS)
    assert a_s >= 0 and b_s >= 0


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    bench = paper.Bench(smoke=True)
    paper.analytic_cells(bench, "sssp", "IN-04",
                         str(tmp_path_factory.mktemp("paper")))
    return bench


def test_records_carry_the_stamp(smoke_records):
    stamp = smoke_records.stamp
    assert {"commit", "python", "usable_cores", "scale", "seed"} <= set(stamp)
    assert stamp["seed"] == paper.SEED and stamp["smoke"]
    assert stamp["scale"] == {"web": paper.WEB_SCALE,
                              "ml": paper.ML_SCALE * paper.SMOKE_ML_SCALE}
    assert stamp["usable_cores"] >= 1 and stamp["commit"]
    assert all(r["stamp"] is stamp for r in smoke_records.records)
    # each graph is generated once per run and shared by its figures
    assert smoke_records.graph("IN-04") is smoke_records.graph("IN-04")


def test_one_workload_at_smoke_scale(smoke_records):
    cells = {(r["figure"], r["cell"].get("query")): r["values"]
             for r in smoke_records.records}
    assert set(cells) == {
        ("fig10", None), ("table6", None), ("table3", None),
        ("table4", None), ("fig7", None), ("fig8", "query5"),
        ("fig8", "query6"), ("fig11", None), ("fig11.verdicts", None),
        ("fig12", None), ("serve", None), ("ablation.seminaive", None)}
    # the deterministic cells: same lineage both ways, SSSP never unsafe
    assert cells[("fig12", None)]["same"]
    assert cells[("ablation.seminaive", None)]["same"]
    verdicts = cells[("fig11.verdicts", None)]
    assert verdicts["unsafe"] == 0
    assert verdicts["safe"] == verdicts["no_execute"] > 0
    assert cells[("table4", None)]["coverage"] == 1.0
    # naive runs on the two smallest datasets only, like the paper's
    assert paper.NAIVE_DATASETS == tuple(paper.WEB_DATASET_ORDER[:2])
    assert "naive_x" in cells[("fig11", None)]
    assert cells[("serve", None)]["speedup"] > 0
