"""The --stats record: one recorder for refinement runs, preimage searches,
document loads and per-layer wall times."""

import importlib
import json
import time
from pathlib import Path

import pytest

from dlbisim import cli, stats
from dlbisim.core import FeatureSet, to_labeled_graph
from dlbisim.document import dumps_document, loads_workspace
from dlbisim.gen import random_document
from dlbisim.quotient import separating_concept
from dlbisim.refine import compute_partition
from dlbisim.semantics import Evaluator, SearchCounters, eval_concept
from dlbisim.syntax import parse_concept

import helpers as H

FIG2 = str(Path(__file__).resolve().parent / "fixtures" / "fig2.kbi")
CONCEPT = parse_concept("some (r0)* A0")


def _work(interp):
    """One refinement, one evaluation and one load."""
    compute_partition(FeatureSet(), to_labeled_graph(interp))
    eval_concept(interp, CONCEPT, FeatureSet())
    loads_workspace(dumps_document(random_document(1, 5)))


def test_nothing_is_recorded_outside_a_block():
    interp = H.marked_path(20)
    assert stats.current() is None
    with stats.recorded() as record:
        assert stats.current() is record
    _work(interp)
    with stats.timed("eval_s"):
        pass
    assert stats.current() is None
    assert record == stats.Record()


def test_a_block_records_its_work():
    interp = H.marked_path(20)
    with stats.recorded() as record:
        _work(interp)
    assert [run["function"] for run in record.runs] == ["compute_partition"]
    assert record.searches.searches >= 1 and record.load.bytes > 0
    assert record.times["graph_s"] > 0 and record.times["quotient_s"] == 0.0


def test_an_evaluator_counts_into_the_block_it_was_made_in():
    interp = H.marked_path(20)
    with stats.recorded() as record:
        inside = Evaluator(interp, FeatureSet())
    outside = Evaluator(interp, FeatureSet())
    assert inside.counters is record.searches
    assert type(outside.counters) is SearchCounters and outside.counters is not record.searches
    inside.concept(CONCEPT)
    outside.concept(CONCEPT)
    assert record.searches.searches == outside.counters.searches >= 1


def test_a_nested_block_records_its_own_work():
    interp = H.marked_path(20)
    with stats.recorded() as outer:
        _work(interp)
        with stats.recorded() as inner:
            _work(interp)
            _work(interp)
        assert stats.current() is outer
        _work(interp)
    assert len(outer.runs) == 2 and len(inner.runs) == 2
    assert inner.searches.searches == outer.searches.searches
    assert inner.load == outer.load


def test_witness_build_and_validation_have_their_own_keys():
    interp = H.marked_path(30)
    with stats.recorded() as record:
        _, trace = compute_partition(FeatureSet(), to_labeled_graph(interp))
        separating_concept(interp, trace, 0, 1)
    assert record.times["witness_s"] > 0 and record.times["validate_s"] > 0
    assert record.searches.searches >= 1  # the validation's


# (command, module and attribute of a function that runs in one layer only,
# the key its time belongs to); wall_s is the refinements' wall time
MINIMIZE = ["minimize", "-I", "I2", "--phi", "Q", "--qs"]
WITNESS = ["witness", "-I", "I2", "--phi", "Q", "-l", "v1", "-r", "v3"]
PROBES = [
    (MINIMIZE, "dlbisim.document", "_workspace", "load_s"),
    (MINIMIZE, "dlbisim.core", "_assemble", "graph_s"),
    (MINIMIZE, "dlbisim.refine", "_label_ids", "wall_s"),
    (MINIMIZE, "dlbisim.quotient", "check_partition", "quotient_s"),
    (MINIMIZE, "dlbisim.cli", "dumps_document", "write_s"),
    (WITNESS, "dlbisim.quotient", "_LevelWitness.separate", "witness_s"),
    (WITNESS, "dlbisim.quotient", "eval_concept", "validate_s"),
    (["check-kb", "-I", "I3"], "dlbisim.cli", "check_kb", "eval_s"),
    (["bisim", "-l", "I1", "-r", "I1", "--json"], "dlbisim.bisim", "Partition", "pairs_s"),
    (["bisim", "-l", "I1", "-r", "I2", "--phi", "Q"], "dlbisim.cli", "naive_largest_bisimulation",
     "explain_s"),
    (["extend-rbox", "-I", "I1"], "dlbisim.cli", "least_r_extension", "closure_s"),
]
DELAY = 0.2


@pytest.mark.parametrize("argv, module, attribute, key", PROBES, ids=[p[3] for p in PROBES])
def test_each_layer_lands_in_its_own_key(argv, module, attribute, key, monkeypatch, capsys):
    # a delay in one layer shows in its key and in no other
    target = importlib.import_module(module)
    *owner, name = attribute.split(".")
    for part in owner:
        target = getattr(target, part)
    slow = getattr(target, name)

    def slowed(*args, **kwargs):
        time.sleep(DELAY)
        return slow(*args, **kwargs)

    monkeypatch.setattr(target, name, slowed)
    assert cli.main(argv + ["-i", FIG2, "--stats"]) in (0, 1)
    report = json.loads(capsys.readouterr().err)
    times = {layer: report[layer] for layer in stats.LAYERS}
    times["wall_s"] = sum(run["wall_s"] for run in report["refinements"])
    assert times.pop(key) >= DELAY
    assert max(times.values()) < DELAY, times
