"""Tests of the benchmark itself: generators, output checks, tracing and
metric names. Workloads run here at a small scale.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, CombinedWorkload, verse_corpus

ROOT = Path(__file__).resolve().parent.parent

SMALL = {
    "induce-31k": dict(pairs=400),
    "mlm-200k": dict(sentences=2000, vocab=600, lexicon_sources=250, gold_verses=300),
    "labeled-ewt": dict(sentences=300, vocab=800, lexicon_sources=600),
    "mlm-labeled": {},
}


def small(name):
    wl = WORKLOADS[name]
    if isinstance(wl, CombinedWorkload):
        return dataclasses.replace(wl, parts=tuple(small(p.name) for p in wl.parts))
    return dataclasses.replace(wl, **SMALL[name])


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    """Keep digests and results in tmp_path; one set-up sample is enough."""
    monkeypatch.setattr(run, "DIGESTS", tmp_path / "digests.json")
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    out = tmp_path / "out"
    out.mkdir()
    return out


def _generated(wl, seed, work):
    work.mkdir()
    wl.generate(work, seed)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    wl = small(name)
    first = _generated(wl, 7, tmp_path / "a")
    again = _generated(wl, 7, tmp_path / "b")
    other = _generated(wl, 8, tmp_path / "c")
    assert first == again
    assert first.keys() == other.keys()
    assert all(first[name] != other[name] for name in first)


def test_induce_default_seed_is_the_conftest_verse_corpus():
    spec = importlib.util.spec_from_file_location("repo_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    wl = WORKLOADS["induce-31k"]
    assert (wl.pairs, wl.default_seed) == (31000, 20)
    assert verse_corpus(wl.pairs, wl.default_seed) == conftest.verse_corpus(31000, seed=20)


@pytest.mark.parametrize("output", WORKLOADS["mlm-200k"].outputs)
def test_flipped_output_byte_is_a_failed_run(out_dir, monkeypatch, output):
    wl = small("mlm-200k")
    first = run.measure(wl, 3, 0, trace=False, record_digests=True, out_dir=out_dir)
    assert first["digests_recorded"]
    assert first["result"]["failed"] == 0

    real_run = run.Runner.run

    def run_then_flip(self, commands, trace):
        record = real_run(self, commands, trace)
        path = self.work / output
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        return record

    monkeypatch.setattr(run.Runner, "run", run_then_flip)
    second = run.measure(wl, 3, 0, trace=False, record_digests=False, out_dir=out_dir)
    result = second["result"]
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert any(output in p for p in second["runs"][0]["problems"])


def test_later_run_that_differs_from_the_first_is_a_failed_run(out_dir, monkeypatch):
    wl = small("labeled-ewt")
    real_run = run.Runner.run

    def flip_when_traced(self, commands, trace):
        record = real_run(self, commands, trace)
        if trace:
            path = self.work / "joint.conllu"
            path.write_bytes(path.read_bytes().replace(b"NOUN", b"VERB", 1))
        return record

    monkeypatch.setattr(run.Runner, "run", flip_when_traced)
    # Seed 6 has no recorded digests; with --trace 1 an untraced run comes first.
    details = run.measure(wl, 6, 0, trace=True, record_digests=False, out_dir=out_dir)
    assert not details["digests_recorded"]
    assert [bool(r["problems"]) for r in details["runs"]] == [False, True]
    assert "joint.conllu: sha256" in details["runs"][1]["problems"][0]


def test_combined_workload_records_and_finds_digests_per_part(out_dir):
    wl = small("mlm-labeled")
    first = run.measure(wl, 3, 0, trace=False, record_digests=True, out_dir=out_dir)
    assert first["result"]["failed"] == 0
    table = run.load_digests()
    assert {"mlm-200k", "labeled-ewt"} <= set(table)
    assert "mlm-labeled" not in table
    for part in wl.parts:
        assert set(part.recorded(table, 3)) == set(part.outputs)
    assert set(wl.recorded(table, 3)) == set(wl.outputs)
    assert wl.recorded(table, 4) is None
    second = run.measure(wl, 3, 0, trace=False, record_digests=False, out_dir=out_dir)
    assert second["digests_recorded"]
    assert second["result"]["failed"] == 0


def test_benchmark_workloads_are_defined_with_their_reasons():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in bench["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200


def test_invariants_catch_a_dropped_alignment_line(out_dir, monkeypatch):
    wl = small("induce-31k")
    real_run = run.Runner.run

    def run_then_truncate(self, commands, trace):
        record = real_run(self, commands, trace)
        path = self.work / "alignments.txt"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
        return record

    monkeypatch.setattr(run.Runner, "run", run_then_truncate)
    details = run.measure(wl, 5, 0, trace=False, record_digests=False, out_dir=out_dir)
    assert not details["digests_recorded"]
    assert details["result"]["failed"] == 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_workload_passes_its_checks_and_traces_every_layer(out_dir, name):
    details = run.measure(small(name), 2, 0, trace=True, record_digests=False, out_dir=out_dir)
    result = details["result"]
    assert result["failed"] == 0, details["runs"]
    assert result["attempted"] == 2  # one untraced and one traced run
    assert set(result["metrics"]) == set(spans.PER_LAYER)
    assert result["metrics"]["cli.self_s"]["value"] > 0
    assert result["metrics"]["corpus_io.read_s"]["value"] > 0


def test_em_table_pairs_count_matches_the_trained_tables():
    from lexsynth.align import AlignerConfig, swap_corpus, train_model1

    corpus = verse_corpus(300, 4)
    tracer = spans.Tracer()
    sizes = 0
    for direction in (corpus, swap_corpus(corpus)):
        table = train_model1(direction, AlignerConfig(iterations=1))
        sizes += len(table._t)
        tracer._corpora.append((direction, table.case_fold))
    assert tracer.metrics(1.0)["align.table_pairs"] == sizes


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_metric_names_match_the_pattern_and_carry_units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert declared == {**run.END_TO_END, **spans.PER_LAYER}
    for name, unit in declared.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), (name, unit)


def test_exits_nonzero_without_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlm-labeled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
