"""In-memory spans around the CLI's calls into each module, and the
per-layer metrics derived from them.

The tracer replaces module functions, at the names the CLI looks them up
by, with wrappers that open a span (name, start, end, parent) and note a few
counts. The program itself is not changed. A layer is a ``lexsynth``
module; its self time is the time inside its spans minus the time covered
by child spans of other layers.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> per-layer time metric that sums it
TIME_METRICS = {
    "align.train_model1": "align.train_s",
    "align.estep_chunk": "align.estep_s",
    "align.viterbi_align": "align.viterbi_s",
    "align.symmetrize": "align.symmetrize_s",
    "align.induce_lexicon": "align.induce_s",
    "align.write_alignments": "align.write_alignments_s",
    "synth.synth_mono": "synth.synth_s",
    "synth.synth_labeled": "synth.synth_s",
    "corpus_io.read_parallel": "corpus_io.read_s",
    "corpus_io.read_mono": "corpus_io.read_s",
    "corpus_io.read_labeled": "corpus_io.read_s",
    "corpus_io.write_mono": "corpus_io.write_s",
    "corpus_io.write_labeled": "corpus_io.write_s",
    "lexicon.load_lexicon": "lexicon.load_s",
    "lexicon.save_lexicon": "lexicon.save_s",
    "distill.apply_teacher_labels": "distill.apply_s",
    "distill.distill_report": "distill.report_s",
    "mix.build_joint_labeled": "mix.joint_s",
    "mix.upsample_to_match": "mix.upsample_s",
    "mix.concat_shuffle": "mix.concat_s",
    "report.lexicon_pos_distribution": "report.pos_dist_s",
}

LAYERS = ("align", "synth", "corpus_io", "lexicon", "distill", "mix", "report")

# metric name -> unit, for every per-layer metric the traced run reports
PER_LAYER = {
    **{metric: "s" for metric in TIME_METRICS.values()},
    "align.em_other_s": "s",
    "align.slots": "count",
    "align.table_pairs": "count",
    "align.forward_links": "count",
    "align.links_kept_ratio": "ratio",
    "align.induced_entries": "count",
    "synth.tokens": "count",
    "synth.replaced_ratio": "ratio",
    "corpus_io.bytes_read": "B",
    "corpus_io.bytes_written": "B",
    "corpus_io.sentences_read": "count",
    "lexicon.pairs_loaded": "count",
    "lexicon.lines_dropped": "count",
    "distill.positions": "count",
    "distill.changed_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._corpora: list = []  # parallel corpora EM trained on, counted after the run

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a spanned call; ``count(args, result)``
        runs after the span closes."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(args, result)
            return result

        setattr(owner, attr, traced)

    def install(self, cli) -> None:
        """Wrap every module function the CLI calls in the workloads."""
        from lexsynth import corpus_io, mix, synth
        from lexsynth.align import model1

        c = self.counts

        def read(args, corpus):
            c["corpus_io.sentences_read"] += len(corpus)
            c["corpus_io.bytes_read"] += sum(os.path.getsize(p) for p in args[:2]
                                             if isinstance(p, (str, os.PathLike)))

        def written(args, _):
            c["corpus_io.bytes_written"] += os.path.getsize(args[1])

        def loaded(args, result):
            lex, dropped = result
            c["lexicon.pairs_loaded"] += lex.entry_count()
            c["lexicon.lines_dropped"] += dropped

        def trained(args, table):
            self._corpora.append((args[0], table.case_fold))

        def symmetrized(args, combined):
            c["align.forward_links"] += sum(len(a.links) for a in args[0])
            c["align.kept_links"] += sum(len(a.links) for a in combined)

        def induced(args, lex):
            c["align.induced_entries"] += lex.entry_count()

        def synthesized(args, result):
            report = result[1]
            c["synth.tokens"] += report.total_tokens
            c["synth.replaced"] += report.replaced_tokens

        def distilled(args, result):
            c["distill.positions"] += sum(len(s.tokens) for s in args[0].sentences)
            c["distill.changed"] += result[1]

        for fn, count in (("read_parallel", read), ("read_mono", read),
                          ("read_labeled", read), ("write_mono", written),
                          ("write_labeled", written)):
            self.wrap(corpus_io, fn, f"corpus_io.{fn}", count)
        for fn in ("synth_mono", "synth_labeled"):
            self.wrap(synth, fn, f"synth.{fn}", synthesized)
        for fn in ("upsample_to_match", "concat_shuffle", "build_joint_labeled"):
            self.wrap(mix, fn, f"mix.{fn}")
        for fn, layer, count in (
            ("train_model1", "align", trained),
            ("viterbi_align", "align", None),
            ("symmetrize", "align", symmetrized),
            ("induce_lexicon", "align", induced),
            ("write_alignments", "align", None),
            ("load_lexicon", "lexicon", loaded),
            ("save_lexicon", "lexicon", None),
            ("apply_teacher_labels", "distill", distilled),
            ("distill_report", "distill", None),
            ("lexicon_pos_distribution", "report", None),
        ):
            self.wrap(cli, fn, f"{layer}.{fn}", count)
        # The E-step kernel is looked up on the kernel module at each call.
        kernel = getattr(model1, "_DEFAULT_KERNEL", None)
        if kernel is not None and hasattr(kernel, "estep_chunk"):
            self.wrap(kernel, "estep_chunk", "align.estep_chunk")

    def _count_em_layout(self) -> None:
        """Slots and table pairs of every EM direction trained, from the
        corpus alone: one slot per (target token, source token or NULL) of
        a sentence, one pair per co-occurring type pair or NULL pair."""
        for corpus, case_fold in self._corpora:
            fold = str.casefold if case_fold else str
            pairs = set()
            targets = set()
            for src, tgt in corpus:
                self.counts["align.slots"] += len(tgt) * (len(src) + 1)
                s = {fold(w) for w in src}
                t = {fold(w) for w in tgt}
                targets |= t
                pairs.update((e, f) for e in s for f in t)
            self.counts["align.table_pairs"] += len(pairs) + len(targets)
        self._corpora.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics for one traced workload run of ``wall_s``
        seconds; ``trace.overhead_s`` is left for the caller, which has the
        untraced runs."""
        self._count_em_layout()
        values = {metric: 0.0 for metric in PER_LAYER}
        layer_of = [name.split(".", 1)[0] for name, _, _, _ in self.spans]
        children = defaultdict(float)  # span index -> time its children cover
        other_layer = defaultdict(float)  # ... of which children in another layer
        for index, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += end - start
                if layer_of[parent] != layer_of[index]:
                    other_layer[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            duration = end - start
            metric = TIME_METRICS.get(name)
            if metric is not None:
                values[metric] += duration
            layer = layer_of[index]
            if layer in LAYERS and (parent < 0 or layer_of[parent] != layer):
                values[f"{layer}.self_s"] += duration - other_layer[index]
            elif layer == "cli":
                values["cli.self_s"] += duration - children[index]
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        values["cli.self_s"] += wall_s - roots
        values["align.em_other_s"] = values["align.train_s"] - values["align.estep_s"]
        c = self.counts
        values.update((key, count) for key, count in c.items() if key in values)
        values["align.links_kept_ratio"] = _ratio(c["align.kept_links"], c["align.forward_links"])
        values["synth.replaced_ratio"] = _ratio(c["synth.replaced"], c["synth.tokens"])
        values["distill.changed_ratio"] = _ratio(c["distill.changed"], c["distill.positions"])
        values["trace.spans"] = len(self.spans)
        values["trace.wall_s"] = wall_s
        return values

    def dump(self, path) -> None:
        """Write the spans, as recorded, to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p}
                       for n, s, e, p in self.spans], fh)


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0
