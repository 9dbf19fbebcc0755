"""Subcommand front-end for the data synthesis pipeline.

Exit codes: 0 success, 1 usage error, 2 data-format error, 3 validation
error. Diagnostics go to stderr; corpus data is only ever written to files.
No output file is written when a subcommand fails: a subcommand only names
its outputs, and ``main`` writes them all, or none, once it has returned.
Before the subcommand runs, ``main`` checks that each output path names a
file in a directory that exists.

Each subcommand runs with Python's cyclic garbage collector paused. The
corpora, lexicons and alignments a command builds hold no reference cycles,
so the collector's repeated passes over those long-lived objects free
nothing: run with it on, the seven mlm-labeled benchmark commands make 760
collections in one process, taking 0.39-0.45 s of 6.1-6.6 s on 2 cores.
Library callers can do the same around their own calls.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, corpus_io, mix, synth
from .align import (
    AlignerConfig,
    Alignments,
    EncodedCorpus,
    Symmetrization,
    induce_lexicon,
    symmetrize,
    train_model1,
    viterbi_align,
    write_alignments,
)
from .corpus_io import Format, Schema
from .distill import apply_teacher_labels, distill_report
from .errors import DataFormatError, ValidationError
from .lexicon import LoadMode, lexicon_stats, load_lexicon, merge, save_lexicon
from .report import lexicon_pos_distribution, summary_json
from .synth import SynthesisConfig

logger = logging.getLogger("lexsynth")

USAGE_ERROR = 1
DATA_FORMAT_ERROR = 2
VALIDATION_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        # argparse hands a subcommand's unknown arguments back to the top
        # parser; rejecting them here shows the subcommand's own usage.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class _Outputs:
    """Deferred, all-or-nothing file writes: nothing lands on failure.

    Each output is written to a temp file named after this process, so
    concurrent runs with the same output path never share a temp file. Each
    temp file is synced to disk after its write. Once all are written, each
    existing target is moved aside, the temp files are renamed over the
    targets and each target directory is synced once, so the renames are
    durable too; if any of that fails, every target is restored and the temp
    files are removed.
    """

    def __init__(self):
        self._writes = []

    def add(self, path, write_fn):
        self._writes.append((Path(path), write_fn))

    def commit(self):
        pid = os.getpid()
        staged = []  # (temp file, target)
        try:
            for path, write_fn in self._writes:
                staged.append((path.with_name(f"{path.name}.{pid}.tmp~"), path))
                write_fn(staged[-1][0])
                _fsync(staged[-1][0])
        except BaseException:
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)
            raise
        moved = []  # (old target moved aside, target)
        replaced = []
        try:
            for _, path in staged:
                if path.is_file():
                    old = path.with_name(f"{path.name}.{pid}.old~")
                    os.replace(path, old)
                    moved.append((old, path))
            for tmp, path in staged:
                os.replace(tmp, path)
                replaced.append(path)
            for directory in dict.fromkeys(path.parent for _, path in staged):
                _fsync(directory)
        except BaseException:
            for path in replaced:
                path.unlink(missing_ok=True)
            for old, path in moved:
                os.replace(old, path)
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)
            raise
        for old, _ in moved:
            old.unlink()


def _fsync(path) -> None:
    """Flush a file's or a directory's contents to disk."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _output_path_problem(path: str) -> str | None:
    """Why ``path`` cannot be written as an output file, or None. An output
    names a file, not a directory, in a directory that exists; ``main``
    checks each before the command runs, so a bad path fails before the work
    and the message names the path as given, not the temp file."""
    if path.endswith(tuple(filter(None, (os.sep, os.altsep)))) or os.path.isdir(path):
        return "it names a directory"
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        return f"{parent!r} is not an existing directory"
    return None


def _write_json(doc: dict, path) -> None:
    Path(path).write_text(summary_json(doc), encoding="utf-8", newline="\n")


def _resolve_format(path, value: str) -> Format:
    if value == "auto":
        return corpus_io.sniff_format(path)
    return Format(value)


def _cmd_lex_stats(args, out: _Outputs) -> None:
    lex, _ = load_lexicon(args.lexicon)
    stats = lexicon_stats(lex).to_dict()
    if args.json:
        print(summary_json(stats), end="")
    else:
        for key, value in stats.items():
            print(f"{key}\t{value}")


def _cmd_lex_merge(args, out: _Outputs) -> None:
    base, _ = load_lexicon(args.base)
    extra, _ = load_lexicon(args.extra)
    merged = merge(base, extra)
    out.add(args.out, lambda p: save_lexicon(merged, p))
    logger.info("merged lexicon: %d pairs", merged.entry_count())


def _cmd_lex_induce(args, out: _Outputs) -> None:
    cfg = AlignerConfig(
        iterations=args.iterations,
        min_count=args.min_count,
        symmetrization=Symmetrization(args.symmetrization),
        case_fold=not args.no_case_fold,
        keep_punct=args.keep_punct,
    )
    # Each side is encoded once: the backward direction swaps the sides and
    # induction reads the forward encoding. Each direction aligns the corpus
    # it was trained on, so Viterbi reuses the table's slot layout; the table
    # is dropped once it has aligned.
    encoded = EncodedCorpus.of(corpus_io.read_parallel(args.src, args.tgt), cfg.case_fold)
    alignments = []
    for name, direction in (("forward", encoded), ("backward", encoded.swapped())):
        table = train_model1(direction, cfg)
        alignments.append(viterbi_align(direction, table))
        logger.info("%s EM log-likelihoods: %s", name,
                    " ".join(f"{ll:.4f}" for ll in table.log_likelihoods))
        del table
    forward, backward = alignments
    combined = symmetrize(forward, backward, cfg.symmetrization)
    lex = induce_lexicon(encoded, combined, cfg)
    out.add(args.out, lambda p: save_lexicon(lex, p))
    if args.dump_alignments:
        # One line per input line: a dropped pair is an empty sentence, which
        # takes no key space, so the links' keys stay as they are.
        pos = np.array(encoded.dropped, dtype=np.int64) - np.arange(len(encoded.dropped))
        dumped = Alignments(np.insert(combined.src_lens, pos, 0),
                            np.insert(combined.tgt_lens, pos, 0), combined.keys)
        out.add(args.dump_alignments, lambda p: write_alignments(dumped, p))
    logger.info("induced %d entries", lex.entry_count())


def _cmd_synth_mono(args, out: _Outputs) -> None:
    lex, _ = load_lexicon(args.lexicon)
    corpus = corpus_io.read_mono(args.corpus, limit=args.limit)
    pseudo, report = synth.synth_mono(corpus, lex, SynthesisConfig(seed=args.seed))
    out.add(args.out, lambda p: corpus_io.write_mono(pseudo, p))
    if args.report:
        out.add(args.report, lambda p: _write_json(report.to_dict(), p))
    logger.info("replaced %d/%d tokens", report.replaced_tokens, report.total_tokens)


def _cmd_synth_labeled(args, out: _Outputs) -> None:
    lex, _ = load_lexicon(args.lexicon, mode=LoadMode.SINGLE_TOKEN_ONLY)
    fmt = Format(args.format)
    corpus = corpus_io.read_labeled(args.input, Schema(args.schema), fmt)
    pseudo, report = synth.synth_labeled(corpus, lex, SynthesisConfig(seed=args.seed))
    out.add(args.out, lambda p: corpus_io.write_labeled(pseudo, p, fmt))
    if args.report:
        out.add(args.report, lambda p: _write_json(report.to_dict(), p))
    logger.info("replaced %d/%d tokens", report.replaced_tokens, report.total_tokens)


def _cmd_distill_apply(args, out: _Outputs) -> None:
    fmt = _resolve_format(args.pseudo, args.format)
    schema = Schema(args.schema)
    pseudo = corpus_io.read_labeled(args.pseudo, schema, fmt)
    teacher = corpus_io.read_labeled(args.teacher, schema, fmt)
    distilled, changed = apply_teacher_labels(pseudo, teacher)
    out.add(args.out, lambda p: corpus_io.write_labeled(distilled, p, fmt))
    if args.report:
        report = distill_report(pseudo, distilled)
        out.add(args.report, lambda p: _write_json(report.to_dict(), p))
    logger.info("teacher changed %d label position(s)", changed)


def _cmd_mix_upsample(args, out: _Outputs) -> None:
    gold = corpus_io.read_mono(args.gold)
    upsampled = mix.upsample_to_match(gold, args.target_size, args.seed)
    out.add(args.out, lambda p: corpus_io.write_mono(upsampled, p))


def _cmd_mix_concat(args, out: _Outputs) -> None:
    corpora = [corpus_io.read_mono(p) for p in args.inputs]
    combined = mix.concat_shuffle(corpora, args.seed, shuffle=args.shuffle)
    out.add(args.out, lambda p: corpus_io.write_mono(combined, p))


def _cmd_mix_joint_labeled(args, out: _Outputs) -> None:
    fmt = _resolve_format(args.gold, args.format)
    schema = Schema(args.schema)
    gold = corpus_io.read_labeled(args.gold, schema, fmt)
    pseudo = corpus_io.read_labeled(args.pseudo, schema, fmt)
    joint = mix.build_joint_labeled(gold, pseudo)
    out.add(args.out, lambda p: corpus_io.write_labeled(joint, p, fmt))


def _cmd_report_pos_dist(args, out: _Outputs) -> None:
    lex, _ = load_lexicon(args.lexicon)
    fmt = _resolve_format(args.reference, args.format)
    reference = corpus_io.read_labeled(args.reference, Schema.POS, fmt)
    dist = lexicon_pos_distribution(lex, reference)
    if args.json:
        print(summary_json(dist.to_dict()), end="")
    else:
        for tag, frac in sorted(dist.fractions.items(), key=lambda kv: (-kv[1], kv[0])):
            print(f"{tag}\t{frac:.6f}")
        print(f"found\t{dist.found}")
        print(f"out_of_reference\t{dist.out_of_reference}")


def _int_at_least(minimum: int):
    """argparse type for an integer flag of at least ``minimum``, so a bad
    value is a usage error caught before any file is read or written."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def build_parser() -> _Parser:
    parser = _Parser(prog="lexsynth", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lexsynth {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    lex = top.add_parser("lex", help="lexicon operations").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = lex.add_parser("stats", help="summary counts for a lexicon TSV")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lex_stats)

    p = lex.add_parser("merge", help="union of two lexicons (base candidates first)")
    p.add_argument("--base", required=True)
    p.add_argument("--extra", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lex_merge)

    p = lex.add_parser("induce", help="induce lexicon entries from parallel text")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=_int_at_least(1), default=5)
    p.add_argument("--min-count", type=_int_at_least(1), default=2)
    p.add_argument("--symmetrization", choices=[s.value for s in Symmetrization],
                   default=Symmetrization.INTERSECTION.value)
    p.add_argument("--no-case-fold", action="store_true")
    p.add_argument("--keep-punct", action="store_true")
    p.add_argument("--dump-alignments", metavar="PATH")
    p.set_defaults(func=_cmd_lex_induce)

    sy = top.add_parser("synth", help="pseudo-corpus synthesis").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = sy.add_parser("mono", help="word-to-word pseudo monolingual text")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--limit", type=_int_at_least(0), help="keep only the first N sentences")
    p.add_argument("--report", metavar="PATH", help="write a coverage report JSON")
    p.set_defaults(func=_cmd_synth_mono)

    p = sy.add_parser("labeled", help="pseudo labeled data with labels retained")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=[f.value for f in Format], required=True)
    p.add_argument("--schema", choices=[s.value for s in Schema], required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func=_cmd_synth_labeled)

    di = top.add_parser("distill", help="teacher-label correction").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = di.add_parser("apply", help="replace pseudo labels with teacher predictions")
    p.add_argument("--pseudo", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", metavar="PATH")
    p.add_argument("--format", choices=["auto"] + [f.value for f in Format], default="auto")
    p.add_argument("--schema", choices=[s.value for s in Schema], default="pos")
    p.set_defaults(func=_cmd_distill_apply)

    mx = top.add_parser("mix", help="training-corpus assembly").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = mx.add_parser("upsample", help="repeat gold data to an exact sentence count")
    p.add_argument("--gold", required=True)
    p.add_argument("--target-size", type=_int_at_least(1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_mix_upsample)

    p = mx.add_parser("concat", help="concatenate corpora, optionally shuffled")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shuffle", action="store_true")
    p.set_defaults(func=_cmd_mix_concat)

    p = mx.add_parser("joint-labeled", help="gold + pseudo labeled training set")
    p.add_argument("--gold", required=True)
    p.add_argument("--pseudo", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["auto"] + [f.value for f in Format], default="auto")
    p.add_argument("--schema", choices=[s.value for s in Schema], default="pos")
    p.set_defaults(func=_cmd_mix_joint_labeled)

    rp = top.add_parser("report", help="analytics").add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )
    p = rp.add_parser("pos-dist", help="POS distribution of lexicon source words")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--reference", required=True, help="POS-tagged reference corpus")
    p.add_argument("--json", action="store_true")
    p.add_argument("--format", choices=["auto"] + [f.value for f in Format], default="auto")
    p.set_defaults(func=_cmd_report_pos_dist)

    return parser


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring its prior state on exit
    (see the module docstring for why this is safe and what it saves)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    outputs = [path for path in (getattr(args, name, None)
                                 for name in ("out", "report", "dump_alignments")) if path]
    if len({Path(path).resolve() for path in outputs}) < len(outputs):
        print(f"lexsynth: error: two outputs name the same file: {' '.join(outputs)}",
              file=sys.stderr)
        return USAGE_ERROR
    for path in outputs:
        problem = _output_path_problem(path)
        if problem:
            print(f"lexsynth: i/o error: cannot write {path!r}: {problem}", file=sys.stderr)
            return DATA_FORMAT_ERROR
    try:
        with _collector_paused():
            out = _Outputs()
            args.func(args, out)
            out.commit()
        return 0
    except DataFormatError as exc:
        print(f"lexsynth: data format error: {exc}", file=sys.stderr)
        return DATA_FORMAT_ERROR
    except ValidationError as exc:
        print(f"lexsynth: validation error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except OSError as exc:
        print(f"lexsynth: i/o error: {exc}", file=sys.stderr)
        return DATA_FORMAT_ERROR


if __name__ == "__main__":
    sys.exit(main())
