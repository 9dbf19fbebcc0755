"""Workload definitions: seeded input generators, CLI command lines and
output checks.

Each workload writes its inputs into a fresh work directory from the
workload seed alone, names the ``lexsynth`` command lines to run there one
after another (a closed loop), and checks every output file afterwards:
against recorded SHA-256 digests when the seed has them, and against
invariants that hold for any seed otherwise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Command:
    """One ``lexsynth`` invocation; ``stdout`` names a file that captures
    what the subcommand prints."""

    argv: tuple[str, ...]
    stdout: str | None = None


def _write_lines(path: Path, lines) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _read_lines(path: Path) -> list[str]:
    with path.open("r", encoding="utf-8", newline="\n") as fh:
        return fh.read().split("\n")[:-1]


def _zipf_cum_weights(n: int, shift: float = 3.0) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + shift) for rank in range(n)))


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def verse_corpus(n_pairs: int, seed: int) -> list[tuple[list[str], list[str]]]:
    """Verse-scale parallel corpus; the same algorithm, random stream and
    output as ``tests/conftest.py:verse_corpus``, so the induce workload
    measures the corpus the repository's own timings use."""
    rng = random.Random(seed)
    vocab_size = 3000
    source_vocab = [f"src{i}" for i in range(vocab_size)]
    translation = {}
    for i, word in enumerate(source_vocab):
        variants = [f"tgt{i}"]
        if rng.random() < 0.2:
            variants.append(f"tgt{i}b")
        translation[word] = variants
    weights = [1.0 / (rank + 3) for rank in range(vocab_size)]
    pairs = []
    for _ in range(n_pairs):
        length = rng.randint(6, 18)
        src = rng.choices(source_vocab, weights=weights, k=length)
        tgt = []
        for word in src:
            if rng.random() < 0.1:
                continue
            tgt.append(rng.choice(translation[word]))
        if not tgt:
            tgt = [rng.choice(translation[src[0]])]
        if rng.random() < 0.1:
            tgt.insert(rng.randint(0, len(tgt)), f"tgt{rng.randint(0, vocab_size - 1)}")
        for k in range(len(tgt) - 1):
            if rng.random() < 0.15:
                tgt[k], tgt[k + 1] = tgt[k + 1], tgt[k]
        pairs.append((src, tgt))
    return pairs


_UPOS = ["NOUN", "VERB", "DET", "ADP", "PRON", "ADJ", "ADV", "PROPN", "PUNCT",
         "AUX", "CCONJ", "SCONJ", "NUM", "PART"]
_XPOS = {"NOUN": "NN", "VERB": "VB", "DET": "DT", "ADP": "IN", "PRON": "PRP",
         "ADJ": "JJ", "ADV": "RB", "PROPN": "NNP", "PUNCT": ".", "AUX": "MD",
         "CCONJ": "CC", "SCONJ": "IN", "NUM": "CD", "PART": "RP"}
_DEPRELS = ["nsubj", "obj", "det", "case", "amod", "advmod", "obl", "punct",
            "compound", "conj", "cc", "mark", "aux"]


def _treebank(rng: random.Random, n_sents: int, n_types: int):
    """Sentences of (form, upos) pairs with EWT-like lengths and casing."""
    types = [f"t{i}" for i in range(n_types)]
    type_tag = [rng.choice(_UPOS) for _ in range(n_types)]
    cum = _zipf_cum_weights(n_types)
    sentences = []
    for _ in range(n_sents):
        length = max(1, min(80, int(rng.gammavariate(2.0, 8.0))))
        ids = rng.choices(range(n_types), cum_weights=cum, k=length)
        sent = []
        for pos, i in enumerate(ids):
            form = types[i]
            if pos == 0 or rng.random() < 0.05:
                form = form.capitalize()
            tag = type_tag[i] if rng.random() < 0.9 else rng.choice(_UPOS)
            sent.append((form, tag))
        sentences.append(sent)
    return sentences


def _conllu_block(rng: random.Random, n: int, sent) -> list[str]:
    lines = [f"# sent_id = gen-{n}", "# text = " + " ".join(f for f, _ in sent)]
    length = len(sent)
    for k, (form, tag) in enumerate(sent, start=1):
        if k < length and rng.random() < 0.02:
            lines.append(f"{k}-{k + 1}\t{form}{sent[k][0]}\t_\t_\t_\t_\t_\t_\t_\t_")
        feats = "Number=Sing" if tag in ("NOUN", "PROPN") else "_"
        misc = "SpaceAfter=No" if rng.random() < 0.1 else "_"
        head = 0 if k == 1 else rng.randint(1, length)
        rel = "root" if head == 0 else rng.choice(_DEPRELS)
        lines.append("\t".join([str(k), form, form.casefold(), tag, _XPOS[tag],
                                feats, str(head), rel, "_", misc]))
        if rng.random() < 0.005:
            lines.append(f"{k}.1\t{form}\t_\t{tag}\t_\t_\t_\t_\t{k}:orphan\t_")
    lines.append("")
    return lines


def _panlex_lexicon(rng: random.Random, sources: list[str]) -> list[str]:
    """PanLex-style TSV: the commonest sources carry hundreds of candidates.

    About 10% of the candidates are multi-token (dropped by single-token
    loading), a few source fields hold a phrase (dropped in every mode) and
    some pairs repeat (collapsed at load).
    """
    lines = ["# src_lang: en", "# tgt_lang: xx"]
    for rank, source in enumerate(sources):
        n_cands = max(1, round(600 / (rank + 1) ** 0.7))
        for c in range(n_cands):
            target = f"p{rank}c{c}"
            if rng.random() < 0.1:
                target += f" q{rng.randint(0, 999)}"
            lines.append(f"{source}\t{target}")
            if rng.random() < 0.02:
                lines.append(f"{source}\t{target}")
        if rng.random() < 0.01:
            lines.append(f"{source} phrase\tp{rank}x")
    return lines


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: subclasses set the sizes and implement the four steps."""

    name: str
    why: str
    default_seed: int = 1
    outputs: tuple[str, ...] = ()

    def generate(self, work: Path, seed: int) -> int:
        """Write the inputs into ``work``; return the input token count."""
        raise NotImplementedError

    def prepare(self, work: Path, seed: int, run_commands) -> None:
        """Derive inputs that need the program itself (untimed set-up)."""

    def commands(self, seed: int) -> list[Command]:
        raise NotImplementedError

    def invariants(self, work: Path) -> list[str]:
        raise NotImplementedError

    def digests(self, work: Path) -> dict[str, str]:
        return {name: sha256_file(work / name) for name in self.outputs}

    def recorded(self, table: dict, seed: int) -> dict[str, str] | None:
        """This seed's digests in ``table`` (the digests.json layout)."""
        return table.get(self.name, {}).get(str(seed))

    def store(self, table: dict, seed: int, digests: dict[str, str]) -> None:
        table.setdefault(self.name, {})[str(seed)] = digests

    def check(self, work: Path, expected: dict[str, str] | None,
              invariants: bool = True) -> list[str]:
        """Every problem found in the outputs; an empty list means correct.
        ``expected`` holds the digests the outputs must have, if known."""
        missing = [name for name in self.outputs if not (work / name).is_file()]
        if missing:
            return [f"missing output {name}" for name in missing]
        problems = []
        if invariants:
            try:
                problems = self.invariants(work)
            except Exception as exc:  # an output the checks cannot even parse is wrong
                problems = [f"output check raised {exc!r}"]
        if expected is not None:
            actual = self.digests(work)
            for name in self.outputs:
                if actual[name] != expected.get(name):
                    problems.append(f"{name}: sha256 {actual[name]} != expected "
                                    f"{expected.get(name)}")
        return problems


@dataclass
class InduceWorkload(Workload):
    pairs: int = 31000
    min_count: int = 2
    name: str = "induce-31k"
    why: str = ("Bible-scale lex induce (IBM Model 1 EM, Viterbi, intersection) on "
                "31k verse pairs; the align modules do over 90% of the work")
    default_seed: int = 20
    outputs: tuple[str, ...] = ("induced.tsv", "alignments.txt")

    def generate(self, work, seed):
        corpus = verse_corpus(self.pairs, seed)
        _write_lines(work / "verses.src", (" ".join(s) for s, _ in corpus))
        _write_lines(work / "verses.tgt", (" ".join(t) for _, t in corpus))
        return sum(len(s) + len(t) for s, t in corpus)

    def commands(self, seed):
        return [Command(("lex", "induce", "--src", "verses.src", "--tgt", "verses.tgt",
                         "--out", "induced.tsv", "--iterations", "5",
                         "--symmetrization", "intersection",
                         "--min-count", str(self.min_count),
                         "--dump-alignments", "alignments.txt"))]

    def invariants(self, work):
        problems = []
        src = [line.split() for line in _read_lines(work / "verses.src")]
        tgt = [line.split() for line in _read_lines(work / "verses.tgt")]
        links = _read_lines(work / "alignments.txt")
        if len(links) != len(src):
            return [f"alignments.txt has {len(links)} lines for {len(src)} pairs"]
        counts: Counter[tuple[str, str]] = Counter()
        for n, (s, t, line) in enumerate(zip(src, tgt, links)):
            for link in line.split():
                i, _, j = link.partition("-")
                i, j = int(i), int(j)
                if not (0 <= i < len(s) and 0 <= j < len(t)):
                    return [f"alignments.txt line {n + 1}: link {link} out of range"]
                counts[(s[i].casefold(), t[j].casefold())] += 1
        induced = [line for line in _read_lines(work / "induced.tsv")
                   if not line.startswith("#")]
        if not induced:
            problems.append("induced.tsv has no entries")
        for line in induced:
            pair = tuple(line.split("\t"))
            if len(pair) != 2:
                problems.append(f"induced.tsv: malformed line {line!r}")
            elif counts[pair] < self.min_count:
                problems.append(f"induced pair {pair} aligned {counts[pair]} times, "
                                f"fewer than --min-count {self.min_count}")
            if len(problems) > 5:
                break
        return problems


@dataclass
class MlmWorkload(Workload):
    sentences: int = 200_000
    sentence_len: int = 18
    vocab: int = 12_000
    lexicon_sources: int = 5_000
    gold_verses: int = 31_000
    name: str = "mlm-200k"
    why: str = ("MLM corpus assembly: synth mono on 200k x 18-token sentences, then "
                "mix upsample and mix concat --shuffle; synth and mono I/O dominate")
    default_seed: int = 1
    outputs: tuple[str, ...] = ("pseudo.txt", "coverage.json", "upsampled.txt", "mixed.txt")

    def generate(self, work, seed):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(self.vocab)]
        tokens = rng.choices(vocab, cum_weights=_zipf_cum_weights(self.vocab),
                             k=self.sentences * self.sentence_len)
        n = self.sentence_len

        def lines():
            for lo in range(0, len(tokens), n):
                sent = tokens[lo:lo + n]
                sent[0] = sent[0].capitalize()
                yield " ".join(sent)

        _write_lines(work / "mono.txt", lines())
        lex = ["# src_lang: en", "# tgt_lang: xx"]
        for i in sorted(rng.sample(range(self.vocab), self.lexicon_sources)):
            n_cands = rng.randint(2, 4) if rng.random() < 0.25 else 1
            for c in range(n_cands):
                target = f"x{i}c{c}"
                if rng.random() < 0.05:
                    target += f" y{i}"
                lex.append(f"w{i}\t{target}")
        _write_lines(work / "lexicon.tsv", lex)
        gold = verse_corpus(self.gold_verses, seed)
        _write_lines(work / "gold.txt", (" ".join(t) for _, t in gold))
        return len(tokens) + sum(len(t) for _, t in gold)

    def commands(self, seed):
        s = str(seed)
        return [
            Command(("synth", "mono", "--corpus", "mono.txt", "--lexicon", "lexicon.tsv",
                     "--out", "pseudo.txt", "--seed", s, "--report", "coverage.json")),
            Command(("mix", "upsample", "--gold", "gold.txt",
                     "--target-size", str(self.sentences), "--out", "upsampled.txt",
                     "--seed", s)),
            Command(("mix", "concat", "--inputs", "pseudo.txt", "upsampled.txt",
                     "--out", "mixed.txt", "--seed", s, "--shuffle")),
        ]

    def invariants(self, work):
        problems = []
        mono = _read_lines(work / "mono.txt")
        pseudo = _read_lines(work / "pseudo.txt")
        upsampled = _read_lines(work / "upsampled.txt")
        mixed = _read_lines(work / "mixed.txt")
        gold = set(_read_lines(work / "gold.txt"))
        report = json.loads((work / "coverage.json").read_text(encoding="utf-8"))
        if len(pseudo) != len(mono):
            problems.append(f"pseudo.txt has {len(pseudo)} lines for {len(mono)} inputs")
        if report.get("sentences") != len(mono):
            problems.append(f"coverage.json sentences {report.get('sentences')} != {len(mono)}")
        total = sum(len(line.split()) for line in mono)
        if report.get("total_tokens") != total:
            problems.append(f"coverage.json total_tokens {report.get('total_tokens')} != {total}")
        if len(upsampled) != self.sentences:
            problems.append(f"upsampled.txt has {len(upsampled)} lines, want {self.sentences}")
        if not set(upsampled) <= gold:
            problems.append("upsampled.txt holds lines that are not in gold.txt")
        if Counter(mixed) != Counter(pseudo) + Counter(upsampled):
            problems.append("mixed.txt is not a permutation of pseudo.txt + upsampled.txt")
        return problems


@dataclass
class LabeledWorkload(Workload):
    sentences: int = 12_500
    vocab: int = 20_000
    lexicon_sources: int = 15_000
    teacher_flip: float = 0.1
    name: str = "labeled-ewt"
    why: str = ("no-text labeled pipeline on an EWT-sized CoNLL-U treebank with a "
                "PanLex-style lexicon; CoNLL-U I/O and lexicon loading dominate")
    default_seed: int = 1
    outputs: tuple[str, ...] = ("pseudo.conllu", "labeled_coverage.json", "distilled.conllu",
                                "distill.json", "joint.conllu", "pos_dist.json")

    def generate(self, work, seed):
        rng = random.Random(seed)
        sentences = _treebank(rng, self.sentences, self.vocab)
        _write_lines(work / "train.conllu", itertools.chain.from_iterable(
            _conllu_block(rng, n, sent) for n, sent in enumerate(sentences)))
        # Lexicon sources: a random 3/4 of the treebank types, frequent
        # first, so the candidate-list tail meets the word-frequency tail.
        keep = sorted(rng.sample(range(self.vocab), self.lexicon_sources))
        _write_lines(work / "panlex.tsv", _panlex_lexicon(rng, [f"t{i}" for i in keep]))
        return sum(len(sent) for sent in sentences)

    def _synth_command(self, seed):
        return Command(("synth", "labeled", "--input", "train.conllu", "--format", "conllu",
                        "--schema", "pos", "--lexicon", "panlex.tsv", "--out",
                        "pseudo.conllu", "--seed", str(seed),
                        "--report", "labeled_coverage.json"))

    def prepare(self, work, seed, run_commands):
        """Teacher predictions: the pseudo corpus with a seeded share of
        UPOS labels changed, as a tagger trained on gold data would emit."""
        run_commands([self._synth_command(seed)])
        rng = random.Random(seed ^ 0x7EAC4E5)
        out = []
        for line in _read_lines(work / "pseudo.conllu"):
            cols = line.split("\t")
            if len(cols) == 10 and cols[0].isdigit() and rng.random() < self.teacher_flip:
                cols[3] = rng.choice(_UPOS)
                line = "\t".join(cols)
            out.append(line)
        _write_lines(work / "teacher.conllu", out)
        for name in self.outputs:
            (work / name).unlink(missing_ok=True)

    def commands(self, seed):
        return [
            self._synth_command(seed),
            Command(("distill", "apply", "--pseudo", "pseudo.conllu", "--teacher",
                     "teacher.conllu", "--out", "distilled.conllu", "--report",
                     "distill.json", "--format", "conllu", "--schema", "pos")),
            Command(("mix", "joint-labeled", "--gold", "train.conllu", "--pseudo",
                     "distilled.conllu", "--out", "joint.conllu", "--format", "conllu",
                     "--schema", "pos")),
            Command(("report", "pos-dist", "--lexicon", "panlex.tsv", "--reference",
                     "train.conllu", "--json", "--format", "conllu"),
                    stdout="pos_dist.json"),
        ]

    def invariants(self, work):
        problems = []
        gold = _read_lines(work / "train.conllu")
        pseudo = _read_lines(work / "pseudo.conllu")
        teacher = _read_lines(work / "teacher.conllu")
        distilled = _read_lines(work / "distilled.conllu")
        joint = _read_lines(work / "joint.conllu")

        def is_word(line):
            head = line.split("\t", 1)[0]
            return "\t" in line and head.isdigit()

        if len(pseudo) != len(gold):
            return [f"pseudo.conllu has {len(pseudo)} lines, train.conllu {len(gold)}"]
        words = 0
        for n, (g, p, t, d) in enumerate(zip(gold, pseudo, teacher, distilled), start=1):
            if not is_word(g):
                if not (g == p == d):
                    problems.append(f"line {n}: passthrough line changed")
            else:
                words += 1
                gc, pc, tc, dc = (x.split("\t") for x in (g, p, t, d))
                # synth labeled may change only the FORM column.
                if gc[:1] + gc[2:] != pc[:1] + pc[2:] or len(pc[1].split()) != 1:
                    problems.append(f"line {n}: synth labeled changed a label or token count")
                # distill apply takes the teacher's UPOS and keeps the rest.
                if dc[:3] + dc[4:] != pc[:3] + pc[4:] or dc[3] != tc[3]:
                    problems.append(f"line {n}: distill apply did not take the teacher label")
            if len(problems) > 5:
                return problems
        sentences = sum(1 for line in gold if line == "")
        if joint != gold + distilled:
            problems.append("joint.conllu is not train.conllu followed by distilled.conllu")
        coverage = json.loads((work / "labeled_coverage.json").read_text(encoding="utf-8"))
        if coverage.get("total_tokens") != words or coverage.get("sentences") != sentences:
            problems.append(f"labeled_coverage.json counts {coverage.get('total_tokens')} "
                            f"tokens / {coverage.get('sentences')} sentences, want "
                            f"{words} / {sentences}")
        report = json.loads((work / "distill.json").read_text(encoding="utf-8"))
        changed = sum(1 for p, t in zip(pseudo, teacher) if is_word(p) and p != t)
        if report.get("positions") != words or report.get("changed") != changed:
            problems.append(f"distill.json counts {report.get('changed')}/"
                            f"{report.get('positions')}, want {changed}/{words}")
        dist = json.loads((work / "pos_dist.json").read_text(encoding="utf-8"))
        if abs(sum(dist.get("fractions", {}).values()) - 1.0) > 1e-9 or dist.get("found", 0) < 1:
            problems.append("pos_dist.json fractions do not sum to 1")
        return problems


@dataclass
class CombinedWorkload(Workload):
    """Several workloads in one work directory and one process, one after
    another; their inputs and outputs must not share file names. Digests
    are recorded and looked up per part."""

    parts: tuple[Workload, ...] = ()
    name: str = ""
    why: str = ""

    @property
    def outputs(self):
        return tuple(name for part in self.parts for name in part.outputs)

    def generate(self, work, seed):
        return sum(part.generate(work, seed) for part in self.parts)

    def prepare(self, work, seed, run_commands):
        for part in self.parts:
            part.prepare(work, seed, run_commands)

    def commands(self, seed):
        return [command for part in self.parts for command in part.commands(seed)]

    def invariants(self, work):
        return [problem for part in self.parts for problem in part.invariants(work)]

    def recorded(self, table, seed):
        found = [part.recorded(table, seed) for part in self.parts]
        if any(digests is None for digests in found):
            return None
        return {name: digest for digests in found for name, digest in digests.items()}

    def store(self, table, seed, digests):
        for part in self.parts:
            part.store(table, seed, {name: digests[name] for name in part.outputs})


WORKLOADS: dict[str, Workload] = {
    wl.name: wl for wl in (
        InduceWorkload(),
        MlmWorkload(),
        LabeledWorkload(),
        CombinedWorkload(
            parts=(MlmWorkload(), LabeledWorkload()),
            name="mlm-labeled",
            why=("mlm-200k then labeled-ewt in one process: synth mono with mix upsample "
                 "and concat, then the no-text labeled pipeline; synth, corpus I/O, "
                 "lexicon, distill, mix and report all run"),
        ),
    )
}
