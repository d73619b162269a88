"""Seeded synthetic 4-class news corpus for the benchmark.

Scales the planted-marker idea of ``tests/conftest.py``: words come from a
Zipf-weighted synthetic lexicon, and one class-marker token per class is
planted in about half of a document's sentences (at least one), so the
class is learnable from content. The program only ever sees the files
written here, read back through ``load_corpus`` and ``load_edge_weights``.

Document shapes are fixed by the spec, not drawn: every training block
holds documents with the same multiset of sentence counts, and a
document's sentence lengths depend only on its sentence count. The seed
picks the lexicon, the words and the order, so two seeds give different
text with the same amount of work per block. That keeps run-to-run
spread down to the machine's own noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASS_NAMES = ("hoax", "propaganda", "satire", "trusted")
MARKERS = ("zebra", "quokka", "walrus", "gannet")
# Lexicon words alternate these consonants and vowels; out-of-vocabulary
# words use consonants the lexicon never does, so the two sets are disjoint.
CONSONANTS = "bcdfghjklmnprstvw"
OOV_CONSONANTS = "qxyz"
VOWELS = "aeiou"
MARKER_RATE = 0.5
ZIPF_EXPONENT = 0.7
OOV_RATE = 0.1  # share of unseen words in held-out documents


@dataclass(frozen=True)
class CorpusSpec:
    """Sizes of one generated corpus.

    ``block_sentences`` lists the sentence count of each document in one
    training block; the training file is ``train_blocks`` such blocks.
    ``token_range`` bounds tokens per sentence, the closing period
    included. The training file holds every lexicon word at least twice.
    Held-out documents mix in unseen words at ``OOV_RATE``.
    """

    block_sentences: tuple[int, ...]
    train_blocks: int
    dev_sentences: tuple[int, ...] = ()
    heldout_sentences: tuple[int, ...] = ()
    token_range: tuple[int, int] = (15, 30)
    lexicon_size: int = 19_993  # the vocabulary adds PAD, UNK, 4 markers and "."


@dataclass(frozen=True)
class CorpusFiles:
    """Paths of the generated files; absent parts are None."""

    train: Path
    dev: Path | None
    heldout: Path | None
    heldout_weights: Path | None


def make_lexicon(rng: np.random.Generator, size: int, consonants: str = CONSONANTS) -> list[str]:
    """``size`` distinct lowercase words of 2 to 4 consonant-vowel syllables."""
    words: set[str] = set()
    while len(words) < size:
        n = size - len(words)
        syllables = rng.integers(2, 5, size=n)
        cons = rng.integers(len(consonants), size=(n, 4))
        vows = rng.integers(len(VOWELS), size=(n, 4))
        for k in range(n):
            word = "".join(consonants[cons[k, j]] + VOWELS[vows[k, j]]
                           for j in range(syllables[k]))
            if word not in MARKERS:
                words.add(word)
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


def sentence_lengths(n_sentences: int, token_range: tuple[int, int]) -> list[int]:
    """Tokens per sentence of a document with ``n_sentences`` sentences.

    Spreads evenly over the range, so the mean is the range's midpoint
    whatever the count, and the total depends only on the count.
    """
    lo, hi = token_range
    span = hi - lo + 1
    return [lo + (2 * j + 1) * span // (2 * n_sentences) for j in range(n_sentences)]


def _labelled_shapes(rng: np.random.Generator, sentences: tuple[int, ...]) -> list[tuple[int, int]]:
    """(label index, sentence count) per document, classes balanced, order shuffled."""
    return [(k % len(CLASS_NAMES), sentences[i])
            for k, i in enumerate(rng.permutation(len(sentences)))]


class _Writer:
    """Draws the words of many documents from one seeded stream."""

    def __init__(self, rng: np.random.Generator, spec: CorpusSpec):
        self.rng = rng
        self.spec = spec
        self.lexicon = make_lexicon(rng, spec.lexicon_size)
        weights = 1.0 / np.arange(1, spec.lexicon_size + 1) ** ZIPF_EXPONENT
        self.probs = weights / weights.sum()
        self.unseen = make_lexicon(rng, 2_000, OOV_CONSONANTS)

    def documents(self, shapes: list[tuple[int, int]], oov_rate: float = 0.0,
                  every_word_twice: bool = False) -> list[tuple[int, list[list[str]]]]:
        """Documents as (label index, sentences of words), in ``shapes`` order.

        With ``every_word_twice`` each lexicon word appears at least twice,
        so ``build_vocab`` at min frequency 2 keeps exactly the lexicon
        (plus the markers and the period) whatever the seed.
        """
        rng = self.rng
        docs = []
        slots = []  # per document, per sentence: (word slots, marker position or -1)
        for label, n_sentences in shapes:
            lengths = [n - 1 for n in sentence_lengths(n_sentences, self.spec.token_range)]
            rng.shuffle(lengths)
            planted = rng.random(n_sentences) < MARKER_RATE
            planted[rng.integers(n_sentences)] = True
            slots.append([(n, int(rng.integers(n)) if plant else -1)
                          for n, plant in zip(lengths, planted)])
        n_words = sum(n - (at >= 0) for doc in slots for n, at in doc)
        words = self._words(n_words, oov_rate, every_word_twice)
        for (label, _), doc in zip(shapes, slots):
            sentences = []
            for n, at in doc:
                sentence = [next(words) for _ in range(n - (at >= 0))]
                if at >= 0:
                    sentence.insert(at, MARKERS[label])
                sentences.append(sentence)
            docs.append((label, sentences))
        return docs

    def _words(self, n: int, oov_rate: float, every_word_twice: bool):
        rng = self.rng
        size = len(self.lexicon)
        if every_word_twice:
            floor = np.repeat(np.arange(size), 2)
            if n < floor.size:
                raise ValueError(f"{n} words cannot hold every lexicon word twice")
            ids = rng.permutation(np.concatenate(
                [floor, rng.choice(size, size=n - floor.size, p=self.probs)]))
        else:
            ids = rng.choice(size, size=n, p=self.probs)
        unseen = rng.random(n) < oov_rate
        unseen_ids = rng.integers(len(self.unseen), size=n)
        return iter([self.unseen[unseen_ids[k]] if unseen[k] else self.lexicon[ids[k]]
                     for k in range(n)])


def render(sentences: list[list[str]]) -> str:
    """Sentence-cased text that ``split_sentences``/``tokenize`` split back exactly."""
    return " ".join(s[0].capitalize() + "".join(" " + w for w in s[1:]) + "."
                    for s in sentences)


def jaccard_weights(sentences: list[list[str]]) -> list[list[float]]:
    """Symmetric, zero-diagonal word-set Jaccard similarity, in [0, 1]."""
    sets = [set(s) for s in sentences]
    n = len(sets)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            weights[i][j] = weights[j][i] = len(sets[i] & sets[j]) / len(sets[i] | sets[j])
    return weights


def _write_tsv(path: Path, docs) -> None:
    path.write_text("".join(f"{CLASS_NAMES[label]}\t{render(sentences)}\n"
                            for label, sentences in docs), encoding="utf-8")


def generate(spec: CorpusSpec, seed: int, out_dir: Path) -> CorpusFiles:
    """Write the corpus files for ``spec`` and ``seed`` into ``out_dir``.

    The training and dev files are TSV; the held-out file is JSONL with
    ids and sources, plus an edge-weight JSONL keyed by those ids.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(np.random.default_rng(seed), spec)

    shapes = [shape for _ in range(spec.train_blocks)
              for shape in _labelled_shapes(writer.rng, spec.block_sentences)]
    train = out_dir / "train.tsv"
    _write_tsv(train, writer.documents(shapes, every_word_twice=True))

    dev = None
    if spec.dev_sentences:
        dev = out_dir / "dev.tsv"
        _write_tsv(dev, writer.documents(_labelled_shapes(writer.rng, spec.dev_sentences)))

    heldout = heldout_weights = None
    if spec.heldout_sentences:
        docs = writer.documents(_labelled_shapes(writer.rng, spec.heldout_sentences),
                                oov_rate=OOV_RATE)
        heldout = out_dir / "heldout.jsonl"
        heldout_weights = out_dir / "heldout_weights.jsonl"
        records, weight_records = [], []
        for k, (label, sentences) in enumerate(docs):
            doc_id = f"held-{k}"
            records.append({"id": doc_id, "label": CLASS_NAMES[label],
                             "source": f"unseen-{k % 3}", "text": render(sentences)})
            weight_records.append({"id": doc_id, "n": len(sentences),
                                   "weights": jaccard_weights(sentences)})
        heldout.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        heldout_weights.write_text("".join(json.dumps(r) + "\n" for r in weight_records),
                                   encoding="utf-8")
    return CorpusFiles(train=train, dev=dev, heldout=heldout, heldout_weights=heldout_weights)
