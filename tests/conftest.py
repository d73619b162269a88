"""Shared synthetic-corpus builders for training and acceptance tests."""

import numpy as np

from docgraph.corpus import ClassSet, RawDocument, build_vocab, encode_corpus

FILLERS = [
    "the", "day", "was", "long", "and", "quiet", "news", "story",
    "report", "about", "town", "people", "said", "today",
]
MARKERS = ["zebra", "quokka", "walrus", "gannet"]


def planted_corpus(
    seed: int,
    n_docs: int = 16,
    class_names: tuple[str, ...] = ("satire", "trusted"),
    sentences_per_doc: int = 3,
) -> list[RawDocument]:
    """Balanced corpus where one marker token per class appears in every
    sentence, so the class is perfectly predictable from content."""
    rng = np.random.default_rng(seed)
    docs = []
    for k in range(n_docs):
        class_index = k % len(class_names)
        marker = MARKERS[class_index]
        sentences = []
        for _ in range(sentences_per_doc):
            words = [str(w) for w in rng.choice(FILLERS, size=rng.integers(3, 5))]
            words.insert(int(rng.integers(0, len(words) + 1)), marker)
            sentences.append(words[0].capitalize() + " " + " ".join(words[1:]) + ".")
        docs.append(RawDocument(
            id=f"doc-{k}",
            label=class_names[class_index],
            source=f"src-{class_index}",
            text=" ".join(sentences),
        ))
    return docs


def encode_planted(raw_docs, class_names):
    class_set = ClassSet(tuple(class_names))
    vocab = build_vocab(raw_docs, min_frequency=2)
    encoded = encode_corpus(raw_docs, vocab, class_set)
    return vocab, class_set, encoded


class HalfWriter:
    """A file stand-in that writes half of its data, then fails like a full disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("disk full")
