"""Corpus ingestion: loading, segmentation, tokenization, encoding, splits.

The whole pipeline is deterministic: given the same file bytes, caps, and
seed, loading, vocabulary construction, encoding, and the stratified
train/dev split always produce identical results. :func:`read_lines` reads
every corpus and edge-weight file, so the loaders keep only their field rules.
"""

from __future__ import annotations

import json
import re
import string
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CorpusError, DocGraphError, is_count, is_int

PAD = "<pad>"
UNK = "<unk>"
UNK_ID = 1

DEFAULT_MAX_SENTENCES = 64
DEFAULT_MAX_TOKENS = 64
DEFAULT_MIN_FREQUENCY = 2
# the train share of each class in the four-way protocol's train/dev split
SPLIT_RATIO = 0.8

# Words that end with a period without terminating a sentence.
ABBREVIATIONS = frozenset(
    ["mr", "mrs", "ms", "dr", "st", "vs", "etc", "e.g", "i.e", "u.s", "inc", "jr", "sr"]
)

_PUNCT = set(string.punctuation)
# a sentence-terminator candidate: '.', '!' or '?' and then a space
_CANDIDATE = re.compile(r"[.!?] ")


@dataclass(frozen=True)
class RawDocument:
    """An article as read from disk, before any encoding; ``label`` is
    ``None`` for a JSONL record without one."""

    id: str
    label: str | None
    source: str
    text: str

    @cached_property
    def tokens(self) -> str:
        """The text segmented and tokenized: each sentence's tokens joined by
        " ", the sentences joined by "\\n". Exact, as a token never holds
        whitespace. Computed on first use and kept as long as the document,
        so vocabulary building and every encoding share one pass; empty text
        raises ``CorpusError`` on every use."""
        return "\n".join([" ".join(tokenize(s)) for s in split_sentences(self.text)])


@dataclass(frozen=True)
class Document:
    """A sentence-segmented, token-encoded article; ``label`` is ``None``
    when it was encoded without a class set."""

    id: str
    label: int | None
    sentences: tuple[tuple[int, ...], ...]

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True)
class ClassSet:
    """Ordered class names; order fixes the label indices."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.names) < 2:
            raise CorpusError("a class set needs at least 2 classes")
        if len(set(self.names)) != len(self.names):
            raise CorpusError("class names must be unique")

    def index(self, label: str) -> int:
        try:
            return self.names.index(label)
        except ValueError:
            raise CorpusError(f"label '{label}' not in class set {list(self.names)}") from None


@dataclass
class Vocabulary:
    """Token/id bijection with reserved PAD=0 and UNK=1 entries."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        tokens = self.id_to_token
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError("vocabulary tokens must be strings in a list")
        if tokens[:2] != [PAD, UNK]:
            raise CorpusError("vocabulary must reserve PAD=0 and UNK=1")
        self.token_to_id = {tok: i for i, tok in enumerate(tokens)}
        if len(self.token_to_id) != len(tokens):
            raise CorpusError("vocabulary tokens must be unique")

    def __len__(self) -> int:
        return len(self.id_to_token)


# ---------------------------------------------------------------------------
# loading

def json_id(value) -> str | None:
    """A JSONL record's ``id`` (or ``label``) as the string documents are
    keyed by: a string as it is, a JSON integer as its ``str()`` (so numeric
    ids still match between a corpus and its edge weights), ``None`` for any
    other type."""
    if isinstance(value, str):
        return value
    return str(value) if is_int(value) else None


def _lone_surrogate(value) -> bool:
    """Whether a parsed JSON value holds a string (key or value) that does not
    encode as UTF-8, as only a lone surrogate escape such as ``\\ud800``
    decodes to. Iterative, so deep nesting cannot exhaust the recursion limit."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                return True
        elif isinstance(value, dict):
            stack += [*value, *value.values()]
        elif isinstance(value, list):
            stack += value
    return False


def read_lines(path: Path, error: type[DocGraphError], what: str,
               jsonl: bool = True) -> Iterator[tuple[int, object]]:
    """``(line number, value)`` for each non-blank line of a UTF-8 file: its
    JSON value, or the line itself unless ``jsonl``. Only "\\n", "\\r\\n" or
    "\\r" ends a line: U+2028 may sit in a JSON string, a form feed in a TSV
    text. An unreadable or non-UTF-8 file, a line that is not JSON and a
    string that is not Unicode text raise ``error`` naming the file and line."""
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except OSError as err:
        raise error(f"cannot read {what} {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 at byte offset {err.start}: {err.reason}") from err
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            value = json.loads(line) if jsonl else line
        # JSONDecodeError, an int of over 4300 digits, or nesting too deep
        except (ValueError, RecursionError) as err:
            raise error(f"{path}:{lineno}: invalid JSON: {err}") from err
        # a strict UTF-8 decode yields no surrogate, so only a JSON \u escape makes one
        if "\\u" in line and _lone_surrogate(value):
            raise error(f"{path}:{lineno}: a string holds a lone surrogate escape, "
                        f"which is not Unicode text")
        yield lineno, value


def load_corpus(
    path: str | Path,
    fmt: str,
    class_set: ClassSet | None = None,
) -> list[RawDocument]:
    """Read a JSONL or TSV corpus file, preserving record order.

    Blank lines are skipped. A JSONL ``id`` or ``label`` is a string or an
    integer (see :func:`json_id`) and ``source`` a string; a record without
    an id, and every TSV row, is ``row-{k}``, and a record without a label
    has the label ``None``. No id may appear twice. When
    ``class_set`` is given, a record whose label falls outside it is an
    error (use :func:`filter_by_labels` to subset instead).
    """
    path = Path(path)
    if fmt not in ("jsonl", "tsv"):
        raise CorpusError(f"unknown corpus format '{fmt}'")
    docs: list[RawDocument] = []
    first_line: dict[str, int] = {}
    for lineno, rec in read_lines(path, CorpusError, "corpus file", fmt == "jsonl"):
        k = len(docs)
        if fmt == "jsonl":
            if not isinstance(rec, dict) or "text" not in rec:
                raise CorpusError(f"{path}:{lineno}: record needs a 'text' field")
            text, source = rec["text"], rec.get("source", "")
            fields = {"text": text if isinstance(text, str) else None,
                      "id": json_id(rec["id"]) if "id" in rec else f"row-{k}",
                      "label": json_id(rec["label"]) if "label" in rec else None,
                      "source": source if isinstance(source, str) else None}
            for name, value in fields.items():
                if value is None and name in rec:
                    kind = "a string" if name in ("source", "text") else "a string or an integer"
                    raise CorpusError(f"{path}:{lineno}: '{name}' must be {kind}, "
                                      f"got {type(rec[name]).__name__}")
            doc = RawDocument(**fields)
        else:
            parts = rec.split("\t", 1)
            if len(parts) != 2:
                raise CorpusError(f"{path}:{lineno}: expected label<TAB>text")
            doc = RawDocument(id=f"row-{k}", label=parts[0], source="", text=parts[1])
        if doc.id in first_line:
            raise CorpusError(f"{path}:{lineno}: duplicate id '{doc.id}' "
                              f"(first on line {first_line[doc.id]})")
        first_line[doc.id] = lineno
        if not doc.text.strip():
            raise CorpusError(f"{path}:{lineno}: empty text for document '{doc.id}'")
        if class_set is not None and doc.label not in class_set.names:
            raise CorpusError(
                f"{path}:{lineno}: document '{doc.id}' has no label" if doc.label is None
                else f"{path}:{lineno}: label '{doc.label}' not in class set "
                     f"{list(class_set.names)}")
        docs.append(doc)
    return docs


def filter_by_labels(docs: list[RawDocument], labels: tuple[str, ...]) -> list[RawDocument]:
    """Keep only documents whose label is in ``labels`` (order preserved)."""
    keep = set(labels)
    return [d for d in docs if d.label in keep]


def infer_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".json"):
        return "jsonl"
    if suffix == ".tsv":
        return "tsv"
    raise CorpusError(
        f"cannot infer corpus format from '{path}'; pass the format explicitly"
    )


# ---------------------------------------------------------------------------
# segmentation and tokenization

def _word_before(text: str, idx: int) -> str:
    """The maximal [letter/digit/period] run ending just before ``idx``."""
    j = idx
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "."):
        j -= 1
    return text[j:idx]


def split_sentences(text: str) -> list[str]:
    """Rule-based segmentation of whitespace-normalized text.

    Splits after '.', '!' or '?' when followed by whitespace and an
    uppercase letter or digit (``str.isupper``/``str.isdigit``), unless the
    period closes a known abbreviation. Text without a terminator comes back
    as one segment.
    """
    normalized = " ".join(text.split())
    if not normalized:
        raise CorpusError("cannot split empty text")
    segments: list[str] = []
    start = 0
    # normalized never ends in a space, so a candidate is always followed by
    # a character; candidates cannot overlap, as one ends in the space that
    # the next would need to be a terminator
    for match in _CANDIDATE.finditer(normalized):
        i = match.start()
        follow = normalized[i + 2]
        if not (follow.isupper() or follow.isdigit()):
            continue
        if normalized[i] == "." and (
                _word_before(normalized, i).lower().rstrip(".") in ABBREVIATIONS):
            continue
        segments.append(normalized[start : i + 1])
        start = i + 2
    tail = normalized[start:].strip()
    if tail:
        segments.append(tail)
    return segments


def tokenize(sentence: str) -> list[str]:
    """Lowercase whitespace tokenization with outer punctuation detached.

    Leading and trailing punctuation characters become single-character
    tokens; punctuation inside a token (hyphens, acronym periods) stays.
    """
    if not sentence.strip():
        raise CorpusError("cannot tokenize empty sentence")
    tokens: list[str] = []
    append = tokens.append
    for chunk in sentence.lower().split():
        if chunk[0] not in _PUNCT and chunk[-1] not in _PUNCT:
            append(chunk)
            continue
        rest = chunk.lstrip(string.punctuation)
        core = rest.rstrip(string.punctuation)
        left = len(chunk) - len(rest)
        tokens.extend(chunk[:left])
        if core:
            append(core)
        tokens.extend(rest[len(core):])
    return tokens


# ---------------------------------------------------------------------------
# vocabulary and encoding

def build_vocab(docs: list[RawDocument], min_frequency: int = DEFAULT_MIN_FREQUENCY) -> Vocabulary:
    """Frequency-cutoff vocabulary over the tokenized corpus.

    Ordering is deterministic: by descending frequency, ties broken
    lexicographically. Tokens below ``min_frequency`` encode to UNK.
    """
    if not is_int(min_frequency):
        raise CorpusError(f"min_frequency must be an integer, got {min_frequency!r}")
    if not docs:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for doc in docs:
        counts.update(doc.tokens.split())
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_frequency),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(id_to_token=[PAD, UNK] + kept)


def encode_document(
    doc: RawDocument,
    vocab: Vocabulary,
    class_set: ClassSet | None,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> Document:
    """Encode one document's first ``max_sentences`` sentences, each cut to
    its first ``max_tokens`` tokens. Empty text raises ``CorpusError``; every
    sentence of a non-empty text holds a token. Without a class set, as for
    scoring, the label is not read and the encoded label is ``None``; with
    one, a document without a label raises ``CorpusError``."""
    if not (is_count(max_sentences) and is_count(max_tokens)):
        raise CorpusError(f"length caps must be from 1 to {sys.maxsize}")
    if class_set is None:
        label = None
    elif doc.label is None:
        raise CorpusError(f"document '{doc.id}' has no label")
    else:
        label = class_set.index(doc.label)
    sentences = doc.tokens.split("\n", max_sentences)[:max_sentences]
    lookup = vocab.token_to_id.get
    return Document(id=doc.id, label=label, sentences=tuple([
        tuple([lookup(t, UNK_ID) for t in s.split(" ", max_tokens)[:max_tokens]])
        for s in sentences]))


def encode_corpus(
    docs: list[RawDocument],
    vocab: Vocabulary,
    class_set: ClassSet,
    max_sentences: int = DEFAULT_MAX_SENTENCES,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[Document]:
    """Encode every document of a corpus (see :func:`encode_document`)."""
    return [encode_document(doc, vocab, class_set, max_sentences, max_tokens) for doc in docs]


# ---------------------------------------------------------------------------
# splits

def split_train_dev(docs: list, seed: int) -> tuple[list, list]:
    """Stratified shuffle split; works on anything with a ``label`` attribute.

    Per class the train share is round(SPLIT_RATIO * count), clamped so both
    sides stay non-empty. Deterministic given the seed, a non-negative
    integer.
    """
    if not is_int(seed) or seed < 0:  # ModelConfig's rule and message for its seed
        raise CorpusError("seed must be a non-negative integer")
    groups: dict[object, list] = {}
    for d in docs:
        groups.setdefault(d.label, []).append(d)
    rng = np.random.default_rng(seed)
    train: list = []
    dev: list = []
    for label in sorted(groups, key=str):
        members = groups[label]
        if len(members) < 2:
            raise CorpusError(
                f"class '{label}' has fewer than 2 documents; cannot split"
            )
        n_train = int(SPLIT_RATIO * len(members) + 0.5)
        n_train = min(max(n_train, 1), len(members) - 1)
        order = rng.permutation(len(members))
        train.extend(members[i] for i in order[:n_train])
        dev.extend(members[i] for i in order[n_train:])
    return train, dev
