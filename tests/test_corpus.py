"""Corpus pipeline tests: loading, segmentation, vocab, encoding, splits."""

import string
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgraph import corpus
from docgraph.corpus import ClassSet, RawDocument
from docgraph.errors import CorpusError


@pytest.fixture
def two_way():
    return ClassSet(("satire", "trusted"))


def write(tmp_path, name, content):
    p = tmp_path / name
    p.write_text(content, encoding="utf-8")
    return p


class TestLoadCorpus:
    def test_jsonl_field_mapping(self, tmp_path):
        p = write(tmp_path, "c.jsonl",
                  '{"id":"d1","label":"satire","source":"Onion","text":"A b. C d."}\n')
        docs = corpus.load_corpus(p, "jsonl")
        assert docs == [RawDocument("d1", "satire", "Onion", "A b. C d.")]

    def test_tsv_auto_id(self, tmp_path):
        p = write(tmp_path, "c.tsv", "trusted\tSome text here.\n")
        docs = corpus.load_corpus(p, "tsv")
        assert docs == [RawDocument("row-0", "trusted", "", "Some text here.")]

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path, "c.tsv", "a\tOne.\n\nb\tTwo.\na\tThree.\n")
        docs = corpus.load_corpus(p, "tsv")
        assert len(docs) == 3
        assert [d.id for d in docs] == ["row-0", "row-1", "row-2"]

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "c.tsv", "a\tOne.\nno-tab-here\n")
        with pytest.raises(CorpusError, match=":2:"):
            corpus.load_corpus(p, "tsv")

    def test_invalid_json_reports_number(self, tmp_path):
        p = write(tmp_path, "c.jsonl", '{"label":"a","text":"x"}\n{broken\n')
        with pytest.raises(CorpusError, match=":2:"):
            corpus.load_corpus(p, "jsonl")

    def test_unknown_label_with_class_filter(self, tmp_path, two_way):
        p = write(tmp_path, "c.tsv", "hoax\tSome text.\n")
        with pytest.raises(CorpusError, match="hoax"):
            corpus.load_corpus(p, "tsv", class_set=two_way)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            corpus.load_corpus(tmp_path / "nope.tsv", "tsv")

    def test_empty_text_rejected(self, tmp_path):
        p = write(tmp_path, "c.tsv", "a\t   \n")
        with pytest.raises(CorpusError, match="empty text"):
            corpus.load_corpus(p, "tsv")

    def test_non_utf8_bytes_rejected_with_offset(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_bytes(b"a\tOne.\nb\t\xff\xfe two.\n")
        with pytest.raises(CorpusError, match=r"c\.tsv: not UTF-8 at byte offset 9"):
            corpus.load_corpus(p, "tsv")

    @pytest.mark.parametrize("text, kind", [("null", "NoneType"), ('["a", "b"]', "list"),
                                            ("7", "int"), ('{"t": "x"}', "dict")])
    def test_non_string_jsonl_text_rejected(self, tmp_path, text, kind):
        p = write(tmp_path, "c.jsonl", '{"label":"trusted","text":"Fine."}\n'
                  f'{{"label":"trusted","text":{text}}}\n')
        with pytest.raises(CorpusError, match=rf"c\.jsonl:2: 'text' must be a string, got {kind}"):
            corpus.load_corpus(p, "jsonl")

    def test_numeric_jsonl_label_kept_as_string(self, tmp_path):
        p = write(tmp_path, "c.jsonl", '{"label":1,"text":"Fine."}\n')
        assert corpus.load_corpus(p, "jsonl")[0].label == "1"

    @pytest.mark.parametrize("label, kind", [("null", "NoneType"), ("true", "bool"),
                                             ('{"a": 1}', "dict"), ("2.5", "float"),
                                             ('["a"]', "list")])
    def test_jsonl_label_of_another_type_rejected(self, tmp_path, label, kind):
        # str() would make these the classes "None", "True", "{'a': 1}", ...
        p = write(tmp_path, "c.jsonl", '{"label":"trusted","text":"Fine."}\n'
                  f'{{"label":{label},"text":"Fine."}}\n')
        with pytest.raises(CorpusError,
                           match=rf"c\.jsonl:2: 'label' must be a string or an integer, "
                                 rf"got {kind}"):
            corpus.load_corpus(p, "jsonl")

    @pytest.mark.parametrize("doc_id, kind", [("null", "NoneType"), ("7.0", "float"),
                                              ("true", "bool"), ('["a"]', "list"),
                                              ('{"a": 1}', "dict")])
    def test_jsonl_id_of_another_type_rejected(self, tmp_path, doc_id, kind):
        p = write(tmp_path, "c.jsonl", '{"label":"trusted","text":"Fine."}\n'
                  f'{{"id":{doc_id},"label":"trusted","text":"Fine."}}\n')
        with pytest.raises(CorpusError,
                           match=rf"c\.jsonl:2: 'id' must be a string or an integer, got {kind}"):
            corpus.load_corpus(p, "jsonl")

    def test_integer_jsonl_id_kept_as_string(self, tmp_path):
        p = write(tmp_path, "c.jsonl", '{"id":7,"label":"trusted","text":"Fine."}\n')
        assert corpus.load_corpus(p, "jsonl")[0].id == "7"

    def test_integer_too_long_for_a_string_rejected(self, tmp_path):
        # json.loads raises a bare ValueError past 4300 digits
        p = write(tmp_path, "c.jsonl", f'{{"id":{"7" * 5000},"label":"a","text":"Fine."}}\n')
        with pytest.raises(CorpusError, match=r"c\.jsonl:1: invalid JSON"):
            corpus.load_corpus(p, "jsonl")

    @pytest.mark.parametrize("source, kind", [("null", "NoneType"), ('["s"]', "list"),
                                              ("3", "int")])
    def test_non_string_jsonl_source_rejected(self, tmp_path, source, kind):
        p = write(tmp_path, "c.jsonl",
                  f'{{"label":"trusted","source":{source},"text":"Fine."}}\n')
        with pytest.raises(CorpusError,
                           match=rf"c\.jsonl:1: 'source' must be a string, got {kind}"):
            corpus.load_corpus(p, "jsonl")

    def test_repeated_id_names_both_lines(self, tmp_path):
        # a record without an id is row-{k}, so an explicit "row-1" repeats it
        p = write(tmp_path, "c.jsonl", '{"id":"a","label":"x","text":"One."}\n'
                  '{"label":"x","text":"Two."}\n\n'
                  '{"id":"row-1","label":"x","text":"Three."}\n')
        with pytest.raises(CorpusError, match=r"c\.jsonl:4: duplicate id 'row-1' "
                                              r"\(first on line 2\)"):
            corpus.load_corpus(p, "jsonl")


# Arbitrary unicode, salted with the fragments the segmenter reacts to:
# terminators, capitals and digits after a space, abbreviations and
# non-ASCII whitespace.
FRAGMENTS = [". ", "! ", "? ", ".", "A", "É", "7", "Dr.", "e.g.", "U.S.", '"', " ", "\t",
             "\n", "\u00a0", "\u2029", "\u3000"]
unicode_text = st.lists(st.text(max_size=6) | st.sampled_from(FRAGMENTS), max_size=12).map("".join)


class TestSplitSentences:
    @settings(max_examples=300, deadline=None)
    @given(text=unicode_text)
    def test_total_on_unicode_and_keeps_normalized_text(self, text):
        blank = not text.split()
        try:
            segments = corpus.split_sentences(text)
        except CorpusError:
            assert blank
            return
        assert not blank
        assert all(segments)
        assert " ".join(segments) == " ".join(text.split())

    def test_two_terminators(self):
        assert corpus.split_sentences("He left. She stayed!") == ["He left.", "She stayed!"]

    def test_abbreviation_not_split(self):
        assert corpus.split_sentences("Dr. Smith arrived.") == ["Dr. Smith arrived."]

    def test_more_abbreviations(self):
        assert corpus.split_sentences("The U.S. Senate met. It voted.") == [
            "The U.S. Senate met.", "It voted."]
        assert corpus.split_sentences("Costs rose, e.g. Rent doubled.") == [
            "Costs rose, e.g. Rent doubled."]

    def test_no_terminator(self):
        assert corpus.split_sentences("no terminator") == ["no terminator"]

    def test_lowercase_continuation_not_split(self):
        assert corpus.split_sentences("He left. she stayed") == ["He left. she stayed"]

    def test_question_and_digit(self):
        assert corpus.split_sentences("Why? 42 reasons exist.") == ["Why?", "42 reasons exist."]

    def test_concatenation_preserves_normalized_text(self):
        text = "One two.  Three four!   Five?\nSix seven."
        segments = corpus.split_sentences(text)
        assert " ".join(segments) == " ".join(text.split())
        assert all(s for s in segments)


class TestTokenize:
    @settings(max_examples=300, deadline=None)
    @given(text=unicode_text)
    def test_total_on_unicode_and_keeps_every_character(self, text):
        blank = not text.split()
        try:
            tokens = corpus.tokenize(text)
        except CorpusError:
            assert blank
            return
        assert not blank
        assert all(token.split() == [token] for token in tokens)  # non-empty, no whitespace
        assert "".join(tokens) == "".join(text.lower().split())

    def test_simple(self):
        assert corpus.tokenize("He left.") == ["he", "left", "."]

    def test_internal_punctuation_kept(self):
        assert corpus.tokenize("U.S.-based firm") == ["u.s.-based", "firm"]

    def test_whitespace_collapse(self):
        assert corpus.tokenize("  spaced   out ") == ["spaced", "out"]

    def test_outer_punctuation_detached_in_order(self):
        assert corpus.tokenize('"Hello!"') == ['"', "hello", "!", '"']

    def test_all_punctuation_chunk(self):
        assert corpus.tokenize("wait ...") == ["wait", ".", ".", "."]


# The segmenter and tokenizer as they were written first, one character at a
# time: the reference the str-method versions must match on every input.

def reference_word_before(text: str, idx: int) -> str:
    j = idx
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] == "."):
        j -= 1
    return text[j:idx]


def reference_split_sentences(text: str) -> list[str]:
    normalized = " ".join(text.split())
    if not normalized:
        raise CorpusError("cannot split empty text")
    segments: list[str] = []
    start = 0
    i = 0
    n = len(normalized)
    while i < n:
        ch = normalized[i]
        if ch in ".!?":
            nxt = i + 1
            if nxt < n and normalized[nxt] == " ":
                follow = nxt + 1
                if follow < n and (normalized[follow].isupper() or normalized[follow].isdigit()):
                    word = reference_word_before(normalized, i)
                    if not (ch == "." and word.lower().rstrip(".") in corpus.ABBREVIATIONS):
                        segments.append(normalized[start : i + 1])
                        start = follow
                        i = follow
                        continue
        i += 1
    tail = normalized[start:].strip()
    if tail:
        segments.append(tail)
    return segments


def reference_tokenize(sentence: str) -> list[str]:
    if not sentence.strip():
        raise CorpusError("cannot tokenize empty sentence")
    punct = set(string.punctuation)
    tokens: list[str] = []
    for chunk in sentence.lower().split():
        left = 0
        right = len(chunk)
        while left < right and chunk[left] in punct:
            left += 1
        while right > left and chunk[right - 1] in punct:
            right -= 1
        tokens.extend(chunk[:left])
        if right > left:
            tokens.append(chunk[left:right])
        tokens.extend(chunk[right:])
    return tokens


def outcome(fn, text):
    try:
        return fn(text)
    except CorpusError as err:
        return str(err)


# Where str methods and regex classes part ways: titlecase (isupper is
# False), a capital whose lowercase is two characters, an Arabic-Indic digit
# (isdigit and \d), a superscript digit (isdigit, not \d) and a Roman numeral
# (isupper, not [A-Z]), also right after a terminator; abbreviations in every
# case; terminator runs; chunks of punctuation only; whitespace that
# str.split() splits on (the separators \x1c-\x1f, NEL, LINE SEPARATOR,
# IDEOGRAPHIC SPACE); runs of more sentences than a sentence cap.
ORACLE_FRAGMENTS = [
    ". ", "! ", "? ", "?! ", "!? ", "...", "... ", ". . ", ".", "!", "?",
    " ", "  ", "\t", "\u00a0", "\u2029",
    "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000",
    "One. Two! Three? Four. Five.", "A b. C d. E f. G h.",
    "ǅ", "Ǆ", "ǆ", "İ", "ı", "١", "²", "Ⅷ",
    ". ǅ", ". İ", ". ١", "? ²", ". Ⅷ",
    "A", "a", "Z", "7", "É", "ß", "word", "x1.", "2.",
    "Mr.", "mr.", "MRS.", "Dr.", "e.g.", "E.G.", "i.e.", "U.S.", "u.s..", "etc.", "Inc.",
    "Jr.", "vs.", '"', "'", "(", ")", "--", "-", "—", "…", '"Hi!"', "(e.g.)", "?!?",
]
oracle_text = st.lists(
    st.sampled_from(ORACLE_FRAGMENTS) | st.text(max_size=4), max_size=16).map("".join)


class TestStrMethodOracle:
    """``split_sentences`` and ``tokenize`` equal the character-loop reference."""

    @settings(max_examples=600, deadline=None)
    @given(text=oracle_text)
    def test_split_sentences_matches_reference(self, text):
        assert outcome(corpus.split_sentences, text) == outcome(reference_split_sentences, text)

    @settings(max_examples=600, deadline=None)
    @given(text=oracle_text)
    def test_tokenize_matches_reference(self, text):
        assert outcome(corpus.tokenize, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize("text, segments", [
        ("It rose. \u01c5ivko came.", ["It rose. \u01c5ivko came."]),  # titlecase: no split
        ("It rose. \u0130stanbul wins.", ["It rose.", "\u0130stanbul wins."]),
        ("It rose. \u0661 won.", ["It rose.", "\u0661 won."]),
        ("It rose. \u00b2 won.", ["It rose.", "\u00b2 won."]),  # isdigit, though not \d
        ("Why?! No. E.G. Yes.", ["Why?!", "No.", "E.G. Yes."]),
        ("Wait... Then go.", ["Wait...", "Then go."]),
        ("We met MR. Li. U.S. 2 rose.", ["We met MR. Li.", "U.S. 2 rose."]),
    ])
    def test_character_classes_are_str_methods(self, text, segments):
        assert corpus.split_sentences(text) == segments
        assert reference_split_sentences(text) == segments

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(oracle_text, min_size=1, max_size=6),
           max_sentences=st.integers(1, 4), max_tokens=st.integers(1, 5),
           min_frequency=st.integers(1, 3))
    def test_encoding_matches_reference(self, texts, max_sentences, max_tokens,
                                        min_frequency):
        """Vocabulary and encodings, read from ``RawDocument.tokens``, equal
        the reference segmentation and tokenization under random caps."""
        docs = [RawDocument(f"d{k}", "satire", "", t) for k, t in enumerate(texts)]
        segmented = {d.id: [reference_tokenize(s) for s in reference_split_sentences(d.text)]
                     for d in docs if d.text.split()}
        counts = Counter(t for sentences in segmented.values() for s in sentences for t in s)
        if segmented:
            vocab = corpus.build_vocab([d for d in docs if d.id in segmented], min_frequency)
        else:
            vocab = corpus.Vocabulary([corpus.PAD, corpus.UNK], min_frequency)
        assert vocab.id_to_token[2:] == sorted(
            (t for t, c in counts.items() if c >= min_frequency),
            key=lambda t: (-counts[t], t))
        lookup = vocab.token_to_id.get
        two_way = ClassSet(("satire", "trusted"))
        for d in docs:
            if d.id not in segmented:
                with pytest.raises(CorpusError):
                    corpus.encode_document(d, vocab, two_way, max_sentences, max_tokens)
                continue
            expected = corpus.Document(
                d.id, 0, tuple(tuple(lookup(t, corpus.UNK_ID) for t in s[:max_tokens])
                               for s in segmented[d.id][:max_sentences]))
            assert corpus.encode_document(d, vocab, two_way, max_sentences,
                                          max_tokens) == expected


class TestBuildVocab:
    def docs(self):
        # token frequencies: a:3, b:1
        return [RawDocument("d1", "x", "", "a a"), RawDocument("d2", "x", "", "a b")]

    def test_cutoff(self):
        vocab = corpus.build_vocab(self.docs(), min_frequency=2)
        assert vocab.id_to_token == ["<pad>", "<unk>", "a"]
        assert "b" not in vocab.token_to_id

    def test_determinism(self):
        v1 = corpus.build_vocab(self.docs(), min_frequency=2)
        v2 = corpus.build_vocab(self.docs(), min_frequency=2)
        assert v1.id_to_token == v2.id_to_token

    def test_min_frequency_one_keeps_all(self):
        vocab = corpus.build_vocab(self.docs(), min_frequency=1)
        assert set(vocab.id_to_token) == {"<pad>", "<unk>", "a", "b"}

    def test_frequency_ties_broken_lexicographically(self):
        docs = [RawDocument("d", "x", "", "zz yy zz yy")]
        vocab = corpus.build_vocab(docs, min_frequency=1)
        assert vocab.id_to_token[2:] == ["yy", "zz"]


class TestEncodeCorpus:
    def test_sentence_cap(self, two_way):
        doc = RawDocument("d", "satire", "", "One two. Three four. Five six.")
        vocab = corpus.build_vocab([doc], min_frequency=1)
        out = corpus.encode_corpus([doc], vocab, two_way, max_sentences=2, max_tokens=64)
        assert out[0].n_sentences == 2

    def test_token_cap(self, two_way):
        doc = RawDocument("d", "satire", "", "one two three four five")
        vocab = corpus.build_vocab([doc], min_frequency=1)
        out = corpus.encode_corpus([doc], vocab, two_way, max_sentences=64, max_tokens=3)
        assert len(out[0].sentences[0]) == 3

    @pytest.mark.parametrize("caps", [(0, 5), (5, 0), (sys.maxsize + 1, 5), (5, 10**30)])
    def test_cap_out_of_range_rejected(self, two_way, caps):
        # str.split's maxsplit is a C ssize_t, so a huge cap was an OverflowError
        doc = RawDocument("d", "satire", "", "one two. Three four.")
        vocab = corpus.build_vocab([doc], min_frequency=1)
        with pytest.raises(CorpusError, match="length caps"):
            corpus.encode_document(doc, vocab, two_way, *caps)

    def test_all_oov_sentence_retained(self, two_way):
        train = [RawDocument("t", "satire", "", "common words here. common words here.")]
        vocab = corpus.build_vocab(train, min_frequency=2)
        unseen = RawDocument("u", "trusted", "", "entirely novel rarities")
        out = corpus.encode_corpus([unseen], vocab, two_way)
        assert out[0].sentences == ((corpus.UNK_ID,) * 3,)

    def test_label_outside_class_set(self, two_way):
        doc = RawDocument("d9", "hoax", "", "Some text.")
        vocab = corpus.build_vocab([doc], min_frequency=1)
        with pytest.raises(CorpusError, match="hoax"):
            corpus.encode_corpus([doc], vocab, two_way)

    def test_whitespace_only_document_raises(self, two_way):
        doc = RawDocument("d", "satire", "", " \t\u3000")
        vocab = corpus.Vocabulary([corpus.PAD, corpus.UNK], 1)
        with pytest.raises(CorpusError, match="empty text"):
            corpus.encode_document(doc, vocab, two_way)
        with pytest.raises(CorpusError, match="empty text"):
            corpus.encode_corpus([doc], vocab, two_way)

    def test_round_trip_ids_to_tokens_to_ids(self, two_way):
        doc = RawDocument("d", "satire", "", "The cat sat. The dog ran. The cat ran.")
        vocab = corpus.build_vocab([doc], min_frequency=1)
        [enc] = corpus.encode_corpus([doc], vocab, two_way)
        for sent in enc.sentences:
            tokens = [vocab.id_to_token[i] for i in sent]
            assert tuple(vocab.token_to_id[t] for t in tokens) == sent


class TestTokenForm:
    """``RawDocument.tokens`` is the one place a document is segmented and
    tokenized; vocabulary building and encoding read it."""

    def test_empty_text_raises_on_every_use(self):
        doc = RawDocument("d", "satire", "", " \x1c\u3000")
        for _ in range(2):
            with pytest.raises(CorpusError):
                doc.tokens
        with pytest.raises(CorpusError):
            corpus.build_vocab([doc])

    def test_vocab_then_encoding_segments_each_document_once(self, two_way, monkeypatch):
        calls = Counter()
        split = corpus.split_sentences

        def counting_split(text):
            calls[text] += 1
            return split(text)

        monkeypatch.setattr(corpus, "split_sentences", counting_split)
        docs = [RawDocument(f"d{k}", "satire", "", f"Doc {k} here. It ends {k}.")
                for k in range(5)]
        vocab = corpus.build_vocab(docs, min_frequency=1)
        corpus.encode_corpus(docs, vocab, two_way)
        assert calls == Counter(d.text for d in docs)

    def test_encoding_under_two_vocabularies_tokenizes_once(self, two_way, monkeypatch):
        calls = []
        tokenize = corpus.tokenize
        monkeypatch.setattr(corpus, "tokenize", lambda s: calls.append(s) or tokenize(s))
        doc = RawDocument("d", "trusted", "", "The cat sat. A dog ran. Birds flew.")
        big = corpus.Vocabulary([corpus.PAD, corpus.UNK, "the", "cat", "dog"], 1)
        small = corpus.Vocabulary([corpus.PAD, corpus.UNK, "dog"], 1)
        a = corpus.encode_document(doc, big, two_way)
        b = corpus.encode_document(doc, small, two_way)
        assert calls == ["The cat sat.", "A dog ran.", "Birds flew."]
        assert a.sentences == ((2, 3, 1, 1), (1, 4, 1, 1), (1, 1, 1))
        assert b.sentences == ((1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 1))


class TestSplitTrainDev:
    def make_docs(self, per_class: dict[str, int]):
        docs = []
        for label, n in per_class.items():
            for k in range(n):
                docs.append(RawDocument(f"{label}-{k}", label, "", f"Text {k}."))
        return docs

    def test_stratified_counts(self):
        docs = self.make_docs({"satire": 50, "trusted": 50})
        train, dev = corpus.split_train_dev(docs, 0.8, seed=7)
        assert len(train) == 80 and len(dev) == 20
        for label in ("satire", "trusted"):
            assert sum(d.label == label for d in train) == 40
            assert sum(d.label == label for d in dev) == 10

    def test_determinism(self):
        docs = self.make_docs({"a": 30, "b": 20})
        s1 = corpus.split_train_dev(docs, 0.8, seed=7)
        s2 = corpus.split_train_dev(docs, 0.8, seed=7)
        assert [d.id for d in s1[0]] == [d.id for d in s2[0]]
        assert [d.id for d in s1[1]] == [d.id for d in s2[1]]

    def test_small_class_ratio(self):
        docs = self.make_docs({"a": 10, "b": 10})
        train, dev = corpus.split_train_dev(docs, 0.8, seed=1)
        assert sum(d.label == "a" for d in train) == 8
        assert sum(d.label == "a" for d in dev) == 2

    def test_partition_disjoint_exhaustive(self):
        docs = self.make_docs({"a": 13, "b": 9})
        train, dev = corpus.split_train_dev(docs, 0.7, seed=3)
        ids = sorted(d.id for d in train) + sorted(d.id for d in dev)
        assert sorted(ids) == sorted(d.id for d in docs)
        assert len(set(ids)) == len(docs)

    def test_class_below_two_documents(self):
        docs = self.make_docs({"a": 1, "b": 5})
        with pytest.raises(CorpusError, match="'a'"):
            corpus.split_train_dev(docs, 0.8, seed=0)

    def test_bad_ratio(self):
        with pytest.raises(CorpusError):
            corpus.split_train_dev(self.make_docs({"a": 4, "b": 4}), 1.0, seed=0)


class TestPipelineDeterminism:
    def test_end_to_end_pure_function(self, tmp_path, two_way):
        content = "".join(
            f"satire\tFunny thing {i} happened. It was odd.\n"
            f"trusted\tSerious report {i} today. Facts follow.\n"
            for i in range(10)
        )
        p = write(tmp_path, "c.tsv", content)

        def run():
            docs = corpus.load_corpus(p, "tsv")
            train, dev = corpus.split_train_dev(docs, 0.8, seed=11)
            vocab = corpus.build_vocab(train, min_frequency=2)
            enc = corpus.encode_corpus(train, vocab, two_way)
            return vocab.id_to_token, [(d.id, d.label, d.sentences) for d in enc]

        assert run() == run()

    def test_caps_respected(self, two_way):
        doc = RawDocument("d", "satire", "", " ".join(
            f"Sentence {i} has many words inside it." for i in range(30)))
        vocab = corpus.build_vocab([doc], min_frequency=1)
        [enc] = corpus.encode_corpus([doc], vocab, two_way, max_sentences=5, max_tokens=4)
        assert enc.n_sentences <= 5
        assert all(len(s) <= 4 for s in enc.sentences)
