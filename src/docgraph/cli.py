"""Command-line interface: train, eval, predict, export-attention, gradcheck, stats.

Conventions: machine-readable output is JSON with sorted keys on stdout;
human messages go to stderr. Exit codes: 0 success, 1 runtime/validation
failure, 2 usage error (argparse). Every command is deterministic given
its flags, input files, and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import evaluation, gradcheck, training
from .corpus import (
    DEFAULT_MIN_FREQUENCY,
    ClassSet,
    RawDocument,
    build_vocab,
    encode_corpus,
    encode_document,
    filter_by_labels,
    infer_format,
    load_corpus,
    split_sentences,
    split_train_dev,
)
from .errors import CorpusError, DocGraphError, EvaluationError, GraphError
from .graph import load_edge_weights
from .heatmap import render_attention_svg
from .model import SPECS, VARIANTS, ModelConfig, check_documents

TWO_WAY_CLASSES = ("satire", "trusted")
FOUR_WAY_CLASSES = ("hoax", "propaganda", "satire", "trusted")


@dataclass(frozen=True)
class ProtocolPreset:
    """Named wiring of class filters and train/dev roles."""

    classes: tuple[str, ...]
    filter_labels: bool  # drop other labels instead of rejecting them
    split_train: bool  # carve dev out of the training file


PROTOCOLS = {
    "two_way": ProtocolPreset(TWO_WAY_CLASSES, filter_labels=True, split_train=False),
    "four_way": ProtocolPreset(FOUR_WAY_CLASSES, filter_labels=False, split_train=True),
}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _load(path: str, fmt: str | None, labelled: bool = False) -> list[RawDocument]:
    """The corpus at ``path``; when ``labelled``, a document without a label
    raises ``CorpusError`` naming it."""
    docs = load_corpus(path, fmt or infer_format(path))
    unlabelled = [d.id for d in docs if d.label is None] if labelled else []
    if unlabelled:
        raise CorpusError(f"{path}: document '{unlabelled[0]}' has no label")
    return docs


def _load_weights(args, variant: str):
    """The ``--edge-weights`` set, which a variant must have if its spec reads
    edge weights and must not be given otherwise."""
    if not SPECS[variant].edge_weights:
        if args.edge_weights is not None:
            raise DocGraphError(f"model '{variant}' reads no edge weights; "
                                f"do not pass --edge-weights")
        return None
    if args.edge_weights is None:
        raise DocGraphError(
            f"model '{variant}' requires --edge-weights (precomputed "
            f"sentence-similarity scores)")
    return load_edge_weights(args.edge_weights)


def _refuse_overwriting(outputs: dict[str, str], inputs: dict[str, str | None]) -> None:
    """Raise ``DocGraphError`` naming both if an output path (keyed by how to
    name it) is the same file as an input path (keyed by its flag)."""
    for name, out in outputs.items():
        for flag, path in inputs.items():
            if (path is not None and os.path.exists(out) and os.path.exists(path)
                    and os.path.samefile(out, path)):
                raise DocGraphError(f"{name} {out} is the {flag} input; "
                                    f"refusing to overwrite it")


def _refuse_shared_ids(sets: dict[str, list[RawDocument]]) -> None:
    """Raise ``GraphError`` if one id names documents of different text in two
    of ``sets``: the edge-weight file holds one matrix per id."""
    first: dict[str, tuple[str, str]] = {}
    for name, docs in sets.items():
        for d in docs:
            where, text = first.setdefault(d.id, (name, d.text))
            if text != d.text:
                raise GraphError(f"document id '{d.id}' names different texts in the "
                                 f"{where} and {name} sets; --edge-weights holds one "
                                 f"matrix per id")


# ---------------------------------------------------------------------------
# train

def cmd_train(args) -> int:
    out_dir = Path(args.out).parent
    log_path = Path(args.out + ".runlog.json")
    if not out_dir.is_dir():
        raise DocGraphError(f"output directory {out_dir} does not exist")
    for path in (Path(args.out), log_path):
        if path.is_dir():
            raise DocGraphError(f"output path {path} is a directory")
    _refuse_overwriting({"--out": args.out, "the --out run log": str(log_path)},
                        {"--train": args.train, "--dev": args.dev, "--test": args.test,
                         "--edge-weights": args.edge_weights})
    preset = PROTOCOLS.get(args.protocol)

    def load(path: str) -> list[RawDocument]:
        docs = _load(path, args.format, labelled=True)
        return filter_by_labels(docs, preset.classes) if preset and preset.filter_labels else docs

    train_raw = load(args.train)
    weights = _load_weights(args, args.model)
    if preset and preset.split_train:
        if args.dev is not None:
            raise DocGraphError(
                "the four_way protocol derives its dev set from --train "
                "via a stratified 80:20 split; do not pass --dev")
        train_raw, dev_raw = split_train_dev(train_raw, args.seed)
    elif args.dev is None:
        raise DocGraphError(f"protocol '{args.protocol}' requires --dev" if preset else
                            "--dev is required when no --protocol is given")
    else:
        dev_raw = load(args.dev)
    test_raw = [] if args.test is None else load(args.test)

    if not train_raw:
        raise DocGraphError("no training documents after protocol filtering")
    if weights is not None:
        _refuse_shared_ids({"train": train_raw, "dev": dev_raw, "test": test_raw})
    class_names = preset.classes if preset else tuple(sorted({d.label for d in train_raw}))
    class_set = ClassSet(class_names)
    vocab = build_vocab(train_raw, DEFAULT_MIN_FREQUENCY)
    config = ModelConfig(
        variant=args.model,
        vocab_size=len(vocab),
        class_names=class_names,
        seed=args.seed,
        lr=args.lr,
        max_epochs=args.epochs,
        max_sentences=args.max_sentences,
        max_tokens=args.max_tokens,
    )
    train_docs, dev_docs, test_docs = [
        encode_corpus(raw, vocab, class_set, config.max_sentences, config.max_tokens)
        for raw in (train_raw, dev_raw, test_raw)]
    # the raw text and its token form are not needed through training
    del train_raw, dev_raw, test_raw
    if args.test is not None and not test_docs:
        raise EvaluationError("no documents to evaluate")
    # what training or test scoring would refuse fails now, not mid-run
    training.check_inputs(train_docs, dev_docs, config, weights)
    check_documents(test_docs, config, weights, EvaluationError)

    _info(f"training {args.model} on {len(train_docs)} documents "
          f"({len(dev_docs)} dev), up to {config.max_epochs} epoch(s)")
    run = training.train(train_docs, dev_docs, config, vocab, weights)
    # both files are written before either replaces its predecessor
    training.write_files_atomic({
        args.out: training.checkpoint_buffers(run.checkpoint),
        log_path: [(json.dumps(run.log_dict(), sort_keys=True) + "\n").encode("utf-8")],
    })

    summary = dict(run.log_dict())
    summary["checkpoint"] = args.out
    summary["run_log"] = str(log_path)
    if args.test is not None:
        summary["test"] = evaluation.evaluate_documents(
            run.checkpoint.to_params(), config, test_docs, weights).to_dict(class_names)
    _info(f"best dev macro-F1 {run.best_dev_macro_f1:.4f} at epoch {run.best_epoch}")
    _emit(summary)
    return 0


# ---------------------------------------------------------------------------
# eval / predict

def cmd_eval(args) -> int:
    ckpt = training.load_checkpoint(args.ckpt)
    docs = _load(args.data, args.format)
    metrics = evaluation.evaluate(ckpt, docs, _load_weights(args, ckpt.config.variant))
    _emit(metrics.to_dict(ckpt.config.class_names))
    return 0


def cmd_predict(args) -> int:
    ckpt = training.load_checkpoint(args.ckpt)
    docs = _load(args.data, args.format)
    if not docs:
        raise DocGraphError("no documents to predict")
    config = ckpt.config
    weights = _load_weights(args, config.variant)
    params = ckpt.to_params()
    # score every document before printing, so a bad one leaves no partial output
    scored = []
    for raw in docs:
        doc = encode_document(raw, ckpt.vocab, None, config.max_sentences, config.max_tokens)
        scored.append((raw.id, evaluation.predict_probabilities(doc, params, config, weights)))
    for doc_id, probabilities in scored:
        _emit({
            "id": doc_id,
            "predicted": config.class_names[int(probabilities.argmax())],
            "probabilities": {
                name: float(p)
                for name, p in zip(config.class_names, probabilities)
            },
        })
    return 0


# ---------------------------------------------------------------------------
# attention export

def cmd_export_attention(args) -> int:
    _refuse_overwriting({"--out": args.out}, {"--ckpt": args.ckpt, "--data": args.data,
                                              "--edge-weights": args.edge_weights})
    ckpt = training.load_checkpoint(args.ckpt)
    config = ckpt.config
    if not config.spec.produces_attention:
        with_attention = ", ".join(v for v, s in SPECS.items() if s.produces_attention)
        raise DocGraphError(
            f"variant '{config.variant}' does not produce attention; "
            f"use a checkpoint of one of: {with_attention}")
    docs = _load(args.data, args.format)
    matches = [d for d in docs if d.id == args.doc_id]
    if not matches:
        raise DocGraphError(f"document id '{args.doc_id}' not found in {args.data}")
    raw = matches[0]
    doc = encode_document(raw, ckpt.vocab, None, config.max_sentences, config.max_tokens)
    _, attentions = evaluation.checked_forward(doc, ckpt.to_params(), config,
                                               _load_weights(args, config.variant))
    if not attentions:
        raise DocGraphError(
            f"document '{raw.id}' has a single sentence; the graph-attention "
            f"layer is bypassed and produces no attention map")
    svg = render_attention_svg([a.values for a in attentions], split_sentences(raw.text),
                               title=f"{config.variant} attention for {raw.id}")
    training.write_files_atomic({args.out: [svg.encode("utf-8")]})
    _emit({"doc_id": raw.id, "heads": len(attentions),
           "n_sentences": doc.n_sentences, "out": args.out})
    return 0


# ---------------------------------------------------------------------------
# gradcheck / stats

def cmd_gradcheck(args) -> int:
    report = gradcheck.run_all()
    for entry in report["ops"] + report["variants"] + report["full_size"]:
        status = "PASS" if entry["passed"] else "FAIL"
        _info(f"{status} {entry['name']}: worst rel err {entry['max_rel_err']:.3e} "
              f"(tolerance {entry['tolerance']:.0e})")
    _emit(report)
    return 0 if report["passed"] else 1


def cmd_stats(args) -> int:
    docs = _load(args.data, args.format)
    if not docs:
        _info(f"warning: no documents in {args.data}")
    by_class = Counter(d.label for d in docs if d.label is not None)
    by_source = Counter(d.source for d in docs)
    sentence_counts: Counter[int] = Counter()
    token_counts: Counter[int] = Counter()
    for d in docs:
        sentences = d.tokens.split("\n")
        sentence_counts[len(sentences)] += 1
        for s in sentences:
            token_counts[len(s.split(" "))] += 1
    _emit({
        "by_class": dict(sorted(by_class.items())),
        "by_source": dict(sorted(by_source.items())),
        "documents": len(docs),
        "sentences_per_document": sorted(sentence_counts.items()),
        "tokens_per_sentence": sorted(token_counts.items()),
        "unlabelled": len(docs) - by_class.total(),
    })
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_format(p):
    p.add_argument("--format", choices=("jsonl", "tsv"), default=None,
                   help="corpus format (default: inferred from extension)")


def _add_edge_weights(p):
    p.add_argument("--edge-weights", default=None,
                   help="JSONL file of precomputed sentence-similarity matrices")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docgraph",
        description="Sentence-graph news classification: train, evaluate, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and save the best checkpoint")
    p.add_argument("--protocol", choices=tuple(PROTOCOLS), default=None)
    p.add_argument("--train", required=True, help="training corpus file")
    p.add_argument("--dev", default=None, help="development corpus file")
    p.add_argument("--test", default=None,
                   help="optional test corpus scored with the best checkpoint")
    _add_format(p)
    p.add_argument("--model", choices=VARIANTS, required=True)
    _add_edge_weights(p)
    p.add_argument("--seed", type=int, default=ModelConfig.seed)
    p.add_argument("--lr", type=float, default=ModelConfig.lr)
    p.add_argument("--epochs", type=int, default=ModelConfig.max_epochs)
    p.add_argument("--max-sentences", type=int, default=ModelConfig.max_sentences)
    p.add_argument("--max-tokens", type=int, default=ModelConfig.max_tokens)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    _add_format(p)
    _add_edge_weights(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("predict", help="per-document predictions as JSON lines")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    _add_format(p)
    _add_edge_weights(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("export-attention",
                       help="write an SVG heatmap of a document's attention")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--doc-id", required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    _add_format(p)
    _add_edge_weights(p)
    p.set_defaults(handler=cmd_export_attention)

    p = sub.add_parser("gradcheck", help="finite-difference check of every op "
                                         "and model variant, tiny and full-size")
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("stats", help="corpus statistics as JSON")
    p.add_argument("--data", required=True)
    _add_format(p)
    p.set_defaults(handler=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DocGraphError, OSError) as err:
        _info(f"error: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
