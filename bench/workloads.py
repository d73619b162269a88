"""The benchmark's workloads: set-up, measured loop, output checks, metrics.

One process, one caller, closed loop: each operation starts when the
previous one returns. An operation is one training step (``train_*``) or
one scored (document, variant) pair (``score``). Work is grouped into
rounds of equal size, one ``training.train`` call of ``TRAIN_EPOCHS``
epochs on one block of documents or one pass over the held-out set with
every variant, and the loop runs whole rounds until their timed total
reaches the run length.
Every round's outputs are checked before the next round starts.
"""

from __future__ import annotations

import math
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
import synth
from docgraph import autodiff, corpus, evaluation, graph, model, training
from docgraph.errors import DocGraphError
from tracing import MODEL_OPS, STEP, Tracer, self_times, wrapped_names

N_SETUPS = 3
PROB_SUM_TOL = 1e-12
# Epochs per training round: enough for the planted markers to pull the
# training loss well below ln 4 at the default learning rate, so the loss
# of a round shows whether the model learns.
TRAIN_EPOCHS = 4
# The first round's last epoch must reach this share of its first epoch's
# loss; correct code reaches at most about 0.87 on train_long, where
# learning is slowest.
LEARNED_LOSS_RATIO = 0.95
LONG = (15, 21, 27, 34, 40)
MIXED = (5, 10, 15, 20, 25, 30, 35, 40)


class CheckFailed(Exception):
    """An output of the program is wrong; the run stops without a result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "score"
    variants: tuple[str, ...]
    spec: synth.CorpusSpec
    host_kernel: str  # the hostspeed kernel its times are scaled by


# Each training file holds about 145k tokens and every lexicon word at least
# twice, so build_vocab keeps exactly 20,000 entries: 2M embedding floats.
WORKLOADS = {
    # gat2 on long documents: the per-token sentence LSTM on the tape and
    # its backward dominate a step; Adam is a small share.
    # The 2-document dev set keeps dev scoring to about 4% of a round.
    "train_long": Workload("train_long", "train", ("gat2",), synth.CorpusSpec(
        block_sentences=LONG, train_blocks=47, dev_sentences=(15, 21)), "adam"),
    # gcn_attn on 1-3 sentence documents (single-sentence bypass included):
    # Adam over the embedding and the dense gather_rows gradient dominate.
    "train_short": Workload("train_short", "train", ("gcn_attn",), synth.CorpusSpec(
        block_sentences=(1, 2, 3, 2) * 5, train_blocks=520, dev_sentences=(1, 2, 3, 2) * 2,
        token_range=(4, 12)), "adam"),
    # Tape-free inference as `docgraph predict` does it, every variant, with
    # checkpoint I/O and edge weights in set-up and unseen words held out.
    "score": Workload("score", "score", model.VARIANTS, synth.CorpusSpec(
        block_sentences=MIXED, train_blocks=36, heldout_sentences=MIXED), "lstm_step"),
}


@dataclass
class Round:
    """One round's size, time and outputs; ``ok`` is False when the whole
    round raised. ``scale`` turns its times into reference-host times."""

    ops: int
    failed: int
    seconds: float
    latencies: list[float] = field(default_factory=list)
    output: object = None
    ok: bool = True
    scale: float = 1.0


# ---------------------------------------------------------------------------
# training workloads

@dataclass
class TrainState:
    config: model.ModelConfig
    vocab: corpus.Vocabulary
    blocks: list[list[corpus.Document]]
    dev: list[corpus.Document]


def setup_train(wl: Workload, files: synth.CorpusFiles, seed: int, work: Path) -> TrainState:
    class_set = corpus.ClassSet(synth.CLASS_NAMES)
    train_raw = corpus.load_corpus(files.train, "tsv", class_set)
    dev_raw = corpus.load_corpus(files.dev, "tsv", class_set)
    vocab = corpus.build_vocab(train_raw, corpus.DEFAULT_MIN_FREQUENCY)
    config = model.ModelConfig(variant=wl.variants[0], vocab_size=len(vocab),
                               class_names=synth.CLASS_NAMES, seed=seed,
                               max_epochs=TRAIN_EPOCHS)
    train_docs = corpus.encode_corpus(train_raw, vocab, class_set,
                                      config.max_sentences, config.max_tokens)
    dev_docs = corpus.encode_corpus(dev_raw, vocab, class_set,
                                    config.max_sentences, config.max_tokens)
    k = len(wl.spec.block_sentences)
    blocks = [train_docs[i:i + k] for i in range(0, len(train_docs), k)]
    return TrainState(config, vocab, blocks, dev_docs)


class StepClock:
    """Stamps where each training step starts (the loop's call to
    ``forward``) and ends (``adam_step`` returning): two clock reads per
    step, cheap enough for the untraced run."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def __enter__(self):
        forward, adam_step = self._saved = (training.forward, autodiff.adam_step)

        def timed_forward(*args, **kwargs):
            self.starts.append(perf_counter())
            return forward(*args, **kwargs)

        def timed_adam_step(*args, **kwargs):
            adam_step(*args, **kwargs)
            self.ends.append(perf_counter())

        training.forward, autodiff.adam_step = timed_forward, timed_adam_step
        return self

    def __exit__(self, *exc):
        training.forward, autodiff.adam_step = self._saved
        return False

    def steps(self) -> list[float]:
        return [end - start for start, end in zip(self.starts, self.ends)]


def train_round(state: TrainState, index: int, tracer: Tracer | None) -> Round:
    block = state.blocks[index % len(state.blocks)]
    ops = len(block) * state.config.max_epochs
    clock = StepClock() if tracer is None else None
    start = perf_counter()
    try:
        with clock or nullcontext():
            run = training.train(block, state.dev, state.config, state.vocab)
    except DocGraphError:
        return Round(ops, ops, perf_counter() - start, ok=False)
    elapsed = perf_counter() - start
    return Round(ops, 0, elapsed, clock.steps() if clock else [], run)


def check_train_round(state: TrainState, r: Round, first: Round, work: Path) -> None:
    """Every loss must be finite. The first round must also learn, and its
    checkpoint goes through save and load (once is enough: every round
    runs the same code)."""
    run = r.output
    for epoch in run.epochs:
        check(math.isfinite(epoch.train_loss), f"non-finite training loss {epoch.train_loss}")
    if r is not first:
        return
    losses = [e.train_loss for e in run.epochs]
    check(losses[-1] < LEARNED_LOSS_RATIO * losses[0],
          f"the model did not learn: training loss per epoch {losses}")
    saved, resaved = work / "trained.ckpt", work / "trained-again.ckpt"
    training.save_checkpoint(run.checkpoint, saved)
    reloaded = training.load_checkpoint(saved)
    training.save_checkpoint(reloaded, resaved)
    check(saved.read_bytes() == resaved.read_bytes(),
          "checkpoint changed across save -> load -> save")
    f1 = evaluation.evaluate_documents(reloaded.to_params(), state.config, state.dev).macro_f1
    check(f1 == run.best_dev_macro_f1,
          f"reloaded checkpoint scores dev macro-F1 {f1}, the run reported "
          f"{run.best_dev_macro_f1}")


def train_loss(r: Round) -> float:
    return statistics.fmean(e.train_loss for e in r.output.epochs)


def same_train_output(a: Round, b: Round) -> bool:
    ca, cb = a.output.checkpoint.values, b.output.checkpoint.values
    return (a.output.log_dict() == b.output.log_dict() and list(ca) == list(cb)
            and all(np.array_equal(ca[n], cb[n]) for n in ca))


def train_probe(state: TrainState, reference: Round) -> list[np.ndarray]:
    """Dev-set logits of the reference round's trained parameters, through
    ``evaluation.forward``: the name the tracer wraps."""
    params = reference.output.checkpoint.to_params()
    return [evaluation.forward(doc, params, state.config)[0].values for doc in state.dev]


# ---------------------------------------------------------------------------
# scoring workload

@dataclass
class ScoreState:
    models: list[tuple[model.ModelConfig, model.ModelParams, corpus.Vocabulary]]
    heldout: list[corpus.RawDocument]
    weights: graph.EdgeWeightSet

    def pairs(self):
        """(document, config, params, vocab) in scoring order, document-major."""
        return [(raw, *m) for raw in self.heldout for m in self.models]


def setup_score(wl: Workload, files: synth.CorpusFiles, seed: int, work: Path) -> ScoreState:
    class_set = corpus.ClassSet(synth.CLASS_NAMES)
    vocab = corpus.build_vocab(corpus.load_corpus(files.train, "tsv", class_set),
                               corpus.DEFAULT_MIN_FREQUENCY)
    heldout = corpus.load_corpus(files.heldout, "jsonl", class_set)
    weights = graph.load_edge_weights(files.heldout_weights)
    models = []
    for variant in wl.variants:
        config = model.ModelConfig(variant=variant, vocab_size=len(vocab),
                                   class_names=synth.CLASS_NAMES, seed=seed)
        values = {n: t.values for n, t in model.init_params(config).tensors.items()}
        path = work / f"{variant}.ckpt"
        training.save_checkpoint(
            training.Checkpoint(config, vocab, values, {"seed": seed}), path)
        ckpt = training.load_checkpoint(path)
        check(all(np.array_equal(ckpt.values[n], v) for n, v in values.items()),
              f"{variant} checkpoint values changed across save -> load")
        models.append((ckpt.config, ckpt.to_params(), ckpt.vocab))
    return ScoreState(models, heldout, weights)


def score_round(state: ScoreState, index: int, tracer: Tracer | None) -> Round:
    """Every held-out document with every variant, encoded and scored the
    way ``docgraph predict`` does it."""
    latencies, outputs = [], []
    failed = 0
    start = perf_counter()
    for raw, config, params, vocab in state.pairs():
        t = perf_counter()
        try:
            if tracer is None:
                doc, probs = _score_pair(raw, config, params, vocab, state.weights)
            else:
                with tracer.span("score.pair"):
                    doc, probs = _score_pair(raw, config, params, vocab, state.weights)
        except DocGraphError:
            failed += 1
            doc = probs = None
        latencies.append(perf_counter() - t)
        outputs.append((doc, probs))
    elapsed = perf_counter() - start
    return Round(len(outputs), failed, elapsed, latencies, outputs)


def _score_pair(raw, config, params, vocab, weights):
    doc = corpus.encode_document(raw, vocab, config.class_set,
                                 config.max_sentences, config.max_tokens)
    if doc is None:
        raise DocGraphError(f"document '{raw.id}' is empty after encoding")
    return doc, evaluation.predict_probabilities(doc, params, config, weights)


def check_score_round(state: ScoreState, r: Round, first: Round, work: Path) -> None:
    """The first round is checked in full; later rounds must repeat it bit
    for bit, which is cheaper than scoring every pair twice."""
    for (_, config, params, _), (doc, probs), (_, first_probs) in zip(
            state.pairs(), r.output, first.output):
        if probs is None:
            continue
        if r is not first:
            check(np.array_equal(probs, first_probs),
                  f"{config.variant} scored '{doc.id}' differently in a later round")
            continue
        check(bool(np.all(np.isfinite(probs))), f"{config.variant}: non-finite probabilities")
        check(abs(probs.sum() - 1.0) <= PROB_SUM_TOL,
              f"{config.variant}: probabilities sum to {probs.sum()!r}")
        label = evaluation.predict_label(doc, params, config, state.weights)
        check(int(np.argmax(probs)) == label,
              f"{config.variant}: argmax of probabilities != predict_label on '{doc.id}'")


def score_loss(r: Round) -> float:
    return statistics.fmean(-math.log(probs[doc.label]) for doc, probs in r.output
                            if probs is not None)


def same_score_output(a: Round, b: Round) -> bool:
    return all((pa is None and pb is None) or np.array_equal(pa, pb)
               for (_, pa), (_, pb) in zip(a.output, b.output))


def score_probe(state: ScoreState, reference: Round) -> list[np.ndarray]:
    """Logits of the first two held-out documents under every variant."""
    n = 2 * len(state.models)
    return [evaluation.forward(doc, params, config, state.weights)[0].values
            for (_, config, params, _), (doc, _) in zip(state.pairs()[:n], reference.output)]


# ---------------------------------------------------------------------------
# running a workload

@dataclass(frozen=True)
class Kind:
    setup: object
    round: object
    check: object
    loss: object
    same_output: object
    probe: object
    operation: str


KINDS = {
    "train": Kind(setup_train, train_round, check_train_round, train_loss,
                  same_train_output, train_probe, STEP),
    "score": Kind(setup_score, score_round, check_score_round, score_loss,
                  same_score_output, score_probe, "score.pair"),
}


@dataclass
class Result:
    """A run that passed every output check."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    info: dict[str, int]


def _measure(kind: Kind, state, seconds: float, work: Path, tracer: Tracer | None,
             first: Round | None = None, speed: hostspeed.Scaler | None = None) -> list[Round]:
    """Whole rounds until their timed total reaches ``seconds``; each
    round is checked before the next starts, against ``first`` or else
    against the first round that completes. Only the first round keeps
    its outputs, so the benchmark's own memory does not grow with time.
    With ``speed``, each round gets the scale of the host kernel timed
    around it."""
    rounds: list[Round] = []
    timed = 0.0
    while timed < seconds or not rounds:
        r = kind.round(state, len(rounds), tracer)
        rounds.append(r)
        timed += r.seconds
        if speed is not None:
            r.scale = speed.after()
        if r.ok:
            first = first or r
            kind.check(state, r, first, work)
        if r is not rounds[0] and r is not first:
            r.output = None
    return rounds


def run_untraced(wl: Workload, seed: int, seconds: float, work: Path) -> Result:
    kind = KINDS[wl.kind]
    files = synth.generate(wl.spec, seed, work)
    # Every time below is scaled to the reference host (see hostspeed.py).
    # Set-up is parsing and tokenizing on every workload: interpreter work.
    setup_speed = hostspeed.Scaler("lstm_step")
    setup_times = []
    state = None
    for _ in range(N_SETUPS):
        state = None  # let the previous set-up's memory go first
        start = perf_counter()
        state = kind.setup(wl, files, seed, work)
        setup_times.append((perf_counter() - start) * setup_speed.after())
    speed = hostspeed.Scaler(wl.host_kernel)
    rounds = _measure(kind, state, seconds, work, None, speed=speed)
    done = [r for r in rounds if r.ok]
    check(bool(done), "every round failed")
    # Every round holds the same document shapes, so these percentiles fall
    # inside a cluster of equal-shaped operations, one or more per round.
    p50, p90 = np.percentile([s * r.scale for r in done for s in r.latencies], [50, 90])
    metrics = {
        "docs_per_s": (statistics.median(r.ops / (r.seconds * r.scale) for r in done),
                       "docs/s"),
        "doc_ms_p50": (1000 * p50, "ms"),
        "doc_ms_p90": (1000 * p90, "ms"),
        "loss_nats": (kind.loss(done[0]), "nats"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"rounds": len(done), "doc_ms_samples": sum(len(r.latencies) for r in done),
            "setups": N_SETUPS,
            "host_kernel_ms": 1000 * statistics.median(speed.kernel),
            "vocab_size": state.models[0][0].vocab_size if wl.kind == "score"
            else state.config.vocab_size}
    return Result(sum(r.ops for r in rounds), sum(r.failed for r in rounds), metrics, info)


def run_traced(wl: Workload, seed: int, seconds: float, work: Path, spans_out: Path | None) -> Result:
    """Set-up and rounds under the tracer, after an untraced warm-up and
    reference round of the same work as the first traced round, which
    must reproduce them exactly; the reference gives the tracing overhead."""
    kind = KINDS[wl.kind]
    files = synth.generate(wl.spec, seed, work)
    originals = wrapped_names()
    tracer = Tracer()
    with tracer.active():
        with tracer.span("setup"):
            state = kind.setup(wl, files, seed, work)
    check(wrapped_names() == originals, "tracer left a wrapper in place after set-up")

    # The first round of a process pays its first large allocations, so
    # the reference for the overhead is the second of two untraced rounds.
    warm = kind.round(state, 0, None)
    check(warm.ok and warm.failed == 0, "the warm-up round failed")
    kind.check(state, warm, warm, work)
    reference = kind.round(state, 0, None)
    check(reference.ok and kind.same_output(warm, reference),
          "two untraced rounds of the same work disagree")
    untraced_logits = kind.probe(state, reference)
    with tracer.active():
        traced_logits = kind.probe(state, reference)
        rounds = _measure(kind, state, seconds, work, tracer, first=reference)
    check(wrapped_names() == originals, "tracer left a wrapper in place")
    check(len(untraced_logits) == len(traced_logits)
          and all(np.array_equal(a, b) for a, b in zip(untraced_logits, traced_logits)),
          "tracing changed the logits")
    check(rounds[0].ok and kind.same_output(reference, rounds[0]),
          "tracing changed the outputs of the first round")
    if spans_out is not None:
        tracer.write_spans(spans_out)

    metrics = layer_metrics(tracer, kind.operation, n_setups=1)
    metrics["trace.overhead_ratio"] = (rounds[0].seconds / reference.seconds, "ratio")
    info = {"rounds": len(rounds), "spans": len(tracer.spans),
            "operations": sum(1 for s in tracer.spans if s.name == kind.operation),
            "training.step_ms_samples": len(_durations(tracer, STEP))}
    attempted = warm.ops + reference.ops + sum(r.ops for r in rounds)
    return Result(attempted, sum(r.failed for r in rounds), metrics, info)


# ---------------------------------------------------------------------------
# per-layer metrics from a trace

def _durations(tracer: Tracer, name: str, operation: str | None = None) -> list[float]:
    return [s.end - s.start for s in tracer.spans
            if s.name == name and (operation is None or s.operation == operation)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, operation: str, n_setups: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; see the table in ``bench/README.md``."""
    spans = tracer.spans
    n_ops = sum(1 for s in spans if s.name == operation)
    counters = tracer.counters

    def per_op_ms(name: str) -> float:
        return 1000 * _ratio(sum(_durations(tracer, name, operation)), n_ops)

    def per_op(counter: str) -> float:
        return _ratio(counters.get((operation, counter), 0.0), n_ops)

    def per_setup_ms(name: str) -> float:
        return 1000 * sum(_durations(tracer, name, "setup")) / n_setups

    def per_call_ms(name: str) -> float:
        d = _durations(tracer, name)
        return 1000 * _ratio(sum(d), len(d))

    def total(counter: str) -> float:
        return sum(v for (_, name), v in counters.items() if name == counter)

    selfs = self_times(spans)
    forward_self = sum(t for s, t in zip(spans, selfs)
                       if s.name == "model.forward" and s.operation == operation)
    steps_ms = [1000 * d for d in _durations(tracer, STEP)]
    p50, p90 = np.percentile(steps_ms, [50, 90]) if steps_ms else (0.0, 0.0)

    m: dict[str, tuple[float, str]] = {
        "corpus.load_ms": (per_setup_ms("corpus.load"), "ms"),
        "corpus.vocab_ms": (per_setup_ms("corpus.vocab"), "ms"),
        "corpus.encode_ms": (per_call_ms("corpus.encode"), "ms"),
        "corpus.tokens": (_ratio(total("corpus.tokens"), total("corpus.documents")), "count"),
        "corpus.vocab_size": (tracer.values.get("corpus.vocab_size", 0), "count"),
        "encoder.fwd_ms": (per_op_ms("encoder.fwd"), "ms"),
        "encoder.calls": (per_op("encoder.calls"), "count"),
        "encoder.sentences": (per_op("encoder.sentences"), "count"),
        "encoder.tokens": (per_op("encoder.tokens"), "count"),
        "graph.build_ms": (per_op_ms("graph.build"), "ms"),
        "graph.load_weights_ms": (per_setup_ms("graph.load_weights"), "ms"),
        "layers.gcn_ms": (per_op_ms("layers.gcn"), "ms"),
        "layers.gat_ms": (per_op_ms("layers.gat"), "ms"),
        "layers.self_attn_ms": (per_op_ms("layers.self_attn"), "ms"),
        "model.forward_ms": (per_op_ms("model.forward"), "ms"),
        "model.self_ms": (1000 * _ratio(forward_self, n_ops), "ms"),
        "model.loss_ms": (per_op_ms("model.loss"), "ms"),
        "autodiff.tape_entries": (per_op("autodiff.tape_entries"), "count"),
        "autodiff.backward_ms": (per_op_ms("autodiff.backward"), "ms"),
        "autodiff.adam_ms": (per_op_ms("autodiff.adam"), "ms"),
        "autodiff.bwd.grad_bytes": (per_op("autodiff.bwd.grad_bytes"), "B"),
        "autodiff.bwd.gather_rows.useful_ratio": (
            _ratio(per_op("gather_rows.rows_used"), per_op("gather_rows.rows_alloc")), "ratio"),
        "autodiff.bwd.slice_rows.useful_ratio": (
            _ratio(per_op("slice_rows.rows_used"), per_op("slice_rows.rows_alloc")), "ratio"),
        "training.step_ms_p50": (float(p50), "ms"),
        "training.step_ms_p90": (float(p90), "ms"),
        "training.dev_eval_ms": (per_call_ms("training.dev_eval"), "ms"),
        "training.save_ckpt_ms": (per_call_ms("training.save_ckpt"), "ms"),
        "training.load_ckpt_ms": (per_call_ms("training.load_ckpt"), "ms"),
        "training.ckpt_bytes": (_ratio(total("training.ckpt_bytes"),
                                       total("training.ckpts_saved")), "B"),
        "evaluation.predict_ms": (per_call_ms("evaluation.predict"), "ms"),
        "evaluation.threads": (len({s.thread for s in spans if s.name == "evaluation.predict"}),
                               "count"),
    }
    for op in MODEL_OPS:
        m[f"autodiff.fwd.{op}.ms"] = (1000 * per_op(f"autodiff.fwd.{op}.s"), "ms")
        m[f"autodiff.bwd.{op}.ms"] = (1000 * per_op(f"autodiff.bwd.{op}.s"), "ms")
        m[f"autodiff.bwd.{op}.calls"] = (per_op(f"autodiff.bwd.{op}.calls"), "count")
    return m
