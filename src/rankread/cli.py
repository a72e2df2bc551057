"""Command line: build-index, retrieve, train, evaluate, analyze, synth."""

import argparse
import json
import logging
import sys
from dataclasses import asdict, fields

import numpy as np

from . import evaluation, retrieval, trainer as trainer_mod
from . import tensor as T
from .config import Config
from .files import atomic_write, check_fields, one_line_errors, read_jsonl
from .model import RankReadModel
from .synth import SyntheticSpec, generate
from .text import EmbeddingTable, load_embeddings, synthetic_embeddings, tokenize

log = logging.getLogger(__name__)


def load_dataset(path):
    """JSON-lines of {id, question, answers}; ids are unique, since retrieved
    sets are looked up by question id."""
    def record(rec):
        check_fields("dataset record", rec, {"id": str, "question": str, "answers": list[str]})
        return rec

    records = read_jsonl(path, record, "id")
    if not records:
        raise ValueError(f"{path}: empty dataset")
    return records


def _config_from_args(args, base=None):
    """base (default: the --config file, else Config()) with the flags that
    _add_config_flags registered; retrieve's --mode never reaches Config.mode."""
    if base is None:
        base = Config.from_file(args.config) if getattr(args, "config", None) else Config()
    return base.with_overrides({name: getattr(args, name) for name in args.config_fields})


def _add_config_flags(parser, names, cls=Config):
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), type=cls.__annotations__[name],
                            default=None, help=f"override {cls.__name__} {name}")
    parser.set_defaults(config_fields=names)


def _vocabulary(dataset, retrieved_sets):
    vocab = set()
    for rec in dataset:
        vocab.update(tokenize(rec["question"]).tokens)
        for ans in rec["answers"]:
            vocab.update(tokenize(ans).tokens)
    for rs in retrieved_sets:
        for p in rs.passages:
            vocab.update(tokenize(p.text).tokens)
    return vocab


def _make_table(config, dataset, retrieved_sets):
    if config.embeddings_path:
        return load_embeddings(config.embeddings_path, config.embed_dim)
    return synthetic_embeddings(_vocabulary(dataset, retrieved_sets),
                                config.embed_dim, seed=config.seed)


def _table_payload(config, table):
    if config.embeddings_path:
        return {"kind": "file", "path": config.embeddings_path, "dimension": table.dimension}
    return {"kind": "inline", "dimension": table.dimension,
            "vectors": {tok: table.lookup(tok).tolist() for tok in sorted(table._vectors)}}


def _table_from_payload(payload):
    if payload["kind"] == "file":
        return load_embeddings(payload["path"], payload["dimension"])
    dimension = payload["dimension"]
    vectors = {}
    for tok, vec in payload["vectors"].items():
        arr = np.array(vec, dtype=np.float64)
        if arr.shape != (dimension,) or not np.isfinite(arr).all():
            raise ValueError(f"embedding of {tok!r} must be {dimension} finite numbers")
        vectors[tok] = arr
    return EmbeddingTable(dimension, vectors)


def _load_model(checkpoint_path):
    values, _, extra = T.load_checkpoint(checkpoint_path)
    if not isinstance(extra, dict) or "config" not in extra or "table" not in extra:
        raise ValueError(f"{checkpoint_path}: checkpoint lacks config/table metadata")
    with one_line_errors(f"{checkpoint_path}: checkpoint metadata"):
        config = Config().with_overrides(extra["config"])
        table = _table_from_payload(extra["table"])
    model = RankReadModel(config, seed=config.seed)
    model.load_values(values)
    return model, table, config


def _load_scoring_inputs(args):
    """What evaluate and analyze read: model, table, config, dataset, retrieved sets."""
    model, table, config = _load_model(args.checkpoint)
    return (model, table, _config_from_args(args, config), load_dataset(args.dataset),
            retrieval.load_retrieved(args.retrieved))


# --- subcommands -----------------------------------------------------------------

def cmd_build_index(args):
    docs = retrieval.load_corpus(args.corpus)
    index = retrieval.build_index(docs)
    retrieval.save_index(index, args.out)
    print(f"indexed {index.doc_count} documents -> {args.out}")
    return 0


def cmd_retrieve(args):
    config = _config_from_args(args)
    index = retrieval.load_index(args.index)
    dataset = load_dataset(args.dataset)
    train = args.mode == "train"
    sets = []
    empty = 0
    for rs in retrieval.retrieve_all(index, dataset, config, train):
        if not rs.passages:
            empty += 1
            if train:
                continue
        sets.append(rs)
    retrieval.save_retrieved(sets, args.out)
    msg = f"retrieved passages for {len(sets)} questions -> {args.out}"
    if empty:
        msg += f" ({empty} questions with no passages{' dropped' if train else ''})"
    print(msg)
    return 0


def cmd_train(args):
    config = _config_from_args(args)
    dataset = load_dataset(args.dataset)
    retrieved_sets = retrieval.load_retrieved(args.retrieved)
    examples, dropped = trainer_mod.build_examples(dataset, retrieved_sets)
    if not examples:
        raise ValueError("no trainable questions (none has a positive passage)")
    table = _make_table(config, dataset, retrieved_sets)
    model = RankReadModel(config, seed=config.seed)
    if args.init:
        trainer_mod.pretrain_init(model, args.init)
    if config.mode == "r3":
        sr2_epochs = 0 if args.init else config.pretrain_epochs
        if sr2_epochs:
            log.info("no init checkpoint: pretraining %d epochs first", sr2_epochs)
        _, trainer = trainer_mod.train_sr2_then_r3(
            model, table, config, examples, config.seed, sr2_epochs, config.epochs)
    else:
        trainer = trainer_mod.Trainer(model, table, config, seed=config.seed)
        trainer.train(examples, config.mode, config.epochs)
    extra = {"mode": config.mode, "config": asdict(config),
             "table": _table_payload(config, table)}
    T.save_checkpoint(args.out, model.parameters(), extra=extra)
    if args.log:
        with atomic_write(args.log) as f:
            for record in trainer.log:
                f.write(json.dumps(record) + "\n")
    nonfinite = (f", {trainer.nonfinite_steps} non-finite steps skipped"
                 if trainer.nonfinite_steps else "")
    print(f"trained mode={config.mode} on {len(examples)} questions "
          f"({dropped} dropped{nonfinite}) -> {args.out}")
    return 0


def cmd_evaluate(args):
    model, table, config, dataset, retrieved_sets = _load_scoring_inputs(args)
    report = evaluation.evaluate(model, table, dataset, retrieved_sets,
                                 max_span_len=config.max_span_len)
    with atomic_write(args.out) as f:
        json.dump(report, f, indent=1)
    print(f"evaluated {report['count']} questions: "
          f"F1 {100 * report['f1']:.1f} EM {100 * report['em']:.1f} -> {args.out}")
    return 0


def cmd_analyze(args):
    model, table, config, dataset, retrieved_sets = _load_scoring_inputs(args)
    ks = [int(k) for k in args.k.split(",")]
    out = evaluation.analyze(model, table, dataset, retrieved_sets, ks, config.max_span_len)
    with atomic_write(args.out) as f:
        json.dump(out, f, indent=1)
    for k in ks:
        print(f"top-{k} recall: ir {out['recall']['ir'][k]:.3f} "
              f"model {out['recall']['model'][k]:.3f}")
    return 0


def cmd_synth(args):
    spec = SyntheticSpec(**{name: getattr(args, name) for name in args.config_fields
                            if getattr(args, name) is not None})
    docs, train_records, test_records, vocab = generate(spec)
    retrieval.save_corpus(docs, args.out_corpus)
    for path, records in ((args.out_train, train_records), (args.out_test, test_records)):
        with atomic_write(path) as f:
            for rec in records:
                f.write(json.dumps(rec) + "\n")
    print(f"generated {len(docs)} documents, {len(train_records)}/{len(test_records)} "
          f"train/test questions, vocabulary {len(vocab)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="rankread",
                                     description="sentence-level retrieval + ranker-reader QA")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-index", help="build the inverted index from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("retrieve", help="retrieve top-N passages per question")
    p.add_argument("--index", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["train", "test"], default="test")
    _add_config_flags(p, ["retrieve_n", "top_a", "top_s"])
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("train", help="train sr, sr2 or r3 on retrieved passages")
    p.add_argument("--retrieved", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="write per-step JSONL records here")
    p.add_argument("--init", default=None, help="checkpoint to initialize from")
    p.add_argument("--config", default=None, help="config file (key=value lines)")
    # every field but retrieval's, which training never reads
    _add_config_flags(p, [field.name for field in fields(Config) if field.name not in
                          ("retrieve_n", "top_a", "top_s", "bm25_k1", "bm25_b")])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="F1/EM of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--retrieved", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ["max_span_len"])
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="F1/EM, top-k recall and oracle re-ranking ceiling")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--retrieved", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", default="1,3,5")
    _add_config_flags(p, ["max_span_len"])
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="generate the synthetic corpus and datasets")
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    _add_config_flags(p, ["entities", "relations", "train_questions", "test_questions",
                          "strong_decoy_rate", "seed"], SyntheticSpec)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
