"""Command line: build-index, retrieve, train, evaluate, analyze, synth."""

import argparse
import logging
import sys
from dataclasses import fields

from . import evaluation, retrieval, trainer as trainer_mod
from .config import Config
from .files import check_fields, read_jsonl, write_json, write_jsonl
from .model import RankReadModel, load_checkpoint, save_checkpoint
from .synth import SyntheticSpec, generate
from .text import load_embeddings, synthetic_embeddings, tokenize

log = logging.getLogger(__name__)


def load_dataset(path):
    """JSON-lines of {id, question, answers}; ids are unique, since retrieved
    sets are looked up by question id. A question that tokenizes to nothing,
    which the model could not read, is rejected."""
    def record(rec):
        check_fields("dataset record", rec, {"id": str, "question": str, "answers": list[str]})
        if not tokenize(rec["question"]).tokens:
            raise ValueError(f"question {rec['id']!r} tokenizes to nothing")
        return rec

    records = read_jsonl(path, record, "id")
    if not records:
        raise ValueError(f"{path}: empty dataset")
    return records


def _config_from_args(args, base=None):
    """base (default: the --config file, else Config()) with the flags that
    _add_config_flags registered."""
    if base is None:
        base = Config.from_file(args.config) if args.config else Config()
    return base.with_overrides({name: getattr(args, name) for name in args.config_fields})


def comma_ints(text):
    """argparse type: a list of comma-separated integers."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


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


def _load_scoring_inputs(args):
    """What evaluate and analyze read: model, table, config, dataset, retrieved sets."""
    model, table = load_checkpoint(args.checkpoint)
    return (model, table, _config_from_args(args, model.config), load_dataset(args.dataset),
            retrieval.load_retrieved(args.retrieved))


# --- subcommands -----------------------------------------------------------------

def cmd_build_index(args):
    docs = retrieval.load_corpus(args.corpus)
    index = retrieval.build_index(docs)
    retrieval.save_index(index, args.out)
    print(f"indexed {index.doc_count} documents -> {args.out}")
    return 0


def cmd_retrieve(args):
    settings = args.retrieve_n, args.top_a, args.top_s
    retrieval.check_settings(*settings)
    index = retrieval.load_index(args.index)
    dataset = load_dataset(args.dataset)
    train = args.mode == "train"
    sets = []
    empty = 0
    for rs in retrieval.retrieve_all(index, dataset, train, *settings):
        if not rs.passages:
            empty += 1
            if train:
                continue
        sets.append(rs)
    retrieval.save_retrieved(sets, args.out)
    msg = (f"retrieved passages for {len(sets)} questions with retrieve_n {args.retrieve_n}, "
           f"top_a {args.top_a}, top_s {args.top_s}")
    if empty:
        msg += f" ({empty} questions with no passages{' dropped' if train else ''})"
    print(f"{msg} -> {args.out}")
    return 0


def cmd_train(args):
    config = _config_from_args(args)
    dataset = load_dataset(args.dataset)
    retrieved_sets = retrieval.load_retrieved(args.retrieved)
    examples, dropped = trainer_mod.build_examples(dataset, retrieved_sets)
    if not examples:
        raise ValueError("no trainable questions (none has a positive passage)")
    if args.init:
        model, table = load_checkpoint(args.init, config)
    else:
        table = _make_table(config, dataset, retrieved_sets)
        model = RankReadModel(config, seed=config.seed)
    if config.mode == "r3":
        sr2_epochs = 0 if args.init else config.pretrain_epochs
        if sr2_epochs:
            log.info("no init checkpoint: pretraining %d epochs first", sr2_epochs)
        _, trainer = trainer_mod.train_sr2_then_r3(
            model, table, config, examples, config.seed, sr2_epochs, config.epochs)
    else:
        trainer = trainer_mod.Trainer(model, table, config, seed=config.seed)
        trainer.train(examples, config.mode, config.epochs)
    save_checkpoint(args.out, model, table)
    if args.log:  # a skipped batch's record among the step records, in step order
        write_jsonl(args.log, sorted(trainer.log + trainer.skipped, key=lambda r: r["step"]))
    nonfinite = (f", {trainer.nonfinite_steps} non-finite steps skipped"
                 if trainer.nonfinite_steps else "")
    print(f"trained mode={config.mode} on {len(examples)} questions "
          f"({dropped} dropped{nonfinite}) -> {args.out}")
    return 0


def cmd_evaluate(args):
    model, table, config, dataset, retrieved_sets = _load_scoring_inputs(args)
    report = evaluation.evaluate(model, table, dataset, retrieved_sets,
                                 max_span_len=config.max_span_len)
    write_json(args.out, report, indent=1)
    print(f"evaluated {report['count']} questions: "
          f"F1 {100 * report['f1']:.1f} EM {100 * report['em']:.1f} -> {args.out}")
    return 0


def cmd_analyze(args):
    model, table, config, dataset, retrieved_sets = _load_scoring_inputs(args)
    out = evaluation.analyze(model, table, dataset, retrieved_sets, args.k, config.max_span_len)
    write_json(args.out, out, indent=1)
    for k in args.k:
        print(f"top-{k} recall: ir {out['recall']['ir'][k]:.3f} "
              f"model {out['recall']['model'][k]:.3f}")
    return 0


def cmd_synth(args):
    spec = SyntheticSpec(**{name: getattr(args, name) for name in args.config_fields
                            if getattr(args, name) is not None})
    docs, train_records, test_records, vocab = generate(spec)
    retrieval.save_corpus(docs, args.out_corpus)
    write_jsonl(args.out_train, train_records)
    write_jsonl(args.out_test, test_records)
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
    for flag, default, text in (("--retrieve-n", retrieval.RETRIEVE_N, "passages kept"),
                                ("--top-a", retrieval.TOP_A, "articles BM25 keeps"),
                                ("--top-s", retrieval.TOP_S, "sentences TF-IDF keeps")):
        p.add_argument(flag, type=int, default=default,
                       help=f"{text} per question (default {default})")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("train", help="train sr, sr2 or r3 on retrieved passages")
    p.add_argument("--retrieved", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="write per-step JSONL records here")
    p.add_argument("--init", default=None, help="checkpoint to initialize from")
    p.add_argument("--config", default=None,
                   help="JSON object of Config fields, as a checkpoint stores it under "
                        "extra.config; flags override it")
    _add_config_flags(p, [field.name for field in fields(Config)])
    p.set_defaults(func=cmd_train)

    for name, func, text in (
            ("evaluate", cmd_evaluate, "F1/EM of a checkpoint on a dataset"),
            ("analyze", cmd_analyze, "F1/EM, top-k recall and oracle re-ranking ceiling")):
        p = sub.add_parser(name, help=text)
        for flag in ("--checkpoint", "--retrieved", "--dataset", "--out"):
            p.add_argument(flag, required=True)
        if name == "analyze":
            p.add_argument("--k", type=comma_ints, default="1,3,5",
                           help="comma-separated top-k cutoffs")
        _add_config_flags(p, ["max_span_len"])
        p.set_defaults(func=func)

    p = sub.add_parser("synth", help="generate the synthetic corpus and datasets")
    p.add_argument("--out-corpus", required=True)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)
    _add_config_flags(p, ["entities", "relations", "train_questions", "test_questions", "seed"],
                      SyntheticSpec)
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
