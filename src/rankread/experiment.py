"""End-to-end synthetic experiment: train the three modes on the generated
task and compare test EM plus ranker recall, over several seeds."""

import logging
import time

from . import evaluation, retrieval, trainer as trainer_mod
from .config import Config
from .model import RankReadModel
from .synth import SyntheticSpec, generate
from .text import synthetic_embeddings

log = logging.getLogger(__name__)


DEFAULT_EPOCHS = {"sr": 6, "sr2": 6, "r3": 3}


def default_config():
    return Config(hidden_size=16, embed_dim=16, dropout=0.15, learning_rate=0.01,
                  batch_size=8, epochs=6, top_a=10, top_s=30, retrieve_n=10)


def prepare_task(spec=None, config=None):
    """Generate the corpus, build the index, and retrieve train/test passages."""
    spec = spec or SyntheticSpec()
    config = config or default_config()
    docs, train_records, test_records, vocab = generate(spec)
    index = retrieval.build_index(docs)
    table = synthetic_embeddings(vocab, config.embed_dim, seed=spec.seed)

    def retrieve_all(records, train):
        out = []
        for rec in records:
            out.append(retrieval.retrieve(
                index, rec["id"], rec["question"], rec["answers"],
                n=config.retrieve_n, top_a=config.top_a, top_s=config.top_s,
                train=train, k1=config.bm25_k1, b=config.bm25_b))
        return out

    train_retrieved = retrieve_all(train_records, train=True)
    test_retrieved = retrieve_all(test_records, train=False)
    examples, dropped = trainer_mod.build_examples(train_records, train_retrieved)
    return {
        "config": config,
        "index": index,
        "table": table,
        "train_records": train_records,
        "test_records": test_records,
        "examples": examples,
        "dropped": dropped,
        "test_retrieved": test_retrieved,
    }


def _evaluate(task, model):
    cfg = task["config"]
    report = evaluation.evaluate(model, task["table"], task["test_records"],
                                 task["test_retrieved"], cfg.max_span_len)
    return {"em": 100.0 * report["em"], "f1": 100.0 * report["f1"]}


def _analyze(task, model, oracle=False):
    cfg = task["config"]
    return evaluation.analyze(model, task["table"], task["test_records"],
                              task["test_retrieved"], (1, 3, 5), cfg.max_span_len, oracle)


def run_seed(task, seed, sr_epochs=None, sr2_epochs=None, r3_epochs=None):
    """Train SR, SR2 and R3 (initialized from the SR2 run) with one seed."""
    cfg = task["config"]
    sr_epochs = DEFAULT_EPOCHS["sr"] if sr_epochs is None else sr_epochs
    sr2_epochs = DEFAULT_EPOCHS["sr2"] if sr2_epochs is None else sr2_epochs
    r3_epochs = DEFAULT_EPOCHS["r3"] if r3_epochs is None else r3_epochs
    out = {"seed": seed}

    model_sr = RankReadModel(cfg, seed=seed)
    t_sr = trainer_mod.Trainer(model_sr, task["table"], cfg, seed=seed)
    t_sr.train(task["examples"], "sr", sr_epochs)
    out["sr"] = _evaluate(task, model_sr)

    model_sr2 = RankReadModel(cfg, seed=seed)
    t_sr2 = trainer_mod.Trainer(model_sr2, task["table"], cfg, seed=seed)
    t_sr2.train(task["examples"], "sr2", sr2_epochs)
    out["sr2"] = _evaluate(task, model_sr2)
    out["sr2"]["recall"] = _analyze(task, model_sr2)["recall"]["model"]

    model_r3 = RankReadModel(cfg, seed=seed)
    model_r3.load_values(model_sr2.export_values())
    t_r3 = trainer_mod.Trainer(model_r3, task["table"], cfg, seed=seed + 1000)
    t_r3.train(task["examples"], "r3", r3_epochs)
    out["r3"] = _evaluate(task, model_r3)
    out["r3"]["recall"] = _analyze(task, model_r3)["recall"]["model"]
    out["models"] = {"sr": model_sr, "sr2": model_sr2, "r3": model_r3}
    return out


def run_experiment(seeds=(0, 1, 2), spec=None, config=None,
                   sr_epochs=None, sr2_epochs=None, r3_epochs=None, keep_models=False):
    started = time.time()
    task = prepare_task(spec, config)
    per_seed = []
    for seed in seeds:
        result = run_seed(task, seed, sr_epochs, sr2_epochs, r3_epochs)
        log.info("seed %d: SR em=%.1f SR2 em=%.1f R3 em=%.1f | recall@1 SR2=%.2f R3=%.2f",
                 seed, result["sr"]["em"], result["sr2"]["em"], result["r3"]["em"],
                 result["sr2"]["recall"][1], result["r3"]["recall"][1])
        per_seed.append(result)

    def mean(path):
        vals = []
        for res in per_seed:
            node = res
            for key in path:
                node = node[key]
            vals.append(node)
        return sum(vals) / len(vals)

    # the re-ranking ceiling is most informative for the reader-only model,
    # whose own top-1 choice is weakest
    analysis = _analyze(task, per_seed[-1]["models"]["sr"], oracle=True)
    summary = {
        "ir_recall": analysis["recall"]["ir"],
        "em": {m: mean([m, "em"]) for m in ("sr", "sr2", "r3")},
        "f1": {m: mean([m, "f1"]) for m in ("sr", "sr2", "r3")},
        "recall1": {m: mean([m, "recall", 1]) for m in ("sr2", "r3")},
        "dropped_train_questions": task["dropped"],
        "elapsed_seconds": None,
    }
    oracle = {k: {"f1": 100.0 * v["f1"], "em": 100.0 * v["em"]}
              for k, v in analysis["oracle"].items()}
    if not keep_models:
        for res in per_seed:
            res.pop("models")
    summary["elapsed_seconds"] = time.time() - started
    return {"summary": summary, "per_seed": per_seed, "oracle": oracle, "task": task}
