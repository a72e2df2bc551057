"""End-to-end synthetic experiment: train the three modes on the generated
task and compare test EM plus ranker recall, over several seeds."""

import logging
import time
from functools import reduce
from operator import getitem

from . import evaluation, retrieval, trainer as trainer_mod
from .config import MODES, Config
from .model import RankReadModel
from .synth import SyntheticSpec, generate
from .text import synthetic_embeddings

log = logging.getLogger(__name__)


DEFAULT_EPOCHS = {"sr": 6, "sr2": 6, "r3": 3}


def default_config():
    return Config()


def prepare_task(spec=None, config=None):
    """Generate the corpus, build the index, and retrieve train/test passages."""
    spec = spec or SyntheticSpec()
    config = config or default_config()
    docs, train_records, test_records, vocab = generate(spec)
    index = retrieval.build_index(docs)
    table = synthetic_embeddings(vocab, config.embed_dim, seed=spec.seed)
    train_retrieved = retrieval.retrieve_all(index, train_records, config, train=True)
    test_retrieved = retrieval.retrieve_all(index, test_records, config, train=False)
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


def run_seed(task, seed, sr_epochs=None, sr2_epochs=None, r3_epochs=None):
    """Train SR, SR2 and R3 (initialized from the SR2 run) with one seed, and
    score each model from one analysis pass over the test questions."""
    sr_epochs = DEFAULT_EPOCHS["sr"] if sr_epochs is None else sr_epochs
    sr2_epochs = DEFAULT_EPOCHS["sr2"] if sr2_epochs is None else sr2_epochs
    r3_epochs = DEFAULT_EPOCHS["r3"] if r3_epochs is None else r3_epochs
    cfg, table, examples = task["config"], task["table"], task["examples"]
    models = {mode: RankReadModel(cfg, seed=seed) for mode in MODES}
    trainer_mod.Trainer(models["sr"], table, cfg, seed=seed).train(examples, "sr", sr_epochs)
    sr2_values, _ = trainer_mod.train_sr2_then_r3(
        models["r3"], table, cfg, examples, seed, sr2_epochs, r3_epochs)
    models["sr2"].load_values(sr2_values)
    analyses = {mode: evaluation.analyze(model, table, task["test_records"],
                                         task["test_retrieved"], (1, 3, 5), cfg.max_span_len)
                for mode, model in models.items()}
    out = {"seed": seed, "ir_recall": analyses["sr"]["recall"]["ir"]}
    for mode, a in analyses.items():
        out[mode] = {"em": 100.0 * a["em"], "f1": 100.0 * a["f1"], "recall": a["recall"]["model"],
                     "oracle": {k: {"f1": 100.0 * v["f1"], "em": 100.0 * v["em"]}
                                for k, v in a["oracle"].items()}}
    return out


def run_experiment(seeds=(0, 1, 2), spec=None, config=None,
                   sr_epochs=None, sr2_epochs=None, r3_epochs=None):
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
        return sum(reduce(getitem, path, res) for res in per_seed) / len(per_seed)

    summary = {
        "ir_recall": per_seed[-1]["ir_recall"],
        "em": {m: mean([m, "em"]) for m in MODES},
        "f1": {m: mean([m, "f1"]) for m in MODES},
        "recall1": {m: mean([m, "recall", 1]) for m in ("sr2", "r3")},
        "dropped_train_questions": task["dropped"],
        "elapsed_seconds": time.time() - started,
    }
    # the re-ranking ceiling is most informative for the reader-only model,
    # whose own top-1 choice is weakest
    oracle = per_seed[-1]["sr"]["oracle"]
    return {"summary": summary, "per_seed": per_seed, "oracle": oracle, "task": task}
