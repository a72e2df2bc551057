#!/usr/bin/env python3
"""Time training steps on the synthetic task and count the page faults they take.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/step_memory.py \\
        [--modes sr,sr2,r3] [--batches 4,8,32] [--steps 35]

For each batch size and mode, a fresh seed-1 model trains one optimizer step
at a time on batches drawn at random from the examples of the default
synthetic task, as the benchmark's rounds do. The first WARMUP_STEPS steps of
each run are dropped; the row gives the median milliseconds per example and
the median minor page faults per step (getrusage's ru_minflt) of the rest.
Run it on one pinned core (taskset) to compare two trees: a fault costs about
a microsecond, and a step's faults come from memory the allocator gave back to
the system between steps.
"""

import argparse
import os
import resource
import statistics
import sys
import time

import numpy as np

from rankread.cli import comma_ints
from rankread.config import MODES, Config
from rankread.experiment import prepare_task
from rankread.model import RankReadModel
from rankread.trainer import Trainer

WARMUP_STEPS = 5
SEED = 1


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def step_samples(task, mode, batch, steps, seed=SEED):
    """(seconds, minor faults) of each of WARMUP_STEPS + steps training steps
    of a fresh model in mode, at the given batch size."""
    config = task["config"].with_overrides({"batch_size": batch})
    trainer = Trainer(RankReadModel(config, seed=seed), task["table"], config, seed=seed)
    examples = task["examples"]
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(WARMUP_STEPS + steps):
        chunk = [examples[i] for i in rng.choice(len(examples), size=batch, replace=False)]
        faults, start = minor_faults(), time.perf_counter()
        trainer.train(chunk, mode, 1)
        samples.append((time.perf_counter() - start, minor_faults() - faults))
    return samples


def summarize(samples, batch):
    """Median ms per example and median faults per step, warm-up steps dropped."""
    kept = samples[WARMUP_STEPS:]
    if not kept:
        raise ValueError(f"need more than {WARMUP_STEPS} steps, got {len(samples)}")
    return {"ms_per_example": 1000.0 * statistics.median(s for s, _ in kept) / batch,
            "faults_per_step": statistics.median(f for _, f in kept),
            "steps": len(kept)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modes", default=",".join(MODES),
                        help="comma-separated training modes")
    parser.add_argument("--batches", type=comma_ints, default="4,8,32",
                        help="comma-separated batch sizes")
    parser.add_argument("--steps", type=int, default=35,
                        help=f"measured steps per row, after {WARMUP_STEPS} warm-up steps")
    args = parser.parse_args(argv)
    modes = args.modes.split(",")
    if any(mode not in MODES for mode in modes):
        parser.error(f"argument --modes: each must be one of {', '.join(MODES)}, got {args.modes}")
    if min(args.batches) < 1:
        parser.error(f"argument --batches: must be at least 1, got {args.batches}")
    if args.steps < 1:
        parser.error(f"argument --steps: must be at least 1, got {args.steps}")

    task = prepare_task(config=Config())
    if max(args.batches) > len(task["examples"]):
        parser.error(f"argument --batches: the task has {len(task['examples'])} examples")
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"{args.steps} steps per row after {WARMUP_STEPS} warm-up steps")
    print("mode  batch  ms/example  faults/step")
    for batch in args.batches:
        for mode in modes:
            row = summarize(step_samples(task, mode, batch, args.steps), batch)
            print(f"{mode:<5} {batch:>5}  {row['ms_per_example']:10.3f}  "
                  f"{row['faults_per_step']:11.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
