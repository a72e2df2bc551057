#!/usr/bin/env python3
"""Train the three modes on the synthetic task over several seeds and print
the comparison table (test EM/F1, top-1 ranker recall, oracle ceiling).

With --ensemble, the same seeds run once per learning rate
0.01 * (1 + k * 2**-52), k = 0..12: thirteen runs that differ from the
default in the last bits only. It prints how many of them meet the
acceptance ordering that c07 checks, the conditions each failing run
missed, and each mode's EM range per seed.
"""

import argparse
import logging
import sys

from rankread.cli import comma_ints
from rankread.config import MODES, Config
from rankread.experiment import run_experiment
from rankread.files import write_json

ENSEMBLE_STEPS = range(13)  # k in learning_rate * (1 + k * 2**-52)


def ordering_failures(summary):
    """The conditions of c07's ordering that a run's summary misses, by name."""
    em, recall1, ir1 = summary["em"], summary["recall1"], summary["ir_recall"][1]
    conditions = {
        "recall@1 r3 > sr2": recall1["r3"] > recall1["sr2"],
        "recall@1 sr2 > ir": recall1["sr2"] > ir1,
        "EM r3 >= sr2": em["r3"] >= em["sr2"],
        "EM sr2 >= sr": em["sr2"] >= em["sr"],
        "EM r3 - sr >= 5": em["r3"] - em["sr"] >= 5.0,
    }
    return [name for name, held in conditions.items() if not held]


def tally(runs):
    """Pass count, failures and per-seed EM ranges of ensemble runs.

    runs holds one (k, experiment result) pair per learning rate. Returns
    {"runs", "passed", "failures": {k: [condition, ...]} for each failing k,
    "em_range": {seed: {mode: [min, max]}}}.
    """
    failures = {k: missed for k, result in runs
                if (missed := ordering_failures(result["summary"]))}
    em_range = {}
    for _, result in runs:
        for res in result["per_seed"]:
            for mode in MODES:
                lo, hi = em_range.setdefault(res["seed"], {}).get(mode, (res[mode]["em"],) * 2)
                em_range[res["seed"]][mode] = [min(lo, res[mode]["em"]), max(hi, res[mode]["em"])]
    return {"runs": len(runs), "passed": len(runs) - len(failures), "failures": failures,
            "em_range": em_range}


def ensemble(seeds, steps=ENSEMBLE_STEPS, spec=None, config=None, **epochs):
    """run_experiment once per learning rate config.learning_rate * (1 + k * 2**-52)."""
    config = config or Config()
    return [(k, run_experiment(seeds=seeds, spec=spec, config=config.with_overrides(
                {"learning_rate": config.learning_rate * (1 + k * 2.0 ** -52)}), **epochs))
            for k in steps]


def print_ensemble(seeds, counted):
    steps = list(ENSEMBLE_STEPS)
    print(f"\nensemble: learning rate 0.01 * (1 + k * 2**-52), k = {steps[0]}..{steps[-1]}, "
          f"seeds {list(seeds)}")
    print(f"c07 ordering holds on {counted['passed']}/{counted['runs']}")
    for k, missed in counted["failures"].items():
        print(f"  k={k}: fails {'; '.join(missed)}")
    print("EM range per seed over the learning rates:")
    for seed, ranges in counted["em_range"].items():
        print(f"  seed {seed}: " + "  ".join(f"{mode} {lo:.0f}-{hi:.0f}"
                                             for mode, (lo, hi) in ranges.items()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=comma_ints, default="0,1,2",
                        help="comma-separated training seeds")
    parser.add_argument("--sr-epochs", type=int, default=None)
    parser.add_argument("--sr2-epochs", type=int, default=None)
    parser.add_argument("--r3-epochs", type=int, default=None)
    parser.add_argument("--ensemble", action="store_true",
                        help="run the seeds under 13 learning rates that differ in the last bits")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    if min(args.seeds) < 0:
        parser.error(f"argument --seeds: seeds must be at least 0, got {args.seeds}")
    if len(set(args.seeds)) < len(args.seeds):
        parser.error(f"argument --seeds: a seed repeats, got {args.seeds}")
    for mode in MODES:
        epochs = getattr(args, f"{mode}_epochs")
        if epochs is not None and epochs < 0:
            parser.error(f"argument --{mode}-epochs: must be at least 0, got {epochs}")

    logging.basicConfig(level=logging.INFO, format="%(message)s")
    seeds = tuple(args.seeds)
    epochs = {f"{mode}_epochs": getattr(args, f"{mode}_epochs") for mode in MODES}
    if args.ensemble:
        counted = tally(ensemble(seeds, **epochs))
        print_ensemble(seeds, counted)
        if args.out:
            write_json(args.out, counted, indent=1)
            print(f"ensemble summary written to {args.out}")
        return 0

    result = run_experiment(seeds=seeds, **epochs)
    s = result["summary"]

    print("\nmode   test EM   test F1   top-1 recall")
    print(f"ir        -         -        {s['ir_recall'][1]:.3f}")
    for mode in MODES:
        rec = f"{s['recall1'][mode]:.3f}" if mode in s["recall1"] else "  -  "
        print(f"{mode:<6} {s['em'][mode]:7.1f}  {s['f1'][mode]:7.1f}       {rec}")
    print("\noracle re-ranking ceiling (last seed's reader-only model):")
    for k, vals in result["oracle"].items():
        print(f"  top-{k}: F1 {vals['f1']:.1f}  EM {vals['em']:.1f}")
    print(f"\nelapsed: {s['elapsed_seconds']:.0f}s over seeds {list(seeds)}")

    if args.out:
        payload = {"summary": s, "oracle": result["oracle"], "per_seed": result["per_seed"]}
        write_json(args.out, payload, indent=1)
        print(f"summary written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
