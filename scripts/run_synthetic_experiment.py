#!/usr/bin/env python3
"""Train the three modes on the synthetic task over several seeds and print
the comparison table (test EM/F1, top-1 ranker recall, oracle ceiling)."""

import argparse
import logging
import sys

from rankread.cli import comma_ints
from rankread.config import MODES
from rankread.experiment import run_experiment
from rankread.files import write_json


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=comma_ints, default="0,1,2",
                        help="comma-separated training seeds")
    parser.add_argument("--sr-epochs", type=int, default=None)
    parser.add_argument("--sr2-epochs", type=int, default=None)
    parser.add_argument("--r3-epochs", type=int, default=None)
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
    result = run_experiment(seeds=seeds, sr_epochs=args.sr_epochs,
                            sr2_epochs=args.sr2_epochs, r3_epochs=args.r3_epochs)
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
