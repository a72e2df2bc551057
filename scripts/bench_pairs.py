#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two source trees and summarize.

    PYTHONPATH=src python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload retrieval_large --seeds 2801-2810 --out BENCH_28.json \\
        [--trace 0] [--claim index_build_s]

Each seed is one pair: both trees run `perfbench/run.py` on that workload and
seed, one after the other, each from its own directory, for the run length
that tree's BENCHMARK.json sets. The side that runs first alternates from pair
to pair, parent first on the first pair. The runs are appended to --out when
it exists; a seed already run there on this workload and trace is refused, so
every run made stays in the summaries. --workload and --claim are checked
against the change tree's BENCHMARK.json before anything runs. --out is
rewritten, atomically, after every run, so the runs made before one that
fails are kept, and a second invocation on the remaining seeds resumes. Each
time, every workload's summary is recomputed from all of its runs: trace-0
runs under "summary", against each end-to-end metric's bound in the change
tree's BENCHMARK.json, and trace-1 runs under "traced". --claim names the
metric this workload claims a gain on; the claim is met when at least 10
pairs ran, the change wins at least 9 in 10 of them and the medians differ,
in the better direction, by more than the parent's IQR.
"""

import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np

from rankread.files import write_json

CLAIM_RULE = ("at least 10 pairs; the change wins at least 9 of 10 pairs and the medians "
              "differ by more than the parent's interquartile range")
SIDES = ("parent", "change")


def seed_range(text):
    """argparse type: "A-B" (inclusive) or one seed "A"."""
    try:
        low, _, high = text.partition("-")
        seeds = list(range(int(low), int(high or low) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected a seed range A-B, got {text!r}")
    return seeds


def run_one(tree, workload, seed, trace):
    """One benchmark run in tree, as the fields of a run record that it fills."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    meta, result = json.loads(meta_line)["meta"], json.loads(result_line)
    return {"fingerprint": meta["fingerprint"], "inputs_sha256": meta["inputs_sha256"],
            "quality": meta["quality"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "machine": meta["machine"]}


def _pairs(runs, workload, trace):
    """[(parent run, change run)] for each seed both sides ran, in seed order."""
    by_seed = {}
    for run in runs:
        if run["workload"] == workload and run["trace"] == trace:
            sides = by_seed.setdefault(run["seed"], {})
            if run["side"] in sides:
                raise ValueError(f"{workload} trace {trace} seed {run['seed']}: "
                                 f"{run['side']} ran more than once")
            sides[run["side"]] = run
    return [(sides["parent"], sides["change"])
            for _, sides in sorted(by_seed.items()) if len(sides) == 2]


def compare(parent, change, better):
    """Medians, the parent's IQR, the change's wins and its relative loss
    (worse_by, positive when the change is worse) over paired values."""
    lower = better == "lower"
    p_med, c_med = float(np.median(parent)), float(np.median(change))
    q25, q75 = np.percentile(parent, [25, 75])
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse_by = (c_med - p_med if lower else p_med - c_med) / p_med
    return {"parent_median": round(p_med, 6), "change_median": round(c_med, 6),
            "parent_iqr": round(float(q75 - q25), 6), "change_wins": int(wins),
            "worse_by": round(worse_by, 4)}


def summarize(runs, end_to_end):
    """{workload: summary} over the trace-0 pairs of runs; end_to_end is
    BENCHMARK.json's list of {name, better, bound}."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs if run["trace"] == 0):
        pairs = _pairs(runs, workload, 0)
        if not pairs:
            continue
        summary = {
            "pairs": len(pairs),
            "seeds": [p["seed"] for p, _ in pairs],
            "fingerprints_equal": all(p["fingerprint"] == c["fingerprint"] for p, c in pairs),
            "inputs_equal": all(p["inputs_sha256"] == c["inputs_sha256"] for p, c in pairs),
            "quality_equal": all(p["quality"] == c["quality"] for p, c in pairs),
            "failed": {side: sum(pair[i]["failed"] for pair in pairs)
                       for i, side in enumerate(SIDES)},
            "attempted": {side: sum(pair[i]["attempted"] for pair in pairs)
                          for i, side in enumerate(SIDES)},
        }
        for metric in end_to_end:
            name = metric["name"]
            summary[name] = {**compare([p["metrics"][name] for p, _ in pairs],
                                       [c["metrics"][name] for _, c in pairs], metric["better"]),
                             "bound": metric["bound"]}
        out[workload] = summary
    return out


def traced(runs):
    """{workload: {metric: {parent, change}}}: per-side medians of trace-1 runs."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs if run["trace"] == 1):
        pairs = _pairs(runs, workload, 1)
        block = {"pairs": len(pairs), "seeds": [p["seed"] for p, _ in pairs]}
        for name in pairs[0][0]["metrics"] if pairs else ():
            block[name] = {side: round(float(np.median([pair[i]["metrics"][name]
                                                        for pair in pairs])), 6)
                           for i, side in enumerate(SIDES)}
        out[workload] = block
    return out


def claim(summary, workload, metric, better):
    """The claim block: is metric's gain on workload shown by summary?"""
    if workload not in summary:  # no pair has run yet
        return {"metric": metric, "workload": workload, "rule": CLAIM_RULE, "pairs": 0,
                "met": False}
    s = summary[workload][metric]
    pairs = summary[workload]["pairs"]
    gap = s["change_median"] - s["parent_median"]
    gained = gap < 0 if better == "lower" else gap > 0
    met = (pairs >= 10 and s["change_wins"] >= math.ceil(0.9 * pairs)
           and gained and abs(gap) > s["parent_iqr"])
    return {"metric": metric, "workload": workload, "rule": CLAIM_RULE,
            "parent_median": s["parent_median"], "change_median": s["change_median"],
            "parent_iqr": s["parent_iqr"], "change_wins": s["change_wins"], "pairs": pairs,
            "met": met}


def _protocol(runs):
    ranges = []
    for (workload, trace) in dict.fromkeys((run["workload"], run["trace"]) for run in runs):
        seeds = sorted({run["seed"] for run in runs
                        if run["workload"] == workload and run["trace"] == trace})
        ranges.append(f"{workload} trace {trace} seeds {seeds[0]}-{seeds[-1]}")
    return ("pairs on one seed each, run one after the other; the side that runs first "
            "alternates from pair to pair (parent first on the first pair of each "
            f"invocation); runs in this order: {', '.join(ranges)}; metrics are the "
            "benchmark's values as printed; parent_iqr is numpy's linear 75th minus 25th "
            "percentile of the parent's runs. Each side ran from its own copy of the tree.")


def _machine(m):
    return (f"{m['nproc']}-CPU host, Python {m['python']}, numpy {m['numpy']}, "
            f"{m['blas']['name']} pinned to {m['blas_threads']} thread")


def _write(path, doc, end_to_end, better):
    """Recompute doc's summaries from its runs and write it to path."""
    doc["protocol"] = _protocol(doc["runs"])
    doc["summary"] = summarize(doc["runs"], end_to_end)
    doc["traced"] = traced(doc["runs"])
    if doc["claim"]:
        doc["claim"] = claim(doc["summary"], doc["claim"]["workload"], doc["claim"]["metric"],
                             better[doc["claim"]["metric"]])
    keys = ("command", "parent", "change", "machine", "protocol", "claim", "summary", "traced",
            "runs")
    write_json(path, {key: doc[key] for key in keys}, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--claim", default=None, help="the metric this workload claims")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change_tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    else:
        doc = {"command": "python3 perfbench/run.py --workload <w> --seed <s> --trace <t> "
                          f"(runs for BENCHMARK.json's run_seconds, {spec['run_seconds']:g} s)",
               "parent": args.parent_tree, "change": args.change_tree, "claim": None,
               "runs": []}
    repeated = sorted({run["seed"] for run in doc["runs"] if run["workload"] == args.workload
                       and run["trace"] == args.trace and run["seed"] in args.seeds})
    if repeated:
        parser.error(f"{args.out} already has {args.workload} trace {args.trace} runs on seeds "
                     f"{repeated}")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"argument --workload: {args.workload!r} is not one of {workloads}")
    if args.claim is not None and args.claim not in better:
        parser.error(f"argument --claim: {args.claim!r} is not an end-to-end metric of "
                     "BENCHMARK.json")
    if args.claim:
        doc["claim"] = {"metric": args.claim, "workload": args.workload}
    trees = dict(zip(SIDES, (args.parent_tree, args.change_tree)))
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            run = run_one(trees[side], args.workload, seed, args.trace)
            doc["machine"] = _machine(run.pop("machine"))
            doc["runs"].append({"workload": args.workload, "seed": seed, "side": side,
                                "trace": args.trace, "first": order[0], **run})
            _write(args.out, doc, spec["end_to_end"], better)
            print(f"{args.workload} seed {seed} {side}: failed {run['failed']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
