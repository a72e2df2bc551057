#!/usr/bin/env python3
"""Time one tensor.bilstm call at fixed shapes: the forward under no_grad, and
the forward with its backward.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/bilstm_time.py

Each row is one shape: the hidden size (both directions together, as
Config's hidden_size: each direction is half as wide), the number of
sequences, their shortest and longest lengths, and the median milliseconds
per call over CALLS calls after one warm-up call. The first two rows are the
benchmark's shapes at the default hidden size, a synth_ragged batch and a
synth_short training batch (40 passages of 10 tokens and 4 questions of 7);
the third is a longer ragged batch at that size, and the last two are at the
paper's hidden size. Inputs are drawn from a fixed seed. Run it on one pinned
core (taskset) to compare two trees; the 300-sequence row takes about 1 GB.
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

from rankread import tensor as T

CALLS = 7
SEED = 0


def ragged(n, shortest, longest):
    """n lengths, longest first: longest itself, so that the call runs that
    many steps, then n - 1 drawn from shortest..longest."""
    rng = np.random.default_rng(SEED)
    drawn = rng.integers(shortest, longest + 1, size=n - 1).tolist()
    return sorted([longest] + drawn, reverse=True)


# (hidden size, lengths)
SHAPES = (
    (16, ragged(21, 6, 22)),
    (16, [10] * 40 + [7] * 4),
    (16, ragged(50, 3, 60)),
    (300, ragged(50, 5, 60)),
    (300, ragged(300, 5, 60)),
)


def _median_seconds(fn, calls):
    fn()  # warm-up: the workspace takes its buffers
    samples = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def time_bilstm(hidden, lengths, calls=CALLS):
    """Median seconds per T.bilstm call over lengths at hidden size hidden:
    (forward under no_grad, recorded forward and its backward), each over
    calls calls after one warm-up call."""
    rng = np.random.default_rng(SEED)
    h, cols = hidden // 2, sum(lengths)
    ins = [T.Tensor(rng.normal(size=(4 * h, cols)), requires_grad=True) for _ in range(2)]
    ins += [T.Tensor(0.1 * rng.normal(size=(4 * h, h)), requires_grad=True) for _ in range(2)]
    g = rng.normal(size=(2 * h, cols))

    def forward():
        with T.no_grad():
            T.bilstm(*ins, lengths)

    def forward_backward():
        T.zero_grads(ins)
        # the node's own backward for output gradient g, as T.backward runs it
        T.bilstm(*ins, lengths)._backward(g)

    return _median_seconds(forward, calls), _median_seconds(forward_backward, calls)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
          f"median of {CALLS} calls after 1 warm-up call")
    print("hidden  seqs  lengths  forward_ms  fwd+bwd_ms")
    for hidden, lengths in SHAPES:
        forward, both = time_bilstm(hidden, lengths)
        print(f"{hidden:>6}  {len(lengths):>4}  {f'{lengths[-1]}-{lengths[0]}':>7}  "
              f"{1000 * forward:10.3f}  {1000 * both:10.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
