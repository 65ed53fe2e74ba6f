"""One cold start: import tokengate, load_weights, then the first call.

Run in a fresh process by run.py. Prints {"setup_s": seconds} as its last
line. The inputs are read before the clock starts, because generating them
is the benchmark's cost, not the library's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--weights", required=True)
    parser.add_argument("--inputs")
    parser.add_argument("--train-seed", type=int)
    args = parser.parse_args()
    inputs = dict(np.load(args.inputs)) if args.inputs else {}

    start = time.perf_counter()
    sys.path.insert(0, args.src)
    import tokengate as tg

    import pool

    model = tg.load_weights(args.weights)
    cfg = tg.RunConfig()
    item = pool.Item(tokens=0, train_seed=args.train_seed, **inputs)
    pool.run_item(tg, model, cfg, item)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main()
