"""Write reference.npz, the outputs every benchmark run is compared against.

Run from the repository root after a change that is meant to alter the
selection itself, and say so in the change:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tokengate as tg  # noqa: E402

import checks  # noqa: E402
import pool  # noqa: E402


def main() -> None:
    cfg = tg.RunConfig()
    model = tg.SelectorModel.build(cfg)
    arrays = {}
    for workload in pool.WORKLOADS:
        arrays.update(checks.reference_outputs(tg, model, cfg, workload))
    np.savez_compressed(checks.REFERENCE, **arrays)
    print(f"wrote {len(arrays)} arrays to {checks.REFERENCE}")


if __name__ == "__main__":
    main()
