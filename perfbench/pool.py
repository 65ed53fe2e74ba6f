"""Seeded inputs for the benchmark workloads and the one call each input drives.

Token counts and query lengths sit on a fixed grid across each workload's
range, so runs with different seeds load the same sizes and their timings
can be compared. The seed picks the token content, the query, the planted
positions and the order in which the timed loop cycles through the inputs.
Each workload has five inputs, called equally often and costlier with each
step of the grid, so a run's median is the median of the middle input and
its 90th percentile the median of the largest: neither sits on the edge
between two inputs, where it would jump with the call count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FRAME_SIDE = 224  # pixels; with PATCH 14 a frame is 256 tokens
PATCH = 14
FPS = 1.0
PLANTED = 8  # planted query-aligned tokens per stream (the `tokengate train` default)

# Frames per input, ascending. long_video spans M = 32k ... 180k tokens,
# short_clip M = 1k ... 8k.
INFER_FRAMES = {
    "long_video": (128, 272, 416, 560, 704),
    "short_clip": (4, 11, 18, 25, 32),
}
# Query rows per input, rising with the stream, so the memory pass always
# meets the range's largest working set (longest stream, longest query).
QUERY_ROWS = (4, 7, 10, 13, 16)
TRAIN_CALLS = 5  # distinct training pools cycled by the train_step loop

WORKLOADS = ("long_video", "short_clip", "train_step")


@dataclass
class Item:
    """One benchmark input: an infer stream, or the seed of a training pool."""

    tokens: int  # input visual tokens one call processes
    x: np.ndarray | None = None
    timestamps: np.ndarray | None = None
    q: np.ndarray | None = None
    train_seed: int | None = None


def item_count(workload: str) -> int:
    return TRAIN_CALLS if workload == "train_step" else len(INFER_FRAMES[workload])


def make_item(tg, cfg, workload: str, seed: int, k: int) -> Item:
    """Input ``k`` of ``workload`` for ``seed``; the same arguments give the same input."""
    if workload == "train_step":
        train_seed = int(np.random.default_rng([seed, k]).integers(2**31))
        return Item(tokens=cfg.wl_tokens * cfg.train_batch, train_seed=train_seed)
    spec = tg.WorkloadSpec(
        m=None,
        d=cfg.d,
        l=QUERY_ROWS[k],
        k=PLANTED,
        frames=INFER_FRAMES[workload][k],
        frame_rate=FPS,
        frame_height=FRAME_SIDE,
        frame_width=FRAME_SIDE,
        patch=PATCH,
    )
    wl = tg.generate_workload(spec, np.random.default_rng([seed, k]))
    return Item(tokens=wl.x.shape[0], x=wl.x, timestamps=wl.timestamps, q=wl.q)


def make_items(tg, cfg, workload: str, seed: int) -> list[Item]:
    return [make_item(tg, cfg, workload, seed, k) for k in range(item_count(workload))]


def call_order(seed: int, count: int) -> np.ndarray:
    """The order in which one cycle of the timed loop visits the inputs."""
    return np.random.default_rng([seed, count, 1]).permutation(count)


def train_spec(tg, cfg):
    """The workload, optimiser and penalties of `tokengate train` at its defaults."""
    spec = tg.WorkloadSpec.from_config(cfg)
    opt = tg.OptimizerConfig.from_config(cfg)
    penalties = tg.PenaltyWeights(
        lambda_t=cfg.lambda_t, lambda_m=cfg.lambda_m, lambda_s=cfg.lambda_s, rho_bar=cfg.rho_bar
    )
    return spec, opt, penalties


def run_item(tg, model, cfg, item: Item):
    """One call: ``select`` in infer mode, or one training step (a batch) for train_step.

    Returns the SelectionResult, or the epoch trajectory of the training step.
    """
    if item.train_seed is None:
        return tg.select(model, item.x, item.timestamps, item.q, mode="infer")
    spec, opt, penalties = train_spec(tg, cfg)
    _, trajectory = tg.train_desk_scale(spec, model, epochs=1, opt=opt, penalties=penalties, seed=item.train_seed)
    return trajectory
