"""The inference cold path loads only the modules it runs.

Each check runs in a fresh interpreter, because the test process itself
has long since imported the training modules and ``numpy.random``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tokengate
from tokengate.config import RunConfig
from tokengate.selector import SelectorModel, save_weights
from tokengate.tensorio import write_tensor

SRC = Path(__file__).resolve().parents[1] / "src"
# Modules an inference process has no use for.
UNUSED = ("tokengate.harness", "tokengate.cli", "numpy.random", "logging")

# REPORT prints, as its last line, which of UNUSED are loaded after the body
# runs, and which of them ``import numpy`` alone had loaded (numpy 1.x loads
# numpy.random with numpy).
PREAMBLE = """
import json, sys
import numpy
preloaded = set(sys.modules)
"""
REPORT = """
print(json.dumps({
    "preloaded": [m for m in UNUSED if m in preloaded],
    "loaded": [m for m in UNUSED if m in sys.modules],
}))
"""


def run_fresh(body: str, **names) -> dict:
    """Run ``body`` after PREAMBLE in a new interpreter with ``names``
    bound, and return the JSON object it prints last."""
    bindings = "".join(f"{key} = {value!r}\n" for key, value in names.items())
    code = PREAMBLE + bindings + body
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_unused_not_loaded(report: dict) -> None:
    unused = set(UNUSED) - set(report["preloaded"])
    assert unused.isdisjoint(report["loaded"]), report["loaded"]


def write_instance(tmp_path: Path) -> dict:
    """A saved weights directory and one 64-token instance on disk."""
    cfg = RunConfig(d=16, heads=2, budget_hidden=16, n_max=32)
    save_weights(SelectorModel.build(cfg), tmp_path / "weights")
    rng = np.random.default_rng(0)
    paths = {name: str(tmp_path / f"{name}.qtn") for name in ("x", "q", "ts")}
    write_tensor(paths["x"], rng.standard_normal((64, cfg.d)))
    write_tensor(paths["q"], rng.standard_normal((3, cfg.d)))
    write_tensor(paths["ts"], np.arange(64.0))
    return dict(paths, weights=str(tmp_path / "weights"), out=str(tmp_path / "out"))


class TestInferLoadsNoTrainingModule:
    def test_library_path(self, tmp_path):
        """import tokengate, load_weights and one infer select."""
        report = run_fresh(
            """
import tokengate
from tokengate.tensorio import read_tensor
model = tokengate.load_weights(paths["weights"])
x, q, ts = (read_tensor(paths[name]) for name in ("x", "q", "ts"))
result = tokengate.select(model, x, ts.ravel(), q, mode="infer")
assert result.indices.size > 0
"""
            + REPORT,
            paths=write_instance(tmp_path),
            UNUSED=UNUSED,
        )
        assert_unused_not_loaded(report)

    def test_cli_select_and_weights_inspect(self, tmp_path):
        """``tokengate select --mode infer`` then ``weights-inspect``; the
        CLI module itself is loaded here, so only the rest is checked."""
        paths = write_instance(tmp_path)
        select_argv = [
            "select",
            "--x", paths["x"],
            "--q", paths["q"],
            "--timestamps", paths["ts"],
            "--weights", paths["weights"],
            "--mode", "infer",
            "--out-tokens", paths["out"] + "_z.qtn",
            "--out-indices", paths["out"] + "_idx.txt",
            "--out-diag", paths["out"] + "_diag.json",
        ]
        report = run_fresh(
            """
from tokengate.cli import main
assert main(select_argv) == 0
assert main(["weights-inspect", "--weights", weights]) == 0
"""
            + REPORT,
            select_argv=select_argv,
            weights=paths["weights"],
            UNUSED=tuple(m for m in UNUSED if m != "tokengate.cli"),
        )
        assert_unused_not_loaded(report)
        assert Path(paths["out"] + "_idx.txt").read_text().strip()


class TestLazyNames:
    def test_names_resolve_to_their_defining_objects(self):
        """Before anything imports the training modules: ``dir`` lists
        ``__all__``, ``tokengate.harness`` is reachable as an attribute,
        and every exported name is the object its module defines."""
        report = run_fresh(
            """
import importlib
import tokengate
assert "tokengate.harness" not in sys.modules
assert set(tokengate.__all__) <= set(dir(tokengate))
stats = tokengate.harness.EpochStats(epoch=0, loss=1.0, mean_rho=0.2, mean_n=60.0)
assert stats.epoch == 0
mismatched = []
for name in tokengate.__all__:
    obj = getattr(tokengate, name)
    if getattr(importlib.import_module(obj.__module__), name) is not obj:
        mismatched.append(name)
print(json.dumps({"mismatched": mismatched, "harness": tokengate.harness.__name__}))
"""
        )
        assert report == {"mismatched": [], "harness": "tokengate.harness"}

    def test_unknown_name_raises_attribute_error(self):
        assert not hasattr(tokengate, "no_such_name")
