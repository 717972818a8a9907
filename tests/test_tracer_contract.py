"""The benchmark's tracer still finds every name it rebinds.

``perfbench/tracer.py`` measures by rebinding module attributes of
``hygrad``; a renamed or deleted name would only show in a traced benchmark
run. This runs the tracer, unmodified, over a small decay and compare run in
a child interpreter and checks the per-layer counts it yields.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hygrad as hg

ROOT = Path(__file__).resolve().parent.parent

CHILD = r"""
import importlib.util, json, sys
from pathlib import Path

from hygrad.cli import cli_main

root, work = Path(sys.argv[1]), Path(sys.argv[2])
spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
tracer_mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_mod)

decay = ["decay", "--problem", "ridge", "--train", str(work / "train.libsvm"),
         "--val", str(work / "val.libsvm"), "--strategies",
         "vanilla,newton,diag,exp,diag-rep,opt", "--steps", "3", "--seed", "4"]
compare = ["compare", "--problem", "ridge", "--train", str(work / "train.libsvm"),
           "--val", str(work / "val.libsvm"), "--reparam", "opt", "--trials", "1",
           "--seed", "4"]
codes = [cli_main(decay + ["--out", str(work / "plain.csv")])]
tracer = tracer_mod.Tracer()
tracer_mod.instrument(tracer)
codes.append(cli_main(decay + ["--out", str(work / "traced.csv")]))
codes.append(cli_main(compare + ["--out", str(work / "cmp.csv")]))
tracer.dump(str(work / "spans.json"))
print(json.dumps({"codes": codes,
                  "metrics": tracer_mod.layer_metrics(str(work / "spans.json"))}))
"""


def test_tracer_rebinds_every_name_it_measures(tmp_path):
    train = hg.synthetic_regression_dataset(40, 4, seed=1)
    val = hg.synthetic_validation_dataset(30, 4, seed=2)
    (tmp_path / "train.libsvm").write_text(hg.serialize_libsvm(train))
    (tmp_path / "val.libsvm").write_text(hg.serialize_libsvm(val))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(ROOT), str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    metrics = result["metrics"]
    # Three steps make two blocks, the start and steps 1-3: one call each.
    for strategy in hg.STRATEGIES:
        assert metrics[f"estimators.{strategy}.calls"] == 2, strategy
    assert metrics["linalg.lu_factor.calls"] > 0
    assert metrics["efficiency.compare_trial.s"] > 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
