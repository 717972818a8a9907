"""The fixed-output gate's baseline table matches its invocation list."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fixed_outputs.py"


def test_baseline_names_every_invocation_file_once():
    spec = importlib.util.spec_from_file_location("fixed_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    want = [f"{name} {kind}" for name, _, svg in tool.invocations()
            for kind in (("csv", "svg") if svg else ("csv",))]
    got = [line.rsplit(" ", 1)[0]
           for line in tool.BASELINE.read_text().splitlines() if line.strip()]
    assert len(want) == 23
    assert sorted(got) == sorted(want)
