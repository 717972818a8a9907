"""The fixed-output gate: its baseline table and, in-process, its digests."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hygrad.cli import cli_main

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fixed_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("fixed_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_baseline_names_every_invocation_file_once(tool):
    want = [f"{name} {kind}" for name, _, svg in tool.invocations()
            for kind in (("csv", "svg") if svg else ("csv",))]
    got = [line.rsplit(" ", 1)[0]
           for line in tool.BASELINE.read_text().splitlines() if line.strip()]
    assert len(want) == 23
    assert sorted(got) == sorted(want)


def test_every_invocation_reproduces_its_baseline_digests(tool, tmp_path,
                                                          monkeypatch):
    """Every fixed invocation, run through cli_main in this process, writes
    the bytes recorded in the baseline. ``tools/fixed_outputs.py check``
    stays the authoritative run: a fresh interpreter per invocation, with
    BLAS threads pinned."""
    monkeypatch.setattr(sys, "path", list(sys.path))   # write_datasets adds src
    tool.write_datasets(tmp_path)
    monkeypatch.chdir(tmp_path)
    baseline = dict(line.rsplit(" ", 1)
                    for line in tool.BASELINE.read_text().splitlines() if line.strip())
    differ = []
    for name, args, svg in tool.invocations():
        argv, files = tool.command_line(name, args, svg)
        assert cli_main(argv) == 0, name
        for kind, path in files:
            digest = hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
            if digest != baseline[f"{name} {kind}"]:
                differ.append(f"{name} {kind}")
    assert not differ, f"outputs differ from the baseline: {', '.join(differ)}"
