"""Every deterministic CLI output against the committed golden tree.

``tools/cli_outputs.py`` writes the outputs of a fixed list of commands; the
tree it wrote is committed under ``tests/golden/cli_outputs`` with the numpy
version it ran with.  A change that moves an output on purpose regenerates
the tree in the same commit (see the script's docstring), so the move shows
in the diff.
"""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _cli_outputs():
    spec = importlib.util.spec_from_file_location(
        "cli_outputs", ROOT / "tools" / "cli_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _files(top: Path) -> dict:
    return {path.relative_to(top): path for path in top.rglob("*") if path.is_file()}


def _first_difference(want: bytes, got: bytes) -> str:
    want_lines = want.decode(errors="replace").splitlines()
    got_lines = got.decode(errors="replace").splitlines()
    for i, (a, b) in enumerate(zip(want_lines, got_lines)):
        if a != b:
            return f"line {i + 1}: golden {a!r}, now {b!r}"
    i = min(len(want_lines), len(got_lines))
    if len(want_lines) != len(got_lines):
        return (f"line {i + 1}: golden has {len(want_lines)} lines, "
                f"now {len(got_lines)}")
    return "same lines, different line endings"


def test_cli_outputs_match_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)     # the script changes into its output tree
    _cli_outputs().main(tmp_path / "out")
    golden, now = _files(GOLDEN / "cli_outputs"), _files(tmp_path / "out")
    problems = []
    for rel in sorted(golden.keys() | now.keys()):
        if rel not in now:
            problems.append(f"{rel}: not written any more")
        elif rel not in golden:
            problems.append(f"{rel}: not in the golden tree")
        elif golden[rel].read_bytes() != now[rel].read_bytes():
            problems.append(f"{rel}: " + _first_difference(
                golden[rel].read_bytes(), now[rel].read_bytes()))
    recorded = (GOLDEN / "NUMPY_VERSION").read_text().strip()
    assert not problems, (
        f"golden tree written with numpy {recorded}, this run has numpy "
        f"{np.__version__}; differing files:\n" + "\n".join(problems))
