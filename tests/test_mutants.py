"""The mutant list of tools/mutants.py stays applicable: each mutant's line
occurs exactly once in its file, and each test it names exists.  Running
the mutants is left to the tool itself."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()
IDS = [f"{i}-{Path(m.file).stem}" for i, m in enumerate(TOOL.MUTANTS)]


@pytest.mark.parametrize("mutant", TOOL.MUTANTS, ids=IDS)
def test_mutant_applies_once(tmp_path, mutant):
    copy = tmp_path / mutant.file
    copy.parent.mkdir(parents=True)
    copy.write_text((ROOT / mutant.file).read_text())
    TOOL.apply(mutant, tmp_path)
    assert copy.read_text() != (ROOT / mutant.file).read_text()


@pytest.mark.parametrize("mutant", TOOL.MUTANTS, ids=IDS)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        text = (ROOT / path).read_text()
        assert re.search(rf"^class {names[0]}\b", text, re.M), node
        assert re.search(rf"^    def {names[-1]}\(", text, re.M), node
