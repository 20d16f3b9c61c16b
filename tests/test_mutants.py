"""The mutation list of tools/mutants.py: each mutant applies to today's
source exactly once."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_applies_exactly_once():
    assert mutants.check(mutants.MUTANTS) == []


def test_a_mutant_whose_text_is_missing_or_repeated_is_refused():
    file = mutants.DYNAMICS
    absent = mutants.Mutant(file, "this text is in no source file", "x", "absent")
    repeated = mutants.Mutant(file, "isfinite", "x", "repeated")
    unchanged = mutants.Mutant(file, "if pin2 == pin1:", "if pin2 == pin1:", "unchanged")
    problems = mutants.check([absent, repeated, unchanged])
    assert problems[0] == f"mutant 1 (absent): its old text occurs 0 times in {file}"
    assert problems[1].startswith("mutant 2 (repeated): its old text occurs ")
    assert problems[2] == "mutant 3 (unchanged): its new text is its old text"
    assert len(problems) == 3
