"""The settable-value census: parameters with defaults plus dataclass fields
with defaults."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

SOURCE = '''
import dataclasses
from dataclasses import dataclass

LIMIT = 2.0                           # a constant: not counted


def f(a, b=1, *args, c, d=2, **kw):   # b and d
    return lambda x, y=3: x + y       # y


class Plain:
    speed: float = 7.0                # not a dataclass: not counted

    def __init__(self, k=0.4):        # k
        pass


@dataclass(frozen=True)
class Config:
    tick_hz: float = 50.0             # counted
    name: str                         # no default: not counted
    rate = 1.0                        # not a field: not counted


@dataclasses.dataclass
class Other:
    n: int = 1                        # counted
'''


def test_census_counts_defaulted_parameters_and_dataclass_fields():
    assert census.census(SOURCE) == 6


# the settable values of each module of src/gatesim (86 in all); a change that
# adds one must raise its module's limit here, in view, and a new module starts
# at 0
LIMITS = {
    "__init__.py": 0, "cli.py": 4, "dynamics.py": 2, "edits.py": 8, "geometry.py": 5,
    "policies.py": 8, "refinement.py": 19, "render.py": 13, "scene.py": 8,
    "simulator.py": 11, "tracks.py": 8,
}


def test_no_module_gains_a_settable_value():
    src = _PATH.parent.parent / "src" / "gatesim"
    counts = {path.name: census.census(path.read_text()) for path in sorted(src.glob("*.py"))}
    over = {name: (n, LIMITS.get(name, 0)) for name, n in counts.items()
            if n > LIMITS.get(name, 0)}
    assert not over, f"settable values (count, limit) above the limit: {over}"
