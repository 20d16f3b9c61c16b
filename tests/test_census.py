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
