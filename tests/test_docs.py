"""The README keeps hand-written copies of the config defaults and of the
trace columns, and names the functions it explains; they must stay what
the program uses."""

import importlib
import json
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import twohead
from twohead.experiment import ExperimentSpec
from twohead.trainer import TraceRow

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_matches_the_defaults():
    text = README.read_text()
    after = text[text.index("Config keys and defaults:"):]
    block = re.search(r"```json\n(.*?)```", after, re.S).group(1)
    assert json.loads(block) == ExperimentSpec.default_dict()


def test_readme_training_record_names_the_trace_columns_in_order():
    """The names before the colon of each "Training record" bullet, read
    in order, are the TraceRow fields, the columns of loss_trace.csv."""
    text = README.read_text()
    after = text[text.index("**Training record.**"):]
    bullets = re.search(r"^\* .*?(?=\n\n)", after, re.S | re.M).group(0)
    names = [name for item in bullets.split("\n* ")
             for name in re.findall(r"`(\w+)`", item.split(":", 1)[0])]
    assert names == [f.name for f in fields(TraceRow)]


def test_readme_calls_name_what_the_package_defines():
    """Every backticked call in the README, ``name(`` or ``a.name(``, names
    an attribute of ``twohead`` or of one of its modules, so the prose
    cannot keep a function that was renamed or deleted."""
    modules = [twohead] + [importlib.import_module(f"twohead.{info.name}")
                           for info in pkgutil.iter_modules(twohead.__path__)
                           if not info.name.startswith("_")]
    calls = set(re.findall(r"`(?:\w+\.)*(\w+)\(", README.read_text()))
    assert calls
    assert sorted(name for name in calls
                  if not any(hasattr(module, name) for module in modules)) == []
