"""The README keeps hand-written copies of the config defaults and of the
trace columns; they must stay what the program uses."""

import json
import re
from dataclasses import fields
from pathlib import Path

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
