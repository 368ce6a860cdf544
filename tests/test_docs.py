"""The README keeps a hand-written copy of the config defaults; it must
stay what the program uses."""

import json
import re
from pathlib import Path

from twohead.experiment import ExperimentSpec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_block_matches_the_defaults():
    text = README.read_text()
    after = text[text.index("Config keys and defaults:"):]
    block = re.search(r"```json\n(.*?)```", after, re.S).group(1)
    assert json.loads(block) == ExperimentSpec.default_dict()
