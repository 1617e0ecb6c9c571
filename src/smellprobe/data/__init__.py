"""The packaged JSON tables: detector patterns, body banners and name dictionaries."""

import json
from pathlib import Path


def load_table(name: str) -> dict:
    with Path(__file__).with_name(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)
