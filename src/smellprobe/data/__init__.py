"""The packaged JSON tables: detector patterns, body banners and name dictionaries."""

import json
from importlib import resources


def load_table(name: str) -> dict:
    with resources.files(__name__).joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)
