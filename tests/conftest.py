import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from crossdock_sim import ModelConfig

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "paper-base.json"


@pytest.fixture(scope="session")
def paper_config() -> ModelConfig:
    return ModelConfig.from_dict(json.loads(CONFIG_PATH.read_text()))


@pytest.fixture(scope="session")
def fast_config(paper_config) -> ModelConfig:
    """Paper config at a 48-hour horizon: same structure, ~10x faster."""
    return replace(paper_config, horizon=2880.0)


@pytest.fixture(scope="session")
def with_field():
    """`with_field(data, path, value)`: a deep copy of the config dict `data`
    with the field at the dotted `path` set to `value`."""

    def set_copy(data: dict, path: str, value) -> dict:
        data = copy.deepcopy(data)
        *parents, leaf = path.split(".")
        node = data
        for key in parents:
            node = node[key]
        node[leaf] = value
        return data

    return set_copy
