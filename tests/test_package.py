import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest
import yaml

import holoseq

MODULES = sorted(m.name for m in pkgutil.iter_modules(holoseq.__path__, "holoseq."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry fails only on `import *`, so check each name here
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_matches_config_and_cli():
    # README's config example loads through the schema, and every `holoseq`
    # line of its CLI section parses, so neither drifts from the code
    from holoseq.cli import _build_parser
    from holoseq.config import config_from_dict

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```yaml\n(.*?)```", text, re.DOTALL)
    config_from_dict(yaml.safe_load(block))
    cli = text[text.index("## CLI"):text.index("### Configuration")]
    commands = [line for line in re.findall(r"```sh\n(.*?)```", cli, re.DOTALL)[0].splitlines()
                if line.startswith("holoseq ")]
    assert len(commands) == 5
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
