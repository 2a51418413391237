"""The README describes the commands and the formats the code reads and
writes: the command-line synopsis lists each subcommand's options; the
checkpoint.json key table has the same keys, types and nullability; the
run-config table lists exactly the optional top-level keys and names each
section's fields with their defaults; the
layer-entry paragraph names every stored array and the layers that store
none; the layer contract quotes the one signature of every layer's
``backward``. Its Python quick start runs and prints the accuracy it claims."""

import argparse
import inspect
import json
import re
from functools import partial
from dataclasses import fields
from pathlib import Path

import pytest

from twistnet.cli import _TOP_FIELDS, build_parser
from twistnet.featcomb import CombinationSpec
from twistnet.layers import LAYER_TYPES
from twistnet.model import CHECKPOINT_FORMAT_KEYS
from twistnet.train import TrainConfig

README = Path(__file__).resolve().parent.parent / "README.md"
TYPE_WORDS = {"string": str, "integer": int, "object": dict, "list": list, "null": type(None)}


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"**{title}**", 1)[1].split("\n\n**", 1)[0]


def table_rows(text: str) -> dict:
    """Key -> its row's cells after the key, from the first markdown table in ``text``."""
    lines = text.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("|"))
    rows = {}
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        key, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = cells
    return rows


def test_readme_cli_synopsis_lists_every_option():
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    listed = {}
    for line in block.splitlines():
        if line.startswith("twistnet "):
            command = line.split()[1]
            assert command not in listed, f"{command} is listed twice"
            listed[command] = set(re.findall(r"--[\w-]+", line))
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {name: {opt for action in sub._actions for opt in action.option_strings}
               - {"-h", "--help"} for name, sub in subparsers.choices.items()}
    assert listed == defined


def test_readme_checkpoint_table_matches_format():
    text = section("checkpoint.json.")
    want = {key: set(kinds) if isinstance(kinds, tuple) else {kinds}
            for key, kinds in CHECKPOINT_FORMAT_KEYS.items()}
    got = {key: {TYPE_WORDS[word] for word in cells[0].split(" or ")}
           for key, cells in table_rows(text).items()}
    assert got == want
    count = re.search(r"exactly\s+these\s+(\d+)\s+keys", text)
    assert count and int(count.group(1)) == len(CHECKPOINT_FORMAT_KEYS)


def test_readme_run_config_table_lists_the_optional_keys():
    rows = table_rows(section("Run config (JSON)."))
    assert set(rows) == set(_TOP_FIELDS) - {"dataset", "label_column"}


@pytest.mark.parametrize("key, cls", [("combination", CombinationSpec), ("train", TrainConfig)])
def test_readme_run_config_table_matches_sections(key, cls):
    # the cell reads "`name` default, `name` default, ...", then optional remarks after ";"
    meaning = table_rows(section("Run config (JSON)."))[key][1]
    listed = dict(re.fullmatch(r"`(\w+)` `?([^`]*)`?", item).groups()
                  for item in meaning.split(";")[0].split(", "))
    want = {f.name: f.default for f in fields(cls) if f.name != "seed"}
    assert {name: json.loads(value) for name, value in listed.items()} == want


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8").split("## Quick start (Python)", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README quick start", "exec"), {})
    assert float(capsys.readouterr().out.split()[-1]) >= 0.93


def test_readme_layer_entry_paragraph_names_every_array():
    text = section("checkpoint.json.")
    paragraph = " ".join(text[text.index("A layer entry is"):].split("\n\n", 1)[0].split())
    assert paragraph.startswith("A layer entry is its `type` and `shape`/`values`")
    # the code spans after the colon read "`name (dims)`" or "`name`"
    spans = re.findall(r"`([^`]+)`", paragraph.split("across a layer's arrays:", 1)[1])
    named = {m.group(0) for span in spans if (m := re.match(r"\w+", span))}
    assert named == {name for cls in LAYER_TYPES.values() for name in cls.arrays}
    bare = sorted(kind for kind, cls in LAYER_TYPES.items() if not cls.arrays)
    assert bare == ["dropout", "relu"]
    assert "relu and dropout entries store none" in paragraph


def test_readme_quotes_the_layer_backward_signature():
    text = README.read_text(encoding="utf-8").split("## Parameters and training", 1)[1]
    quoted = re.search(r"Each layer's\s+`backward(\([^`]*\))`", text).group(1)
    # bound to a stand-in self, so the signature reads as a call site does
    signatures = {kind: str(inspect.signature(partial(cls.backward, None)))
                  for kind, cls in LAYER_TYPES.items()}
    assert signatures == {kind: quoted for kind in LAYER_TYPES}
    assert quoted == "(cache, upstream, out, input_grad)"
