"""The README's checkpoint.json key table describes the format the code reads
and writes: the same keys, each with the same types and nullability."""

import re
from pathlib import Path

from twistnet.model import CHECKPOINT_FORMAT_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"
TYPE_WORDS = {"string": str, "integer": int, "object": dict, "list": list, "null": type(None)}


def checkpoint_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("**checkpoint.json.**", 1)[1].split("\n\n**", 1)[0]


def key_table(section: str) -> dict:
    """Key -> set of types, from the first markdown table in ``section``."""
    lines = section.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("|"))
    rows = {}
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        key, kind = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows[key.strip("`")] = {TYPE_WORDS[word] for word in kind.split(" or ")}
    return rows


def test_readme_checkpoint_table_matches_format():
    section = checkpoint_section()
    want = {key: set(kinds) if isinstance(kinds, tuple) else {kinds}
            for key, kinds in CHECKPOINT_FORMAT_KEYS.items()}
    assert key_table(section) == want
    count = re.search(r"exactly\s+these\s+(\d+)\s+keys", section)
    assert count and int(count.group(1)) == len(CHECKPOINT_FORMAT_KEYS)
