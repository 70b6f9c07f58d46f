"""The one writer of result CSVs and their ``.meta.json`` sidecars."""

from __future__ import annotations

import json


def write_csv(path, header: str, rows, meta: dict) -> None:
    """Write ``header`` then one line per row, each cell as ``repr`` (strings as
    they are), and ``meta`` as sorted, indented JSON to ``<path>.meta.json``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else repr(c) for c in row) + "\n")
    with open(f"{path}.meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
