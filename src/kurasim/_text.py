"""The one format of every text artifact: ASCII, a header line, then rows of
shortest round-trip decimals (repr of a Python float, so artifacts are
byte-comparable) joined by one separator; JSON sidecars and manifests are
written with sorted keys and a 2-space indent."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# values formatted at a time: bounds the Python objects and text held in memory
BLOCK_VALUES = 1 << 16


def fmt(x) -> str:
    return repr(float(x))


def ensure_parent(path: str | Path) -> Path:
    """path, its directory made if missing: a run's --out comes with its first artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def write_table(path: str | Path, header: str | None, table, sep: str = ",") -> Path:
    """Write the header line, then the rows of a 2-d array, a block at a time.

    With header None the rows are appended to the file. %r formats a Python
    float as its repr and a Python int as %d, which tolist() makes of a
    float or an int array.
    """
    path = ensure_parent(path)
    table = np.asarray(table)
    rows, width = table.shape
    step = max(1, BLOCK_VALUES // width)
    template = sep.join(["%r"] * width) + "\n"
    with path.open("a" if header is None else "w", encoding="ascii") as fh:
        if header is not None:
            fh.write(header + "\n")
        for lo in range(0, rows, step):
            block = table[lo:lo + step]
            fh.write(template * len(block) % tuple(block.ravel().tolist()))
    return path


def read_table(path: str | Path) -> tuple[str, np.ndarray]:
    """Header ("" if none) and float rows of a CSV, converted a row at a time."""
    with Path(path).open(encoding="ascii") as fh:
        header = next(fh, "").rstrip("\n")
        width = len(header.split(","))
        rows = []
        for i, ln in enumerate(fh):
            row = ln.rstrip("\n").split(",")
            if len(row) != width:
                raise ValueError(f"row {i} of {path} has {len(row)} fields, expected {width}")
            rows.append(np.array(row, dtype=float))
    return header, np.array(rows).reshape(len(rows), width)


def write_json(path: str | Path, obj) -> Path:
    path = ensure_parent(path)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="ascii")
    return path


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="ascii"))
