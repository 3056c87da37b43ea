"""Deterministic CSV/JSON emission shared by the report types and the CLI.

CSV floats use %.17g (round-trip exact); JSON uses Python's shortest
round-trip repr under sorted keys.  Identical inputs produce byte-identical
files, which the output-hashing in the CLI depends on.

CSV is formatted a column at a time.  A column of floats formats each
distinct value once, in one %.17g operation, and maps the texts back to its
cells; a column of str is searched for quote characters once.
"""

from __future__ import annotations

import hashlib
import json
import re

_FLOAT_FORMAT = "%.17g"
# A CSV field holding any of these is quoted, with its quotes doubled
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def fmt_float(x: float) -> str:
    """Round-trip decimal form for CSV cells."""
    return _FLOAT_FORMAT % x


def _field(v) -> str:
    """One CSV field: None is empty, floats via fmt_float, anything else str()."""
    if v is None:
        return ""
    text = fmt_float(v) if isinstance(v, float) else v if isinstance(v, str) else str(v)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column(cells: tuple) -> list[str]:
    """The fields of one column."""
    types = set(map(type, cells))
    if all(issubclass(t, float) for t in types):
        distinct = tuple(dict.fromkeys(cells))
        texts = dict(zip(distinct, ((_FLOAT_FORMAT + "\n") * len(distinct) % distinct).split("\n")))
        fields = list(map(texts.__getitem__, cells))
        if 0.0 in texts:
            # 0.0 and -0.0 are one key but two texts
            fields = [fmt_float(x) if x == 0.0 else t for x, t in zip(cells, fields)]
        return fields
    if types == {str} and _NEEDS_QUOTES.search("".join(cells)) is None:
        return list(cells)
    return list(map(_field, cells))


def _line(fields) -> str:
    # a lone empty field is quoted, so the line does not read as a row of no
    # fields
    return '""' if len(fields) == 1 and not fields[0] else ",".join(fields)


def csv_text(header: list[str], rows: list[list]) -> str:
    """RFC-4180 CSV (CRLF line endings, minimal quoting); floats via fmt_float.

    The bytes are those of csv.writer with lineterminator="\\r\\n".  Rows are
    formatted a column at a time, so they must all have one length.
    """
    columns = [_column(cells) for cells in zip(*rows, strict=True)]
    body = zip(*columns) if columns else [()] * len(rows)
    lines = [_line([_field(v) for v in header]), *map(_line, body)]
    return "\r\n".join(lines) + "\r\n"


def json_text(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def config_hash(obj) -> str:
    """Short stable digest of a JSON-serializable config, for file names."""
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
