"""What every text input shares: one file reader, the config line grammar,
finite numbers, top-level comma splitting and the ``name(arg, ...)``
descriptor grammar.  Each format keeps its own comment rule and record
shape; this module opens the file, numbers its lines and words every
``path: line N: ...`` message as a :class:`SpectralTransferError`.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager

from .errors import SpectralTransferError


class TextFile:
    """The lines of one UTF-8 text file, and errors that name it; an
    unreadable file raises ``cannot read <what> <path>: <reason>``."""

    def __init__(self, path, what: str):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.lines = fh.read().split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise SpectralTransferError(f"cannot read {what} {path}: {exc}") from None

    def fail(self, line: int | None, message: str, section: str | None = None):
        """The error naming the file and, when known, the line and section."""
        where = str(self.path) if line is None else f"{self.path}: line {line}"
        if section is not None:
            where += f": [{section}]"
        return SpectralTransferError(f"{where}: {message}")

    @contextmanager
    def at(self, line: int | None, section: str | None = None, prefix: str = ""):
        """Raise a ValueError or library error from the block as the error
        naming the line and section, its message after ``prefix``."""
        try:
            yield
        except (ValueError, SpectralTransferError) as exc:
            raise self.fail(line, f"{prefix}{exc}", section) from None

    def records(self, comment: str | None = "#"):
        """``(line number, fields)`` of every line with whitespace-separated
        fields left once ``comment`` and all after it are cut."""
        for lineno, raw in enumerate(self.lines, start=1):
            fields = (raw.split(comment, 1)[0] if comment else raw).split()
            if fields:
                yield lineno, fields


def config_entries(source: TextFile, sections: bool = False):
    """Yield ``(line, section, key, value)`` under the config line grammar.

    Lines are blank, ``#``/``;`` comments or unindented ``key = value``
    with a nonempty key (read in lower case) and a nonempty literal value;
    a key appears once per section.  With ``sections``, each ``[name]``
    header opens a new section and yields ``(line, name, None, None)``,
    and key lines need one before them; without, headers are errors.
    """
    section, seen = None, set()
    for lineno, line in enumerate(source.lines, start=1):
        text = line.strip()
        if not text or text[0] in "#;":
            continue
        key, sep, value = (part.strip() for part in text.partition("="))
        key = key.lower()
        header = text[0] == "[" and text[-1] == "]"
        if header and sections:
            section = text[1:-1].strip()
            if section in seen:
                raise source.fail(lineno, "duplicate section", section)
            seen.add(section)
            yield lineno, section, None, None
            continue
        if header:
            problem = "no [section] headers in a flat config"
        elif line[0].isspace():
            kind = "sectioned" if sections else "flat"
            problem = f"no indented or continuation lines in a {kind} config"
        elif not (sep and key and value):
            problem = "expected 'key = value'"
        elif sections and section is None:
            problem = "expected a [section] header first"
        elif (section, key) in seen:
            raise source.fail(lineno, f"duplicate key {key!r}", section)
        else:
            seen.add((section, key))
            yield lineno, section, key, value
            continue
        raise source.fail(lineno, f"{problem}, got {text!r}", section)


def finite_float(text: str) -> float:
    """``float(text)``, raising ValueError unless the number is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def split_top_level(text: str) -> list:
    """The stripped, nonempty parts of ``text`` between commas outside
    parentheses; unbalanced parentheses raise ValueError."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        cur.append(ch)
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


_DESCRIPTOR = re.compile(r"([a-z_-]+)\s*(?:\((.*)\))?")


def parse_descriptor(text: str) -> tuple:
    """The name and the top-level comma-separated arguments of
    ``name(arg, ...)`` or a bare ``name``, the name in lower case letters,
    ``_`` and ``-``; anything else raises an error naming ``text``."""
    match = _DESCRIPTOR.fullmatch(text.strip())
    try:
        if match is None:
            raise ValueError("expected name(arg, ...)")
        return match.group(1), split_top_level(match.group(2) or "")
    except ValueError as exc:
        raise SpectralTransferError(f"cannot parse descriptor {text.strip()!r}: {exc}") from None
