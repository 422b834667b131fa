"""Line reader shared by the scenario config, ledger file and chip fixture:
`#` starts a comment anywhere on a line, blank lines are skipped, and each
error is a ConfigInvalid that names its line or opens with the caller's
`where`."""

from __future__ import annotations

from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

from .errors import ConfigInvalid, NumberInvalid, _read_integer


def _read_text(path) -> str:
    """A file's UTF-8 text; a byte that does not decode names its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; count their lines
        line_no = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigInvalid(f"line {line_no}: byte 0x{data[exc.start]:02x} "
                            f"is not UTF-8 text") from None


def _numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line not blank once its comment is cut."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _read_sections(text: str,
                   names: Sequence[str]) -> dict[str, list[tuple[int, str]]]:
    """Group the numbered lines of a config by [section]."""
    sections: dict[str, list[tuple[int, str]]] = {name: [] for name in names}
    section = None
    for line_no, line in _numbered_lines(text):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise ConfigInvalid(
                    f"line {line_no}: unknown section [{section}]")
        elif section is None:
            raise ConfigInvalid(
                f"line {line_no}: content before any [section] header")
        else:
            sections[section].append((line_no, line))
    return sections


def _read_fields(lines: Iterable[tuple[int, str]],
                 keys: Container[str]) -> dict[str, tuple[int, str]]:
    """`key = value` lines as key -> (line number, value), each key once."""
    fields: dict[str, tuple[int, str]] = {}
    for line_no, line in lines:
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ConfigInvalid(f"line {line_no}: expected key = value")
        if key not in keys:
            raise ConfigInvalid(f"line {line_no}: unknown key {key!r}")
        if key in fields:
            raise ConfigInvalid(f"line {line_no}: duplicate key {key!r} "
                                f"(first on line {fields[key][0]})")
        fields[key] = (line_no, value)
    return fields


def _split_options(parts: Sequence[str], where: str,
                   keys: Container[str]) -> dict[str, str]:
    """`key=value` words as a dict, each key known and given once."""
    options = {}
    for part in parts:
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigInvalid(f"{where}: expected key=value, got {part!r}")
        if not key or not value:
            raise ConfigInvalid(f"{where}: malformed option {part!r}")
        if key not in keys:
            raise ConfigInvalid(f"{where}: unknown option {key!r}")
        if key in options:
            raise ConfigInvalid(f"{where}: duplicate option {key!r}")
        options[key] = value
    return options


def _parse_number(raw: str, where: str, kind: type = int):
    try:
        return _read_integer(raw) if kind is int else kind(raw)
    except NumberInvalid as exc:
        raise ConfigInvalid(f"{where}: {exc}") from None
    except ValueError:
        expected = "integer" if kind is int else "number"
        raise ConfigInvalid(f"{where}: expected {expected}, got {raw!r}") from None
