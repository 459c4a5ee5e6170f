"""Reader and writer for semicolon-delimited `.pb` budgeting files.

The format has three sections, each introduced by a bare header line::

    META
    key;value
    budget;1000
    ...
    PROJECTS
    project_id;cost;...
    p1;100;...
    VOTES
    voter_id;vote;...
    v1;p1,p2;...

Lines end at LF, CRLF or CR, and at none of the other line boundaries of
`str.splitlines`, which a cell may hold.  Only approval ballots are
supported: the ``vote`` column holds a comma-separated list of project
ids.  Extra columns are checked for their cell count and then ignored;
`write_pb` writes only ``project_id;cost`` and ``voter_id;vote``, so they
do not survive a parse/write cycle.  `parse_pb` also returns the META
section as a mapping, unknown keys included.  All failures raise
:class:`PabulibParseError` with a line number; the parser never leaks a
bare exception on malformed input.

One reader, `_table`, splits every PROJECTS or VOTES row at ``;`` in one
pass, checks each row's cell count against the header's and then the
needed columns; only the cells that are read are stripped.  A project id
must be non-empty and hold no ``,``, or no vote could name it, and
`write_pb` refuses such an id too.  A vote is the set of its
comma-separated ids, each stripped, with empty ones dropped.  The profile
keeps each vote as a project bitmask, bit k standing for the k-th project
row (`core.ApprovalProfile.from_masks`).  Each distinct vote cell is read
once, in the order of first appearance, into one mask that every row with
that cell shares: the sum of its ids' bits, an unknown id adding none.  A
cell whose mask has one bit per id, as written, is that vote already, since
project ids are stripped and non-empty; an unknown, blank or repeated id
leaves fewer bits.  Only such a cell is stripped, and if an id is still
unknown, the first one of the first row with that cell is reported.  A
table's errors come in a fixed order: every row's cell count, the needed
columns, each row's cells in turn (a project's id and cost, a vote's ids),
then the table's distinct project ids and its row count.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Mapping, Optional, Sequence

from .core import ApprovalProfile, PBInstance, Project

REQUIRED_META = ("budget", "num_projects", "num_votes")


class PabulibParseError(ValueError):
    """Malformed `.pb` content; carries the offending line number."""

    def __init__(self, line: Optional[int], message: str):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


def _decimal_fraction(text: str, line: Optional[int], what: str) -> Fraction:
    """An exact value written as a finite decimal, as `write_pb` writes it:
    an ASCII sign, digits, point and exponent of at most three digits (which
    `Fraction` expands into an integer), and nothing else."""
    if "/" in text:
        raise PabulibParseError(
            line, f"{what} must be a finite decimal, got {text!r}")
    if (not text.strip("+-.0123456789eE")  # no other character
            and len(text.lower().partition("e")[2].lstrip("+-")) <= 3):
        try:
            return Fraction(text)
        except ValueError:
            pass
    raise PabulibParseError(line, f"malformed decimal {text!r} for {what}")


def _count(text: str, key: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise PabulibParseError(
            line, f"{key} must be an integer, got {text!r}") from None


def _cell_fault(text: str, project_id: bool = False) -> Optional[str]:
    """Why `text` would not read back unchanged from the cell it is written
    to, or None: `parse_pb` strips each cell, splits the text into lines at
    line breaks, a row at ``;`` and a vote at ``,``, and drops empty vote
    ids, so that a project id must also be non-empty and hold no ``,``."""
    if project_id and not text:
        return "it is empty"
    if text != text.strip():
        return "it has surrounding whitespace"
    breaks = ";\n\r," if project_id else ";\n\r"
    return next((f"it holds {c!r}" for c in breaks if c in text), None)


# A section: its header's line number, its rows' line numbers and its rows
_Section = tuple[int, Sequence[int], Sequence[str]]


def _split_sections(text: str) -> dict[str, _Section]:
    # lines end at \n, \r\n or \r only: `str.splitlines` also breaks at
    # \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029, which a cell may hold
    if "\r" in text:  # the replaces copy the text
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # what follows the last line break is no line
    starts = {name: lines.index(name) for name in ("META", "PROJECTS", "VOTES")
              if name in lines}
    for lineno, line in enumerate(lines[:min(starts.values(), default=None)],
                                  start=1):
        if line.strip():
            raise PabulibParseError(lineno, "content before any section header")
    twice = sorted((lines.index(name, start + 1), name)
                   for name, start in starts.items() if lines.count(name) > 1)
    if twice:  # the first repeated header
        index, name = twice[0]
        raise PabulibParseError(index + 1, f"duplicate section {name}")
    for name in ("META", "PROJECTS", "VOTES"):
        if name not in starts:
            raise PabulibParseError(None, f"missing section {name}")
    sections = {}
    for name, start in starts.items():
        end = min((s for s in starts.values() if s > start),
                  default=len(lines))
        linenos, rows = range(start + 2, end + 1), lines[start + 1:end]
        if not all(map(str.strip, rows)):  # drop the blank lines
            kept = [i for i, row in enumerate(rows) if row.strip()]
            linenos, rows = [linenos[i] for i in kept], [rows[i] for i in kept]
        sections[name] = (start + 1, linenos, rows)
    return sections


def _table(section: _Section, name: str, needed: tuple[str, ...]
           ) -> tuple[list[int], Sequence[int], list[list[str]]]:
    """The PROJECTS or VOTES rows below the header row: the indices of the
    `needed` columns, the rows' line numbers and their cells, split at
    ``;`` as written.  Raises on the first row whose cell count is not the
    header's, and then on the first needed column the header lacks."""
    _, linenos, rows = section
    if not rows:
        raise PabulibParseError(None, f"section {name} has no header row")
    header_line, linenos = linenos[0], linenos[1:]
    columns = [h.strip() for h in rows[0].split(";")]
    split = [row.split(";") for row in rows[1:]]
    if any(map(len(columns).__ne__, map(len, split))):
        lineno, cells = next((lineno, cells)
                             for lineno, cells in zip(linenos, split)
                             if len(cells) != len(columns))
        raise PabulibParseError(
            lineno, f"{name} row has {len(cells)} cells, "
            f"header (line {header_line}) has {len(columns)}")
    for column in needed:
        if column not in columns:
            raise PabulibParseError(
                None, f"{name} is missing column {column!r}")
    return list(map(columns.index, needed)), linenos, split


def _parse_votes(section: _Section, ids: tuple[str, ...]) -> list[int]:
    """The ballots of the VOTES rows as project bitmasks, bit k standing
    for ids[k], checked by `_table` and then for their ids."""
    (_, vote_col), linenos, rows = _table(section, "VOTES",
                                          ("voter_id", "vote"))
    cells = [row[vote_col] for row in rows]
    distinct = list(dict.fromkeys(cells))  # in the order of first appearance
    names = list(map(str.split, distinct, repeat(",")))
    bit = {pid: 1 << k for k, pid in enumerate(ids)}
    # the sum of each cell's bits, bit.get(name, 0) for each name; an
    # unknown id adds no bit and a repeated one carries, so either leaves
    # fewer bits than names
    get, zeros = bit.get, repeat(0)
    masks = [sum(map(get, ns, zeros)) for ns in names]
    if list(map(int.bit_count, masks)) != list(map(len, names)):
        for k, cell in enumerate(distinct):
            if masks[k].bit_count() == len(names[k]):
                continue
            stripped = [pid for pid in map(str.strip, names[k]) if pid]
            pid = next((pid for pid in stripped if pid not in bit), None)
            if pid is not None:
                raise PabulibParseError(
                    linenos[cells.index(cell)],
                    f"vote references unknown project id {pid!r}")
            masks[k] = sum(map(bit.__getitem__, set(stripped)))
    return list(map(dict(zip(distinct, masks)).__getitem__, cells))


def parse_pb(text: str) -> tuple[PBInstance, ApprovalProfile, dict[str, str]]:
    """Parse `.pb` content into the domain model plus its META mapping."""
    sections = _split_sections(text)

    meta: dict[str, str] = {}
    meta_line: dict[str, int] = {}
    _, linenos, rows = sections["META"]
    for lineno, line in zip(linenos, rows):
        parts = line.split(";")
        if len(parts) != 2:
            raise PabulibParseError(lineno, f"META row needs key;value, got {line!r}")
        key, value = parts[0].strip(), parts[1].strip()
        if key == "key" and value == "value" and not meta:
            continue  # optional header row
        if key in meta_line:
            raise PabulibParseError(lineno, f"duplicate meta key {key!r}")
        meta_line[key] = lineno
        meta[key] = value

    for key in REQUIRED_META:
        if key not in meta:
            raise PabulibParseError(None, f"META is missing required key {key!r}")
    vote_type = meta.get("vote_type", "approval")
    if vote_type != "approval":
        raise PabulibParseError(
            None, f"unsupported vote_type {vote_type!r}: only approval "
            "ballots are supported")
    budget = _decimal_fraction(meta["budget"], meta_line["budget"],
                               "budget")
    if budget <= 0:
        raise PabulibParseError(None, f"budget must be positive, got {budget}")
    num_projects, num_votes = (_count(meta[key], key, meta_line[key])
                               for key in ("num_projects", "num_votes"))

    (id_col, cost_col), linenos, rows = _table(
        sections["PROJECTS"], "PROJECTS", ("project_id", "cost"))
    projects = []
    for lineno, cells in zip(linenos, rows):
        pid, cost_text = cells[id_col].strip(), cells[cost_col].strip()
        reason = _cell_fault(pid, project_id=True)
        if reason:  # no vote could name the project
            raise PabulibParseError(
                lineno, f"project id {pid!r} cannot be voted for: {reason}")
        cost = _decimal_fraction(cost_text, lineno, f"project {pid!r}")
        if cost <= 0:
            raise PabulibParseError(
                lineno, f"project {pid!r} has non-positive cost {cost_text}")
        projects.append(Project(pid, cost))
    if not projects:
        raise PabulibParseError(sections["PROJECTS"][0],
                                "PROJECTS has no project rows")
    ids = tuple(p.id for p in projects)
    if len(set(ids)) != len(ids):
        raise PabulibParseError(None, "duplicate project ids in PROJECTS")
    if num_projects != len(projects):
        raise PabulibParseError(
            None, f"num_projects={meta['num_projects']} but "
            f"PROJECTS has {len(projects)} rows")

    voters = _parse_votes(sections["VOTES"], ids)
    if num_votes != len(voters):
        raise PabulibParseError(
            None, f"num_votes={meta['num_votes']} but VOTES has "
            f"{len(voters)} rows")

    return (PBInstance(tuple(projects), budget),
            ApprovalProfile.from_masks(ids, voters), meta)


def format_decimal(value: Fraction) -> str:
    """Shortest exact decimal representation of a rational.

    Raises ValueError when the value has no finite decimal expansion.
    """
    value = Fraction(value)
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        raise ValueError(f"{value} has no finite decimal representation")
    places = max(twos, fives)
    scaled = value.numerator * 10 ** places // value.denominator
    if places == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _cell(text: str, what: str, project_id: bool = False) -> str:
    """`text`, checked by `_cell_fault` to read back unchanged."""
    reason = _cell_fault(text, project_id)
    if reason:
        raise ValueError(f"{what} {text!r} cannot be written to a .pb file: "
                         f"{reason}")
    return text


def write_pb(instance: PBInstance, profile: ApprovalProfile,
             meta: Optional[Mapping[str, str]] = None) -> str:
    """Serialize an instance/profile pair to `.pb` text.

    The required meta keys (budget, num_projects, num_votes, vote_type) are
    derived from the data; supplying a conflicting value is an error.  Extra
    meta keys are written after the derived ones, in the given order.  A
    project id, meta key or meta value that `parse_pb` would not read back
    unchanged raises ValueError naming it.
    """
    derived = {
        "budget": format_decimal(instance.budget),
        "num_projects": str(len(instance.projects)),
        "num_votes": str(profile.n_voters),
        "vote_type": "approval",
    }
    extra = []
    for key, value in (meta or {}).items():
        if key in derived:
            if str(value) != derived[key]:
                raise ValueError(
                    f"meta key {key!r} is derived from the data "
                    f"({derived[key]}); conflicting value {value!r}")
            continue
        extra.append((_cell(str(key), "meta key"),
                      _cell(str(value), f"meta {key!r} value")))
    for p in instance.projects:
        _cell(p.id, "project id", project_id=True)
    profile.validate(instance)

    lines = ["META", "key;value"]
    lines += [f"{k};{v}" for k, v in derived.items()]
    lines += [f"{k};{v}" for k, v in extra]
    lines.append("PROJECTS")
    lines.append("project_id;cost")
    for p in instance.projects:
        lines.append(f"{p.id};{format_decimal(p.cost)}")
    lines.append("VOTES")
    lines.append("voter_id;vote")
    cells = {mask: ",".join(sorted(profile.approved(mask)))
             for mask in set(profile.voters)}
    for i, mask in enumerate(profile.voters):
        lines.append(f"{i};{cells[mask]}")
    return "\n".join(lines) + "\n"
