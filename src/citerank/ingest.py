"""Publication-record ingestion and network construction.

Records arrive as JSON Lines, one object per line:

    {"pub_id": str, "year": int, "category": str, "affiliations": [str],
     "references": [{"pub_id": str|null, "affiliations": [str]}]}

Institution identity is the affiliation string after trimming and case
folding; no entity resolution is attempted. A subject profile selects a
record category and year window, sets the publication threshold below which
an institution is dropped, and carries the indicator weights used for
composite scoring.

parse_records reads every line once into a RecordTable: per-record columns,
32-bit arrays of institution positions and cited-record rows, and int64
offsets into them. No Python object per reference outlives its line: a
line's reference ids are kept as one joined str until the last line is
read, then looked up among the record ids into the cited-row column and
dropped. filter_records selects a subject's records as a bool row mask,
never a copy, and apply_threshold and build_network read the table through
it with numpy, never one Python object per reference:

    rows = filter_records(table, profile)
    net = build_network(table, rows, apply_threshold(table, rows, profile))
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import EncodingError, InputError, ParseError
from .network import CitationNetwork, index_position

__all__ = [
    "PublicationRecord",
    "RecordTable",
    "SubjectProfile",
    "ParseIssue",
    "ParseResult",
    "INDICATORS",
    "parse_records",
    "filter_records",
    "apply_threshold",
    "build_network",
    "default_profiles",
    "load_profiles",
]

INDICATORS = ("PUB", "CNCI", "IC", "TOP", "AWD")


class PublicationRecord(NamedTuple):
    """One record, as a RecordTable item; a reference is a (cited pub_id or None, affiliations) tuple."""

    pub_id: str
    year: int
    category: str
    affiliations: tuple[str, ...]
    references: tuple[tuple[str | None, tuple[str, ...]], ...]


_PROFILE_KEYS = {"name", "category", "threshold", "year_range", "indicator_weights"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SubjectProfile:
    """Subject configuration: category filter, threshold, indicator weights."""

    name: str
    category: str
    publication_threshold: int = 1
    year_range: tuple[int, int] = (2010, 2014)
    indicator_weights: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not all(isinstance(v, str) and v for v in (self.name, self.category)):
            raise InputError(f"name and category must be non-empty strings in profile {self.name!r}")
        years = tuple(self.year_range) if isinstance(self.year_range, (tuple, list)) else ()
        if len(years) != 2 or not all(map(_is_int, years)):
            raise InputError(f"year range must be two integers in profile {self.name!r}")
        object.__setattr__(self, "year_range", years)
        if not _is_int(self.publication_threshold):
            raise InputError(f"publication threshold must be an integer in profile {self.name!r}")
        weights = self.indicator_weights
        if not isinstance(weights, Mapping) or not all(map(_is_int, weights.values())):
            raise InputError(f"indicator weights must be integers in profile {self.name!r}")
        weights = dict(weights)
        unknown = set(weights) - set(INDICATORS)
        if unknown:
            raise InputError(f"unknown indicators in profile {self.name!r}: {sorted(unknown)}")
        for key in INDICATORS:
            weights.setdefault(key, 0)
        if any(w < 0 for w in weights.values()):
            raise InputError(f"indicator weights must be non-negative in profile {self.name!r}")
        if not any(w > 0 for w in weights.values()):
            raise InputError(f"profile {self.name!r} needs at least one positive weight")
        if self.publication_threshold < 1:
            raise InputError(f"publication threshold must be >= 1 in profile {self.name!r}")
        if years[0] > years[1]:
            raise InputError(f"year range is reversed in profile {self.name!r}")
        object.__setattr__(self, "indicator_weights", weights)


def default_profiles() -> dict[str, SubjectProfile]:
    """The five built-in subject profiles with their standard indicator weights.

    They are the ones the package ships in data/profiles.json. Publication
    thresholds are deployment-specific and default to 1; override per run
    via configuration or the --threshold flag.
    """
    return load_profiles(Path(__file__).parent / "data" / "profiles.json")


def load_profiles(path) -> dict[str, SubjectProfile]:
    """Load subject profiles from a JSON config file.

    The file holds a list of objects with keys name, category, threshold,
    year_range ([start, end]) and indicator_weights; threshold and
    year_range may be omitted, and any other key is an error. Each name may
    appear once. Values are taken as written: threshold, years and weights
    must be integers.
    """
    with open(path, encoding="utf-8-sig") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"profile config {path}: invalid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise EncodingError(path, exc) from exc
    if not isinstance(raw, list):
        raise InputError(f"profile config {path}: expected a list of profile objects")
    profiles: dict[str, SubjectProfile] = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise InputError(f"profile config {path}: expected a profile object, got {entry!r}")
        unknown = sorted(set(entry) - _PROFILE_KEYS)
        if unknown:
            name = entry.get("name")
            raise InputError(f"profile config {path}: unknown keys {unknown} in profile {name!r}")
        try:
            profile = SubjectProfile(
                name=entry["name"],
                category=entry["category"],
                publication_threshold=entry.get("threshold", 1),
                year_range=entry.get("year_range", (2010, 2014)),
                indicator_weights=entry.get("indicator_weights", {}),
            )
        except (KeyError, ValueError) as exc:
            raise InputError(f"profile config {path}: bad profile entry ({exc})") from exc
        if profile.name in profiles:
            raise InputError(f"profile config {path}: profile {profile.name!r} is listed twice")
        profiles[profile.name] = profile
    return profiles


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


def _offsets(counts: array) -> np.ndarray:
    """Offsets of a ragged column, summed in place (no copy) over a 0 and its row lengths.

    Row k is values[offsets[k]:offsets[k + 1]].
    """
    offsets = np.frombuffer(counts, dtype=np.int64)
    np.cumsum(offsets, out=offsets)
    return offsets


@dataclass(frozen=True, eq=False, repr=False)
class RecordTable(Sequence):
    """Parsed records held by column; a read-only Sequence of PublicationRecord.

    Record k has pub_ids[k], years[k] and categories[k], the affiliations
    affiliations[affiliation_offsets[k]:affiliation_offsets[k + 1]], and the
    references reference_offsets[k] up to reference_offsets[k + 1]. Reference
    r has cited[r] (the row of the record it cites in this table, or -1 when
    its trimmed id names no record of it or is null) and the affiliations
    reference_affiliations[reference_affiliation_offsets[r]:...]. The id as
    read is not kept. An affiliation is a position in `institutions`, the
    canonical ids of the table's records in first-read order; each
    affiliation list holds distinct ids in first-read order. pub_ids, years
    and categories are object arrays of the values read, so a year is a
    Python int of any size, and equal categories are one str; positions and
    rows are 32-bit np.intc (at most INDEX_LIMIT of each) and offsets int64.
    Every array is read-only. len() is O(1), and item k is built as a
    PublicationRecord when it is read, each reference giving the cited
    record's pub_id or None.
    """

    pub_ids: np.ndarray
    years: np.ndarray
    categories: np.ndarray
    institutions: tuple[str, ...]
    affiliation_offsets: np.ndarray
    affiliations: np.ndarray
    reference_offsets: np.ndarray
    cited: np.ndarray
    reference_affiliation_offsets: np.ndarray
    reference_affiliations: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def __len__(self) -> int:
        return len(self.pub_ids)

    def __getitem__(self, key):
        rows = range(len(self))[key]
        if isinstance(rows, range):
            return [self._record(k) for k in rows]
        return self._record(rows)

    def _record(self, k: int) -> PublicationRecord:
        name = self.institutions.__getitem__
        low, high = self.affiliation_offsets[k : k + 2].tolist()
        affiliations = tuple(map(name, self.affiliations[low:high].tolist()))
        first, last = self.reference_offsets[k : k + 2].tolist()
        bounds = self.reference_affiliation_offsets[first : last + 1].tolist()
        listed = self.reference_affiliations[bounds[0] : bounds[-1]].tolist()
        base = bounds[0]
        pub_id = self.pub_ids.__getitem__
        references = tuple(
            (pub_id(row) if row >= 0 else None, tuple(map(name, listed[start - base : end - base])))
            for row, start, end in zip(self.cited[first:last].tolist(), bounds, bounds[1:])
        )
        return PublicationRecord(
            self.pub_ids[k], self.years[k], self.categories[k], affiliations, references
        )


@dataclass
class ParseResult:
    """The parsed records, and one ParseIssue per skipped line in line order."""

    records: RecordTable
    issues: list[ParseIssue]


def _intern(names, what: str, index: dict[str, int]) -> list[int]:
    """Positions in `index` of the distinct canonical ids of a JSON affiliation list, first read first.

    A canonical id is the name trimmed and case-folded; an empty one is
    skipped. An id not yet in `index` must encode as UTF-8, since it may be
    written to the CSV outputs; a JSON escape can make a lone surrogate,
    which does not. It is then added to `index`, InputError past
    INDEX_LIMIT ids; parse_records removes it again if the line is rejected.
    """
    if not isinstance(names, list):
        raise ValueError(f"{what} must be a list of strings")
    ids: list[int] = []
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{what} must be a list of strings")
        canon = name.strip().casefold()
        if canon:
            k = index.get(canon)
            if k is None:
                try:
                    canon.encode()
                except UnicodeEncodeError as exc:
                    raise ValueError(f"{what} must be valid Unicode: {name!r} ({exc.reason})") from None
                k = index[canon] = index_position(len(index), "institutions")
            if k not in ids:
                ids.append(k)
    return ids


def _parse_line(line: str, index: dict[str, int]):
    """One record's columns: pub_id, year, category, affiliation positions,
    reference ids, per-reference affiliation counts and their positions.
    The reference ids, trimmed and a null read as "", are one str joined by
    NUL, or their list when an id itself holds a NUL."""
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, an int past the digit limit, too deep
        # a JSONDecodeError's msg leaves out the position
        raise ValueError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    pub_id = obj.get("pub_id")
    if not isinstance(pub_id, str) or not pub_id.strip():
        raise ValueError("pub_id must be a non-empty string")
    year = obj.get("year")
    if not isinstance(year, int) or isinstance(year, bool):
        raise ValueError("year must be an integer")
    category = obj.get("category")
    if not isinstance(category, str) or not category.strip():
        raise ValueError("category must be a non-empty string")
    affiliations = _intern(obj.get("affiliations"), "affiliations", index)
    if not affiliations:
        raise ValueError("affiliations must be non-empty")
    raw_refs = obj.get("references")
    if not isinstance(raw_refs, list):
        raise ValueError("references must be a list")
    ref_ids: list[str] = []
    ref_counts: list[int] = []
    ref_affiliations: list[int] = []
    for ref in raw_refs:
        if not isinstance(ref, dict):
            raise ValueError("each reference must be an object")
        ref_id = ref.get("pub_id")
        if ref_id is None:
            ref_id = ""  # names no record, as a pub_id is never empty
        elif not isinstance(ref_id, str):
            raise ValueError("reference pub_id must be a string or null")
        ids = _intern(ref.get("affiliations"), "reference affiliations", index)
        ref_ids.append(ref_id.strip())
        ref_counts.append(len(ids))
        ref_affiliations += ids
    joined = "\0".join(ref_ids)
    if joined.count("\0") >= len(ref_ids):  # splitting on NUL would cut an id
        joined = ref_ids
    return pub_id.strip(), year, category.strip(), affiliations, joined, ref_counts, ref_affiliations


def parse_records(stream: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse JSON Lines publication records into a RecordTable.

    Each valid line is checked and normalised once: ids are trimmed and
    affiliations become canonical institution ids, stored as positions in
    the table's institutions. After the last line every reference id
    is looked up among the record ids, so a record may cite one read after
    it; until then each line's reference ids are one str. Malformed lines
    and duplicate pub_ids are collected as ParseIssues with their line
    numbers while valid lines proceed; in strict mode the first issue raises
    ParseError instead. Blank lines are ignored.
    """
    index: dict[str, int] = {}
    row_of: dict[str, int] = {}
    line_of: list[int] = []
    pub_ids: list[str] = []
    years: list[int] = []
    categories: list[str] = []
    category_of: dict[str, str] = {}  # one str per distinct category
    reference_ids: list[str | list[str]] = []  # one entry per line with references
    # columns grow in place with no Python object a value: positions in 32
    # bits, counts in 64, each counts column from the 0 that _offsets sums it from
    affiliation_counts, affiliations = array("q", [0]), array("i")
    reference_counts = array("q", [0])
    reference_affiliation_counts, reference_affiliations = array("q", [0]), array("i")
    issues: list[ParseIssue] = []

    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        known = len(index)
        try:
            pub_id, year, category, affs, ref_ids, ref_counts, ref_affs = _parse_line(line, index)
        except InputError:  # past INDEX_LIMIT: no line can be read into this table
            raise
        except ValueError as exc:
            message = str(exc)
        else:
            row = row_of.setdefault(pub_id, len(line_of))
            if row == len(line_of):
                index_position(row, "records")
                line_of.append(line_no)
                pub_ids.append(pub_id)
                years.append(year)
                categories.append(category_of.setdefault(category, category))
                affiliation_counts.append(len(affs))
                affiliations.extend(affs)
                reference_counts.append(len(ref_counts))
                if ref_counts:
                    reference_ids.append(ref_ids)
                reference_affiliation_counts.extend(ref_counts)
                reference_affiliations.extend(ref_affs)
                continue
            message = f"duplicate pub_id {pub_id!r} (first seen on line {line_of[row]})"
        while len(index) > known:  # drop the ids first read on this rejected line
            index.popitem()
        if strict:
            raise ParseError(f"line {line_no}: {message}")
        issues.append(ParseIssue(line_no, message))

    reference_offsets = _offsets(reference_counts)
    ids = chain.from_iterable(k.split("\0") if type(k) is str else k for k in reference_ids)
    cited = np.fromiter(map(row_of.get, ids, repeat(-1)), np.intc, int(reference_offsets[-1]))
    table = RecordTable(
        np.array(pub_ids, dtype=object),
        np.array(years, dtype=object),
        np.array(categories, dtype=object),
        tuple(index),
        _offsets(affiliation_counts),
        np.frombuffer(affiliations, dtype=np.intc),
        reference_offsets,
        cited,
        _offsets(reference_affiliation_counts),
        np.frombuffer(reference_affiliations, dtype=np.intc),
    )
    return ParseResult(table, issues)


def filter_records(records: RecordTable, profile: SubjectProfile) -> np.ndarray:
    """Row mask of the records matching the profile's category and year window.

    apply_threshold and build_network take the mask and read only its rows;
    the table itself is never copied.
    """
    category = profile.category.strip().casefold()
    low, high = profile.year_range
    keep = (records.years >= low) & (records.years <= high)  # Python ints: any size compares
    keep &= np.fromiter((c.casefold() == category for c in records.categories), bool, len(records))
    return keep


def _row_mask(records: RecordTable, rows) -> np.ndarray:
    """rows as a bool array with one entry per record of the table; InputError for anything else."""
    rows = np.asarray(rows)
    if rows.dtype != bool or rows.shape != (len(records),):
        raise InputError(
            f"rows must be a 1-D bool mask of the table's {len(records)} records, "
            f"not a {rows.dtype} array of shape {rows.shape}"
        )
    return rows


def apply_threshold(records: RecordTable, rows: np.ndarray, profile: SubjectProfile) -> set[str]:
    """Institutions whose publication count in the masked rows reaches the profile threshold.

    A publication counts once toward each of its listed affiliations; the
    threshold comparison is inclusive (count >= threshold retains).
    """
    listed = np.repeat(_row_mask(records, rows), np.diff(records.affiliation_offsets))
    counts = np.bincount(records.affiliations[listed], minlength=len(records.institutions))
    kept = np.flatnonzero(counts >= profile.publication_threshold)
    return set(map(records.institutions.__getitem__, kept.tolist()))


# citation pairs expanded per block: the int64 temporaries of one block stay
# near 1 MB however many pairs the records make
_BLOCK_PAIRS = 1 << 14


def _citation_pairs(
    records: RecordTable, rows: np.ndarray, node_of: np.ndarray, keep_self_loops: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Citing and cited node of every citation pair of the masked rows, one pair per citation.

    node_of maps an institution position to its node, or to -1 when the
    institution is not retained; it and both columns are np.intc.
    """
    n = len(records)
    # retained citing affiliations of kept rows, grouped by record
    citing = node_of[records.affiliations]
    owner = np.repeat(np.arange(n), np.diff(records.affiliation_offsets))
    kept = (citing >= 0) & rows[owner]
    per_record = np.bincount(owner[kept], minlength=n)
    citing = citing[kept]
    citing_start = np.cumsum(per_record) - per_record
    del owner, kept

    # the references that count, from a record with a retained affiliation to
    # a kept row; only those naming a record are indexed (through intp copies)
    refs = np.flatnonzero(records.cited >= 0)
    citing_row = np.searchsorted(records.reference_offsets, refs, side="right") - 1
    counted = rows[records.cited[refs]] & (per_record[citing_row] > 0)
    refs, citing_row = refs[counted], citing_row[counted]
    first = records.reference_affiliation_offsets[refs]
    listed = records.reference_affiliation_offsets[refs + 1] - first
    at = np.repeat(first - np.cumsum(listed) + listed, listed) + np.arange(listed.sum())
    cited = node_of[records.reference_affiliations[at]]
    citing_row = np.repeat(citing_row, listed)
    del refs, counted, first, listed, at
    kept = cited >= 0
    cited, citing_row = cited[kept], citing_row[kept]
    del kept

    # each cited affiliation pairs with every citing one of its record
    ends = per_record[citing_row]
    np.cumsum(ends, out=ends)
    total = int(ends[-1]) if ends.size else 0
    source = np.empty(total, dtype=np.intc)
    target = np.empty(total, dtype=np.intc)
    blocks = np.searchsorted(ends, range(_BLOCK_PAIRS, total, _BLOCK_PAIRS), side="right")
    cuts = [0, *blocks.tolist(), ends.size]
    size = 0
    for lo, hi in zip(cuts, cuts[1:]):
        if lo == hi:  # one affiliation made more than a block of pairs
            continue
        citers = citing_row[lo:hi]
        count = per_record[citers]
        first = ends[lo:hi] - count  # number of each cited affiliation's first pair
        shift = np.repeat(citing_start[citers] - first, count)
        src = citing[shift + np.arange(first[0], ends[hi - 1])]
        dst = np.repeat(cited[lo:hi], count)
        if not keep_self_loops:
            cross = src != dst
            src, dst = src[cross], dst[cross]
        source[size : size + src.size] = src
        target[size : size + dst.size] = dst
        size += src.size
    return source[:size], target[:size]


def build_network(
    records: RecordTable,
    rows: np.ndarray,
    retained: set[str],
    keep_self_loops: bool = False,
) -> CitationNetwork:
    """Aggregate cross-citations of the masked rows among retained institutions into a network.

    Only references from a kept row whose cited publication is itself a kept
    row contribute. Each such reference adds weight 1 for every (citing
    affiliation, cited affiliation) pair with both sides retained; same-
    institution pairs are dropped unless keep_self_loops is set. All
    retained institutions appear as nodes, edges or not, and the result is
    independent of record order. This is the one place that decides whether
    self-citations count: the network stores whatever edges it is given.
    """
    rows = _row_mask(records, rows)
    if not retained:
        raise InputError("retained institution set is empty; nothing to build")
    nodes = tuple(sorted(retained))
    index_position(len(nodes) - 1, "nodes")
    node_at = {inst: k for k, inst in enumerate(nodes)}
    institutions = records.institutions
    node_of = np.fromiter(map(node_at.get, institutions, repeat(-1)), np.intc, len(institutions))
    del node_at  # not alive at the peak of _citation_pairs
    source, target = _citation_pairs(records, rows, node_of, keep_self_loops)
    return CitationNetwork.build(nodes, source, target, np.broadcast_to(np.int64(1), source.size))
