"""Publication-record ingestion and network construction.

Records arrive as JSON Lines, one object per line:

    {"pub_id": str, "year": int, "category": str, "affiliations": [str],
     "references": [{"pub_id": str|null, "affiliations": [str]}]}

Institution identity is the affiliation string after trimming and case
folding; no entity resolution is attempted. A subject profile selects a
record category and year window, sets the publication threshold below which
an institution is dropped, and carries the indicator weights used for
composite scoring.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError, ParseError
from .network import CitationNetwork

__all__ = [
    "PublicationRecord",
    "SubjectProfile",
    "ParseIssue",
    "ParseResult",
    "INDICATORS",
    "normalize_institution",
    "parse_records",
    "filter_records",
    "apply_threshold",
    "build_network",
    "default_profiles",
    "load_profiles",
]

INDICATORS = ("PUB", "CNCI", "IC", "TOP", "AWD")


def normalize_institution(name: str) -> str:
    """Canonical institution id: trimmed, case-folded affiliation string."""
    return name.strip().casefold()


class PublicationRecord(NamedTuple):
    """One parsed record; each reference is a plain (pub_id or None, affiliations) tuple."""

    pub_id: str
    year: int
    category: str
    affiliations: tuple[str, ...]
    references: tuple[tuple[str | None, tuple[str, ...]], ...]


@dataclass(frozen=True)
class SubjectProfile:
    """Subject configuration: category filter, threshold, indicator weights."""

    name: str
    category: str
    publication_threshold: int = 1
    year_range: tuple[int, int] = (2010, 2014)
    indicator_weights: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "year_range", tuple(self.year_range))
        weights = dict(self.indicator_weights)
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
        if self.year_range[0] > self.year_range[1]:
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
    year_range may be omitted.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InputError(f"profile config {path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, list):
        raise InputError(f"profile config {path}: expected a list of profile objects")
    profiles: dict[str, SubjectProfile] = {}
    for entry in raw:
        try:
            profile = SubjectProfile(
                name=entry["name"],
                category=entry["category"],
                publication_threshold=int(entry.get("threshold", 1)),
                year_range=tuple(entry.get("year_range", (2010, 2014))),
                indicator_weights={k: int(v) for k, v in entry.get("indicator_weights", {}).items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"profile config {path}: bad profile entry ({exc})") from exc
        profiles[profile.name] = profile
    return profiles


@dataclass(frozen=True)
class ParseIssue:
    line: int
    message: str


@dataclass
class ParseResult:
    records: list[PublicationRecord]
    issues: list[ParseIssue]


def _institutions(names, what: str) -> tuple[str, ...]:
    """Distinct canonical ids of a JSON affiliation list, in first-seen order."""
    if not isinstance(names, list):
        raise ValueError(f"{what} must be a list of strings")
    ids: list[str] = []
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{what} must be a list of strings")
        canon = normalize_institution(name)
        if canon and canon not in ids:
            ids.append(canon)
    return tuple(ids)


def _parse_line(line: str) -> PublicationRecord:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc.msg}") from None
    except ValueError as exc:  # e.g. an integer literal past the interpreter's digit limit
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError as exc:  # nested deeper than the recursion limit
        raise ValueError(f"invalid JSON: {exc}") from None
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
    affiliations = _institutions(obj.get("affiliations"), "affiliations")
    if not affiliations:
        raise ValueError("affiliations must be non-empty")
    raw_refs = obj.get("references")
    if not isinstance(raw_refs, list):
        raise ValueError("references must be a list")
    references = []
    for ref in raw_refs:
        if not isinstance(ref, dict):
            raise ValueError("each reference must be an object")
        ref_id = ref.get("pub_id")
        if ref_id is not None and not isinstance(ref_id, str):
            raise ValueError("reference pub_id must be a string or null")
        ref_affiliations = _institutions(ref.get("affiliations"), "reference affiliations")
        references.append((ref_id if ref_id is None else ref_id.strip(), ref_affiliations))
    return PublicationRecord(pub_id.strip(), year, category.strip(), affiliations, tuple(references))


def parse_records(stream: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse JSON Lines publication records.

    Each record becomes a PublicationRecord whose ids are trimmed and whose
    affiliations are canonical institution ids; its references are plain
    (pub_id, affiliations) tuples of the same kind. Malformed lines and
    duplicate pub_ids are collected as ParseIssues with their line numbers
    while valid lines proceed; in strict mode the first issue raises
    ParseError instead. Blank lines are ignored.
    """
    records: list[PublicationRecord] = []
    issues: list[ParseIssue] = []
    first_line_of: dict[str, int] = {}

    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = _parse_line(line)
        except ValueError as exc:
            message = str(exc)
        else:
            first = first_line_of.setdefault(record.pub_id, line_no)
            if first == line_no:
                records.append(record)
                continue
            message = f"duplicate pub_id {record.pub_id!r} (first seen on line {first})"
        if strict:
            raise ParseError(f"line {line_no}: {message}")
        issues.append(ParseIssue(line_no, message))
    return ParseResult(records, issues)


def filter_records(
    records: Sequence[PublicationRecord], profile: SubjectProfile
) -> list[PublicationRecord]:
    """Keep records matching the profile's category and year window."""
    category = profile.category.strip().casefold()
    low, high = profile.year_range
    return [
        rec
        for rec in records
        if rec.category.strip().casefold() == category and low <= rec.year <= high
    ]


def apply_threshold(
    records: Sequence[PublicationRecord], profile: SubjectProfile
) -> set[str]:
    """Institutions whose publication count reaches the profile threshold.

    Expects records already filtered to the profile's category and years.
    A publication counts once toward each of its listed affiliations; the
    threshold comparison is inclusive (count >= threshold retains).
    """
    counts: Counter[str] = Counter()
    for rec in records:
        counts.update(rec.affiliations)
    return {inst for inst, n in counts.items() if n >= profile.publication_threshold}


def build_network(
    records: Sequence[PublicationRecord],
    retained: set[str],
    keep_self_loops: bool = False,
) -> CitationNetwork:
    """Aggregate cross-citations among retained institutions into a network.

    Only references whose cited publication is itself part of the record set
    contribute. Each such reference adds weight 1 for every (citing
    affiliation, cited affiliation) pair with both sides retained; same-
    institution pairs are dropped unless keep_self_loops is set. All
    retained institutions appear as nodes, edges or not, and the result is
    independent of record order. This is the one place that decides whether
    self-citations count: the network stores whatever edges it is given.
    """
    if not retained:
        raise InputError("retained institution set is empty; nothing to build")
    nodes = tuple(sorted(retained))
    index = {inst: k for k, inst in enumerate(nodes)}
    dataset_ids = {rec.pub_id for rec in records}
    sources: list[int] = []
    targets: list[int] = []
    for rec in records:
        citing = [index[a] for a in rec.affiliations if a in index]
        if not citing:
            continue
        for ref_id, ref_affiliations in rec.references:
            if ref_id not in dataset_ids:
                continue
            cited = [index[b] for b in ref_affiliations if b in index]
            for a in citing:
                sources.extend([a] * len(cited))
                targets.extend(cited)
    # each list is freed as soon as its array exists, to keep the peak low
    source = np.array(sources, dtype=np.int64)
    del sources
    target = np.array(targets, dtype=np.int64)
    del targets
    if not keep_self_loops:
        kept = source != target
        source, target = source[kept], target[kept]
    return CitationNetwork.build(nodes, source, target, np.ones(source.size, dtype=np.int64))
