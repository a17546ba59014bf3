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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, ParseError
from .network import CitationNetwork

__all__ = [
    "Reference",
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


def _normalize_affiliations(names: Iterable[str]) -> tuple[str, ...]:
    seen: list[str] = []
    for name in names:
        norm = normalize_institution(name)
        if norm and norm not in seen:
            seen.append(norm)
    return tuple(seen)


@dataclass(frozen=True)
class Reference:
    """One cited work: its id (None if not indexed) and author institutions."""

    pub_id: str | None
    affiliations: tuple[str, ...]


@dataclass(frozen=True)
class PublicationRecord:
    pub_id: str
    year: int
    category: str
    affiliations: tuple[str, ...]
    references: tuple[Reference, ...]


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

    Publication thresholds are deployment-specific and default to 1; override
    per run via configuration or the --threshold flag.
    """
    rows = [
        ("DEN", "Dentistry, Oral Surgery & Medicine", (100, 100, 20, 100, 100)),
        ("FIN", "Business, Finance", (150, 50, 10, 100, 0)),
        ("LIB", "Information Science & Library Science", (150, 50, 10, 100, 0)),
        ("TEL", "Telecommunications", (100, 100, 20, 100, 0)),
        ("VET", "Veterinary Sciences", (100, 100, 20, 200, 0)),
    ]
    return {
        name: SubjectProfile(
            name=name,
            category=category,
            indicator_weights=dict(zip(INDICATORS, weights)),
        )
        for name, category, weights in rows
    }


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


def _parse_line(obj) -> PublicationRecord:
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
    affils = obj.get("affiliations")
    if not isinstance(affils, list) or not all(isinstance(a, str) for a in affils):
        raise ValueError("affiliations must be a list of strings")
    affiliations = _normalize_affiliations(affils)
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
        ref_affils = ref.get("affiliations")
        if not isinstance(ref_affils, list) or not all(isinstance(a, str) for a in ref_affils):
            raise ValueError("reference affiliations must be a list of strings")
        references.append(Reference(ref_id, _normalize_affiliations(ref_affils)))
    return PublicationRecord(
        pub_id=pub_id.strip(),
        year=year,
        category=category.strip(),
        affiliations=affiliations,
        references=tuple(references),
    )


def parse_records(stream: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse JSON Lines publication records.

    Malformed lines and duplicate pub_ids are collected as ParseIssues with
    their line numbers while valid lines proceed; in strict mode the first
    issue raises ParseError instead. Blank lines are ignored.
    """
    records: list[PublicationRecord] = []
    issues: list[ParseIssue] = []
    first_line_of: dict[str, int] = {}

    def fail(line_no: int, message: str) -> None:
        issue = ParseIssue(line_no, message)
        if strict:
            raise ParseError(f"line {line_no}: {message}")
        issues.append(issue)

    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(line_no, f"invalid JSON: {exc.msg}")
            continue
        try:
            record = _parse_line(obj)
        except ValueError as exc:
            fail(line_no, str(exc))
            continue
        if record.pub_id in first_line_of:
            fail(
                line_no,
                f"duplicate pub_id {record.pub_id!r} "
                f"(first seen on line {first_line_of[record.pub_id]})",
            )
            continue
        first_line_of[record.pub_id] = line_no
        records.append(record)
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
    profile: SubjectProfile,
    keep_self_loops: bool = False,
) -> CitationNetwork:
    """Aggregate cross-citations among retained institutions into a network.

    Only references whose cited publication is itself part of the record set
    contribute. Each such reference adds weight 1 for every (citing
    affiliation, cited affiliation) pair with both sides retained; same-
    institution pairs are dropped unless keep_self_loops is set. All
    retained institutions appear as nodes, edges or not, and the result is
    independent of record order.
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
        for ref in rec.references:
            if ref.pub_id is None or ref.pub_id not in dataset_ids:
                continue
            cited = [index[b] for b in ref.affiliations if b in index]
            for a in citing:
                sources.extend([a] * len(cited))
                targets.extend(cited)
    return CitationNetwork.build(
        nodes,
        sources,
        targets,
        np.ones(len(sources), dtype=np.int64),
        subject=profile.name,
        keep_self_loops=keep_self_loops,
    )
