"""Seeded benchmark inputs and the generator's own recount of what they hold.

Each record workload is a JSON Lines corpus drawn from a seed. The generator
knows every institution by an integer id, so it recounts the expected
network (retained institutions, cross-citation pairs and weights) without
going through citerank's parsing, normalisation or aggregation. The output
oracles compare citerank's files against that recount.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

SUBJECT = "TEL"
CATEGORY = "Telecommunications"
OTHER_CATEGORY = "Business, Finance"
YEARS = (2010, 2014)


@dataclass(frozen=True)
class RecordSpec:
    """Shape of a seeded record corpus."""

    records: int
    institutions: int
    refs: tuple[int, int]  # inclusive range of references per record
    affiliations: tuple[int, int]  # inclusive range of affiliations per record
    outside_share: float  # references that cite a publication outside the corpus
    off_subject_share: float  # records with another category or a year outside YEARS
    malformed_share: float  # extra lines that lenient parsing must skip
    threshold: int
    skew: float = 1.0  # Zipf exponent of institution popularity


@dataclass(frozen=True)
class SynthSpec:
    """Flags of a `citerank synth` run with a citation cartel."""

    nodes: int
    mean_out: float
    cartel_size: int
    cartel_boost: int


@dataclass
class Corpus:
    """Generated records plus the expected result of building them."""

    lines: list[str]
    nodes: list[str]  # retained institutions, canonical ids, sorted
    edges: dict[tuple[str, str], int]  # expected cross-citation weights
    publications: dict[str, int]  # publications per retained institution
    records_parsed: int
    records_used: int
    issues: int  # malformed lines the parser must report


def institution_name(k: int) -> str:
    return f"Univ {k:05d}"


def _spell(name: str, pick: int) -> str:
    # citerank's identity is trim + case fold, so every spelling is one institution
    return (name, name.upper(), f"  {name} ")[pick]


def _popularity(rng: np.random.Generator, n: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** skew
    return rng.permutation(weights / weights.sum())


def make_corpus(spec: RecordSpec, seed: int) -> Corpus:
    """Draw a record corpus from `seed` and recount the network it implies."""
    rng = np.random.default_rng(seed)
    n = spec.records
    popularity = _popularity(rng, spec.institutions, spec.skew)
    names = [institution_name(k) for k in range(spec.institutions)]

    n_aff = rng.integers(spec.affiliations[0], spec.affiliations[1] + 1, size=n)
    aff_draws = rng.choice(spec.institutions, size=(n, spec.affiliations[1]), p=popularity)
    affiliations = [list(dict.fromkeys(aff_draws[r, : n_aff[r]].tolist())) for r in range(n)]

    off = rng.random(n) < spec.off_subject_share
    off_by_year = rng.random(n) < 0.5
    years = rng.integers(YEARS[0], YEARS[1] + 1, size=n)
    years[off & off_by_year] = rng.choice([2005, 2008, 2016, 2019], size=int((off & off_by_year).sum()))
    categories = np.where(off & ~off_by_year, OTHER_CATEGORY, CATEGORY)

    n_refs = rng.integers(spec.refs[0], spec.refs[1] + 1, size=n)
    total_refs = int(n_refs.sum())
    outside = rng.random(total_refs) < spec.outside_share
    cited = rng.integers(0, n - 1, size=total_refs)
    citing = np.repeat(np.arange(n), n_refs)
    cited[cited >= citing] += 1  # never cite yourself
    ext_aff = rng.choice(spec.institutions, size=(total_refs, 2), p=popularity)
    ext_width = rng.integers(1, 3, size=total_refs)
    ext_null = rng.random(total_refs) < 0.3
    # one spelling per affiliation written: at most 2 per outside reference
    widest = max(spec.affiliations[1], 2)
    spelling = rng.integers(0, 3, size=(total_refs + n) * widest).tolist()

    pub_ids = [f"P{r:07d}" for r in range(n)]
    lines: list[str] = []
    spell_at = 0
    ref_at = 0
    ref_lists: list[list[tuple[int, list[int]]]] = []  # (cited record or -1, institutions)
    for r in range(n):
        refs_json = []
        refs_true = []
        for _ in range(n_refs[r]):
            if outside[ref_at]:
                insts = list(dict.fromkeys(ext_aff[ref_at, : ext_width[ref_at]].tolist()))
                ref_id = None if ext_null[ref_at] else f"X{ref_at:08d}"
                target = -1
            else:
                target = int(cited[ref_at])
                insts = affiliations[target]
                ref_id = pub_ids[target]
            spelled = []
            for k in insts:
                spelled.append(_spell(names[k], spelling[spell_at]))
                spell_at += 1
            refs_json.append({"pub_id": ref_id, "affiliations": spelled})
            refs_true.append((target, insts))
            ref_at += 1
        spelled = []
        for k in affiliations[r]:
            spelled.append(_spell(names[k], spelling[spell_at]))
            spell_at += 1
        lines.append(json.dumps({
            "pub_id": pub_ids[r],
            "year": int(years[r]),
            "category": str(categories[r]),
            "affiliations": spelled,
            "references": refs_json,
        }))
        ref_lists.append(refs_true)

    issues = _inject_malformed(rng, lines, spec.malformed_share)

    used = [r for r in range(n) if categories[r] == CATEGORY and YEARS[0] <= years[r] <= YEARS[1]]
    used_set = set(used)
    pubs: Counter[int] = Counter()
    for r in used:
        pubs.update(affiliations[r])
    retained = {k for k, c in pubs.items() if c >= spec.threshold}
    edges: Counter[tuple[int, int]] = Counter()
    for r in used:
        citing_inst = [a for a in affiliations[r] if a in retained]
        if not citing_inst:
            continue
        for target, insts in ref_lists[r]:
            if target not in used_set:
                continue
            for a in citing_inst:
                for b in insts:
                    if b in retained and a != b:
                        edges[(a, b)] += 1
    canon = {k: names[k].casefold() for k in retained}
    return Corpus(
        lines=lines,
        nodes=sorted(canon.values()),
        edges={(canon[a], canon[b]): w for (a, b), w in edges.items()},
        publications={canon[k]: pubs[k] for k in retained},
        records_parsed=n,
        records_used=len(used),
        issues=issues,
    )


def _inject_malformed(rng: np.random.Generator, lines: list[str], share: float) -> int:
    """Insert lines the lenient parser must skip; return how many."""
    count = int(round(share * len(lines)))
    if count == 0:
        return 0
    # each bad line goes after the record it imitates, so a duplicate pub_id
    # never displaces the well-formed original
    after = np.sort(rng.choice(len(lines), size=count, replace=False))[::-1]
    kinds = rng.integers(0, 4, size=count)
    for pos, kind in zip(after.tolist(), kinds.tolist()):
        original = lines[pos]
        if kind == 0:
            bad = original[: len(original) // 2]  # truncated JSON
        elif kind == 1:
            bad = original  # duplicate pub_id
        elif kind == 2:
            obj = json.loads(original)
            obj["year"] = str(obj["year"])
            obj["pub_id"] += "-y"
            bad = json.dumps(obj)
        else:
            obj = json.loads(original)
            obj["affiliations"] = []
            obj["pub_id"] += "-a"
            bad = json.dumps(obj)
        lines.insert(pos + 1, bad)
    return count


def write_lines(lines: list[str], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")


def synth_seed(seed: int) -> int:
    """The `--seed` passed to `citerank synth` for a benchmark seed."""
    return int(np.random.default_rng(seed).integers(0, 2**31 - 1))
