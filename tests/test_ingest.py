import gc
import io
import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from citerank import (
    SubjectProfile,
    apply_threshold,
    build_network,
    default_profiles,
    filter_records,
    load_profiles,
    parse_records,
)
from citerank import CitationNetwork, ingest, network
from citerank.errors import InputError, ParseError
from citerank.network import index_position
from citerank.fileio import bundled_data

from conftest import (
    reference_apply_threshold,
    reference_build_network,
    reference_filter_records,
    reference_parse_records,
    weight_dict,
)


def _line(pub_id, year=2012, category="Telecommunications", affils=("Uni-A",), refs=()):
    return json.dumps(
        {
            "pub_id": pub_id,
            "year": year,
            "category": category,
            "affiliations": list(affils),
            "references": [{"pub_id": r[0], "affiliations": list(r[1])} for r in refs],
        }
    )


def _parse(lines, strict=False):
    return parse_records(io.StringIO("\n".join(lines) + "\n"), strict=strict)


def _all(table):
    """The row mask that keeps every record of the table."""
    return np.ones(len(table), dtype=bool)


def _kept(table, rows):
    """The masked rows of the table, as PublicationRecords."""
    return [table[k] for k in np.flatnonzero(rows)]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_valid_lines():
    res = _parse([_line("p1"), _line("p2"), _line("p3")])
    assert len(res.records) == 3
    assert not res.issues


def test_parse_skips_line_missing_affiliations():
    bad = json.dumps({"pub_id": "p2", "year": 2012, "category": "c", "references": []})
    res = _parse([_line("p1"), bad])
    assert [r.pub_id for r in res.records] == ["p1"]
    assert len(res.issues) == 1
    assert res.issues[0].line == 2


def test_parse_duplicate_ids_names_both_lines():
    lines = [_line(f"p{i}") for i in range(1, 9)]
    lines.insert(4, _line("p2"))  # duplicate of line 2 at line 5
    lines.append(_line("p7"))  # duplicate of line 8 at line 10
    res = _parse(lines)
    assert len(res.records) == 8
    assert len(res.issues) == 2
    assert res.issues[0].line == 5
    assert "line 2" in res.issues[0].message
    assert res.issues[1].line == 10
    assert "line 8" in res.issues[1].message


def test_parse_strict_mode_raises_naming_line():
    with pytest.raises(ParseError, match="line 2"):
        _parse([_line("p1"), "not json"], strict=True)


def test_parse_reports_invalid_json_and_bad_types():
    res = _parse(
        [
            "{broken",
            _line("p1"),
            json.dumps({"pub_id": "p2", "year": "2012", "category": "c",
                        "affiliations": ["a"], "references": []}),
        ]
    )
    assert [r.pub_id for r in res.records] == ["p1"]
    assert [i.line for i in res.issues] == [1, 3]


def test_parse_normalizes_and_dedupes_affiliations():
    res = _parse([_line("p1", affils=("  Uni-A ", "uni-a", "UNI-B"))])
    assert res.records[0].affiliations == ("uni-a", "uni-b")


def test_parse_ignores_blank_lines():
    res = _parse([_line("p1"), "", "   ", _line("p2")])
    assert len(res.records) == 2 and not res.issues


def test_rejected_lines_leave_no_institutions_behind():
    bad_ref = json.dumps({"pub_id": "p2", "year": 2012, "category": "c", "affiliations": ["Ghost U"],
                          "references": [{"pub_id": "x", "affiliations": ["Ref Ghost"]}, 7]})
    lines = [_line("p1", affils=("Uni A",)), bad_ref, _line("p1", affils=("Dup U",)),
             _line("p4", affils=("Fresh U", "Lone \ud800")), _line("p3", affils=("New U", "Uni A"))]
    res = _parse(lines)
    assert [i.line for i in res.issues] == [2, 3, 4]
    assert res.records.institutions == ("uni a", "new u")
    assert [r.affiliations for r in res.records] == [("uni a",), ("new u", "uni a")]


_DROP = object()


def _record(refs=None, **fields):
    """JSON text of a valid record with fields replaced, or removed where set to _DROP."""
    obj = {"pub_id": "pX", "year": 2012, "category": "Telecommunications",
           "affiliations": ["Uni-A"], "references": [{"pub_id": "p1", "affiliations": ["B"]}]}
    if refs is not None:
        obj["references"] = refs
    obj.update(fields)
    return json.dumps({k: v for k, v in obj.items() if v is not _DROP})


def _ref(**fields):
    ref = {"pub_id": "p1", "affiliations": ["B"]}
    ref.update(fields)
    return {k: v for k, v in ref.items() if v is not _DROP}


_AFFILS = "affiliations must be a list of strings"
_REF_AFFILS = "reference affiliations must be a list of strings"
_SURROGATE = "must be valid Unicode: 'A\\ud800' (surrogates not allowed)"

# one line per check in the order the parser makes them; where a line breaks
# several rules, the first check in that order names it
PARSE_MESSAGES = [
    ("{broken", "invalid JSON: Expecting property name enclosed in double quotes"),
    # past the interpreter's int digit limit json.loads raises a plain ValueError
    pytest.param(
        '{"pub_id": "p2", "year": ' + "9" * 5000 + "}",
        "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit",
        marks=pytest.mark.skipif(
            getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
            reason="needs the default int digit limit",
        ),
    ),
    # nested past the recursion limit json.loads raises RecursionError
    (
        "[" * 100_000,
        "invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    ),
    ("[1, 2]", "record must be a JSON object"),
    ('"text"', "record must be a JSON object"),
    (_record(pub_id=_DROP), "pub_id must be a non-empty string"),
    (_record(pub_id=""), "pub_id must be a non-empty string"),
    (_record(pub_id="  \t"), "pub_id must be a non-empty string"),
    (_record(pub_id=7), "pub_id must be a non-empty string"),
    (_record(pub_id="", year="x", category=""), "pub_id must be a non-empty string"),
    (_record(year="2012"), "year must be an integer"),
    (_record(year=True), "year must be an integer"),
    (_record(year=2012.0), "year must be an integer"),
    (_record(year=_DROP), "year must be an integer"),
    (_record(year="x", category=""), "year must be an integer"),
    (_record(category=" "), "category must be a non-empty string"),
    (_record(category=3), "category must be a non-empty string"),
    (_record(category="", affiliations="A"), "category must be a non-empty string"),
    (_record(affiliations="Uni-A"), _AFFILS),
    (_record(affiliations=_DROP), _AFFILS),
    (_record(affiliations=["Uni-A", 1]), _AFFILS),
    (_record(affiliations=[["x"]]), _AFFILS),
    (_record(affiliations=[{"a": 1}]), _AFFILS),
    (_record(affiliations=["  ", 5]), _AFFILS),
    (_record(affiliations=[1], references="x"), _AFFILS),
    # a JSON escape can make a lone surrogate, which no output file can hold
    (_record(affiliations=["Uni-A", "A\ud800"]), f"affiliations {_SURROGATE}"),
    (_record(affiliations=["A\ud800", 1]), f"affiliations {_SURROGATE}"),
    (_record(affiliations=[1, "A\ud800"]), _AFFILS),
    (_record(affiliations=[]), "affiliations must be non-empty"),
    (_record(affiliations=["  ", "\t"]), "affiliations must be non-empty"),
    (_record(affiliations=[" "], references="x"), "affiliations must be non-empty"),
    (_record(references=_DROP), "references must be a list"),
    (_record(references={"pub_id": "p1"}), "references must be a list"),
    (_record(refs=["p1"]), "each reference must be an object"),
    (_record(refs=[_ref(), None]), "each reference must be an object"),
    (_record(refs=[_ref(pub_id=5)]), "reference pub_id must be a string or null"),
    (_record(refs=[_ref(pub_id=["p1"])]), "reference pub_id must be a string or null"),
    (_record(refs=[_ref(pub_id=5, affiliations="B")]), "reference pub_id must be a string or null"),
    (_record(refs=[_ref(affiliations="B")]), _REF_AFFILS),
    (_record(refs=[_ref(affiliations=_DROP)]), _REF_AFFILS),
    (_record(refs=[_ref(affiliations=["B", None])]), _REF_AFFILS),
    (_record(refs=[_ref(affiliations=[["x"]])]), _REF_AFFILS),
    (_record(refs=[_ref(affiliations=[{"a": 1}])]), _REF_AFFILS),
    (_record(refs=[_ref(), _ref(pub_id=None, affiliations=[2])]), _REF_AFFILS),
    (_record(refs=[_ref(affiliations=[1]), "p1"]), _REF_AFFILS),
    (_record(refs=[_ref(affiliations=["B", "A\ud800"])]), f"reference affiliations {_SURROGATE}"),
    (_line("p1"), "duplicate pub_id 'p1' (first seen on line 1)"),
    (_line(" p1 "), "duplicate pub_id 'p1' (first seen on line 1)"),
]


@pytest.mark.parametrize("line, message", PARSE_MESSAGES)
def test_parse_issue_messages(line, message):
    res = _parse([_line("p1"), line, _line("p9")])
    assert [(i.line, i.message) for i in res.issues] == [(2, message)]
    assert [r.pub_id for r in res.records] == ["p1", "p9"]
    with pytest.raises(ParseError) as exc:
        _parse([_line("p1"), line, _line("p9")], strict=True)
    assert str(exc.value) == f"line 2: {message}"


def test_parse_accepts_edge_cases_of_each_check():
    res = _parse([
        _record(pub_id="p1", refs=[]),
        _record(pub_id="p2", refs=[_ref(pub_id=None, affiliations=[])]),
        _record(pub_id="p3", refs=[_ref(affiliations=["  "])]),
        _record(pub_id="p4", year=-5, affiliations=["A", "  "], extra={"x": 1}),
    ])
    assert not res.issues
    assert [len(r.references) for r in res.records] == [0, 1, 1, 1]


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


def test_default_profiles_weights():
    profiles = default_profiles()
    expect = {
        "DEN": (100, 100, 20, 100, 100),
        "FIN": (150, 50, 10, 100, 0),
        "LIB": (150, 50, 10, 100, 0),
        "TEL": (100, 100, 20, 100, 0),
        "VET": (100, 100, 20, 200, 0),
    }
    for name, weights in expect.items():
        w = profiles[name].indicator_weights
        assert tuple(w[k] for k in ("PUB", "CNCI", "IC", "TOP", "AWD")) == weights
        assert profiles[name].year_range == (2010, 2014)


def test_profile_validation():
    with pytest.raises(ValueError):
        SubjectProfile("x", "c", publication_threshold=0, indicator_weights={"PUB": 1})
    with pytest.raises(ValueError):
        SubjectProfile("x", "c", year_range=(2014, 2010), indicator_weights={"PUB": 1})
    for years in ((2010,), (2010, 2012, 2014), ("2010", "2014"), "20", 2010, (True, 2014)):
        with pytest.raises(InputError, match="year range must be two integers in profile 'x'"):
            SubjectProfile("x", "c", year_range=years, indicator_weights={"PUB": 1})
    bad_fields = [{"name": ""}, {"category": 7}, {"publication_threshold": 3.9}, {"publication_threshold": True},
                  {"indicator_weights": {"PUB": True}}, {"indicator_weights": [("PUB", 1)]}]
    for bad in bad_fields:
        with pytest.raises(InputError, match="in profile"):
            SubjectProfile(**{"name": "x", "category": "c", "indicator_weights": {"PUB": 1}, **bad})
    with pytest.raises(ValueError):
        SubjectProfile("x", "c", indicator_weights={"PUB": 0})
    with pytest.raises(ValueError):
        SubjectProfile("x", "c", indicator_weights={"BOGUS": 5})


def test_profile_rejects_a_negative_indicator_weight():
    with pytest.raises(InputError) as info:
        SubjectProfile("A", "c", indicator_weights={"PUB": 1, "CNCI": -1})
    assert str(info.value) == "indicator weights must be non-negative in profile 'A'"


def test_load_profiles_roundtrip(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(
        json.dumps(
            [
                {
                    "name": "CUSTOM",
                    "category": "Some Category",
                    "threshold": 4,
                    "year_range": [2011, 2013],
                    "indicator_weights": {"PUB": 1},
                }
            ]
        )
    )
    profiles = load_profiles(path)
    assert profiles["CUSTOM"].publication_threshold == 4
    assert profiles["CUSTOM"].year_range == (2011, 2013)


def test_load_profiles_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("{}", "[5]", '[["name", "category"]]'):
        path.write_text(text)
        with pytest.raises(InputError):
            load_profiles(path)


def test_load_profiles_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text("[{name: 1}]")
    with pytest.raises(InputError) as info:
        load_profiles(path)
    message = str(info.value)
    assert message.startswith(f"profile config {path}: invalid JSON (") and message.endswith("(char 2))")


def test_bundled_profiles_config_matches_defaults():
    loaded = load_profiles(bundled_data("profiles.json"))
    assert {n: p.indicator_weights for n, p in loaded.items()} == {
        n: p.indicator_weights for n, p in default_profiles().items()
    }


# ---------------------------------------------------------------------------
# Filtering and threshold
# ---------------------------------------------------------------------------


def _profile(threshold=1, category="Telecommunications"):
    return SubjectProfile("TEL", category, publication_threshold=threshold,
                          indicator_weights={"PUB": 1})


def test_filter_records_by_category_and_year():
    res = _parse(
        [
            _line("p1", year=2010),
            _line("p2", year=2009),
            _line("p3", year=2015),
            _line("p4", category="Other"),
            _line("p5", year=2014),
        ]
    )
    rows = filter_records(res.records, _profile())
    assert rows.tolist() == [True, False, False, False, True]


def test_threshold_boundary_is_inclusive():
    res = _parse([_line(f"p{i}", affils=("U",)) for i in range(5)])
    assert apply_threshold(res.records, _all(res.records), _profile(threshold=5)) == {"u"}
    res4 = _parse([_line(f"p{i}", affils=("U",)) for i in range(4)])
    assert apply_threshold(res4.records, _all(res4.records), _profile(threshold=5)) == set()


def test_threshold_counts_once_per_listed_affiliation():
    res = _parse([_line("p1", affils=("U", "V", "u"))])
    retained = apply_threshold(res.records, _all(res.records), _profile(threshold=1))
    assert retained == {"u", "v"}


def test_threshold_monotone_in_threshold():
    with open(bundled_data("sample_records.jsonl"), encoding="utf-8") as fh:
        records = parse_records(fh).records
    previous = None
    for t in range(1, 11):
        retained = apply_threshold(records, _all(records), _profile(threshold=t))
        if previous is not None:
            assert retained <= previous
        previous = retained


# ---------------------------------------------------------------------------
# Network construction
# ---------------------------------------------------------------------------


def test_build_single_citation():
    res = _parse(
        [
            _line("p1", affils=("A",), refs=[("p2", ("B",))]),
            _line("p2", affils=("B",)),
        ]
    )
    net = build_network(res.records, _all(res.records), {"a", "b"})
    assert weight_dict(net) == {(net.node_ids.index("a"), net.node_ids.index("b")): 1}


def test_build_cross_product_drops_self_pairs():
    res = _parse(
        [
            _line("p1", affils=("A", "B"), refs=[("p2", ("B", "C"))]),
            _line("p2", affils=("B", "C")),
        ]
    )
    net = build_network(res.records, _all(res.records), {"a", "b", "c"})
    expected = {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
    actual = {
        (net.node_ids[i], net.node_ids[j]): w for (i, j), w in weight_dict(net).items()
    }
    assert actual == expected


def test_build_keeps_self_pairs_when_enabled():
    res = _parse(
        [
            _line("p1", affils=("A", "B"), refs=[("p2", ("B",))]),
            _line("p2", affils=("B",)),
        ]
    )
    net = build_network(res.records, _all(res.records), {"a", "b"}, keep_self_loops=True)
    actual = {
        (net.node_ids[i], net.node_ids[j]): w for (i, j), w in weight_dict(net).items()
    }
    assert actual == {("a", "b"): 1, ("b", "b"): 1}


def test_build_ignores_references_outside_dataset():
    res = _parse(
        [
            _line("p1", affils=("A",), refs=[("pX", ("B",)), (None, ("B",))]),
            _line("p2", affils=("B",)),
        ]
    )
    net = build_network(res.records, _all(res.records), {"a", "b"})
    assert net.n_edges == 0
    assert net.node_ids == ("a", "b")
    # an id that names no record reads as None, like a null one
    assert res.records[0].references == ((None, ("b",)), (None, ("b",)))


def test_build_matches_padded_reference_ids():
    # record ids are trimmed at parse time, so reference ids must be too
    res = _parse(
        [
            _line(" P1 ", affils=("A",)),
            _line("p2", affils=("B",), refs=[(" P1 ", ("A",)), ("P1", ("A",)), ("P1\t", ("A",))]),
        ]
    )
    net = build_network(res.records, _all(res.records), {"a", "b"})
    assert net.total_weight == 3
    assert [ref_id for ref_id, _affils in res.records[1].references] == ["P1", "P1", "P1"]


def test_build_requires_retained_institutions():
    res = _parse([_line("p1")])
    with pytest.raises(InputError):
        build_network(res.records, _all(res.records), set())


def test_build_is_record_order_invariant():
    lines = [
        _line("p1", affils=("A",), refs=[("p2", ("B",)), ("p3", ("C",))]),
        _line("p2", affils=("B",), refs=[("p3", ("C",))]),
        _line("p3", affils=("C",), refs=[]),
    ]
    res_fwd = _parse(lines)
    res_rev = _parse(list(reversed(lines)))
    retained = {"a", "b", "c"}
    net_fwd = build_network(res_fwd.records, _all(res_fwd.records), retained)
    net_rev = build_network(res_rev.records, _all(res_rev.records), retained)
    assert net_fwd.node_ids == net_rev.node_ids
    assert weight_dict(net_fwd) == weight_dict(net_rev)


def test_build_ignores_record_order():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    affils = st.lists(st.sampled_from(["A", "b", " B ", "C", "D"]), min_size=1, max_size=3)
    # references to records in the set (p0..p5), outside it (p9), or without an id
    ref = st.tuples(st.sampled_from(["p0", "p1", "p2", "p3", "p4", "p5", "p9", None]), affils)
    record = st.tuples(affils, st.lists(ref, max_size=4))

    @hypothesis.settings(derandomize=True, database=None)
    @hypothesis.given(st.lists(record, min_size=1, max_size=6), st.booleans(), st.data())
    def check(records, keep_self_loops, data):
        lines = [_line(f"p{k}", affils=a, refs=refs) for k, (a, refs) in enumerate(records)]
        shuffled = data.draw(st.permutations(lines))
        retained = {"a", "b", "c"}
        tables = [_parse(ls).records for ls in (lines, shuffled)]
        nets = [
            build_network(table, _all(table), retained, keep_self_loops=keep_self_loops)
            for table in tables
        ]
        assert nets[0] == nets[1]

    check()


# ---------------------------------------------------------------------------
# Bundled fixture against its hand-counted manifest
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_records():
    with open(bundled_data("sample_records.jsonl"), encoding="utf-8") as fh:
        result = parse_records(fh, strict=True)
    return result.records


@pytest.fixture(scope="module")
def fixture_manifest():
    return json.loads(bundled_data("sample_records_manifest.json").read_text())


def test_fixture_parses_clean(fixture_records):
    assert len(fixture_records) == 20


def test_fixture_publication_counts(fixture_records, fixture_manifest):
    from collections import Counter

    counts = Counter()
    for rec in fixture_records:
        counts.update(rec.affiliations)
    assert dict(counts) == fixture_manifest["publication_counts"]


def test_fixture_retained_set_at_threshold_3(fixture_records, fixture_manifest):
    profile = _profile(threshold=fixture_manifest["threshold"])
    retained = apply_threshold(fixture_records, filter_records(fixture_records, profile), profile)
    assert sorted(retained) == fixture_manifest["retained"]
    assert len(retained) == 4


def test_fixture_retained_counts_by_threshold(fixture_records, fixture_manifest):
    for t_str, expected in fixture_manifest["retained_count_by_threshold"].items():
        profile = _profile(threshold=int(t_str))
        retained = apply_threshold(fixture_records, _all(fixture_records), profile)
        assert len(retained) == expected, f"threshold {t_str}"


def test_fixture_network_matches_hand_count(fixture_records, fixture_manifest):
    profile = _profile(threshold=fixture_manifest["threshold"])
    rows = filter_records(fixture_records, profile)
    net = build_network(fixture_records, rows, apply_threshold(fixture_records, rows, profile))
    assert net.n_nodes == fixture_manifest["nodes"]
    assert net.n_edges == fixture_manifest["edge_count"]
    assert net.total_weight == fixture_manifest["total_weight"]
    actual_edges = sorted(
        [net.node_ids[i], net.node_ids[j], w] for (i, j), w in weight_dict(net).items()
    )
    assert actual_edges == sorted(fixture_manifest["edges"])


def test_fixture_total_weight_matches_brute_force(fixture_records, fixture_manifest):
    # independent recount: loop over every reference and every affiliation pair
    retained = set(fixture_manifest["retained"])
    ids = {r.pub_id for r in fixture_records}
    total = 0
    for rec in fixture_records:
        for ref_id, ref_affiliations in rec.references:
            if ref_id not in ids:
                continue
            for a in set(rec.affiliations) & retained:
                for b in set(ref_affiliations) & retained:
                    if a != b:
                        total += 1
    assert total == fixture_manifest["total_weight"]


def test_parsed_references_add_no_tracked_objects():
    # references live in arrays, not in one object each: repeating every
    # record's references 50 times leaves the cyclic GC no more to track
    lines = bundled_data("sample_records.jsonl").read_text(encoding="utf-8").splitlines()
    objs = [json.loads(line) for line in lines]
    repeated = [json.dumps({**obj, "references": obj["references"] * 50}) for obj in objs]

    def tracked_after_parse(source):
        result = parse_records(source, strict=True)
        gc.collect()
        return len(gc.get_objects()), result

    tracked_after_parse(lines)  # first calls may cache what later ones reuse
    base, result = tracked_after_parse(lines)
    references = int(result.records.reference_offsets[-1])
    del result
    grown, result = tracked_after_parse(repeated)
    assert references and int(result.records.reference_offsets[-1]) == 50 * references
    assert grown <= base


def test_parsed_memory_does_not_grow_with_reference_id_length():
    # the ids a reference names are looked up and dropped: outside ids of 8
    # or of 200 characters leave the same table behind
    def corpus(width):
        rng = np.random.default_rng(3)
        return [
            _line(f"p{k}", affils=(f"U{k % 50}",), refs=[
                (f"{int(n):0{width}d}", (f"U{int(n) % 50}",)) for n in rng.integers(0, 10**8, 20)
            ])
            for k in range(1000)
        ]

    def retained(lines):
        tracemalloc.start()
        try:
            result = parse_records(lines)
            current, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(result.records.reference_offsets[-1]) == 20_000
        return current

    short, long = corpus(8), corpus(200)
    retained(short)  # first calls may cache what later ones reuse
    # 20,000 ids of 192 more characters each would hold about 3.8 MB more
    assert abs(retained(long) - retained(short)) < 64_000


def test_network_memory_does_not_grow_with_outside_references():
    # references that name no record are found with one byte each and never
    # indexed: 20,000 more of them, with affiliations, leave build_network's
    # peak within two bytes apiece
    def table(outside):
        rng = np.random.default_rng(4)
        lines = []
        for k in range(1000):
            refs = [(f"p{int(rng.integers(0, 1000))}", (f"U{k % 7}",))]
            refs += [(f"x{k}-{j}", (f"U{j}", f"U{j + 1}")) for j in range(outside)]
            lines.append(_line(f"p{k}", affils=(f"U{k % 50}",), refs=refs))
        return _parse(lines).records

    def peak(records):
        rows = _all(records)
        retained = apply_threshold(records, rows, _profile())
        tracemalloc.start()
        try:
            net = build_network(records, rows, retained)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.total_weight > 500
        return peak

    few, many = table(0), table(20)
    assert int(many.reference_offsets[-1]) - int(few.reference_offsets[-1]) == 20_000
    assert np.array_equal(few.cited, many.cited[many.cited >= 0])
    peak(few)  # first calls may cache what later ones reuse
    assert peak(many) - peak(few) < 40_000


def test_record_table_columns_are_32_bit_positions_and_int64_offsets():
    table = _parse([_line("p1", affils=("A", "B"), refs=[("p2", ("B",)), ("p9", ())]), _line("p2")]).records
    for name in ("affiliations", "reference_affiliations", "cited"):
        assert getattr(table, name).dtype == np.intc
    for name in ("affiliation_offsets", "reference_offsets", "reference_affiliation_offsets"):
        assert getattr(table, name).dtype == np.int64
    assert table.cited.tolist() == [1, -1]


def test_index_position_stops_below_2_to_the_31():
    assert index_position(2**31 - 2, "records") == 2**31 - 2
    for k in (2**31 - 1, 2**31):
        with pytest.raises(InputError, match="more than 2147483647 records: positions are 32-bit"):
            index_position(k, "records")


@pytest.mark.parametrize("strict", [False, True])
def test_a_table_past_the_index_limit_is_an_input_error(monkeypatch, strict):
    # no test can read 2**31 ids, so the limit is lowered to 3
    monkeypatch.setattr(network, "INDEX_LIMIT", 3)
    three = [_line("p1", affils=("A", "B")), _line("p2", affils=("C",))]
    assert len(_parse(three, strict).records) == 2
    with pytest.raises(InputError, match="more than 3 institutions"):
        _parse(three + [_line("p3", affils=("D",))], strict)
    with pytest.raises(InputError, match="more than 3 institutions"):
        _parse(three + [_line("p3", affils=("A",), refs=[("p1", ("D",))])], strict)
    with pytest.raises(InputError, match="more than 3 records"):
        _parse(three + [_line("p3", affils=("A",)), _line("p4", affils=("b",))], strict)
    table = _parse(three).records
    with pytest.raises(InputError, match="more than 3 nodes"):
        build_network(table, _all(table), {"a", "b", "c", "zz"})
    with pytest.raises(InputError, match="more than 3 nodes"):
        CitationNetwork.from_edges(["a", "b"], ["c", "d"], [1, 1])


# ---------------------------------------------------------------------------
# The record table against the per-record reference pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("year", [10**30, -(10**30)])
def test_year_beyond_int64_parses_and_misses_every_window(year):
    res = _parse([_line("p1", year=year), _line("p2", affils=("B",), refs=[("p1", ("A",))])])
    assert not res.issues
    assert res.records[0].year == year and type(res.records[0].year) is int
    for profile in default_profiles().values():
        rows = filter_records(res.records, replace(profile, category="Telecommunications"))
        assert rows.tolist() == [False, True]
    # years compare as Python ints, so a window reaching the year holds it
    wide = replace(_profile(), year_range=(min(year, 2012), max(year, 2012)))
    assert filter_records(res.records, wide).tolist() == [True, True]
    assert _kept(res.records, filter_records(res.records, wide)) == reference_filter_records(
        list(res.records), wide
    )


@pytest.mark.parametrize("keep_self_loops, expected", [
    (False, {("a", "b"): 1, ("b", "a"): 1}),
    (True, {("a", "a"): 1, ("a", "b"): 1, ("b", "a"): 1, ("b", "b"): 1}),
])
def test_reference_to_its_own_record_counts(keep_self_loops, expected):
    lines = [_line("p1", affils=("A", "B"), refs=[(" p1 ", ("B", "A"))])]
    res = _parse(lines)
    assert res.records[0].references == (("p1", ("b", "a")),)
    assert res.records.cited.tolist() == [0]
    net = build_network(res.records, _all(res.records), {"a", "b"}, keep_self_loops=keep_self_loops)
    actual = {(net.node_ids[i], net.node_ids[j]): w for (i, j), w in weight_dict(net).items()}
    assert actual == expected
    assert net == reference_build_network(list(res.records), {"a", "b"}, keep_self_loops)


def test_record_table_is_a_read_only_sequence():
    lines = [
        _line("p1", affils=("A", " b "), refs=[("p2", ("B",)), (None, ())]),
        _line("p2", affils=("B",), refs=[]),
        _line("p3", year=2015, affils=("C",), refs=[("p1", ("A", "C"))]),
    ]
    table = _parse(lines).records
    records = reference_parse_records(lines).records
    assert len(table) == 3 and bool(table)
    assert list(table) == [table[0], table[1], table[2]] == records
    assert table[-1] == records[-1] and table[1:] == records[1:]
    assert type(table[0].year) is int and type(table[0].pub_id) is str
    assert table.categories[0] is table.categories[2]  # one str per distinct category
    with pytest.raises(IndexError):
        table[3]
    for name in ("affiliations", "cited", "reference_affiliations", "pub_ids", "categories"):
        with pytest.raises(ValueError):
            getattr(table, name)[0] = 0
    assert table.cited.tolist() == [1, -1, 0]
    assert filter_records(table, replace(_profile(), year_range=(2000, 2020))).tolist() == [True] * 3
    assert filter_records(table, _profile()).tolist() == [True, True, False]


@pytest.mark.parametrize("rows", [
    np.array([0, 1]), np.array([1, 0, 1]), np.array([True, True]),
    np.ones((3, 1), dtype=bool), np.array(True),
], ids=["int-index", "int-0-1", "short", "2-d", "0-d"])
def test_a_row_mask_must_be_one_bool_per_record(rows):
    table = _parse([_line("p1", refs=[("p2", ("A",))]), _line("p2"), _line("p3")]).records
    with pytest.raises(InputError, match="1-D bool mask"):
        apply_threshold(table, rows, _profile())
    with pytest.raises(InputError, match="1-D bool mask"):
        build_network(table, rows, {"uni-a"})


def test_record_table_pipeline_matches_per_record_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    spellings = ["A", " a ", "B", "b ", "C", "  ", "D"]
    affils = st.lists(st.sampled_from(spellings), max_size=3)
    # references to records (padded or not), outside the set (p9), without an
    # id (null, empty or blank), or with a NUL inside the id; a record citing
    # its own id is drawn like any other
    ref = st.tuples(
        st.sampled_from(["p0", "p1", " p2 ", "p3", "P1", "p9", None, "", "  ", "p\x001", "\x00", "p1\x00"]),
        affils,
    )
    # record k is p{k}, padded, upper-cased or with a NUL inside, or repeats p0
    record = st.tuples(
        st.sampled_from(["p{}", " p{} ", "P{}", "p0", "p\x00{}"]),
        st.sampled_from([2012, 2010, 2014, 2009, 2015, 10**30, -(10**30)]),
        st.sampled_from(["Telecommunications", " telecommunications", "TELECOMMUNICATIONS", "Other"]),
        affils,
        st.lists(ref, max_size=3),
    )
    malformed = st.sampled_from([
        "", "  ", "{broken", "[1]", _record(year="2012"), _record(affiliations=[]),
        _record(refs=[_ref(), "p1"]), _record(refs=[_ref(affiliations=[1])]),
        _record(refs=[_ref(pub_id=5)]),
    ])
    rows = st.lists(st.one_of(record, record, record, malformed), min_size=1, max_size=8)

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(rows, st.integers(1, 2), st.booleans(), st.booleans())
    # a kept record and one left out cite each other: neither citation counts
    @hypothesis.example([
        ("p{}", 2012, "Telecommunications", ["A"], [("p1", ["B"])]),
        ("p{}", 2015, "Telecommunications", ["B"], [("p0", ["A"])]),
        ("p{}", 2012, "Telecommunications", ["B"], []),
    ], 1, False, False)
    # ids with a NUL inside, cited forward and back, next to ids without one
    # on the same line, and a NUL alone, which names no record
    @hypothesis.example([
        ("p\x00{}", 2012, "Telecommunications", ["A"], [("p\x001", ["B"]), ("p1", ["B"]), ("\x00", ["A"])]),
        ("p\x00{}", 2012, "Telecommunications", ["B"], [("p\x000", ["A"]), (None, ["A"])]),
        ("p{}", 2012, "Telecommunications", ["A"], [("p\x001", ["B"]), ("p\x000\x00", ["B"])]),
    ], 1, True, False)
    # blank, empty, null and padded ids, a forward and a backward citation, a
    # record citing itself, and lines without references
    @hypothesis.example([
        ("p{}", 2012, "Telecommunications", ["A"], [("  ", ["B"]), (None, ["B"]), (" p2 ", ["B"]), ("p0", ["A", "B"])]),
        ("p{}", 2012, "Telecommunications", ["B"], []),
        (" p{} ", 2012, "Telecommunications", ["B"], [("p0", ["A"]), ("", ["A"]), ("P2", ["A"])]),
        ("p{}", 2012, "Telecommunications", ["C"], []),
    ], 1, True, True)
    def check(rows, threshold, keep_self_loops, strict):
        lines = [
            row if isinstance(row, str)
            else _line(row[0].format(k), year=row[1], category=row[2], affils=row[3], refs=row[4])
            for k, row in enumerate(rows)
        ]
        text = "\n".join(lines) + "\n"
        try:
            expected = reference_parse_records(io.StringIO(text), strict=strict)
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                parse_records(io.StringIO(text), strict=strict)
            assert str(raised.value) == str(exc)
            return
        parsed = parse_records(io.StringIO(text), strict=strict)
        assert parsed.issues == expected.issues
        assert list(parsed.records) == expected.records
        profile = _profile(threshold=threshold)
        table = parsed.records
        pairs = [(_all(table), expected.records)]  # every row, as a library caller may pass
        pairs.append((filter_records(table, profile),
                      reference_filter_records(expected.records, profile)))
        for rows, records in pairs:
            assert _kept(table, rows) == records
            retained = apply_threshold(table, rows, profile)
            assert retained == reference_apply_threshold(records, profile)
            for nodes in (retained, retained | {"zz"}):  # an id no record lists
                if not nodes:
                    with pytest.raises(InputError):
                        build_network(table, rows, nodes, keep_self_loops)
                    continue
                net = build_network(table, rows, nodes, keep_self_loops)
                assert net == reference_build_network(records, nodes, keep_self_loops)

    check()


@pytest.mark.parametrize("block_pairs", [1, 7, ingest._BLOCK_PAIRS])
def test_pair_expansion_in_blocks_matches_reference(monkeypatch, block_pairs):
    # blocks smaller than one record's pairs, a few pairs, and the default size
    monkeypatch.setattr(ingest, "_BLOCK_PAIRS", block_pairs)
    # references to p0-p139 name one of the 120 records six times in seven;
    # to p0-p1399 once in twelve, as most references of a corpus name none
    for cited_ids, most_refs in ((140, 6), (1400, 40)):
        rng = np.random.default_rng(12)
        names = [f"U{k}" for k in range(12)]
        lines = []
        for k in range(120):
            refs = [
                (f"p{rng.integers(0, cited_ids)}", tuple(rng.choice(names, size=rng.integers(0, 5))))
                for _ in range(rng.integers(0, most_refs))
            ]
            affils = tuple(rng.choice(names, size=rng.integers(1, 9)))
            lines.append(_line(f"p{k}", year=int(rng.choice([2009, 2012])), affils=affils, refs=refs))
        parsed, expected = _parse(lines), reference_parse_records(lines)
        named = (parsed.records.cited >= 0).mean()  # share of references naming a record
        assert (named < 0.1) if cited_ids > 140 else (named > 0.8)
        profile = _profile(threshold=3)
        rows = filter_records(parsed.records, profile)
        records = reference_filter_records(expected.records, profile)
        retained = apply_threshold(parsed.records, rows, profile)
        for keep_self_loops in (False, True):
            net = build_network(parsed.records, rows, retained, keep_self_loops)
            assert net == reference_build_network(records, retained, keep_self_loops)
            assert net.total_weight > 100
