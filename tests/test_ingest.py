import io
import json

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
from citerank.errors import InputError, ParseError
from citerank.fileio import bundled_data

from conftest import weight_dict


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
    with pytest.raises(ValueError):
        SubjectProfile("x", "c", indicator_weights={"PUB": 0})
    with pytest.raises(ValueError):
        SubjectProfile("x", "c", indicator_weights={"BOGUS": 5})


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
    path.write_text("{}")
    with pytest.raises(InputError):
        load_profiles(path)


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
    kept = filter_records(res.records, _profile())
    assert [r.pub_id for r in kept] == ["p1", "p5"]


def test_threshold_boundary_is_inclusive():
    res = _parse([_line(f"p{i}", affils=("U",)) for i in range(5)])
    assert apply_threshold(res.records, _profile(threshold=5)) == {"u"}
    res4 = _parse([_line(f"p{i}", affils=("U",)) for i in range(4)])
    assert apply_threshold(res4.records, _profile(threshold=5)) == set()


def test_threshold_counts_once_per_listed_affiliation():
    res = _parse([_line("p1", affils=("U", "V", "u"))])
    retained = apply_threshold(res.records, _profile(threshold=1))
    assert retained == {"u", "v"}


def test_threshold_monotone_in_threshold():
    with open(bundled_data("sample_records.jsonl"), encoding="utf-8") as fh:
        records = parse_records(fh).records
    previous = None
    for t in range(1, 11):
        retained = apply_threshold(records, _profile(threshold=t))
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
    net = build_network(res.records, {"a", "b"}, _profile())
    assert weight_dict(net) == {(net.node_ids.index("a"), net.node_ids.index("b")): 1}


def test_build_cross_product_drops_self_pairs():
    res = _parse(
        [
            _line("p1", affils=("A", "B"), refs=[("p2", ("B", "C"))]),
            _line("p2", affils=("B", "C")),
        ]
    )
    net = build_network(res.records, {"a", "b", "c"}, _profile())
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
    net = build_network(res.records, {"a", "b"}, _profile(), keep_self_loops=True)
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
    net = build_network(res.records, {"a", "b"}, _profile())
    assert net.n_edges == 0
    assert net.node_ids == ("a", "b")


def test_build_requires_retained_institutions():
    res = _parse([_line("p1")])
    with pytest.raises(InputError):
        build_network(res.records, set(), _profile())


def test_build_is_record_order_invariant():
    lines = [
        _line("p1", affils=("A",), refs=[("p2", ("B",)), ("p3", ("C",))]),
        _line("p2", affils=("B",), refs=[("p3", ("C",))]),
        _line("p3", affils=("C",), refs=[]),
    ]
    res_fwd = _parse(lines)
    res_rev = _parse(list(reversed(lines)))
    retained = {"a", "b", "c"}
    net_fwd = build_network(res_fwd.records, retained, _profile())
    net_rev = build_network(res_rev.records, retained, _profile())
    assert net_fwd.node_ids == net_rev.node_ids
    assert weight_dict(net_fwd) == weight_dict(net_rev)


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
    retained = apply_threshold(filter_records(fixture_records, profile), profile)
    assert sorted(retained) == fixture_manifest["retained"]
    assert len(retained) == 4


def test_fixture_retained_counts_by_threshold(fixture_records, fixture_manifest):
    for t_str, expected in fixture_manifest["retained_count_by_threshold"].items():
        retained = apply_threshold(fixture_records, _profile(threshold=int(t_str)))
        assert len(retained) == expected, f"threshold {t_str}"


def test_fixture_network_matches_hand_count(fixture_records, fixture_manifest):
    profile = _profile(threshold=fixture_manifest["threshold"])
    retained = apply_threshold(filter_records(fixture_records, profile), profile)
    net = build_network(fixture_records, retained, profile)
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
        for ref in rec.references:
            if ref.pub_id not in ids:
                continue
            for a in set(rec.affiliations) & retained:
                for b in set(ref.affiliations) & retained:
                    if a != b:
                        total += 1
    assert total == fixture_manifest["total_weight"]
