"""Span tracing of citerank from outside the package.

`traced(tracer)` replaces the public functions the CLI reaches with timing
wrappers, at the names the callers look them up under, and restores them on
exit. Nothing inside citerank changes. A span's self time is its duration
minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects self times and counts for one traced chain.

    The outermost span is the command; self times are kept per
    (command, span) so each command's wall time splits into its spans.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.wall_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._command = ""

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        if not self._stack:
            self._command = name
        child = [0.0]
        self._stack.append(child)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self.self_s[(self._command, name)] += duration - child[0]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += duration
            else:
                self.wall_s[name] += duration

    def self_time(self, name: str) -> float:
        """Self time of a span summed over every command that opened it."""
        return sum(t for (_command, span), t in self.self_s.items() if span == name)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counts, result, args)
            return result

        return wrapper


def _count_parse(counts, result, _args):
    counts["ingest.parse_records.records"] += len(result.records)
    counts["ingest.parse_records.issues"] += len(result.issues)
    counts["ingest.references_read"] += sum(len(rec.references) for rec in result.records)


def _count_written(position):
    def count(counts, _result, args):
        counts["fileio.bytes_written"] += os.path.getsize(args[position])

    return count


def _count_read(counts, _result, args):
    counts["fileio.bytes_read"] += os.path.getsize(args[0])


def _set(key, value_of):
    def count(counts, result, _args):
        counts[key] = value_of(result)

    return count


def _hooks():
    """(owner, attribute, span name, counter) for every traced function.

    Owners are where the callers resolve the name: the CLI calls `ingest.X`,
    `fileio.X` and friends through the module, but binds `pagerank` into its
    own namespace at import. The package attribute `citerank.pagerank` is
    that function, so the module comes from sys.modules.
    """
    import citerank.cli as cli
    from citerank import fileio, ingest, network, rankstats, scoring, synthnet

    pr_module = sys.modules["citerank.pagerank"]
    return [
        (ingest, "parse_records", "ingest.parse_records", _count_parse),
        (ingest, "filter_records", "ingest.filter_records", None),
        (ingest, "apply_threshold", "ingest.apply_threshold", None),
        (ingest, "build_network", "ingest.build_network",
         _set("ingest.build_network.citations", lambda net: net.total_weight)),
        (network.CitationNetwork, "build", "network.CitationNetwork.build", None),
        (network.CitationNetwork, "from_edges", "network.from_edges",
         _set("network.edges", lambda net: net.n_edges)),
        (network, "degree_report", "network.degree_report", None),
        (pr_module, "normalize_weights", "pagerank.normalize_weights", None),
        (cli, "pagerank", "pagerank.solve",
         _set("pagerank.iterations", lambda res: res.iterations_used)),
        (fileio, "write_edge_list", "fileio.write_edge_list", _count_written(1)),
        (fileio, "read_edge_list", "fileio.read_edge_list", _count_read),
        (fileio, "write_nodes_csv", "fileio.write_nodes_csv", _count_written(1)),
        (fileio, "write_ranking_csv", "fileio.write_ranking_csv", _count_written(0)),
        (fileio, "read_score_table", "fileio.read_score_table", _count_read),
        (scoring, "normalize_pagerank", "scoring.normalize_pagerank", None),
        (rankstats, "compare_columns", "rankstats.compare_columns", None),
        (rankstats, "correlation_matrix", "rankstats.correlation_matrix", None),
        (rankstats, "pca", "rankstats.pca", None),
        (synthnet, "generate_traced", "synthnet.generate_traced",
         _set("synthnet.citations", lambda res: res.network.total_weight)),
    ]


# the spans each CLI command opens on every run; a traced chain that misses
# one of its commands' spans fails
COMMAND_SPANS = {
    "build": (
        "ingest.parse_records", "ingest.filter_records", "ingest.apply_threshold",
        "ingest.build_network", "network.CitationNetwork.build", "network.degree_report",
        "fileio.write_edge_list", "fileio.write_nodes_csv",
    ),
    "pagerank": (
        "fileio.read_edge_list", "network.from_edges", "network.CitationNetwork.build",
        "pagerank.solve", "pagerank.normalize_weights", "scoring.normalize_pagerank",
        "fileio.write_ranking_csv",
    ),
    "compare": ("fileio.read_score_table", "rankstats.compare_columns"),
    "pca": ("fileio.read_score_table", "rankstats.correlation_matrix", "rankstats.pca"),
    "synth": ("synthnet.generate_traced", "network.CitationNetwork.build", "fileio.write_edge_list"),
}


def span_names() -> list[str]:
    return [name for _owner, _attr, name, _count in _hooks()]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the timing wrappers for the duration of the block.

    A hook whose target no longer exists raises here, so a rename in
    citerank fails the traced run instead of reporting 0 s.
    """
    hooks = _hooks()
    saved = []
    try:
        for owner, attr, name, count in hooks:
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(name, raw.__func__, count))
            else:
                wrapped = tracer.wrap(name, raw, count)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
