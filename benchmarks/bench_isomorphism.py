"""Substrate bench — VF2 embedding enumeration vs networkx.

The certificate generator calls the matcher once per violation with a
path-shaped pattern and the detached template as the host (the DotMotif
role in the paper's tool chain). This bench times our matcher against
networkx's DiGraphMatcher on exactly that workload and asserts both
enumerate the same number of embeddings.
"""

import networkx as nx
import pytest

from repro.casestudies import epn, rpl
from repro.graph.digraph import DiGraph
from repro.graph.isomorphism import find_embeddings
from repro.reporting.tables import render_table

from benchmarks.conftest import report

_COUNTS = {}
#: Per case and matcher, the median seconds of one enumeration.
_MEDIANS = {}


def _epn_host():
    mt, _ = epn.build_problem(2, 2, 1)
    return mt.template.graph()


def _rpl_host():
    mt, _ = rpl.build_problem(3, 2)
    return mt.template.graph()


def _route_pattern(host, labels):
    pattern = DiGraph("pattern")
    previous = None
    for index, label in enumerate(labels):
        node = f"p{index}"
        pattern.add_node(node, label=label)
        if previous is not None:
            pattern.add_edge(previous, node)
        previous = node
    return pattern


EPN_LABELS = ["generator", "ac_bus", "ru", "dc_bus", "load"]
RPL_LABELS = ["source", "conveyor", "machine_a", "conveyor", "machine_a",
              "conveyor", "sink"]

CASES = {
    "epn(2,2,1)-route": (_epn_host, EPN_LABELS),
    "rpl(3,2)-line": (_rpl_host, RPL_LABELS),
}


def _to_nx(graph):
    out = nx.DiGraph()
    for node in graph.nodes():
        out.add_node(node, label=graph.label(node))
    out.add_edges_from(graph.edges())
    return out


@pytest.mark.parametrize("case", list(CASES), ids=str)
def test_vf2_ours(benchmark, case):
    build_host, labels = CASES[case]
    host = build_host()
    pattern = _route_pattern(host, labels)
    embeddings = benchmark(find_embeddings, host, pattern)
    _MEDIANS.setdefault(case, {})["ours"] = benchmark.stats.stats.median
    _COUNTS.setdefault(case, {})["ours"] = len(embeddings)
    assert embeddings


@pytest.mark.parametrize("case", list(CASES), ids=str)
def test_vf2_networkx(benchmark, case):
    build_host, labels = CASES[case]
    host = _to_nx(build_host())
    # Build the pattern directly in networkx form.
    pat = nx.DiGraph()
    previous = None
    for index, label in enumerate(labels):
        node = f"p{index}"
        pat.add_node(node, label=label)
        if previous is not None:
            pat.add_edge(previous, node)
        previous = node

    def enumerate_nx():
        matcher = nx.algorithms.isomorphism.DiGraphMatcher(
            host, pat, node_match=lambda a, b: a["label"] == b["label"]
        )
        return sum(1 for _ in matcher.subgraph_monomorphisms_iter())

    count = benchmark(enumerate_nx)
    _MEDIANS.setdefault(case, {})["networkx"] = benchmark.stats.stats.median
    _COUNTS.setdefault(case, {})["networkx"] = count


@pytest.fixture(scope="module", autouse=True)
def _verify_counts(results_dir):
    yield
    for case, counts in _COUNTS.items():
        if "ours" in counts and "networkx" in counts:
            assert counts["ours"] == counts["networkx"], (case, counts)
    _render_report(results_dir)


def _render_report(results_dir):
    """Table + BENCH JSON twin: per case, embeddings and the median
    time of one enumeration per matcher (pytest-benchmark's rounds; its
    calibration loop is not counted). The full distributions stay in
    pytest-benchmark's own output.
    """
    if not _COUNTS:
        return
    rows = []
    data = {}
    for case in CASES:
        counts = _COUNTS.get(case, {})
        medians = _MEDIANS.get(case, {})
        if "ours" not in counts:
            continue
        ours_t = medians.get("ours")
        nx_t = medians.get("networkx")
        rows.append(
            [
                case,
                counts["ours"],
                f"{ours_t * 1e3:.3f}" if ours_t is not None else "-",
                f"{nx_t * 1e3:.3f}" if nx_t is not None else "-",
                f"{nx_t / ours_t:.1f}x" if ours_t and nx_t else "-",
            ]
        )
        data[case] = {
            "embeddings": counts["ours"],
            "native_median_s": ours_t,
            "networkx_median_s": nx_t,
        }
    text = render_table(
        ["case", "embeddings", "native ms", "networkx ms", "speedup"],
        rows,
        title="Substrate - VF2 embedding enumeration vs networkx",
    )
    report(results_dir, "isomorphism.txt", text, data=data)
