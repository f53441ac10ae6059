"""Generator tests: validation, planted recoverability, determinism, label stats."""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rptdetect.errors import InfeasibleConfig
from rptdetect.hetgraph import load_graph, load_labels, save_graph
from rptdetect.matcher import enumerate_instances
from rptdetect.patterns import bundled_patterns
from rptdetect.synth import (CommunityInfo, GenConfig, GroundTruth, _cdf, _draw, _json,
                             _power_weights, export, generate, save_ground_truth,
                             scaled_config)


def anchored_multisets(graph, pattern):
    """Each matched instance as (anchor node, sorted node tuple)."""
    rows = enumerate_instances(graph, pattern, cap=4096, cap_mode="truncate")
    anchor = pattern.role_names.index(pattern.anchor)
    return {(row[anchor], tuple(sorted(row))) for row in rows.tolist()}


SMALL = GenConfig(companies=80, persons=70, items=20, events=6,
                  communities=8, decoy_communities=4, feature_dim=4,
                  label_coverage=1.0, seed=21)


def test_generated_graph_validates_against_bundled_schema():
    graph, labels, truth = generate(SMALL)
    assert set(graph.schema.node_types) == {"company", "person", "item", "event"}
    assert len(graph.schema.edge_types) == 6
    assert all(graph.types[graph.index[i]] == "company" for i in labels)
    assert len(truth.communities) == 12


def test_every_planted_instance_is_found_by_the_matcher():
    graph, _, truth = generate(SMALL)
    found = {pattern.pattern_id: anchored_multisets(graph, pattern)
             for pattern in bundled_patterns()}
    for info in truth.communities:
        for pid, anchor, node_ids in info.instances:
            nodes = tuple(graph.index[v] for v in node_ids)
            key = tuple(sorted(nodes))
            assert (graph.index[anchor], key) in found[pid], (pid, anchor, node_ids)


def test_decoy_wiring_instantiates_only_its_pattern():
    # a decoy group in isolation: no transactions or shared items beyond plan
    bare = GenConfig(companies=8, persons=10, items=3, events=0,
                     communities=0, decoy_communities=2, label_coverage=1.0,
                     transaction_density=0.0, invest_coverage=0.0,
                     item_trade_rate=0.0, event_degree=0.0,
                     category_density=0.0, feature_dim=3, seed=7)
    graph, _, truth = generate(bare)
    per_pattern = {
        p.pattern_id: enumerate_instances(graph, p, cap=512)
        for p in bundled_patterns()
    }
    pattern_roles = {p.pattern_id: p.roles for p in bundled_patterns()}
    assert len(per_pattern["PCPCP"]) and len(per_pattern["PCICP"])
    for pid in ("PCCP", "PCCCP", "PCPCCP"):
        assert per_pattern[pid].shape == (0, len(pattern_roles[pid]))
    kinds = {info.kind for info in truth.communities}
    assert kinds == {"decoy_invest", "decoy_item"}


def test_recoverability_at_reference_scale():
    # four-type population with dedicated pools: every planted group's
    # instances must come back from the matcher
    graph, _, truth = generate(GenConfig(
        companies=2000, persons=1000, items=200, events=100,
        communities=60, decoy_communities=20, feature_dim=3,
        label_coverage=0.3, seed=17))
    assert len(graph) == 3300
    found = {pattern.pattern_id: anchored_multisets(graph, pattern)
             for pattern in bundled_patterns()}
    planted = 0
    for info in truth.communities:
        for pid, anchor, node_ids in info.instances:
            nodes = tuple(sorted(graph.index[v] for v in node_ids))
            assert (graph.index[anchor], nodes) in found[pid], (pid, anchor)
            planted += 1
    assert planted == 60 * 5


def saved_bytes(graph, out_dir):
    return {key: Path(path).read_bytes() for key, path in save_graph(graph, out_dir).items()}


def test_export_round_trip_equality(tmp_path):
    graph, labels, _ = generate(SMALL)
    paths = export(graph, labels, tmp_path / "a")
    again = load_graph(paths["schema"], paths["nodes"], paths["edges"])
    assert saved_bytes(again, tmp_path / "b") == saved_bytes(graph, tmp_path / "c")
    assert load_labels(paths["labels"]) == labels


def test_same_seed_exports_byte_identical_files(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    ga, la, _ = generate(SMALL)
    gb, lb, _ = generate(SMALL)
    pa = export(ga, la, a_dir)
    pb = export(gb, lb, b_dir)
    for key in pa:
        assert open(pa[key], "rb").read() == open(pb[key], "rb").read(), key


def test_different_seeds_differ(tmp_path):
    ga, _, _ = generate(SMALL)
    gb, _, _ = generate(GenConfig(**{**SMALL.__dict__, "seed": 22}))
    assert saved_bytes(ga, tmp_path / "a") != saved_bytes(gb, tmp_path / "b")


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_cdf_draws_match_generator_choice(seed):
    """The same indices as ``rng.choice(n, p=w)``, and the stream left where it leaves it."""
    weight_sets = [np.array([1.0]), np.array([0.2, 0.0, 0.5, 0.3]),
                   np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.5, 0.5, 0.0]),
                   _power_weights(50, 2.5, np.random.default_rng(seed))]
    for w in weight_sets:
        for size in (None, 2):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            cdf = _cdf(w)
            for _ in range(200):
                np.testing.assert_array_equal(_draw(cdf, ours, size),
                                              theirs.choice(len(w), size=size, p=w))
            assert ours.random() == theirs.random()


# sha256 of the files written for SMALL by the generator that drew each
# weighted index with ``rng.choice(n, p=w)``; the CDF draws keep the data.
# graph.bin, the sidecar of schema/nodes/edges, was pinned when it was added.
SMALL_DIGESTS = {
    "communities.json": "955e1fd538467e9bc5a1f15f37c59ff0b8ad15d8ecf88e0091a249f358bdcaca",
    "edges.csv": "746cfeb96715400931dada275e8cf443d954d813ffc5241b7874ed68dc8b0c44",
    "graph.bin": "0da6cb1942ccb4b76cb2f4a16fcd0edbce8720a990d5d59c10f58bb8d778782c",
    "labels.csv": "034bc296fdf1db05caffc23f8fc171953f508a768264d83fc9b41cca0aa20b46",
    "nodes.csv": "180ef32fef03f94764fb91bf6601c2c796660d10010b64fe766f87ccda6339f1",
    "schema.json": "11c6fe11553640380a2a134e11760462b94067fd6b3f5b73c9a69f3b84bb3a9b",
}


def test_small_config_exports_pinned_bytes(tmp_path):
    graph, labels, truth = generate(SMALL)
    export(graph, labels, tmp_path)
    save_ground_truth(truth, tmp_path / "communities.json")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == SMALL_DIGESTS


ODD_IDS = ["c\u00e9", "p\u4e2d\U0001f600", 'q"x', "b\\s", "t\tn\nr\r\x00\x1f\x7f", ""]


@pytest.mark.parametrize("truth", [
    GroundTruth([], {}, {}),
    GroundTruth([CommunityInfo("decoy_item", [], [], [])], {}, {}),
    GroundTruth([CommunityInfo("evasion", ODD_IDS[:2], ODD_IDS[2:], ODD_IDS,
                               [("PCCP", ODD_IDS[0], ()), ("PCCCP", ODD_IDS[3], tuple(ODD_IDS))])],
                dict(zip(ODD_IDS, range(-3, 3))), {i: 1 for i in ODD_IDS}),
], ids=["no-communities", "empty-lists", "odd-ids"])
def test_communities_json_is_the_stdlib_indent_output(truth, tmp_path):
    path = tmp_path / "communities.json"
    save_ground_truth(truth, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert path.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[[]], {"b": [{}]}],
    {"z": 1, "a": [0, -5, 2**70], "m": {"y": [], "x": {"k": "v"}}},
    {k: [k, {k: []}] for k in ODD_IDS},
])
def test_json_writer_nests_like_the_stdlib(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_label_coverage_and_empty_labels():
    _, labels, _ = generate(GenConfig(**{**SMALL.__dict__, "label_coverage": 0.5}))
    assert len(labels) == 40
    _, empty, _ = generate(GenConfig(**{**SMALL.__dict__, "label_coverage": 0.0}))
    assert empty == {}


def test_label_statistics_match_configured_probabilities():
    config = GenConfig(companies=2500, persons=2000, items=300, events=40,
                       communities=300, decoy_communities=0, p_rpt=0.8,
                       p_bg=0.1, label_coverage=1.0, feature_dim=3, seed=33)
    _, labels, truth = generate(config)
    members = {c for info in truth.communities for c in info.companies}
    inside = [labels[c] for c in sorted(members)]
    outside = [y for c, y in labels.items() if c not in members]
    for sample, p in ((inside, 0.8), (outside, 0.1)):
        n = len(sample)
        rate = sum(sample) / n
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(rate - p) <= 3 * sigma, (rate, p, n)


def test_null_model_labels_independent_of_structure():
    config = GenConfig(companies=2000, persons=1600, items=250, events=30,
                       communities=250, decoy_communities=0, p_rpt=0.15,
                       p_bg=0.15, class_shift=0.0, label_coverage=1.0,
                       feature_dim=3, seed=44)
    _, labels, truth = generate(config)
    members = {c for info in truth.communities for c in info.companies}
    inside = [labels[c] for c in sorted(members)]
    rate = sum(inside) / len(inside)
    sigma = math.sqrt(0.15 * 0.85 / len(inside))
    assert abs(rate - 0.15) <= 3 * sigma


def test_class_shift_moves_company_features():
    strong = GenConfig(**{**SMALL.__dict__, "class_shift": 5.0})
    graph, labels, _ = generate(strong)
    pos = np.stack([graph.x[graph.index[i]] for i, y in labels.items() if y == 1])
    neg = np.stack([graph.x[graph.index[i]] for i, y in labels.items() if y == 0])
    gap = np.linalg.norm(pos.mean(axis=0) - neg.mean(axis=0))
    assert gap > 3.0


def test_infeasible_configs_rejected():
    with pytest.raises(InfeasibleConfig):
        generate(GenConfig(companies=10, communities=10))  # 30 companies needed
    with pytest.raises(InfeasibleConfig):
        generate(GenConfig(p_rpt=0.2, p_bg=0.5))
    with pytest.raises(InfeasibleConfig):
        generate(GenConfig(label_coverage=1.5))
    with pytest.raises(InfeasibleConfig):
        GenConfig(companies=100, persons=5, communities=10).validate()


def test_scaled_config_preserves_shares():
    base = GenConfig()
    big = scaled_config(base, 4 * (base.companies + base.persons + base.items
                                   + base.events))
    assert big.companies == 4 * base.companies
    assert big.communities == 4 * base.communities
    assert big.transaction_density == base.transaction_density
