"""Generator tests: validation, planted recoverability, determinism, label stats."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference_synth
from conftest import node_types, node_x

from rptdetect import hetgraph
from rptdetect.errors import InfeasibleConfig
from rptdetect.hetgraph import load_graph, load_labels, save_graph
from rptdetect.matcher import enumerate_instances
from rptdetect.patterns import bundled_patterns
from rptdetect.synth import (CommunityInfo, GenConfig, GroundTruth, _cdf, _draw,
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
    assert all(node_types(graph)[graph.index[i]] == "company" for i in labels)
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


# Configs at the generator's edge cases: one item (the category draws stop at once),
# no items, no background items (no item trading), no decoys, and a transaction
# density the attempt limit cuts short on ten companies.
EDGE_CASES = {
    "one-item": GenConfig(companies=30, persons=30, items=1, events=3, communities=0,
                          decoy_communities=0, category_density=2.0, feature_dim=3, seed=5),
    "no-items": GenConfig(companies=20, persons=20, items=0, events=2, communities=0,
                          decoy_communities=1, feature_dim=3, seed=9),
    "no-background-items": GenConfig(companies=40, persons=40, items=5, events=4,
                                     communities=4, decoy_communities=2, feature_dim=3, seed=6),
    "no-decoys": GenConfig(companies=60, persons=50, items=12, events=5, communities=6,
                           decoy_communities=0, feature_dim=3, seed=7),
    "attempt-limit-binds": GenConfig(companies=10, persons=10, items=3, events=1,
                                     communities=1, decoy_communities=0,
                                     transaction_density=8.8, degree_exponent=1.5,
                                     feature_dim=3, seed=8),
}
# sha256 of every file written for each edge case by the per-edge loop generator
# (``tests/reference_synth.py``)
EDGE_DIGESTS = {
    'one-item': {
        "communities.json": "454fa35fee12b0cf22b22f8d652588fc77d7344ac33b5254a304092676fe4ac5",
        "edges.csv": "d03968029a448f64b809aa60e865de0aabf17acbd43f2e308ee89643ac00e3c5",
        "graph.bin": "0f0771b212a892aec50ec8dbc3dadb8275f93d576e7ce84aa2fb755947c63b8e",
        "labels.csv": "f530476bd923af1fa53cd83c855722a19987a08e624d4cc322b94f3da5aa0297",
        "nodes.csv": "5a2c5eb1308f6465764d014a6f8502244102311fdffa33e183cbf389a6697b68",
        "schema.json": "aac65904fad5f6ef73fd79dad88aa04520960c1b15a6dca160c67bd7b94a439f",
    },
    'no-items': {
        "communities.json": "c737b076718b1e92d101ffebd164a85906b48887cec3b04d51f7bf96cb386c87",
        "edges.csv": "af481089f0a237fc750c75d3b85d94799e9afbf3df773ba23486d79baae432d6",
        "graph.bin": "2e434a206ec89079273fe959babd093d874ec9e122233ef46fa1bbf08d1f96cb",
        "labels.csv": "b76a1fc98ab4515801fedabd516b8923aac0c2e24dea5ac473d76115c993728d",
        "nodes.csv": "9359d046ed6a69b18bf3c128dbd52e281cefd17e95961e9c744c28db8e7d8e66",
        "schema.json": "aac65904fad5f6ef73fd79dad88aa04520960c1b15a6dca160c67bd7b94a439f",
    },
    'no-background-items': {
        "communities.json": "10dcda8a51514de861e783d6203c238882ea33820416784a36d48969d3cccfde",
        "edges.csv": "fbe7bd5b1c2a424073a8b52d3186b16663826a6a3209dec19bdaa1f9a2d396e7",
        "graph.bin": "a550b02d2c6d9a0107cd9f3abc4bae5cf45250dc9061474bce34a86e215c9986",
        "labels.csv": "9376cdd8f631f05330beb2421fe182bd90f560d7ea5fcb119f8f670a645c01b0",
        "nodes.csv": "0416e3b7aafab3093660a08b54dc3af17b9d7401a1136e5cac027a2061e19628",
        "schema.json": "aac65904fad5f6ef73fd79dad88aa04520960c1b15a6dca160c67bd7b94a439f",
    },
    'no-decoys': {
        "communities.json": "06a3128fc349f3dd19913f3f286bdc13bf27c85222da1fac681a3b8760cff172",
        "edges.csv": "e2762246a8ae35c6db96907d37d17709a152e36508d295c2c44f9090a2b5414e",
        "graph.bin": "f9e87299e7f016e1368c78e775e0eddfeb8646b99935fd909ce6b60329eab540",
        "labels.csv": "60e41d616b03022e20042d75da41f6f2959bf929e8ad600b35992bbd0e2e1700",
        "nodes.csv": "826393294ced3d75311424588f2a0bff8961b8c36d53b3748d6542686b8c97a2",
        "schema.json": "aac65904fad5f6ef73fd79dad88aa04520960c1b15a6dca160c67bd7b94a439f",
    },
    'attempt-limit-binds': {
        "communities.json": "efab000a5a23e44f013d5fca795e6944aa9c3fcee4b0f432e7eee6ecd30d9e5d",
        "edges.csv": "83c16396fada81a25e173d8acdff95624b6126aa8c3a2be4a47c288063e47e3a",
        "graph.bin": "d7bddb7ac78b8a74865b4c37b32b6609df4ad6a2f1e87a2a3e235f1a7237a1e5",
        "labels.csv": "04b00cc4fdb183ab429b4cd0b087db4d41036108917302c7a3a13c1004196676",
        "nodes.csv": "243133c08faac75c7d4118e0a4a080ea32616cb6a83f5b5ff3c56756cd4d50ac",
        "schema.json": "aac65904fad5f6ef73fd79dad88aa04520960c1b15a6dca160c67bd7b94a439f",
    },
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_case_configs_export_pinned_bytes(name, tmp_path):
    graph, labels, truth = generate(EDGE_CASES[name])
    export(graph, labels, tmp_path)
    save_ground_truth(truth, tmp_path / "communities.json")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == EDGE_DIGESTS[name]


@pytest.mark.parametrize("block", [1, 3, 10**6])
@pytest.mark.parametrize("name", ["small", *sorted(EDGE_CASES)])
def test_every_block_size_writes_the_pinned_bytes(name, block, tmp_path, monkeypatch):
    """Rows, ids and map entries written one, three or all at a time.  ``no-items`` has a
    node type with no nodes and edge types with no edges; ``one-item`` has no community."""
    monkeypatch.setattr(hetgraph, "BLOCK", block)
    graph, labels, truth = generate(SMALL if name == "small" else EDGE_CASES[name])
    export(graph, labels, tmp_path)
    save_ground_truth(truth, tmp_path / "communities.json")
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == (SMALL_DIGESTS if name == "small" else EDGE_DIGESTS[name])
    if name == "one-item":
        assert b'"communities": [],' in (tmp_path / "communities.json").read_bytes()


def test_save_ground_truth_holds_less_than_its_file(tmp_path):
    _, _, truth = generate(scaled_config(GenConfig(seed=2), 5000))
    save_ground_truth(truth, tmp_path / "warm.json")  # first-call costs stay out of the count
    tracemalloc.start()
    try:
        save_ground_truth(truth, tmp_path / "communities.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "communities.json").stat().st_size
    assert peak < size, (peak, size)


def test_attempt_limit_binds_before_every_transaction_is_placed():
    config = EDGE_CASES["attempt-limit-binds"]
    graph, _, _ = generate(config)
    placed = np.count_nonzero(graph.edge_code == graph.edge_names.index("transaction"))
    assert placed - 2 * config.communities < round(config.transaction_density * config.companies)


def coded(graph):
    return (graph.ids, node_types(graph), graph.src.tolist(), graph.dst.tolist(),
            graph.edge_code.tolist(), [graph.type_features(t).tolist() for t in graph.type_names])


@pytest.mark.parametrize("config", [
    SMALL, *EDGE_CASES.values(),
    GenConfig(companies=300, persons=260, items=40, events=30, communities=20,
              decoy_communities=9, transaction_density=6.0, item_trade_rate=1.0,
              event_degree=3.0, category_density=2.0, feature_dim=2, seed=3),
    GenConfig(companies=120, persons=90, items=25, events=10, communities=10,
              decoy_communities=5, invest_coverage=0.0, item_trade_rate=0.0,
              feature_dim=2, seed=4),
], ids=["small", *EDGE_CASES, "dense", "no-trade"])
def test_generate_equals_the_per_edge_loop(config):
    graph, labels, truth = generate(config)
    ref_graph, ref_labels, ref_truth = reference_synth.generate(config)
    assert coded(graph) == coded(ref_graph)
    assert labels == ref_labels and truth == ref_truth


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


def truth_doc(truth):
    """The document ``communities.json`` holds, built field by field."""
    return {
        "communities": [{"kind": c.kind, "companies": c.companies, "persons": c.persons,
                         "items": c.items,
                         "instances": [{"pattern": pid, "anchor": anchor, "nodes": list(nodes)}
                                       for pid, anchor, nodes in c.instances]}
                        for c in truth.communities],
        "community_of": truth.community_of, "true_labels": truth.true_labels}


@pytest.mark.parametrize("truth", [
    GroundTruth([], {}, {}),
    GroundTruth([CommunityInfo("", [], [], [], [("", "", ())])], {"": 0}, {}),
    GroundTruth([CommunityInfo("decoy_invest", ["a"], [], ["b"]),
                 CommunityInfo("evasion", [], ["c", "d"], [], [("PCCP", "a", ("a",)), ("x", "y", ())])],
                {"z": 2**70, "a": -5, "m": 0}, {"k": 1}),
    GroundTruth([CommunityInfo(k, [k], [k, k], [], [(k, k, tuple(ODD_IDS))]) for k in ODD_IDS],
                {k: i for i, k in enumerate(ODD_IDS)}, {k: -i for i, k in enumerate(ODD_IDS)}),
], ids=["empty", "empty-strings", "mixed", "odd-everywhere"])
def test_communities_json_equals_the_stdlib_dump_of_the_truth(truth, tmp_path):
    path = tmp_path / "communities.json"
    save_ground_truth(truth, path)
    assert path.read_bytes() == (json.dumps(truth_doc(truth), indent=2, sort_keys=True)
                                 + "\n").encode()


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
    pos = np.stack([node_x(graph, graph.index[i]) for i, y in labels.items() if y == 1])
    neg = np.stack([node_x(graph, graph.index[i]) for i, y in labels.items() if y == 0])
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


@pytest.mark.parametrize("changes,message", [
    ({"seed": -1}, "seed must be >= 0"),
    ({"companies": 0, "persons": 0, "items": 0, "events": 0, "communities": 0,
      "decoy_communities": 0}, "companies must be >= 1"),
    ({"companies": 1, "communities": 0, "decoy_communities": 0}, "transaction_density"),
    ({"transaction_density": 1e9}, "transaction_density"),
    ({"transaction_density": 8.9}, "transaction_density"),
], ids=["negative-seed", "no-nodes", "one-company", "huge-density", "one-pair-too-many"])
def test_config_rejected_before_any_draw(changes, message):
    # ten companies, one community: 10 * 9 ordered pairs less its 2 planted transactions
    base = dict(companies=10, persons=5, items=3, events=1, communities=1, decoy_communities=0)
    with pytest.raises(InfeasibleConfig, match=f"^{message}"):
        GenConfig(**{**base, **changes}).validate()
    GenConfig(**{**base, "transaction_density": 8.8}).validate()  # every free pair: accepted


def test_scaled_config_preserves_shares():
    base = GenConfig()
    big = scaled_config(base, 4 * (base.companies + base.persons + base.items
                                   + base.events))
    assert big.companies == 4 * base.companies
    assert big.communities == 4 * base.communities
    assert big.transaction_density == base.transaction_density
