"""Model tests: stage-by-stage hand checks, normalization, gradients, ablations."""

import math

import numpy as np
import pytest

from rptdetect import autodiff as ad
from rptdetect.errors import DuplicateBatchNode, EmptyBatch, MissingProjection
from rptdetect.hetgraph import labels_to_indices
from rptdetect.matcher import build_neighbor_index
from rptdetect.model import ModelConfig, ModelParams, forward, init_params, load_params, save_params
from rptdetect.patterns import bundled_patterns
from rptdetect.synth import GenConfig, generate

from conftest import make_graph, small_schema
from gradcheck import finite_diff_check
from reference_model import (
    attention,
    cross_rpt_attention,
    encode_instance,
    forward_reference,
    inner_rpt_attention,
    project,
)


def toy_setup(seed=0, companies=14, communities=2, decoys=1, heads=2,
              embed_dim=8, proj_dim=4, n_patterns=5, ablation=()):
    graph, labels, _ = generate(GenConfig(
        companies=companies, persons=max(12, companies), items=6, events=2,
        communities=communities, decoy_communities=decoys, feature_dim=4,
        label_coverage=1.0, seed=seed))
    pats = bundled_patterns()[:n_patterns]
    index = build_neighbor_index(graph, pats, cap=64, cap_mode="truncate")
    config = ModelConfig(proj_dim=proj_dim, embed_dim=embed_dim, heads=heads,
                         ablation=ablation)
    params = init_params(graph.schema, pats, config, seed=seed)
    return graph, labels, index, params, config


def test_projection_identity_and_zero():
    g = make_graph(small_schema(), [("a", "company", np.array([1.0, -2.0])),
                                    ("p", "person", np.array([3.0, 4.0]))], [])
    params = ModelParams(
        {"proj::company": np.eye(2), "proj::person": np.zeros((2, 2))},
        {"patterns": {}, "company_type": "company", "proj_dim": 2,
         "embed_dim": 2, "heads": 1, "node_dims": {"company": 2, "person": 2}})
    h = project(g, params)
    np.testing.assert_array_equal(h[0], [1.0, -2.0])
    np.testing.assert_array_equal(h[1], [0.0, 0.0])


def test_projection_matches_direct_product(rng):
    graph, _, _, params, _ = toy_setup()
    h = project(graph, params)
    for i in range(len(graph)):
        expected = params.arrays[f"proj::{graph.types[i]}"] @ graph.x[i]
        np.testing.assert_allclose(h[i], expected, atol=1e-12)


def test_projection_missing_type_raises():
    g = make_graph(small_schema(), [("a", "company")], [])
    params = ModelParams({"proj::person": np.eye(2)},
                         {"patterns": {}, "company_type": "company"})
    with pytest.raises(MissingProjection):
        project(g, params)


def test_encode_selector_reproduces_anchor_projection():
    # H=1, conversion matrix selecting the anchor block, then the ELU
    graph, _, index, params, config = toy_setup(heads=1, embed_dim=4, n_patterns=1)
    pattern = index.patterns[0]
    selector = np.zeros((4, len(pattern.roles) * 4))
    selector[:, :4] = np.eye(4)
    params.arrays["inst::PCCP::h0"][...] = selector
    h = project(graph, params)
    node = next(i for i in graph.company_nodes() if len(index.instances(i, "PCCP")))
    row = index.instances(node, "PCCP")[0]
    enc = encode_instance(row, h, params, pattern, config)
    elu = np.where(h[node] >= 0, h[node], np.expm1(np.minimum(h[node], 0.0)))
    np.testing.assert_allclose(enc, elu, atol=1e-12)


def test_encode_input_width_is_roles_times_proj_dim():
    graph, _, index, params, config = toy_setup()
    for p in index.patterns:
        for head in range(config.heads):
            assert params.arrays[f"inst::{p.pattern_id}::h{head}"].shape == (
                config.embed_dim // config.heads, len(p.roles) * config.proj_dim)


def test_encode_output_dim_scales_with_heads():
    graph, _, index, params, config = toy_setup(heads=8, embed_dim=32)
    assert params.arrays["inst::PCCP::h0"].shape[0] == 4
    node = next(i for i in graph.company_nodes() if len(index.instances(i, "PCCP")))
    row = index.instances(node, "PCCP")[0]
    h = project(graph, params)
    enc = encode_instance(row, h, params, index.patterns[0], config)
    assert enc.shape == (8 * 4,)


def test_inner_attention_single_instance():
    graph, _, index, params, config = toy_setup()
    enc = np.random.default_rng(0).normal(size=(1, config.embed_dim))
    f, alpha = inner_rpt_attention(enc, params, "PCCP", config)
    np.testing.assert_allclose(alpha, [1.0])
    act = lambda x: np.where(x >= 0, x, np.expm1(np.minimum(x, 0)))
    np.testing.assert_allclose(f, act(enc[0]), atol=1e-12)


def test_inner_attention_identical_encodings_split_evenly():
    graph, _, index, params, config = toy_setup()
    row = np.random.default_rng(1).normal(size=config.embed_dim)
    enc = np.stack([row, row])
    _, alpha = inner_rpt_attention(enc, params, "PCCP", config)
    np.testing.assert_allclose(alpha, [0.5, 0.5], atol=1e-12)


def test_inner_attention_matches_direct_softmax(rng):
    graph, _, index, params, config = toy_setup()
    enc = rng.normal(size=(5, config.embed_dim))
    f, alpha = inner_rpt_attention(enc, params, "PCCP", config)
    k = params.arrays["attn_inst::PCCP"]
    logits = enc @ k
    logits = np.where(logits >= 0, logits, 0.2 * logits)  # leaky attention
    expect = np.exp(logits - logits.max())
    expect /= expect.sum()
    np.testing.assert_allclose(alpha, expect, atol=1e-12)
    act = lambda x: np.where(x >= 0, x, np.expm1(np.minimum(x, 0)))
    np.testing.assert_allclose(f, act(expect @ enc), atol=1e-12)


def test_cross_attention_uniform_when_scores_tie(rng):
    graph, _, index, params, config = toy_setup()
    f = rng.normal(size=config.embed_dim)
    summaries = {pid: f.copy() for pid in params.pattern_ids}
    # same summary + same attention vector per pattern -> equal scores
    for pid in params.pattern_ids:
        params.arrays[f"attn_cross::{pid}"][...] = params.arrays[
            f"attn_cross::{params.pattern_ids[0]}"]
    _, beta = cross_rpt_attention(summaries, graph.x[0], params, config)
    np.testing.assert_allclose(list(beta.values()), [1 / 5] * 5, atol=1e-12)


def test_cross_attention_single_pattern_gets_full_weight(rng):
    graph, _, index, params, config = toy_setup()
    f = rng.normal(size=config.embed_dim)
    z, beta = cross_rpt_attention({"PCCP": f}, graph.x[0], params, config)
    assert beta == {"PCCP": 1.0}
    act = lambda x: np.where(x >= 0, x, np.expm1(np.minimum(x, 0)))
    W, b = params.arrays["cross_w"], params.arrays["cross_b"]
    np.testing.assert_allclose(z, act(W @ f + b), atol=1e-12)


def test_cross_attention_matches_direct_recomputation(rng):
    graph, _, index, params, config = toy_setup()
    summaries = {pid: rng.normal(size=config.embed_dim)
                 for pid in params.pattern_ids}
    x = graph.x[graph.company_nodes()[0]]
    z, beta = cross_rpt_attention(summaries, x, params, config)
    act = lambda v: np.where(v >= 0, v, np.expm1(np.minimum(v, 0)))
    leaky = lambda v: np.where(v >= 0, v, 0.2 * v)
    W, b, Q = params.arrays["cross_w"], params.arrays["cross_b"], params.arrays["query"]
    q = act(Q @ x)
    m = {pid: act(W @ summaries[pid] + b) for pid in params.pattern_ids}
    logits = np.array([
        leaky(float(params.arrays[f"attn_cross::{pid}"] @ np.concatenate([q, m[pid]]))
              / math.sqrt(config.embed_dim))
        for pid in params.pattern_ids])
    expect_beta = np.exp(logits - logits.max())
    expect_beta /= expect_beta.sum()
    np.testing.assert_allclose([beta[p] for p in params.pattern_ids],
                               expect_beta, atol=1e-12)
    np.testing.assert_allclose(
        z, sum(w * m[p] for w, p in zip(expect_beta, params.pattern_ids)),
        atol=1e-12)


def test_forward_zero_params_give_log2_loss():
    graph, labels, index, params, config = toy_setup()
    params.arrays.flat[:] = 0.0
    li = labels_to_indices(graph, labels)
    batch = sorted(li)[:8]
    res = forward(graph, index, batch, params, config, labels=li)
    for p in res.p.values():
        assert p == pytest.approx(0.5)
    assert res.loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_forward_loss_matches_recomputation_from_probabilities():
    graph, labels, index, params, config = toy_setup(seed=5)
    li = labels_to_indices(graph, labels)
    batch = sorted(li)[:10]
    res = forward(graph, index, batch, params, config, labels=li)
    manual = -np.mean([
        li[i] * math.log(res.p[i]) + (1 - li[i]) * math.log(1 - res.p[i])
        for i in batch])
    assert res.loss == pytest.approx(manual, abs=1e-9)


def test_forward_confident_predictions_drive_loss_to_zero():
    graph, labels, index, params, config = toy_setup()
    li = labels_to_indices(graph, labels)
    batch = sorted(li)[:8]
    # a zero readout makes every logit zero: the loss is log 2 exactly
    params.arrays["readout_w"][...] = 0.0
    assert forward(graph, index, batch, params, config, labels=li).loss == math.log(2.0)
    # a readout bias of 80 is a confident, correct prediction for every positive
    params.arrays["readout_b"][...] = 80.0
    positives = [i for i in batch if li[i] == 1]
    assert positives
    assert forward(graph, index, positives, params, config, labels=li).loss < 1e-12


def test_forward_empty_batch_raises():
    graph, labels, index, params, config = toy_setup()
    with pytest.raises(EmptyBatch):
        forward(graph, index, [], params, config)


def test_forward_rejects_repeated_batch_node_before_tape_work(monkeypatch):
    graph, labels, index, params, config = toy_setup(seed=1)
    monkeypatch.setattr(ad, "Tape", None)  # any tape work would raise TypeError
    li = labels_to_indices(graph, labels)
    with_inst = next(i for i in sorted(li) if index.has_any(i))
    without = next(i for i in sorted(li) if not index.has_any(i))
    for repeated in (with_inst, without):
        batch = [repeated, with_inst if repeated == without else without, repeated]
        for run in (forward, forward_reference):
            with pytest.raises(DuplicateBatchNode, match=graph.ids[repeated]):
                run(graph, index, batch, params, config, labels=li)


def test_scoring_forward_builds_no_tape(monkeypatch):
    graph, labels, index, params, config = toy_setup()
    li = labels_to_indices(graph, labels)
    batch = sorted(li)[:8]
    assert any(index.has_any(i) for i in batch)
    with monkeypatch.context() as patch:
        patch.setattr(ad, "Tape", None)  # building a tape would raise TypeError
        res = forward(graph, index, batch, params, config)
    assert res.tape is None and res.loss is None
    # scoring takes the same arithmetic as a labeled step
    trained = forward(graph, index, batch, params, config, labels=li)
    assert isinstance(trained.tape, ad.Tape)
    assert res.p == trained.p
    assert all(res.z[i].tobytes() == trained.z[i].tobytes() for i in batch)


def assert_forward_matches_reference(graph, index, batch, params, config, li):
    res = forward(graph, index, batch, params, config, labels=li)
    ref = forward_reference(graph, index, batch, params, config, labels=li)
    alpha, beta = attention(res)
    assert res.loss == pytest.approx(ref.loss, abs=1e-9)
    for i in batch:
        assert res.p[i] == pytest.approx(ref.p[i], abs=1e-10)
        np.testing.assert_allclose(res.z[i], ref.z[i], atol=1e-9)
        assert beta[i].keys() == ref.beta[i].keys()
        for pid in beta[i]:
            assert beta[i][pid] == pytest.approx(ref.beta[i][pid], abs=1e-10)
    assert alpha.keys() == ref.alpha.keys()
    for key in alpha:
        np.testing.assert_allclose(alpha[key], ref.alpha[key], atol=1e-10)
    assert res.degenerate == ref.degenerate


def test_forward_matches_reference_composition(rng):
    graph, labels, index, params, config = toy_setup(seed=7)
    li = labels_to_indices(graph, labels)
    assert_forward_matches_reference(graph, index, sorted(li), params, config, li)


ALL_ABLATIONS = [(), ("hete",), ("inner",), ("cross",), ("att",)]


@pytest.mark.parametrize("ablation", ALL_ABLATIONS)
def test_forward_matches_reference_on_shuffled_mixed_batch(rng, ablation):
    graph, labels, index, params, config = toy_setup(seed=1, ablation=ablation)
    li = labels_to_indices(graph, labels)
    batch = [int(i) for i in rng.permutation(sorted(li))]
    assert any(index.has_any(i) for i in batch)
    assert any(not index.has_any(i) for i in batch)
    assert batch != sorted(batch)
    assert_forward_matches_reference(graph, index, batch, params, config, li)


def test_attention_weights_normalize():
    graph, labels, index, params, config = toy_setup(seed=3)
    li = labels_to_indices(graph, labels)
    alphas, betas_by_node = attention(forward(graph, index, sorted(li), params, config))
    for (i, pid), alpha in alphas.items():
        assert abs(alpha.sum() - 1.0) < 1e-9
    for i, betas in betas_by_node.items():
        if betas:
            assert abs(sum(betas.values()) - 1.0) < 1e-9


def test_instance_order_permutation_leaves_summary_unchanged(rng):
    graph, labels, index, params, config = toy_setup(seed=2)
    node = max(graph.company_nodes(),
               key=lambda i: len(index.instances(i, "PCPCP")))
    rows = index.instances(node, "PCPCP")
    assert len(rows) >= 2
    h = project(graph, params)
    pattern = next(p for p in index.patterns if p.pattern_id == "PCPCP")
    enc = np.stack([encode_instance(row, h, params, pattern, config)
                    for row in rows])
    f1, _ = inner_rpt_attention(enc, params, "PCPCP", config)
    f2, _ = inner_rpt_attention(enc[::-1].copy(), params, "PCPCP", config)
    np.testing.assert_allclose(f1, f2, atol=1e-12)


def test_zero_instance_node_uses_degenerate_path_and_renormalizes():
    graph, labels, index, params, config = toy_setup(seed=1)
    li = labels_to_indices(graph, labels)
    no_inst = [i for i in sorted(li) if not index.has_any(i)]
    some_inst = [i for i in sorted(li) if index.has_any(i)]
    assert no_inst and some_inst
    res = forward(graph, index, no_inst + some_inst, params, config)
    _, beta = attention(res)
    for i in no_inst:
        assert i in res.degenerate
        assert beta[i] == {}
    for i in some_inst:
        assert i not in res.degenerate
        present = [pid for pid in index.pattern_ids if len(index.instances(i, pid))]
        assert set(beta[i]) == set(present)
        assert sum(beta[i].values()) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("flags,inner_uniform,cross_uniform", [
    (("inner",), True, False),
    (("cross",), False, True),
    (("att",), True, True),
])
def test_ablations_force_uniform_attention(flags, inner_uniform, cross_uniform):
    graph, labels, index, params, config = toy_setup(seed=4, ablation=flags)
    li = labels_to_indices(graph, labels)
    alphas, betas_by_node = attention(forward(graph, index, sorted(li), params, config))
    for (i, pid), alpha in alphas.items():
        if inner_uniform:
            np.testing.assert_allclose(alpha, np.full(len(alpha), 1 / len(alpha)),
                                       atol=1e-12)
    saw_nonuniform_beta = False
    for i, betas in betas_by_node.items():
        if len(betas) >= 2:
            values = np.array(list(betas.values()))
            if cross_uniform:
                np.testing.assert_allclose(values, 1 / len(values), atol=1e-12)
            elif np.ptp(values) > 1e-6:
                saw_nonuniform_beta = True
    if not cross_uniform:
        assert saw_nonuniform_beta


def test_company_only_ablation_zeroes_other_types():
    graph, labels, index, params, config = toy_setup(seed=6, ablation=("hete",))
    h = project(graph, params)
    pattern = index.patterns[0]
    node = next(i for i in graph.company_nodes() if len(index.instances(i, "PCCP")))
    row = index.instances(node, "PCCP")[0]
    enc = encode_instance(row, h, params, pattern, config)
    # zeroing person blocks: encoding must ignore person projections entirely
    h2 = {k: (v if graph.types[k] == "company" else v + 100.0) for k, v in h.items()}
    enc2 = encode_instance(row, h2, params, pattern, config)
    np.testing.assert_allclose(enc, enc2, atol=1e-12)


def test_forward_with_no_patterns_uses_fallback_for_everyone():
    graph, labels, _, params, config = toy_setup(seed=3)
    empty_index = build_neighbor_index(graph, [])
    params = ModelParams(
        {k: v for k, v in params.arrays.items() if "::PC" not in k},
        {**params.meta, "patterns": {}})
    li = labels_to_indices(graph, labels)
    batch = sorted(li)[:5]
    res = forward(graph, empty_index, batch, params, config, labels=li)
    assert res.degenerate == set(batch)
    assert all(attention(res)[1][i] == {} for i in batch)
    assert np.isfinite(res.loss)


def test_init_params_deterministic_and_seed_sensitive():
    graph, _, index, params, config = toy_setup(seed=0)
    again = init_params(graph.schema, index.patterns, config, seed=0)
    for k in params.arrays:
        np.testing.assert_array_equal(params.arrays[k], again.arrays[k])
    other = init_params(graph.schema, index.patterns, config, seed=1)
    assert any(not np.array_equal(params.arrays[k], other.arrays[k])
               for k in params.arrays)


def test_initial_loss_near_log2_across_seeds():
    graph, labels, index, _, config = toy_setup(seed=0)
    li = labels_to_indices(graph, labels)
    pos = [i for i in sorted(li) if li[i] == 1]
    neg = [i for i in sorted(li) if li[i] == 0]
    n = min(len(pos), len(neg), 5)
    batch = pos[:n] + neg[:n]
    losses = []
    for seed in range(10):
        params = init_params(graph.schema, index.patterns, config, seed=seed)
        res = forward(graph, index, batch, params, config, labels=li)
        losses.append(res.loss)
    assert abs(float(np.mean(losses)) - math.log(2.0)) < 0.15


def fd_error(ablation, prefix=""):
    """Finite-difference error of a labeled step over six nodes of a tiny graph, on the
    parameters whose names start with ``prefix`` (all of them by default)."""
    graph, labels, index, params, config = toy_setup(
        seed=8, companies=10, communities=1, decoys=1, n_patterns=2,
        heads=2, embed_dim=8, proj_dim=4, ablation=ablation)
    li = labels_to_indices(graph, labels)
    batch = sorted(li)[:6]
    res = forward(graph, index, batch, params, config, labels=li)
    # both patterns meet on one node and one node has none, so cross_w and
    # cross_b take both instance levels' gradients and the fallback's
    assert res.present.all(axis=1).any() and res.degenerate
    names = [k for k in params.arrays if k.startswith(prefix)]
    res.tape.backward()
    assert any(res.tape.grad[k].any() for k in names)

    def build(arrays):  # ModelParams copies the arrays into a fresh buffer
        res = forward(graph, index, batch, ModelParams({**params.arrays, **arrays}, params.meta),
                      config, labels=li)
        flat = res.tape.backward()
        return res.loss, (flat if not prefix else
                          np.concatenate([res.tape.grad[k].ravel() for k in names]))

    return finite_diff_check(build, {k: params.arrays[k] for k in names}, eps=1e-5)


def test_gradients_match_finite_differences_small():
    assert fd_error(()) < 1e-4


@pytest.mark.parametrize("ablation", ALL_ABLATIONS[1:], ids=lambda a: a[0])
def test_gradients_match_finite_differences_under_ablation(ablation):
    # the full model is the test above
    assert fd_error(ablation) < 1e-4


@pytest.mark.parametrize("ablation", ALL_ABLATIONS, ids=lambda a: a[0] if a else "full")
@pytest.mark.parametrize("prefix", ["proj::", "query", "readout_", "cross_"])
def test_parameter_family_gradients_match_finite_differences(prefix, ablation):
    # the projections, the query, the readout behind the loss and the cross
    # transform, each family alone at the strength of a single op's check
    assert fd_error(ablation, prefix) < 1e-8


@pytest.mark.parametrize("ablation", ALL_ABLATIONS, ids=lambda a: a[0] if a else "full")
def test_parameters_off_the_loss_path_get_zero_gradient(ablation):
    graph, labels, index, params, config = toy_setup(
        seed=8, companies=10, communities=1, decoys=1, n_patterns=2,
        heads=2, embed_dim=8, proj_dim=4, ablation=ablation)
    li = labels_to_indices(graph, labels)
    res = forward(graph, index, sorted(li)[:6], params, config, labels=li)
    res.tape.backward()
    # no role of the two patterns is an item or an event
    off = {"proj::item", "proj::event"} | ({"proj::person"} if config.company_only else set())
    for flag, prefix in ((config.inner_uniform, "attn_inst::"),
                         (config.cross_uniform, "attn_cross::")):
        off |= {k for k in params.arrays if flag and k.startswith(prefix)}
    assert {k for k, g in res.tape.grad.items() if not g.any()} == off


def test_params_are_named_views_into_one_flat_buffer():
    _, _, _, params, _ = toy_setup(seed=9)
    arrays = params.arrays
    assert arrays.flat.size == sum(a.size for a in arrays.values())
    for a in arrays.values():
        assert np.shares_memory(a, arrays.flat)


def test_params_reject_replacing_a_view():
    # an array put under a name would sit outside ``flat``, which Adam steps
    _, _, _, params, _ = toy_setup(seed=9)
    arrays = params.arrays
    name = next(iter(arrays))
    for change in (lambda: arrays.__setitem__(name, np.zeros_like(arrays[name])),
                   lambda: arrays.update({name: np.zeros_like(arrays[name])}),
                   lambda: arrays.__setitem__("new", None)):
        with pytest.raises(TypeError, match=r"arrays\[name\]\[\.\.\.\] = value"):
            change()
    arrays[name][...] = 7.0
    arrays[name] += 1.0  # in place, storing the same view back
    assert np.shares_memory(arrays[name], arrays.flat)
    assert (arrays.flat[:arrays[name].size] == 8.0).all()


def test_checkpoint_round_trip_exact(tmp_path):
    _, _, _, params, _ = toy_setup(seed=9)
    path = tmp_path / "checkpoint.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.meta == params.meta
    assert set(loaded.arrays) == set(params.arrays)
    for k in params.arrays:
        np.testing.assert_array_equal(loaded.arrays[k], params.arrays[k])
    # byte-identical on re-save
    path2 = tmp_path / "checkpoint2.json"
    save_params(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
