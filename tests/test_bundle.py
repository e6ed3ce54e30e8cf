"""Bundle serialization: bit-exact round trips and corruption detection."""

import contextlib
import io
import json
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prunekit import ModelBundle, build, load_bundle, save_bundle
from prunekit.bundle import BLOB_NAME, MANIFEST_NAME, _canonical_json, bundle_fingerprint
from prunekit.cli import main
from prunekit.errors import BundleIntegrityError
from prunekit.layers import LAYERS

from oracles import resign


@pytest.fixture
def bundle():
    return ModelBundle(build("tiny-vgg", 4, with_gates=True, seed=3),
                       {"note": "fixture"})


def test_roundtrip_is_bitwise_exact(bundle, tmp_path):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    assert loaded.metadata["note"] == "fixture"
    assert loaded.graph.to_manifest() == bundle.graph.to_manifest()
    for n1 in bundle.graph.nodes:
        n2 = loaded.graph.node(n1.id)
        assert set(n1.params) == set(n2.params)
        for k in n1.params:
            np.testing.assert_array_equal(n1.params[k], n2.params[k])
    assert bundle_fingerprint(loaded) == bundle_fingerprint(bundle)


def test_truncated_blob_names_problem(bundle, tmp_path):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    blob_path = os.path.join(path, BLOB_NAME)
    data = open(blob_path, "rb").read()
    with open(blob_path, "wb") as f:
        f.write(data[:len(data) // 2])
    with pytest.raises(BundleIntegrityError):
        load_bundle(path)


def test_length_mismatch_names_tensor(bundle, tmp_path):
    """A width that declares more floats than the blob holds names the tensor
    that runs past its end."""
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    resign(path, lambda m: _node(m, "fc")["attrs"].update(out_features=5))
    with pytest.raises(BundleIntegrityError, match=re.escape(
            "tensor 'fc/weight': declared shape (5, 32) runs past the end of params.bin")):
        load_bundle(path)


def test_tampered_manifest_fails_checksum(bundle, tmp_path):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    mpath = os.path.join(path, MANIFEST_NAME)
    manifest = json.load(open(mpath))
    manifest["graph"]["nodes"][0]["attrs"]["out_channels"] = 999
    json.dump(manifest, open(mpath, "w"))
    with pytest.raises(BundleIntegrityError, match="checksum"):
        load_bundle(path)


def test_divergent_stage_annotations_fail_validation(tmp_path):
    """A bundle written with inconsistent stage widths fails graph validation on load."""
    g = build("tiny-resnet", 4, with_gates=False, seed=1)
    g.stages[1].width = 8    # actual blocks emit 16
    path = str(tmp_path / "model")
    save_bundle(ModelBundle(g), path)
    with pytest.raises(BundleIntegrityError, match="stage 2: block 's2.b1' output width 16 "
                                                   "!= stage width 8"):
        load_bundle(path)


def test_fingerprint_tracks_parameters(bundle):
    fp1 = bundle_fingerprint(bundle)
    bundle.graph.nodes[0].params["weight"][0, 0, 0, 0] += 1.0
    assert bundle_fingerprint(bundle) != fp1


def _drop(name):
    def edit(graph):
        node_id, pname = name.split("/")
        del graph.node(node_id).params[pname]
    return edit


def _extra(graph):
    graph.node("conv1").params["extra"] = np.zeros(3, dtype=np.float32)


def _misshape(graph):
    node = graph.node("fc")
    node.params["weight"] = node.params["weight"][:, :31].copy()


@pytest.mark.parametrize("edit, named, reason", [
    (_drop("fc/bias"), "fc/bias", "missing"),
    (_drop("conv1/weight"), "conv1/weight", "missing"),
    (_drop("gate1/w2"), "gate1/w2", "missing"),
    (_extra, "conv1/extra", "not a parameter of conv"),
    (_misshape, "fc/weight", r"shape \(4, 31\) != declared \(4, 32\)"),
], ids=["missing-fc-bias", "missing-conv-weight", "missing-gate-w2", "extra", "misshaped"])
def test_tensors_must_match_the_declaration(bundle, tmp_path, edit, named, reason):
    """A save rejects a node whose tensors are not exactly its kind's declared
    ones, before it writes anything."""
    edit(bundle.graph)
    path = str(tmp_path / "model")
    with pytest.raises(BundleIntegrityError, match=f"tensor '{named}': {reason}"):
        save_bundle(bundle, path)
    assert not os.path.exists(path)


def _node(manifest, node_id):
    return next(d for d in manifest["graph"]["nodes"] if d["id"] == node_id)


@pytest.mark.parametrize("edit, message", [
    (lambda m: _node(m, "relu1").update(kind="mystery"),
     "layer 'relu1': unknown kind 'mystery'"),
    (lambda m: _node(m, "gate1")["attrs"].pop("hidden"),
     "layer 'gate1': gate lacks attribute 'hidden'"),
    (lambda m: _node(m, "conv2")["attrs"].update(stride="2"),
     "layer 'conv2': conv attribute 'stride': expected an integer, got a string"),
    (lambda m: _node(m, "pool1")["attrs"].pop("kernel"),
     "layer 'pool1': maxpool lacks attribute 'kernel'"),
    (lambda m: _node(m, "conv1")["attrs"].pop("stride"),
     "layer 'conv1': conv lacks attribute 'stride'"),
    (lambda m: _node(m, "conv1")["attrs"].update(dilation=1),
     "layer 'conv1': conv has no attribute 'dilation'"),
    (lambda m: _node(m, "conv2")["attrs"].update(stride=0),
     "layer 'conv2': conv attribute 'stride' must be at least 1, got 0"),
    (lambda m: _node(m, "pool1")["attrs"].update(kernel=0, stride=0),
     "layer 'pool1': maxpool attribute 'kernel' must be at least 1, got 0"),
    (lambda m: _node(m, "conv1")["attrs"].update(padding=-5),
     "layer 'conv1': conv attribute 'padding' must be at least 0, got -5"),
    (lambda m: m["graph"]["stages"].append({"index": 1, "width": 8, "block_ids": []}),
     "stage 1 has no blocks"),
    (lambda m: m["graph"]["stages"].extend([{"index": 2, "width": 8, "block_ids": []}] * 2),
     "stage 2 is listed twice"),
], ids=["unknown-kind", "gate-without-hidden", "string-stride", "maxpool-without-kernel",
        "conv-without-stride", "extra-dilation", "zero-stride", "zero-maxpool-window",
        "negative-padding", "empty-stage", "duplicate-stage"])
def test_malformed_manifest_exits_2_naming_the_layer(bundle, tmp_path, capsys, edit, message):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    resign(path, edit)
    with pytest.raises(BundleIntegrityError, match=message):
        load_bundle(path)
    assert main(["count", "--model", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["graph"]["edges"].append(["stem.relu", "nope"]),
     "edge (stem.relu -> nope) references unknown node"),
    (lambda m: m["graph"]["blocks"][0].update(last_conv="nope"),
     "block 's1.b1': last_conv 'nope' does not exist"),
    (lambda m: m["graph"]["stages"][0].update(width=99),
     "stage 1: block 's1.b1' output width 8 != stage width 99"),
    (lambda m: m["graph"]["edges"].remove(["stem.relu", "s1.b1.add"]),
     "add node 's1.b1.add' has 1 inputs, needs exactly 2"),
    (lambda m: m["graph"].update(input_shape=[8, 0, 16]),
     "input_shape (8, 0, 16) must be at least 1 in every dimension"),
    (lambda m: _node(m, "stem.bn")["attrs"].update(eps=-1.0),
     "layer 'stem.bn': batchnorm attribute 'eps' must be positive, got -1.0"),
    (lambda m: _node(m, "stem.bn")["attrs"].update(momentum=2.0),
     "layer 'stem.bn': batchnorm attribute 'momentum' must be in [0, 1], got 2.0"),
], ids=["edge-to-unknown-node", "block-handle-missing", "stage-width", "add-with-one-input",
        "zero-input-extent", "negative-eps", "momentum-above-1"])
def test_invalid_graph_exits_2_naming_the_violation(tmp_path, capsys, edit, message):
    """A re-signed manifest that breaks a graph invariant fails the load's graph
    validation: the CLI exits 2 naming it, not 1 (a crash), 3 or 0."""
    path = str(tmp_path / "model")
    save_bundle(ModelBundle(build("tiny-resnet", 4, seed=0)), path)
    resign(path, edit)
    with pytest.raises(BundleIntegrityError, match=re.escape(message)):
        load_bundle(path)
    assert main(["count", "--model", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["graph"].pop("edges"), "graph: missing required field 'edges'"),
    (lambda m: m["graph"].pop("input_shape"), "graph: missing required field 'input_shape'"),
    (lambda m: m["graph"]["nodes"][0].pop("attrs"),
     "graph.nodes[0]: missing required field 'attrs'"),
], ids=["graph-without-edges", "graph-without-input-shape", "node-without-attrs"])
def test_malformed_manifest_field_exits_2_naming_it(bundle, tmp_path, capsys, edit, message):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    resign(path, edit)
    with pytest.raises(BundleIntegrityError, match=re.escape(message)):
        load_bundle(path)
    assert main(["count", "--model", path]) == 2
    assert message in capsys.readouterr().err


def test_manifest_that_is_not_an_object_exits_2(bundle, tmp_path, capsys):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    with open(os.path.join(path, MANIFEST_NAME), "w") as f:
        json.dump([1, 2], f)
    assert main(["count", "--model", path]) == 2
    assert "manifest.json: expected an object, got an array" in capsys.readouterr().err


def _retyped(value, data):
    """A value of another JSON type than ``value``, or a kernel of the wrong length."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, list):
        return value[:1] if data.draw(st.booleans()) else value + value[:1]
    return data.draw(st.sampled_from([str(value), True] if isinstance(value, int)
                                     else [str(value)]))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_malformed_attribute_exits_2_naming_the_layer(data):
    """Drop, add or retype one attribute of a node, or rename its kind: the CLI
    exits 2 naming the layer, never 1 (a crash) or 3 (a stage failure)."""
    graph = build("tiny-vgg", 4, with_gates=True, seed=0)
    node = data.draw(st.sampled_from(graph.nodes))
    attrs = json.loads(json.dumps(node.attrs))
    ops = ["add", "rename"] + (["drop", "retype"] if attrs else [])
    op = data.draw(st.sampled_from(ops))
    if op == "add":
        attrs[data.draw(st.sampled_from(["dilation", "groups", "Bias"]))] = 1
    elif op == "drop":
        del attrs[data.draw(st.sampled_from(sorted(attrs)))]
    elif op == "retype":
        name = data.draw(st.sampled_from(sorted(attrs)))
        attrs[name] = _retyped(attrs[name], data)
    kind = node.kind
    if op == "rename":     # to an unknown kind, or a known one declaring other attributes
        kind = data.draw(st.sampled_from(["mystery"] + [k for k in LAYERS
                                                        if set(LAYERS[k].attrs) != set(attrs)]))

    def edit(m):
        _node(m, node.id).update(kind=kind, attrs=attrs)
    with tempfile.TemporaryDirectory() as path:
        save_bundle(ModelBundle(graph), path)
        resign(path, edit)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["count", "--model", path])
    assert code == 2, (op, node.id, kind, attrs, err.getvalue())
    assert f"layer '{node.id}'" in err.getvalue()


WIDTHS = ("in_channels", "out_channels", "channels", "hidden", "in_features", "out_features")


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_layout_mismatch_exits_2_naming_a_tensor_or_the_blob(data):
    """Set one width attribute to another value, or cut or extend the blob by a
    few floats, and re-sign: the declared layout no longer fits the blob, so the
    CLI exits 2 naming a tensor or the blob, never 1 (a crash) or 3.  A width
    below 1 fails the attribute check first, naming the layer."""
    graph = build("tiny-vgg", 4, with_gates=True, seed=0)
    with tempfile.TemporaryDirectory() as path:
        save_bundle(ModelBundle(graph), path)
        if data.draw(st.booleans()):
            node = data.draw(st.sampled_from([n for n in graph.nodes if WIDTHS & n.attrs.keys()]))
            name = data.draw(st.sampled_from(sorted(WIDTHS & node.attrs.keys())))
            value = data.draw(st.integers(-2, 64).filter(lambda v: v != node.attrs[name]))
            change = (node.id, name, value)
            resign(path, lambda m: _node(m, node.id)["attrs"].update({name: value}))
        else:
            words = data.draw(st.integers(1, 8)) * data.draw(st.sampled_from([-1, 1]))
            change = ("blob", words)
            with open(os.path.join(path, BLOB_NAME), "r+b") as f:
                f.truncate(os.fstat(f.fileno()).st_size + 4 * words)
            resign(path, lambda m: None)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["count", "--model", path])
    message = err.getvalue()
    assert code == 2, (change, message)
    if change[0] != "blob" and change[2] < 1:
        assert f"layer '{change[0]}'" in message and "must be at least 1" in message, \
            (change, message)
    else:
        assert "tensor '" in message or BLOB_NAME in message, (change, message)


def _v1_index(graph):
    """The tensor index a version-1 manifest carried: name, shape, offset, bytes."""
    index, offset = [], 0
    for node in graph.nodes:
        for pname in sorted(node.params):
            arr = node.params[pname]
            index.append({"name": f"{node.id}/{pname}", "shape": list(arr.shape),
                          "offset": offset, "nbytes": 4 * arr.size})
            offset += 4 * arr.size
    return index


def test_checksum_is_pinned(tmp_path):
    """The checksum is sha256(blob || canonical manifest with a blank checksum),
    whatever the layout of the manifest file, so these digests must not move.
    The same bundle as version 1, with its tensor index, keeps its old digest
    and still loads to the same content."""
    bundle = ModelBundle(build("tiny-vgg", 4, seed=0))
    checksum = save_bundle(bundle, str(tmp_path))
    assert checksum == "76f02b3413a6e88e83efeba9081777f6e7402647b8d24c0699be972885b1a413"
    resign(str(tmp_path), lambda m: m.update(format_version=1, tensors=_v1_index(bundle.graph)))
    v1 = json.loads((tmp_path / MANIFEST_NAME).read_bytes())
    assert v1["checksum"] == "25d52b8f63d19cf73e1492af0c11325a99b03e8078913bf86437e0de00c1351b"
    assert bundle_fingerprint(load_bundle(str(tmp_path))) == bundle_fingerprint(bundle)


def test_manifest_is_written_canonical(bundle, tmp_path):
    save_bundle(bundle, str(tmp_path))
    raw = (tmp_path / MANIFEST_NAME).read_bytes()
    assert raw == _canonical_json(json.loads(raw))


def test_indented_manifest_of_older_bundles_loads(bundle, tmp_path):
    save_bundle(bundle, str(tmp_path))
    mpath = tmp_path / MANIFEST_NAME
    manifest = json.loads(mpath.read_bytes())
    with open(mpath, "w") as f:
        json.dump(manifest, f, indent=1)
    assert bundle_fingerprint(load_bundle(str(tmp_path))) == bundle_fingerprint(bundle)


def test_blob_longer_than_the_declaration_is_rejected(bundle, tmp_path):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    blob_path = os.path.join(path, BLOB_NAME)
    size = os.path.getsize(blob_path)
    with open(blob_path, "ab") as f:
        f.write(bytes(4))
    resign(path, lambda m: None)
    with pytest.raises(BundleIntegrityError, match=re.escape(
            f"params.bin holds {size + 4} bytes, but the declared tensors end at {size}")):
        load_bundle(path)


def test_load_decodes_each_node_once(tmp_path, monkeypatch):
    """A load runs the attribute phase once, in ``from_manifest``, then the structure phase."""
    from prunekit import graph as graph_module, layers
    calls = []
    original = layers.checked_attrs

    def counted(node):
        calls.append(node.id)
        return original(node)

    save_bundle(ModelBundle(build("tiny-resnet", 4, with_gates=True, seed=3)), str(tmp_path))
    for module in (graph_module, layers):
        monkeypatch.setattr(module, "checked_attrs", counted)
    loaded = load_bundle(str(tmp_path))
    assert sorted(calls) == sorted(n.id for n in loaded.graph.nodes)


def test_loaded_tensors_are_disjoint_writable_views(bundle, tmp_path):
    """A load's tensors share one buffer but no bytes: an in-place update to
    one leaves its neighbours and ``params.bin`` unchanged, and ``copy``
    detaches them."""
    save_bundle(bundle, str(tmp_path))
    blob = (tmp_path / BLOB_NAME).read_bytes()
    loaded = load_bundle(str(tmp_path))
    tensors = [n.params[p] for n in loaded.graph.nodes for p in sorted(n.params)]
    before = [t.copy() for t in tensors]
    owner = tensors[0].base
    assert owner is not None and owner.nbytes == len(blob)
    assert all(t.base is owner for t in tensors)
    for i, t in enumerate(tensors):
        assert t.flags.writeable
        t += 1.0
        for j, (other, old) in enumerate(zip(tensors, before)):
            np.testing.assert_array_equal(other, old + 1.0 if j <= i else old)
    assert (tmp_path / BLOB_NAME).read_bytes() == blob
    copied = loaded.copy()
    for node in copied.graph.nodes:
        for pname, arr in node.params.items():
            assert not np.shares_memory(arr, loaded.graph.node(node.id).params[pname])


def test_save_and_load_hold_no_second_copy_of_the_parameters(tmp_path, traced_peak):
    """A save hands the tensors to the checksum and the file as they are; a
    load reads the blob once, into the buffer its tensors view."""
    bundle = ModelBundle(build("resnet56", 10, with_gates=True, seed=0))
    blob = sum(a.nbytes for n in bundle.graph.nodes for a in n.params.values())
    saved, _ = traced_peak(lambda: save_bundle(bundle, str(tmp_path)))
    loaded, _ = traced_peak(lambda: load_bundle(str(tmp_path)))
    assert blob == os.path.getsize(tmp_path / BLOB_NAME) > 3_000_000
    assert saved < blob / 4
    assert blob <= loaded < 1.5 * blob
