"""Bundle serialization: bit-exact round trips and corruption detection."""

import contextlib
import hashlib
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


def resign(path, edit):
    """Apply ``edit`` to a bundle's manifest and re-sign it, so the checksum
    passes and the check under test is the one that fires."""
    mpath = os.path.join(path, MANIFEST_NAME)
    manifest = json.load(open(mpath))
    edit(manifest)
    blob = open(os.path.join(path, BLOB_NAME), "rb").read()
    manifest["checksum"] = ""
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    manifest["checksum"] = hashlib.sha256(blob + canon).hexdigest()
    json.dump(manifest, open(mpath, "w"))


def test_length_mismatch_names_tensor(bundle, tmp_path):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    resign(path, lambda m: m["tensors"][0].update(nbytes=m["tensors"][0]["nbytes"] - 4))
    name = json.load(open(os.path.join(path, MANIFEST_NAME)))["tensors"][0]["name"]
    with pytest.raises(BundleIntegrityError, match=name.split("/")[0]):
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
    """A bundle written with inconsistent stage widths loads but won't validate."""
    g = build("tiny-resnet", 4, with_gates=False, seed=1)
    g.stages[1].width = 8    # actual blocks emit 16
    b = ModelBundle(g)
    path = str(tmp_path / "model")
    save_bundle(b, path)
    loaded = load_bundle(path)
    violations = loaded.graph.validate()
    assert any("stage 2" in v for v in violations)


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
    """A load rejects a node whose tensors are not exactly its kind's declared ones."""
    edit(bundle.graph)
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    with pytest.raises(BundleIntegrityError, match=f"tensor '{named}': {reason}"):
        load_bundle(path)


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
], ids=["unknown-kind", "gate-without-hidden", "string-stride", "maxpool-without-kernel",
        "conv-without-stride", "extra-dilation"])
def test_malformed_manifest_exits_2_naming_the_layer(bundle, tmp_path, capsys, edit, message):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    resign(path, edit)
    with pytest.raises(BundleIntegrityError, match=message):
        load_bundle(path)
    assert main(["count", "--model", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda m: m["tensors"][0].pop("offset"),
     "manifest.tensors[0]: missing required field 'offset'"),
    (lambda m: m["tensors"][0].update(shape=3),
     "tensor 'conv1/weight': offset, byte length and shape must be non-negative integers"),
    (lambda m: m["graph"].pop("edges"), "graph: missing required field 'edges'"),
    (lambda m: m["graph"].pop("input_shape"), "graph: missing required field 'input_shape'"),
    (lambda m: m["graph"]["nodes"][0].pop("attrs"),
     "graph.nodes[0]: missing required field 'attrs'"),
    (lambda m: m["tensors"][0].update(name="conv1weight"),
     "tensor 'conv1weight': no such node in manifest"),
], ids=["tensor-without-offset", "scalar-shape", "graph-without-edges",
        "graph-without-input-shape", "node-without-attrs", "tensor-name-without-node"])
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


def test_checksum_is_pinned(tmp_path):
    """The checksum is sha256(blob || canonical manifest with a blank checksum),
    whatever the layout of the manifest file, so this digest must not move."""
    checksum = save_bundle(ModelBundle(build("tiny-vgg", 4, seed=0)), str(tmp_path))
    assert checksum == "25d52b8f63d19cf73e1492af0c11325a99b03e8078913bf86437e0de00c1351b"


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


@pytest.mark.parametrize("index, offset, message", [
    (0, -4, "must be non-negative integers"),
    (1, 0, "offset 0, but the previous tensor ends at"),
    (0, 0.0, "must be non-negative integers"),
], ids=["negative-offset", "aliased-offset", "float-offset"])
def test_tensor_index_must_be_contiguous(bundle, tmp_path, capsys, index, offset, message):
    """Only the layout save writes loads: each tensor starts where the last one ended."""
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    resign(path, lambda m: m["tensors"][index].update(offset=offset))
    name = json.load(open(os.path.join(path, MANIFEST_NAME)))["tensors"][index]["name"]
    with pytest.raises(BundleIntegrityError, match=f"tensor '{name}': .*{message}"):
        load_bundle(path)
    assert main(["count", "--model", path]) == 2
    assert message in capsys.readouterr().err


def test_blob_longer_than_the_index_is_rejected(bundle, tmp_path):
    path = str(tmp_path / "model")
    save_bundle(bundle, path)
    resign(path, lambda m: m["tensors"].pop())
    with pytest.raises(BundleIntegrityError, match="tensor index ends at"):
        load_bundle(path)
