"""Model bundles: a graph manifest plus a flat parameter blob on disk.

Layout under a bundle directory:

* ``manifest.json`` -- graph structure, a tensor index (name, shape, byte
  offset, byte length), free-form metadata, and an integrity checksum.
* ``params.bin`` -- every parameter tensor as little-endian float32,
  concatenated in manifest index order.

The checksum is sha256 over the parameter blob followed by the canonical
manifest JSON (checksum field blanked), so corruption of either file is
detected on load.  A load also checks that each node's kind is known and
its tensors are exactly the names and shapes the kind declares
(``LayerKind.param_shapes``).
Round-trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BundleIntegrityError, StructuralError
from .graph import ArchitectureGraph
from .layers import kind_of
from .records import read_json, write_json

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_VERSION = 1


@dataclass
class ModelBundle:
    graph: ArchitectureGraph
    metadata: dict = field(default_factory=dict)

    def copy(self) -> "ModelBundle":
        return ModelBundle(self.graph.copy(), dict(self.metadata))


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _param_items(graph: ArchitectureGraph):
    for node in graph.nodes:
        for pname in sorted(node.params):
            yield f"{node.id}/{pname}", node.params[pname]


def save_bundle(bundle: ModelBundle, path: str) -> str:
    """Write manifest + blob into directory ``path``; returns the checksum."""
    os.makedirs(path, exist_ok=True)
    index, chunks, offset = [], [], 0
    for name, arr in _param_items(bundle.graph):
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        index.append({"name": name, "shape": list(arr.shape),
                      "offset": offset, "nbytes": len(data)})
        chunks.append(data)
        offset += len(data)
    blob = b"".join(chunks)

    manifest = {
        "format_version": FORMAT_VERSION,
        "graph": bundle.graph.to_manifest(),
        "tensors": index,
        "metadata": bundle.metadata,
        "checksum": "",
    }
    manifest["checksum"] = hashlib.sha256(blob + _canonical_json(manifest)).hexdigest()

    with open(os.path.join(path, BLOB_NAME), "wb") as f:
        f.write(blob)
    write_json(manifest, os.path.join(path, MANIFEST_NAME))
    return manifest["checksum"]


def load_bundle(path: str) -> ModelBundle:
    """Read and verify a bundle directory written by :func:`save_bundle`."""
    manifest = read_json(os.path.join(path, MANIFEST_NAME))
    if manifest.get("format_version") != FORMAT_VERSION:
        raise BundleIntegrityError(
            f"unsupported bundle format {manifest.get('format_version')}")
    with open(os.path.join(path, BLOB_NAME), "rb") as f:
        blob = f.read()

    stored = manifest["checksum"]
    manifest["checksum"] = ""
    actual = hashlib.sha256(blob + _canonical_json(manifest)).hexdigest()
    if actual != stored:
        raise BundleIntegrityError("checksum mismatch: bundle is corrupt")

    graph = ArchitectureGraph.from_manifest(manifest["graph"])
    by_node = {n.id: n for n in graph.nodes}
    for entry in manifest["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        start, nbytes = entry["offset"], entry["nbytes"]
        expect = int(np.prod(shape)) * 4 if shape else 4
        if nbytes != expect:
            raise BundleIntegrityError(
                f"tensor '{name}': manifest declares {nbytes} bytes, "
                f"shape {shape} needs {expect}")
        if start + nbytes > len(blob):
            raise BundleIntegrityError(
                f"tensor '{name}': blob truncated ({start + nbytes} > {len(blob)})")
        node_id, pname = name.rsplit("/", 1)
        if node_id not in by_node:
            raise BundleIntegrityError(f"tensor '{name}': no such node in manifest")
        arr = np.frombuffer(blob[start:start + nbytes], dtype="<f4").reshape(shape)
        by_node[node_id].params[pname] = arr.copy()
    for node in graph.nodes:
        try:
            declared = kind_of(node).param_shapes(node.attrs)
        except StructuralError as e:  # unknown kind
            raise BundleIntegrityError(str(e)) from None
        except KeyError as e:
            raise BundleIntegrityError(
                f"layer '{node.id}': {node.kind} lacks attribute {e}") from None
        for pname in sorted(declared.keys() | node.params.keys()):
            want = declared.get(pname)
            have = node.params[pname].shape if pname in node.params else None
            if have != want:
                raise BundleIntegrityError(f"tensor '{node.id}/{pname}': " + (
                    f"missing, {node.kind} declares shape {want}" if have is None else
                    f"not a parameter of {node.kind}" if want is None else
                    f"shape {have} != declared {want}"))
    return ModelBundle(graph, dict(manifest.get("metadata", {})))


def bundle_fingerprint(bundle: ModelBundle) -> str:
    """Content hash of a bundle (structure + parameters), for provenance."""
    h = hashlib.sha256(_canonical_json(bundle.graph.to_manifest()))
    for name, arr in _param_items(bundle.graph):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return h.hexdigest()
