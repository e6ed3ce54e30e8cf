"""Model bundles: a graph manifest plus a flat parameter blob on disk.

Layout under a bundle directory:

* ``manifest.json`` -- graph structure, a tensor index (name, shape, byte
  offset, byte length), free-form metadata, and an integrity checksum,
  written as canonical JSON: sorted keys, no whitespace.
* ``params.bin`` -- every parameter tensor as little-endian float32,
  concatenated in manifest index order with no gaps.

The checksum is sha256 over the parameter blob followed by the canonical
manifest JSON (checksum field blanked), so corruption of either file is
detected on load.  The rule reads the manifest's content, not its file
bytes, so a manifest written indented by older code still loads.  A load
also checks each manifest field's type, that the tensor index is contiguous
(each tensor starts where the previous one ended, the last ends at the end of
the blob), and that each node's attributes and tensors are exactly the ones
its kind declares (``LayerKind.attrs`` and ``param_shapes``).
Each file is replaced atomically, one at a time.  Round-trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BundleIntegrityError, StructuralError
from .graph import ArchitectureGraph
from .layers import kind_of
from .records import Record, decode, read_json, write_bytes

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_VERSION = 1


@dataclass
class ModelBundle:
    graph: ArchitectureGraph
    metadata: dict = field(default_factory=dict)

    def copy(self) -> "ModelBundle":
        return ModelBundle(self.graph.copy(), dict(self.metadata))


@dataclass
class TensorEntry(Record):
    """One entry of the tensor index; the load checks its numbers are non-negative ints."""
    name: str
    shape: object
    offset: object
    nbytes: object


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _param_items(graph: ArchitectureGraph):
    for node in graph.nodes:
        for pname in sorted(node.params):
            yield f"{node.id}/{pname}", node.params[pname]


def _checksum(blob: bytes, canonical: bytes) -> str:
    """sha256 of the blob followed by the canonical manifest, checksum field blank."""
    h = hashlib.sha256(blob)
    h.update(canonical)
    return h.hexdigest()


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
    canonical = _canonical_json(manifest)
    checksum = _checksum(blob, canonical)
    # "checksum" sorts first of the top-level keys, so its blank value opens
    # the text; filling it in gives the canonical form of the signed manifest
    head = b'{"checksum":"'
    write_bytes(blob, os.path.join(path, BLOB_NAME))
    write_bytes(head + checksum.encode() + canonical[len(head):],
                os.path.join(path, MANIFEST_NAME))
    return checksum


def load_bundle(path: str) -> ModelBundle:
    """Read and verify a bundle directory written by :func:`save_bundle`."""
    manifest = decode(dict, read_json(os.path.join(path, MANIFEST_NAME)), MANIFEST_NAME)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise BundleIntegrityError(
            f"unsupported bundle format {manifest.get('format_version')}")
    with open(os.path.join(path, BLOB_NAME), "rb") as f:
        blob = f.read()
    blank = _canonical_json({**manifest, "checksum": ""})
    if _checksum(blob, blank) != manifest.get("checksum"):
        raise BundleIntegrityError("checksum mismatch: bundle is corrupt")

    try:
        graph = ArchitectureGraph.from_manifest(manifest.get("graph"))
        index = decode(list[TensorEntry], manifest.get("tensors"), "manifest.tensors")
    except (ValueError, StructuralError) as exc:
        raise BundleIntegrityError(str(exc)) from None
    end = 0      # save writes the tensors back to back in index order
    for entry in index:
        name, shape, start, nbytes = entry.name, entry.shape, entry.offset, entry.nbytes
        if type(shape) is not list or not all(
                type(v) is int and v >= 0 for v in (start, nbytes, *shape)):
            raise BundleIntegrityError(
                f"tensor '{name}': offset, byte length and shape must be "
                f"non-negative integers")
        shape = tuple(shape)
        if start != end:
            raise BundleIntegrityError(
                f"tensor '{name}': offset {start}, but the previous tensor ends at {end}")
        expect = math.prod(shape) * 4
        if nbytes != expect:
            raise BundleIntegrityError(
                f"tensor '{name}': manifest declares {nbytes} bytes, "
                f"shape {shape} needs {expect}")
        end = start + nbytes
        if end > len(blob):
            raise BundleIntegrityError(
                f"tensor '{name}': blob truncated ({end} > {len(blob)})")
        node_id, _, pname = name.rpartition("/")
        if not graph.has_node(node_id):
            raise BundleIntegrityError(f"tensor '{name}': no such node in manifest")
        graph.node(node_id).params[pname] = np.frombuffer(
            blob, "<f4", nbytes // 4, start).reshape(shape).copy()
    if end != len(blob):
        raise BundleIntegrityError(
            f"{BLOB_NAME} holds {len(blob)} bytes, but the tensor index ends at {end}")
    for node in graph.nodes:
        declared = kind_of(node).param_shapes(node.attrs)
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
