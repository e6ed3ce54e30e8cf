"""Model bundles: a graph manifest plus a flat parameter blob on disk.

Layout under a bundle directory:

* ``manifest.json`` -- graph structure, free-form metadata and an integrity
  checksum, written as canonical JSON: sorted keys, no whitespace.
* ``params.bin`` -- every parameter tensor as little-endian float32, back to
  back: nodes in graph order, each node's tensors by sorted name.

The manifest holds no tensor index: each kind's ``LayerKind.param_shapes``
declares its tensors' names and shapes, so the graph alone gives the layout.
A save checks that every node's tensors are exactly the declared ones before
it writes anything; a load slices the declared tensors out of the blob in
that order and rejects a blob that ends before or after them.  A version-1
manifest also carried the layout as a ``tensors`` index; a load ignores it.

Neither direction holds a second copy of the parameters.  A save hands each
tensor's buffer to the checksum and the file as it is.  A load reads the
blob once into one writable array, and the tensors are non-overlapping
views of it; ``ModelBundle.copy`` gives a loaded bundle tensors of its own.

The checksum is sha256 over the parameter blob followed by the canonical
manifest JSON (checksum field blanked), so corruption of either file is
detected on load.  The rule reads the manifest's content, not its file
bytes, so a manifest written indented by older code still loads.  A load
also checks each manifest field's type, and ``from_manifest`` runs graph
validation's attribute phase, holding each node to ``LayerKind.attrs``.
Once the tensors are sliced, ``validate_structure`` runs the structure
phase, so a loaded graph holds every invariant a built one does.  Each
file is replaced atomically, one at a time.  Round-trips are bit-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import BundleIntegrityError, GraphValidationError, StructuralError
from .graph import ArchitectureGraph
from .layers import kind_of
from .records import decode, read_json, write_bytes

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "params.bin"
FORMAT_VERSION = 2


@dataclass
class ModelBundle:
    graph: ArchitectureGraph
    metadata: dict = field(default_factory=dict)

    def copy(self) -> "ModelBundle":
        return ModelBundle(self.graph.copy(), dict(self.metadata))


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _param_buffers(graph: ArchitectureGraph):
    """Each tensor's name and little-endian float32 buffer, in blob order.

    A contiguous float32 tensor on a little-endian host is its own buffer,
    so no bytes are copied.
    """
    for node in graph.nodes:
        for pname in sorted(node.params):
            yield f"{node.id}/{pname}", np.ascontiguousarray(node.params[pname], dtype="<f4")


def _check_declared(node) -> None:
    """Raise unless ``node``'s tensors are exactly the names and shapes its kind declares."""
    declared = kind_of(node).param_shapes(node.attrs)
    for pname in sorted(declared.keys() | node.params.keys()):
        want = declared.get(pname)
        have = node.params[pname].shape if pname in node.params else None
        if have != want:
            raise BundleIntegrityError(f"tensor '{node.id}/{pname}': " + (
                f"missing, {node.kind} declares shape {want}" if have is None else
                f"not a parameter of {node.kind}" if want is None else
                f"shape {have} != declared {want}"))


def _checksum(blob, canonical: bytes) -> str:
    """sha256 of the blob's buffers, back to back, followed by the canonical
    manifest with its checksum field blank."""
    h = hashlib.sha256()
    for buf in blob:
        h.update(buf)
    h.update(canonical)
    return h.hexdigest()


def save_bundle(bundle: ModelBundle, path: str) -> str:
    """Write manifest + blob into directory ``path``; returns the checksum."""
    for node in bundle.graph.nodes:
        _check_declared(node)
    blob = [buf for _, buf in _param_buffers(bundle.graph)]
    manifest = {
        "format_version": FORMAT_VERSION,
        "graph": bundle.graph.to_manifest(),
        "metadata": bundle.metadata,
        "checksum": "",
    }
    canonical = _canonical_json(manifest)
    checksum = _checksum(blob, canonical)
    # "checksum" sorts first of the top-level keys, so its blank value opens
    # the text; filling it in gives the canonical form of the signed manifest
    head = b'{"checksum":"'
    os.makedirs(path, exist_ok=True)
    write_bytes(blob, os.path.join(path, BLOB_NAME))
    write_bytes([head, checksum.encode(), canonical[len(head):]],
                os.path.join(path, MANIFEST_NAME))
    return checksum


def load_bundle(path: str) -> ModelBundle:
    """Read and verify a bundle directory written by :func:`save_bundle`."""
    manifest = decode(dict, read_json(os.path.join(path, MANIFEST_NAME)), MANIFEST_NAME)
    if manifest.get("format_version") not in (1, FORMAT_VERSION):   # 1 adds an index
        raise BundleIntegrityError(
            f"unsupported bundle format {manifest.get('format_version')}")
    blob = np.fromfile(os.path.join(path, BLOB_NAME), dtype=np.uint8)
    blank = _canonical_json({**manifest, "checksum": ""})
    if _checksum([blob], blank) != manifest.get("checksum"):
        raise BundleIntegrityError("checksum mismatch: bundle is corrupt")

    try:
        graph = ArchitectureGraph.from_manifest(manifest.get("graph"))
    except (ValueError, StructuralError) as exc:
        raise BundleIntegrityError(str(exc)) from None
    end = 0
    for node in graph.nodes:
        declared = kind_of(node).param_shapes(node.attrs)
        for pname in sorted(declared):
            shape, start = declared[pname], end
            end += 4 * math.prod(shape)
            if end > len(blob):
                raise BundleIntegrityError(
                    f"tensor '{node.id}/{pname}': declared shape {shape} runs past "
                    f"the end of {BLOB_NAME} ({end} > {len(blob)} bytes)")
            node.params[pname] = blob[start:end].view("<f4").reshape(shape)
    if end != len(blob):
        raise BundleIntegrityError(
            f"{BLOB_NAME} holds {len(blob)} bytes, but the declared tensors end at {end}")
    violations = graph.validate_structure()
    if violations:
        raise BundleIntegrityError(str(GraphValidationError(violations)))
    return ModelBundle(graph, dict(manifest.get("metadata", {})))


def bundle_fingerprint(bundle: ModelBundle) -> str:
    """Content hash of a bundle (structure + parameters), for provenance."""
    h = hashlib.sha256(_canonical_json(bundle.graph.to_manifest()))
    for name, buf in _param_buffers(bundle.graph):
        h.update(name.encode())
        h.update(buf)
    return h.hexdigest()
