"""Seeded random instances: small documents and large benchmark graphs.

Everything here is deterministic in the seed.  Small instances go
through the normal construction path and come back as interpretations
or JSON documents.  Benchmark instances skip Python pair sets entirely
and produce array-backed graphs, since at the intended sizes (tens of
thousands of nodes and up) building frozensets would dominate the
measurement.
"""

from __future__ import annotations

import random

import numpy as np

from .core import (
    Interpretation,
    LabeledGraph,
    Signature,
    build_interpretation,
    from_arrays,
)
from .document import InterpretationBody, signature_to_json


def random_interpretation(rng: random.Random, signature: Signature, n: int,
                          edge_density: float = 0.15,
                          concept_density: float = 0.5) -> Interpretation:
    """Dense uniform model: every edge and membership is one coin flip."""
    concept_ext = {a: {x for x in range(n) if rng.random() < concept_density}
                   for a in signature.concept_names}
    role_ext = {r: {(x, y) for x in range(n) for y in range(n)
                    if rng.random() < edge_density}
               for r in signature.role_names}
    individual_map = {a: rng.randrange(n) for a in signature.individual_names}
    return build_interpretation(signature, n, concept_ext, role_ext, individual_map)


def make_signature(n_concepts: int, n_roles: int, n_individuals: int) -> Signature:
    return Signature(
        tuple("A%d" % i for i in range(n_concepts)),
        tuple("r%d" % i for i in range(n_roles)),
        tuple("a%d" % i for i in range(n_individuals)),
    )


def random_document(seed: int, n: int, n_concepts: int = 2, n_roles: int = 2,
                    n_individuals: int = 2, phi: str = "",
                    edge_density: float = 0.15, concept_density: float = 0.5) -> dict:
    """A complete workspace document with one random interpretation,
    ready for document.dumps_document."""
    rng = random.Random(seed)
    sig = make_signature(n_concepts, n_roles, n_individuals)
    interp = random_interpretation(rng, sig, n, edge_density, concept_density)
    names = tuple("x%d" % i for i in range(n))
    doc = {
        "signature": signature_to_json(sig),
        "interpretations": {"I": InterpretationBody(interp, names)},
    }
    if phi:
        doc["phi"] = phi
    return doc


def benchmark_graph(seed: int, n: int, n_roles: int = 3, n_concepts: int = 2,
                    max_out: int = 4) -> LabeledGraph:
    """Sparse array-backed graph: out-degree uniform in 0..max_out per role."""
    rng = np.random.default_rng(seed)
    sig = make_signature(n_concepts, n_roles, 0)
    atom_bits = rng.integers(0, 2, size=(n, n_concepts), dtype=np.uint8)
    edges = []
    for _ in range(n_roles):
        deg = rng.integers(0, max_out + 1, size=n)
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        edges.append((src, rng.integers(0, n, size=len(src), dtype=np.int64)))
    return from_arrays(sig, n, atom_bits, edges)
