"""Bisimulations over finite description logic interpretations.

The package works with a family of expressive description languages
built from a shared regular core: role composition, union, iteration,
tests, the identity role.  Five optional features, written as the
letters I, O, Q, U and S, independently switch on inverse roles,
nominals, qualified number restrictions, the universal role and local
reflexivity tests.  A feature set fixes both the concept language and
the matching notion of bisimulation between finite interpretations.

What is here:

- construction and validation of signatures and interpretations,
- an AST, parser and printer for concepts, roles and knowledge bases,
- concept and role evaluation by preimages on boolean vectors, axiom
  checking, least closure of an interpretation under role inclusion
  axioms,
- the coarsest stable partition of an interpretation via exact
  signature rounds to the fixpoint: whole-array numpy rounds, then
  rounds that read only the in-edges of the elements that moved
  (active_engine names the refinement "numpy"),
- bisimulation checking, largest bisimulations within and across
  interpretations (verdicts and pair counts read off block ids, pairs
  built only on request), and a slow reference fixpoint for cross
  checking,
- quotients, multiplicity-annotated quotients, and concepts witnessing
  why two elements fell into different blocks, of the least modal depth,
  read off the partitions of the signature rounds (the trace that
  compute_partition returns keeps them as levels),
- a JSON document format and a CLI exposing all of the above.
"""

from ._kernels import active_engine
from .bisim import (
    ConditionReport,
    Violation,
    bisimilar,
    bisimulation_pairs,
    bisimulation_size,
    is_bisimulation,
    largest_auto_bisimulation,
    largest_bisimulation,
    naive_largest_bisimulation,
)
from .core import (
    BisimRelation,
    FeatureSet,
    Interpretation,
    LabeledGraph,
    QSInterpretation,
    Signature,
    build_interpretation,
    build_qs_interpretation,
    disjoint_union_graph,
    extract_interpretation,
    from_arrays,
    is_unreachable_objects_free,
    qs_embedding,
    to_labeled_graph,
)
from .errors import (
    BisimError,
    DocumentError,
    ElementOutOfRangeError,
    EmptyDomainError,
    FeatureViolationError,
    NotSeparatedError,
    ParseError,
    PartialIndividualMapError,
    PartitionMismatchError,
    SignatureMismatchError,
    TooLargeError,
    UnknownNameError,
)
from .quotient import (
    WitnessConcept,
    qs_quotient,
    quotient_interpretation,
    separating_concept,
)
from .refine import (
    Partition,
    RefinementTrace,
    SplitEvent,
    compute_partition,
    econd_partition,
)
from .semantics import (
    Evaluator,
    KBReport,
    check_assertion,
    check_gci,
    check_kb,
    check_role_axiom,
    eval_concept,
    eval_concept_qs,
    eval_role,
    least_r_extension,
)
from .syntax import (
    parse_assertion,
    parse_concept,
    parse_gci,
    parse_role,
    parse_role_axiom,
    to_cnf,
    to_text,
    to_unicode,
    validate_in_language,
)

__version__ = "0.1.0"
