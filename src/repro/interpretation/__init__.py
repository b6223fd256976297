"""Interpretation of knowledge-based programs (the paper's core contribution).

The circular definition at the heart of knowledge-based programs — the tests
are evaluated over the very system of runs the program generates — is made
precise by the *implementation* relation:

    a joint protocol ``P`` implements the knowledge-based program ``Pg`` in
    the interpreted context ``(gamma, pi)`` iff ``P = Pg^{I_rep(P, gamma,
    pi)}``,

i.e. ``P`` is a fixed point of the functional that evaluates the program's
epistemic guards over the system generated by ``P``.  This package provides:

* :func:`repro.interpretation.functional.derive_protocol` — the functional
  ``Pg^I`` itself;
* :func:`repro.interpretation.synthesis.implements` and
  :func:`repro.interpretation.synthesis.check_implementation` — the
  fixed-point test;
* :func:`repro.interpretation.iteration.iterate_interpretation` — repeated
  application of the functional from a seed protocol, with fixed-point and
  cycle detection (the paper's iterative construction);
* :func:`repro.interpretation.iteration.construct_by_rounds` — the
  depth-stratified construction that is sound for programs providing
  epistemic witnesses (in particular synchronous programs);
  both loops are written once and run over the explicit or the BDD ops;
* :func:`repro.interpretation.synthesis.enumerate_implementations` (alias
  :func:`~repro.interpretation.synthesis.search`) and
  :func:`repro.interpretation.synthesis.classify_program` — exhaustive
  search for all implementations of a program, classifying it as having
  none, a unique one, or several;
* :mod:`repro.interpretation.conditions` — dependence on the past, provision
  of epistemic witnesses and synchrony.

Every public entry point dispatches on the model kind: handed a
:class:`repro.symbolic.model.SymbolicContextModel`, derivation, iteration,
construction, the fixed-point check and the exhaustive search all run on
BDDs (:mod:`repro.interpretation.symbolic`) — protocols as per-agent
``action -> class BDD`` maps, reachability as relational images,
behavioural comparison as canonical node-id signatures — at sizes the
enumerating carrier (:mod:`repro.interpretation.explicit`) cannot touch.
The representation-neutral algorithms live in
:mod:`repro.interpretation.iteration` (construction and iteration) and
:mod:`repro.interpretation.synthesis` (the fixed-point test and search).
"""

from repro.interpretation.functional import (
    GuardTable,
    StateSetView,
    derive_protocol,
    guard_table,
)
from repro.interpretation.synthesis import (
    ImplementationReport,
    ImplementationSearchResult,
    check_implementation,
    classify_program,
    enumerate_implementations,
    implements,
    search,
)
from repro.interpretation.iteration import (
    iterate_interpretation,
    construct_by_rounds,
    IterationResult,
    liberal_protocol,
    restrictive_protocol,
)
from repro.interpretation.conditions import (
    system_is_synchronous,
    program_provides_witnesses,
    depends_on_past,
    sufficient_conditions_report,
)
from repro.interpretation.symbolic import SymbolicImplementationReport, SymbolicSystem

__all__ = [
    "SymbolicImplementationReport",
    "SymbolicSystem",
    "derive_protocol",
    "StateSetView",
    "GuardTable",
    "guard_table",
    "implements",
    "check_implementation",
    "ImplementationReport",
    "iterate_interpretation",
    "construct_by_rounds",
    "IterationResult",
    "liberal_protocol",
    "restrictive_protocol",
    "enumerate_implementations",
    "classify_program",
    "search",
    "ImplementationSearchResult",
    "system_is_synchronous",
    "program_provides_witnesses",
    "depends_on_past",
    "sufficient_conditions_report",
]
