"""The symbolic evaluation subsystem: a pure-Python ROBDD kernel and the
``"bdd"`` world-set backend built on it.

Three layers:

* :mod:`repro.symbolic.bdd` — a self-contained ROBDD kernel (hash-consed
  unique table, memoised ``ite``/apply, restrict, quantification, renaming,
  the combined relational product ``and_exists``, satisfying-set counting
  and enumeration) with no third-party dependency;
* :mod:`repro.symbolic.encode` — the symbolic coding of an
  :class:`~repro.kripke.structure.EpistemicStructure`: worlds as boolean
  vectors over ``ceil(log2 |W|)`` variables (current copies above primed
  copies), accessibility as relation BDDs — enumerated structures may carry
  any relation — all memoised per structure in ``structure.engine_cache``;
* :mod:`repro.symbolic.backend_bdd` — :class:`SymbolicBackend`, the
  :class:`~repro.engine.backend.SetBackend` implementation registered as
  ``"bdd"``, whose cost scales with BDD size rather than ``|W|``; it knows
  no relation, only the encoding's ``pre_image``/``post_image``.

On top of the backend sits the *enumeration-free construction* pipeline:

* :mod:`repro.symbolic.compile` — a per-variable binary encoding of a
  :class:`~repro.modeling.state_space.StateSpace` and an
  ``Expression → BDD`` compiler (boolean structure directly, arithmetic by
  value-range case splits) that never enumerates states;
* :mod:`repro.symbolic.model` — :class:`SymbolicContextModel`, the
  compiled form of a variable context (initial set and transition
  relation, BDDs built straight from the specification), plus the
  structure/view adapters that plug it into the unmodified ``"bdd"``
  backend and evaluator.  Knowledge needs no relation there: states an
  agent cannot tell apart agree on its observables, so every modality is a
  projection onto them.

The backend is registered lazily by :mod:`repro.engine.backend`; importing
this package directly is only needed to use the kernel, the encodings or
the compilation pipeline on their own.
"""

from repro.symbolic.bdd import BDD, DEFAULT_CACHE_CEILING, FALSE, TRUE
from repro.symbolic.encode import SymbolicEncoding, encoding_for
from repro.symbolic.backend_bdd import SymbolicBackend, SymbolicWorldSet
from repro.symbolic.compile import VariableEncoding

# The model layer is exported lazily (PEP 562): it imports the engine and
# interpretation packages, which in turn resolve the process-default backend
# at import time — under ``REPRO_SET_BACKEND=bdd`` that resolution imports
# *this* package, so an eager ``from repro.symbolic.model import ...`` here
# would close an import cycle through the half-initialised engine.
_MODEL_EXPORTS = (
    "SymbolicContextModel",
    "SymbolicGuardTable",
    "SymbolicStateSetView",
    "SymbolicStructure",
    "compile_context",
)


def __getattr__(name):
    if name in _MODEL_EXPORTS:
        from repro.symbolic import model

        return getattr(model, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BDD",
    "DEFAULT_CACHE_CEILING",
    "FALSE",
    "TRUE",
    "SymbolicEncoding",
    "encoding_for",
    "SymbolicBackend",
    "SymbolicWorldSet",
    "VariableEncoding",
    *_MODEL_EXPORTS,
]
