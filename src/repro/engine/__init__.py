"""The evaluation engine: indexed world universes and pluggable set backends.

This package is the performance core of the library.  Every layer that
manipulates sets of worlds — formula satisfaction (:mod:`repro.logic.semantics`),
structure operations (:mod:`repro.kripke.operations`), group-knowledge
analysis (:mod:`repro.analysis.common_knowledge`), CTLK model checking
(:mod:`repro.temporal.ctlk`) and knowledge-based-program interpretation
(:mod:`repro.interpretation`) — routes its world-set computation through a
:class:`repro.engine.backend.SetBackend`:

* :class:`~repro.engine.backend.BitsetBackend` (the default) represents
  world-sets as big-int bitmasks over the dense world index every
  :class:`repro.kripke.structure.EpistemicStructure` assigns at
  construction time;
* :class:`~repro.symbolic.backend_bdd.SymbolicBackend` (``"bdd"``)
  represents world-sets as ROBDDs (:mod:`repro.symbolic`) and the epistemic
  operators as boxes and BDD fixed points over the encoding's images —
  observation projections on symbolic model views, relational products on
  the ``ceil(log2 |W|)``-variable encoding of an enumerated structure —
  with cost scaling in BDD size rather than world count.

The backend set is open: :func:`register_backend` registers a factory under
a name, and every consumer of :func:`available_backends` — the equivalence
test-suite, the benchmark harness — picks the new backend up automatically.
The semantic reference for every backend is the definitional oracle
:mod:`repro.oracle`, which shares no code with the engine.

Select a backend per call (``extension(structure, phi, backend="bdd")``),
per process (:func:`set_default_backend`, or the ``REPRO_SET_BACKEND``
environment variable), or lexically (:func:`use_backend`).  The persistent
:class:`~repro.engine.evaluator.Evaluator` memoises subformula extensions
for the lifetime of a structure; obtain the shared instance with
:func:`evaluator_for`.
"""

from repro.engine.backend import (
    BitsetBackend,
    SetBackend,
    available_backends,
    backend_by_name,
    get_default_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
    unregister_backend,
    use_backend,
)
from repro.engine.evaluator import (
    Evaluator,
    apply_epistemic,
    apply_epistemic_many,
    collect_ready_epistemic,
    evaluator_for,
    uniform_value,
)

__all__ = [
    "SetBackend",
    "BitsetBackend",
    "available_backends",
    "backend_by_name",
    "get_default_backend",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "unregister_backend",
    "use_backend",
    "Evaluator",
    "apply_epistemic",
    "apply_epistemic_many",
    "collect_ready_epistemic",
    "evaluator_for",
    "uniform_value",
]
