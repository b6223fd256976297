"""Representation-neutral synthesis core: the fixed-point test and search.

The paper's central question about a knowledge-based program is *which
standard protocols implement it* — none (``contradictory``), exactly one
(``unique``), or several (``multiple``).  Both halves of that question are
representation-independent:

* the **fixed-point test** ``P = Pg^{I_rep(P, gamma, pi)}`` — generate the
  system of the candidate protocol, re-derive the program's protocol over
  it, compare behaviourally on the arising local states;
* the **exhaustive search** — every implementation is the protocol derived
  from its own reachable-state set, so enumerating candidate reachable sets
  ``R ⊇ initial``, deriving ``P_R`` over the epistemic structure of ``R``
  and keeping the candidates with ``reach(P_R) = R`` finds *all*
  behaviourally distinct implementations.

This module holds those two algorithms plus their result types, written
against a small set of primitives (generate, derive, compare, enumerate
candidates) with two interchangeable carriers:

* the **explicit** carrier (:mod:`repro.interpretation.explicit`): states
  are enumerated, protocols are tables, reachable sets are frozensets;
* the **symbolic** carrier (:mod:`repro.interpretation.symbolic`): states
  are BDDs of a :class:`repro.symbolic.model.SymbolicContextModel`,
  protocols are per-agent ``action -> class BDD`` maps, reachable sets are
  canonical BDD nodes — so the same public calls run at sizes the explicit
  path cannot enumerate.

The public entry points — :func:`check_implementation`, :func:`implements`,
:func:`enumerate_implementations`, :func:`classify_program`,
:func:`search` — dispatch on the model kind exactly like
``iterate_interpretation``/``construct_by_rounds`` and the CTLK checker do:
``is_symbolic_model`` routes to the symbolic carrier, anything else to the
explicit one.  ``max_states`` bounds explicit state materialisation and is
ignored symbolically (nothing materialises states there).
"""

from itertools import combinations

from repro import obs as _obs
from repro import resilience as _res
from repro.interpretation.functional import liberal_protocol
from repro.util.errors import InterpretationError
from repro.util.helpers import stable_sort_key

__all__ = [
    "ImplementationReport",
    "ImplementationSearchResult",
    "check_implementation",
    "implements",
    "enumerate_implementations",
    "classify_program",
    "search",
]


# ---------------------------------------------------------------------------
# result types (shared by both carriers)
# ---------------------------------------------------------------------------


def _system_size(system):
    """Reachable-state count of an explicit or symbolic system."""
    count = getattr(system, "state_count", None)
    if callable(count):
        return count()
    return len(system)


def _system_states(system):
    """Iterate the reachable states of an explicit or symbolic system
    (enumerating boundary — callers use it only on small systems)."""
    if getattr(system, "is_symbolic_system", False):
        return system.iter_states()
    return system.states


def _state_key(state):
    """A cross-run-stable sort key for one state: variable-based states
    order by their (name, value) items, opaque states fall back to
    :func:`stable_sort_key`'s hash bucket (stable within a process)."""
    as_dict = getattr(state, "as_dict", None)
    if callable(as_dict):
        return stable_sort_key(tuple(sorted(as_dict().items())))
    return stable_sort_key(state)


def _reachable_key(system):
    """The tie-break key of an implementation: the sorted state keys of its
    reachable set.  Equal-size implementations with different reachable sets
    always differ here, so the resulting order is deterministic across
    backends and runs."""
    return tuple(sorted(_state_key(state) for state in _system_states(system)))


class ImplementationReport:
    """The outcome of checking whether a protocol implements a program.

    Attributes
    ----------
    is_implementation:
        ``True`` when the protocol is a fixed point of the interpretation
        functional (behaviourally, on the reachable local states).
    system:
        The system ``I_rep(P, gamma, pi)`` generated by the candidate
        protocol (an ``InterpretedSystem`` on the explicit path, a
        :class:`~repro.interpretation.symbolic.SymbolicSystem` on the
        symbolic one).
    derived_protocol:
        The protocol ``Pg^{I_rep(P, gamma, pi)}`` obtained by evaluating the
        program over that system.
    differences:
        List of ``(agent, local state, candidate actions, derived actions)``
        tuples where the two protocols disagree (empty iff
        ``is_implementation``).  The symbolic report computes it lazily —
        the verdict itself never enumerates local states.
    """

    def __init__(self, is_implementation, system, derived_protocol, differences):
        self.is_implementation = is_implementation
        self.system = system
        self.derived_protocol = derived_protocol
        self._differences = differences

    @property
    def differences(self):
        return self._differences

    def __bool__(self):
        return self.is_implementation

    def __repr__(self):
        status = "implementation" if self.is_implementation else "not an implementation"
        return f"ImplementationReport({status}, |S|={_system_size(self.system)})"

    def describe(self):
        """Return a human-readable summary, listing disagreements if any."""
        lines = [repr(self)]
        for agent, local_state, candidate, derived in self.differences:
            lines.append(
                f"  {agent} at {local_state!r}: protocol {sorted(map(str, candidate))} "
                f"vs program {sorted(map(str, derived))}"
            )
        return "\n".join(lines)


class ImplementationSearchResult:
    """All implementations of a program in a context.

    Attributes
    ----------
    implementations:
        List of ``(joint protocol, system)`` pairs, one per behaviourally
        distinct implementation, ordered by the number of reachable states
        with a deterministic tie-break on the reachable sets themselves
        (via :func:`repro.util.stable_sort_key`), so multi-implementation
        results are order-stable across backends and runs.
    candidates_checked:
        How many candidate reachable-state sets were examined.
    classification:
        ``"contradictory"`` (no implementation), ``"unique"`` or
        ``"multiple"``.
    """

    def __init__(self, implementations, candidates_checked):
        self.implementations = self._sorted(implementations)
        self.candidates_checked = candidates_checked

    @staticmethod
    def _sorted(implementations):
        # Group by reachable-set size first and break ties only within a
        # group: the tie-break key enumerates states, and this keeps that
        # enumeration away from results whose sizes already order them.
        groups = {}
        for pair in implementations:
            groups.setdefault(_system_size(pair[1]), []).append(pair)
        ordered = []
        for size in sorted(groups):
            group = groups[size]
            if len(group) > 1:
                group.sort(key=lambda pair: _reachable_key(pair[1]))
            ordered.extend(group)
        return ordered

    @property
    def classification(self):
        if not self.implementations:
            return "contradictory"
        if len(self.implementations) == 1:
            return "unique"
        return "multiple"

    def __len__(self):
        return len(self.implementations)

    def __iter__(self):
        return iter(self.implementations)

    def unique(self):
        """Return the unique implementation, or raise if there is not exactly
        one."""
        if len(self.implementations) != 1:
            raise InterpretationError(
                f"expected a unique implementation, found {len(self.implementations)}"
            )
        return self.implementations[0]

    def reachable_sets(self):
        """Return the list of reachable-state sets of the implementations."""
        return [frozenset(_system_states(system)) for _, system in self.implementations]

    def __repr__(self):
        return (
            f"ImplementationSearchResult({self.classification}, "
            f"{len(self.implementations)} implementation(s), "
            f"{self.candidates_checked} candidates checked)"
        )


# ---------------------------------------------------------------------------
# the shared candidate loop
# ---------------------------------------------------------------------------


def run_candidate_search(ops, max_free_states, budget=None):
    """The exhaustive search over one carrier's primitives.

    The candidate universe is ``ops.universe`` (the caller's ``all_states=``
    override, already in the carrier's representation) or, when that is
    ``None``, the reachable set of the *liberal* protocol (every
    program-mentioned action at every local state).  The default is
    complete: an implementation's derived selections are clause actions or
    the fallback, hence a pointwise subset of the liberal selection, so its
    reachable set lies inside the liberal one.  It is computed here, under
    ``budget``, with the carrier's own ``represent``.

    ``ops`` supplies the representation: ``program``/``context`` (what the
    liberal protocol is built from), ``universe``,
    ``free_count(universe)``/``free_states(universe)`` (the non-initial
    states of the universe, in a stable order — counted before they are
    enumerated, so an oversized universe is rejected without enumerating
    it), ``candidate(extra)`` (initial states plus a chosen subset),
    ``derive(candidate)`` (the functional over the candidate's epistemic
    structure; :class:`InterpretationError` skips the candidate — a
    non-local guard means it cannot be an implementation's reachable set),
    ``represent(protocol)`` (generate the system, returning it with a
    handle on its reachable set), ``matches(reachable, candidate)`` (the
    fixed-point test ``reach(P_R) = R``) and ``key(reachable)`` (a hashable
    dedupe key — behaviourally equal implementations share one).
    """
    implementations = []
    seen_reachable_sets = set()
    candidates_checked = 0
    pruned_nonlocal = 0
    pruned_not_fixed = 0
    pruned_duplicate = 0

    def partial():
        return _res.PartialProgress(
            "synthesis.search",
            candidates_checked=candidates_checked,
            implementations=list(implementations),
        )

    with _res.activate(budget) as bud, _obs.span("synthesis.search"):
        universe = ops.universe
        if universe is None:
            _, universe = ops.represent(liberal_protocol(ops.program, ops.context))
        count = ops.free_count(universe)
        if count > max_free_states:
            raise InterpretationError(
                f"search space too large: {count} non-initial states "
                f"(limit {max_free_states}); raise max_free_states to force the search"
            )
        free = ops.free_states(universe)
        for size in range(len(free) + 1):
            for extra in combinations(free, size):
                if bud is not None:
                    # Candidate boundaries are the search's safe points; the
                    # candidate count is deliberately *not* matched against
                    # ``max_iterations`` (that ceiling governs fixed-point
                    # loops), so only deadline/cancellation fire here.
                    bud.tick("synthesis.candidate", partial=partial)
                if _obs.ENABLED:
                    _obs.event(
                        "synthesis.candidate", index=candidates_checked + 1, size=size
                    )
                candidates_checked += 1
                candidate = ops.candidate(extra)
                try:
                    protocol = ops.derive(candidate)
                except InterpretationError:
                    # A guard is not local over this candidate set; such a
                    # candidate cannot be the reachable set of an implementation
                    # of a well-formed knowledge-based program.
                    pruned_nonlocal += 1
                    continue
                system, reachable = ops.represent(protocol)
                if not ops.matches(reachable, candidate):
                    pruned_not_fixed += 1
                    continue
                key = ops.key(reachable)
                if key in seen_reachable_sets:
                    pruned_duplicate += 1
                    continue
                seen_reachable_sets.add(key)
                implementations.append((protocol, system))
    if _obs.ENABLED:
        _obs.counter("synthesis.candidates", candidates_checked)
        _obs.counter(
            "synthesis.pruned", pruned_nonlocal + pruned_not_fixed + pruned_duplicate
        )
        _obs.event(
            "synthesis.search",
            free_states=len(free),
            candidates=candidates_checked,
            implementations=len(implementations),
            pruned_nonlocal=pruned_nonlocal,
            pruned_not_fixed=pruned_not_fixed,
            pruned_duplicate=pruned_duplicate,
        )
    return ImplementationSearchResult(implementations, candidates_checked)


# ---------------------------------------------------------------------------
# public entry points (dispatch on model kind)
# ---------------------------------------------------------------------------


def check_implementation(joint_protocol, program, context, require_local=True, max_states=100000):
    """Check the implementation relation and return a full report.

    ``context`` may be an explicit interpreted context or a
    :class:`repro.symbolic.model.SymbolicContextModel`; the symbolic path
    compares candidate and derived protocols by canonical class-BDD node
    ids over the candidate's reachable set and never enumerates states
    (``max_states`` does not apply there).
    """
    if getattr(context, "is_symbolic_model", False):
        from repro.interpretation.symbolic import check_implementation_symbolic

        return check_implementation_symbolic(
            joint_protocol, program, context, require_local=require_local
        )
    from repro.interpretation.explicit import check_implementation_explicit

    return check_implementation_explicit(
        joint_protocol, program, context, require_local=require_local, max_states=max_states
    )


def implements(joint_protocol, program, context, require_local=True, max_states=100000):
    """Return ``True`` iff ``joint_protocol`` implements ``program`` in
    ``context`` (behaviourally)."""
    return check_implementation(
        joint_protocol, program, context, require_local=require_local, max_states=max_states
    ).is_implementation


def enumerate_implementations(
    program,
    context,
    all_states=None,
    max_free_states=16,
    require_local=True,
    max_states=100000,
    budget=None,
):
    """Enumerate all (behaviourally distinct) implementations of ``program``.

    Parameters
    ----------
    all_states:
        Overrides the candidate universe, which defaults to the reachable
        set of the *liberal* protocol in both representations — complete,
        because every implementation's selections are a subset of the
        liberal ones, so its reachable set is too.  An iterable of states
        (repeats are ignored); symbolically also a state-set BDD node.
    max_free_states:
        Upper bound on the number of non-initial candidate states (the
        search is exponential in this number); exceeding it raises
        :class:`InterpretationError`.

    Returns
    -------
    ImplementationSearchResult
    """
    if getattr(context, "is_symbolic_model", False):
        from repro.interpretation.symbolic import SymbolicSynthesisOps

        ops = SymbolicSynthesisOps(
            program, context, all_states=all_states, require_local=require_local
        )
    else:
        from repro.interpretation.explicit import ExplicitSynthesisOps

        ops = ExplicitSynthesisOps(
            program,
            context,
            all_states=all_states,
            require_local=require_local,
            max_states=max_states,
        )
    return run_candidate_search(ops, max_free_states, budget=budget)


def classify_program(program, context, **kwargs):
    """Return ``"contradictory"``, ``"unique"`` or ``"multiple"`` for the
    program in the context (see :func:`enumerate_implementations`)."""
    return enumerate_implementations(program, context, **kwargs).classification


def search(program, context, **kwargs):
    """Synonym of :func:`enumerate_implementations` — the paper-facing name
    for implementation synthesis over either model kind."""
    return enumerate_implementations(program, context, **kwargs)
