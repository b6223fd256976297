"""Interpreted systems: runs of a protocol plus knowledge.

An :class:`InterpretedSystem` packages a context and the transition system
generated by a joint protocol.  Knowledge is evaluated over the *reachable*
global states with agent indistinguishability given by local-state equality
— exactly the associated epistemic structure ``K(M)`` of the paper: the more
states are reachable, the less the agents know.

The class also implements the two structural notions the paper uses to
guarantee unique interpretability:

* :meth:`InterpretedSystem.is_synchronous` — every two indistinguishable
  reachable states are first reached at the same depth (agents can "read the
  time" off their local states);
* :meth:`InterpretedSystem.provides_witnesses_for` /
  :meth:`InterpretedSystem.provides_epistemic_witnesses` — whenever ``K_a
  phi`` fails at a state of depth ``k`` there is already a counterexample of
  depth at most ``k`` (not knowing has a witness in the past).
"""

from repro.engine import evaluator_for
from repro.kripke.builders import structure_from_local_states
from repro.logic.formula import Knows
from repro.systems.context import LocalStateIndexMixin
from repro.systems.transition_system import generate_transition_system
from repro.util.errors import ModelError


class InterpretedSystem(LocalStateIndexMixin):
    """The interpreted system ``I_rep(P, gamma, pi)`` of a protocol."""

    def __init__(self, context, transition_system):
        if transition_system.context is not context:
            raise ModelError("transition system was generated for a different context")
        self.context = context
        self.transition_system = transition_system
        self._structure = None

    # -- basic accessors ----------------------------------------------------------

    @property
    def states(self):
        """The reachable global states."""
        return self.transition_system.states

    @property
    def initial_states(self):
        return tuple(self.context.initial_states)

    @property
    def agents(self):
        return self.context.agents

    def __len__(self):
        return len(self.transition_system)

    def __contains__(self, state):
        return state in self.transition_system

    def depth(self, state):
        return self.transition_system.depth(state)

    def local_state(self, agent, state):
        return self.context.local_state(agent, state)

    def local_states(self, agent):
        """Return the set of local states of ``agent`` over reachable states."""
        return self.context.local_states_of(agent, self.states)


    # -- knowledge ------------------------------------------------------------------

    @property
    def structure(self):
        """The associated epistemic structure over the reachable states."""
        if self._structure is None:
            labelling = {state: self.context.labelling(state) for state in self.states}
            self._structure = structure_from_local_states(
                self.states,
                self.context.local_state,
                labelling,
                self.agents,
            )
        return self._structure

    @property
    def evaluator(self):
        """The persistent formula evaluator over the associated structure
        (subformula extensions are cached for the system's lifetime)."""
        return evaluator_for(self.structure)

    def holds(self, state, formula):
        """Return ``True`` iff ``formula`` holds at the reachable ``state``."""
        if state not in self.transition_system:
            raise ModelError(f"state {state!r} is not reachable in this system")
        return self.evaluator.holds(state, formula)

    def extension(self, formula):
        """Return the set of reachable states satisfying ``formula``
        (memoised)."""
        return self.evaluator.extension(formula)

    def holds_initially(self, formula):
        """Return ``True`` iff ``formula`` holds at every initial state."""
        return all(self.holds(state, formula) for state in self.initial_states)

    def holds_everywhere(self, formula):
        """Return ``True`` iff ``formula`` holds at every reachable state."""
        return self.extension(formula) == frozenset(self.states)

    # -- structural properties --------------------------------------------------------

    def is_synchronous(self):
        """Check the paper's synchrony condition on this system.

        The system is synchronous when any two reachable states that some
        agent cannot distinguish are first reached at the same depth.
        """
        for agent in self.agents:
            by_local = {}
            for state in self.states:
                by_local.setdefault(self.local_state(agent, state), []).append(state)
            for states in by_local.values():
                depths = {self.depth(state) for state in states}
                if len(depths) > 1:
                    return False
        return True

    def provides_witnesses_for(self, formula):
        """Check that the system provides epistemic witnesses for ``K_a phi``.

        For every ``k`` and every state ``s`` of depth at most ``k`` at which
        ``K_a phi`` fails, some state ``s'`` of depth at most ``k`` that the
        agent cannot distinguish from ``s`` must already falsify ``phi``.
        """
        if not isinstance(formula, Knows):
            raise ModelError(f"witness provision is defined for K formulas, got {formula}")
        agent = formula.agent
        inner = formula.operand
        know_ext = self.extension(formula)
        inner_ext = self.extension(inner)
        for state in self.states:
            if state in know_ext:
                continue
            depth = self.depth(state)
            indistinguishable = self.states_with_local_state(
                agent, self.local_state(agent, state)
            )
            witness_found = any(
                other not in inner_ext and self.depth(other) <= depth
                for other in indistinguishable
            )
            if not witness_found:
                return False
        return True

    def provides_epistemic_witnesses(self, formulas):
        """Check witness provision for every ``K`` subformula of the given
        formulas (typically the guards of a knowledge-based program)."""
        knowledge_subformulas = set()
        for formula in formulas:
            for sub in formula.subformulas():
                if isinstance(sub, Knows):
                    knowledge_subformulas.add(sub)
        return all(self.provides_witnesses_for(sub) for sub in knowledge_subformulas)

    # -- reporting ---------------------------------------------------------------------

    def summary(self):
        """Return a dictionary of basic statistics about the system."""
        return {
            "context": self.context.name,
            "states": len(self.transition_system),
            "transitions": len(self.transition_system.transitions),
            "max_depth": self.transition_system.max_depth(),
            "deadlocks": len(self.transition_system.deadlock_states()),
            "synchronous": self.is_synchronous(),
            "truncated": self.transition_system.truncated,
        }

    def __repr__(self):
        return (
            f"InterpretedSystem({self.context.name!r}, |S|={len(self.transition_system)}, "
            f"|T|={len(self.transition_system.transitions)})"
        )


def represent(context, joint_protocol, max_states=100000, max_depth=None):
    """Build ``I_rep(P, gamma, pi)``: generate the reachable transition system
    of ``joint_protocol`` in ``context`` and wrap it as an interpreted
    system."""
    transition_system = generate_transition_system(
        context, joint_protocol, max_states=max_states, max_depth=max_depth
    )
    return InterpretedSystem(context, transition_system)
