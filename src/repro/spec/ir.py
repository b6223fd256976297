"""The :class:`ProtocolSpec` intermediate representation.

A ``ProtocolSpec`` is the declarative description of a knowledge-based
protocol: finite-domain variables, per-agent observability, named
actions with :class:`repro.modeling.state_space.Assignment` effects,
environment effects, an initial-state constraint, an optional global
constraint, an optional BDD variable-order hint and one or more named
knowledge-based programs.  It is produced by the ``.kbp`` parser
(:mod:`repro.spec.parser`) or built directly (e.g. by the fuzzer in
:mod:`repro.spec.fuzz`), validated by :mod:`repro.spec.validate`, and
lowered to either model path:

* :meth:`ProtocolSpec.variable_context` — the explicit path
  (:func:`repro.systems.variable_context.variable_context`);
* :meth:`ProtocolSpec.symbolic_model` — the enumeration-free path
  (:class:`repro.symbolic.model.SymbolicContextModel`), honouring the
  spec's declared ``order`` hint.

:meth:`ProtocolSpec.to_kbp` renders the spec back to the textual grammar
(monomorphised: parameters and ``foreach`` loops already expanded), and
re-parsing the rendering yields an :meth:`equivalent` spec — the
round-trip property the fuzzer checks.
"""

from repro.logic.formula import (
    And,
    CommonKnows,
    DistributedKnows,
    EveryoneKnows,
    FalseFormula,
    Formula,
    Knows,
    Not,
    Or,
    Possible,
    Prop,
    TrueFormula,
)
from repro.modeling.expressions import (
    BinaryOp,
    BoolOp,
    Comparison,
    Const,
    Expression,
    Ite,
    NotOp,
    VarRef,
)
from repro import obs as _obs
from repro.modeling.state_space import Assignment, StateSpace
from repro.modeling.variables import Variable
from repro.programs import AgentProgram, Clause, KnowledgeBasedProgram
from repro.systems.actions import NOOP_NAME
from repro.util.errors import SpecError

DEFAULT_PROGRAM = "main"


class AgentClauses:
    """The clauses and fallback of one agent within one named program."""

    __slots__ = ("clauses", "fallback")

    def __init__(self, clauses=(), fallback=NOOP_NAME):
        object.__setattr__(self, "clauses", tuple(clauses))
        object.__setattr__(self, "fallback", fallback)

    def __setattr__(self, key, value):
        raise AttributeError("AgentClauses is immutable")

    def __eq__(self, other):
        if not isinstance(other, AgentClauses):
            return NotImplemented
        return self.clauses == other.clauses and self.fallback == other.fallback

    def __repr__(self):
        return f"AgentClauses({len(self.clauses)} clauses, fallback={self.fallback!r})"


class ProtocolSpec:
    """Declarative protocol description; see the module docstring.

    Parameters
    ----------
    name:
        Context name (reported by the lowered models).
    variables:
        Ordered iterable of :class:`repro.modeling.variables.Variable`.
    observables:
        Mapping ``agent -> iterable of variable names``; the mapping's key
        order fixes the agent order of the lowered context.
    actions:
        Mapping ``agent -> {action name -> Assignment}``.
    env_effects:
        Optional mapping ``env action name -> Assignment``.
    initial:
        Boolean :class:`~repro.modeling.expressions.Expression` selecting
        the initial states.
    global_constraint:
        Optional boolean expression restricting the state space.
    variable_order:
        Optional BDD variable-order hint (must be a permutation of the
        variable names when given); used by :meth:`symbolic_model`.
    programs:
        Mapping ``program name -> {agent -> AgentClauses}``.  The program
        called :data:`DEFAULT_PROGRAM` is the one :meth:`program` returns
        by default.
    params:
        The resolved integer parameters the spec was instantiated with
        (informational; recorded by :meth:`describe` and ``to_kbp``
        comments).
    source:
        Where the spec came from (file name), for error reporting.
    """

    def __init__(
        self,
        name,
        variables,
        observables,
        actions,
        initial,
        env_effects=None,
        global_constraint=None,
        variable_order=None,
        programs=None,
        params=None,
        source=None,
    ):
        if not isinstance(name, str) or not name:
            raise SpecError("protocol name must be a non-empty string", source=source)
        self.name = name
        self.variables = tuple(variables)
        for variable in self.variables:
            if not isinstance(variable, Variable):
                raise SpecError(f"expected Variable, got {variable!r}", source=source)
        self.observables = {agent: tuple(names) for agent, names in dict(observables).items()}
        self.actions = {
            agent: dict(agent_actions) for agent, agent_actions in dict(actions).items()
        }
        for agent in self.observables:
            self.actions.setdefault(agent, {})
        if not isinstance(initial, Expression):
            raise SpecError("the initial condition must be a boolean Expression", source=source)
        self.initial = initial
        self.env_effects = dict(env_effects or {})
        self.global_constraint = global_constraint
        self.variable_order = tuple(variable_order) if variable_order else None
        self.programs = {
            prog_name: dict(agent_clauses)
            for prog_name, agent_clauses in dict(programs or {}).items()
        }
        if DEFAULT_PROGRAM not in self.programs:
            self.programs[DEFAULT_PROGRAM] = {}
        self.params = dict(params or {})
        self.source = source
        self._space = None

    def copy(self):
        """A fresh spec with containers of its own.

        The dicts (``observables``, ``actions`` and every action table,
        ``env_effects``, ``programs`` and every program table, ``params``)
        are new; the immutable leaves (variables, effects, expressions,
        clauses) are shared.
        """
        return ProtocolSpec(
            name=self.name,
            variables=self.variables,
            observables=self.observables,
            actions=self.actions,
            initial=self.initial,
            env_effects=self.env_effects,
            global_constraint=self.global_constraint,
            variable_order=self.variable_order,
            programs=self.programs,
            params=self.params,
            source=self.source,
        )

    # -- structure ---------------------------------------------------------

    @property
    def agents(self):
        """The agent names, in declaration order."""
        return tuple(self.observables)

    @property
    def program_names(self):
        """The names of the declared programs (``"main"`` always present)."""
        return tuple(self.programs)

    def state_space(self):
        """The :class:`StateSpace` over the spec's variables (cached)."""
        if self._space is None:
            self._space = StateSpace(self.variables)
        return self._space

    def variable(self, name):
        """Return the declared variable called ``name``."""
        return self.state_space().variable(name)

    # -- lowerings ---------------------------------------------------------

    def validate(self):
        """Run the spec-level validator; returns the spec for chaining."""
        from repro.spec.validate import validate_spec

        with _obs.span("spec.validate", spec=self.name):
            validate_spec(self)
        return self

    def context_parts(self):
        """The keyword arguments of
        :func:`repro.systems.variable_context.variable_context` — the shared
        ``context_parts()`` convention of the protocol zoo.  The variable
        order hint is *not* part of the dict (it only concerns the symbolic
        path); pull it from :attr:`variable_order`.
        """
        parts = dict(
            name=self.name,
            state_space=self.state_space(),
            observables={agent: list(names) for agent, names in self.observables.items()},
            actions={agent: dict(table) for agent, table in self.actions.items()},
            initial=self.initial,
        )
        if self.env_effects:
            parts["env_effects"] = dict(self.env_effects)
        if self.global_constraint is not None:
            parts["global_constraint"] = self.global_constraint
        return parts

    def variable_context(self):
        """Lower to the explicit path: a
        :class:`repro.systems.context.Context` (with ``context.spec``)."""
        from repro.systems import variable_context

        with _obs.span("spec.lower.explicit", spec=self.name):
            return variable_context(**self.context_parts())

    def symbolic_model(self, variable_order=None, **kwargs):
        """Lower to the enumeration-free path: a
        :class:`repro.symbolic.model.SymbolicContextModel`.

        ``variable_order`` overrides the spec's declared ``order`` hint;
        remaining keyword arguments (``cache_ceiling``, ``reorder``) are
        forwarded.
        """
        from repro.symbolic.model import SymbolicContextModel

        if variable_order is None:
            variable_order = list(self.variable_order) if self.variable_order else None
        with _obs.span("spec.lower.symbolic", spec=self.name):
            return SymbolicContextModel(
                **self.context_parts(), variable_order=variable_order, **kwargs
            )

    def program(self, name=DEFAULT_PROGRAM):
        """Build the named :class:`KnowledgeBasedProgram`.

        Every agent of the spec appears in the joint program; agents without
        clauses in the named program get an empty case statement (they only
        observe).
        """
        try:
            table = self.programs[name]
        except KeyError:
            raise SpecError(
                f"spec {self.name!r} has no program {name!r} "
                f"(available: {sorted(self.programs)})",
                source=self.source,
            ) from None
        agent_programs = []
        for agent in self.agents:
            entry = table.get(agent, AgentClauses())
            agent_programs.append(
                AgentProgram(agent, entry.clauses, fallback=entry.fallback)
            )
        return KnowledgeBasedProgram(agent_programs)

    # -- equality (used by the fuzzer's round-trip check) ------------------

    def equivalent(self, other):
        """Structural equality of two specs (names, variables, observables,
        actions, constraints, order hint and programs)."""
        if not isinstance(other, ProtocolSpec):
            return False
        if self.name != other.name:
            return False
        if self.variables != other.variables:
            return False
        if self.observables != other.observables:
            return False
        if set(self.actions) != set(other.actions):
            return False
        for agent, table in self.actions.items():
            if not _action_tables_equal(table, other.actions[agent]):
                return False
        if not _assignment_tables_equal(self.env_effects, other.env_effects):
            return False
        if not self.initial.equals(other.initial):
            return False
        if (self.global_constraint is None) != (other.global_constraint is None):
            return False
        if self.global_constraint is not None and not self.global_constraint.equals(
            other.global_constraint
        ):
            return False
        if self.variable_order != other.variable_order:
            return False
        if set(self.programs) != set(other.programs):
            return False
        for prog_name, table in self.programs.items():
            if table != other.programs[prog_name]:
                return False
        return True

    # -- rendering ---------------------------------------------------------

    def to_kbp(self):
        """Render the spec in the textual ``.kbp`` grammar (monomorphised:
        any parameters and loops of the original source are already
        expanded).  Re-parsing the rendering yields an :meth:`equivalent`
        spec."""
        lines = [f"protocol {self.name}"]
        if self.params:
            lines.append("# instantiated with " + ", ".join(
                f"{key} = {value}" for key, value in sorted(self.params.items())
            ))
        lines.append("")
        for variable in self.variables:
            lines.append(f"var {variable.name} : {_render_domain(variable)}")
        if self.variable_order:
            lines.append("")
            lines.append("order " + " ".join(self.variable_order))
        lines.append("")
        for agent in self.agents:
            lines.append(f"agent {agent}")
            lines.append("  observes " + " ".join(self.observables[agent]))
            for action_name, effect in self.actions[agent].items():
                lines.append("  " + _render_action(action_name, effect))
            entry = self.programs.get(DEFAULT_PROGRAM, {}).get(agent)
            if entry is not None:
                lines.extend("  " + text for text in _render_clauses(entry))
            lines.append("end")
            lines.append("")
        for env_name, effect in self.env_effects.items():
            lines.append(_render_action(env_name, effect, keyword="env"))
        if self.env_effects:
            lines.append("")
        lines.append(f"init {render_expression(self.initial)}")
        if self.global_constraint is not None:
            lines.append(f"constraint {render_expression(self.global_constraint)}")
        for prog_name, table in self.programs.items():
            if prog_name == DEFAULT_PROGRAM:
                continue
            lines.append("")
            lines.append(f"program {prog_name}")
            for agent, entry in table.items():
                lines.append(f"  agent {agent}")
                lines.extend("    " + text for text in _render_clauses(entry))
                lines.append("  end")
            lines.append("end")
        return "\n".join(lines) + "\n"

    def describe(self):
        """A short human-readable summary (used by the CLI)."""
        space = self.state_space()
        lines = [
            f"protocol {self.name}",
            f"  variables:   {len(self.variables)}"
            f" ({', '.join(v.name for v in self.variables[:8])}"
            f"{', ...' if len(self.variables) > 8 else ''})",
            f"  agents:      {len(self.agents)} ({', '.join(self.agents[:8])}"
            f"{', ...' if len(self.agents) > 8 else ''})",
            f"  state space: {space.size()} states",
            f"  env actions: {len(self.env_effects)}",
            f"  programs:    {', '.join(self.program_names)}",
        ]
        if self.params:
            lines.insert(1, "  parameters:  " + ", ".join(
                f"{key}={value}" for key, value in sorted(self.params.items())
            ))
        if self.variable_order:
            lines.append(f"  order hint:  {' '.join(self.variable_order)}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"ProtocolSpec({self.name!r}, {len(self.variables)} variables, "
            f"{len(self.agents)} agents)"
        )


# -- helpers -------------------------------------------------------------------


def _action_tables_equal(left, right):
    if set(left) != set(right):
        return False
    return all(_assignments_equal(left[name], right[name]) for name in left)


def _assignment_tables_equal(left, right):
    if set(left) != set(right):
        return False
    return all(_assignments_equal(left[name], right[name]) for name in left)


def _assignments_equal(left, right):
    if set(left.updates) != set(right.updates):
        return False
    return all(left.updates[name].equals(right.updates[name]) for name in left.updates)


def _render_domain(variable):
    if variable.is_boolean:
        return "bool"
    domain = variable.domain
    values = list(domain)
    if values == list(range(values[0], values[-1] + 1)):
        return f"{values[0]}..{values[-1]}"
    raise SpecError(
        f"variable {variable.name!r} has a domain the grammar cannot express: "
        f"{values!r} (only bool and contiguous integer ranges are renderable)"
    )


def _render_action(name, effect, keyword="action"):
    updates = effect.updates
    if not updates:
        return f"{keyword} {name}"
    rendered = "; ".join(
        f"{target} := {render_expression(expr)}" for target, expr in updates.items()
    )
    return f"{keyword} {name}: {rendered}"


def _render_clauses(entry):
    lines = [
        f"if {render_formula(clause.guard)} do {clause.action}"
        for clause in entry.clauses
    ]
    if entry.fallback != NOOP_NAME:
        lines.append(f"otherwise {entry.fallback}")
    return lines


def render_expression(expression):
    """Render an :class:`Expression` in the grammar's expression syntax."""
    if isinstance(expression, Const):
        value = expression.value
        if value is True:
            return "true"
        if value is False:
            return "false"
        return str(value)
    if isinstance(expression, VarRef):
        return expression.variable.name
    if isinstance(expression, BinaryOp):
        return (
            f"({render_expression(expression.left)} {expression.op} "
            f"{render_expression(expression.right)})"
        )
    if isinstance(expression, Comparison):
        return (
            f"({render_expression(expression.left)} {expression.op} "
            f"{render_expression(expression.right)})"
        )
    if isinstance(expression, BoolOp):
        joiner = " & " if expression.op == "and" else " | "
        return "(" + joiner.join(render_expression(op) for op in expression.operands) + ")"
    if isinstance(expression, NotOp):
        return f"!{render_expression(expression.operand)}"
    if isinstance(expression, Ite):
        return (
            f"ite({render_expression(expression.condition)}, "
            f"{render_expression(expression.then)}, "
            f"{render_expression(expression.otherwise)})"
        )
    raise SpecError(f"cannot render expression {expression!r} in the grammar")


def render_formula(formula, _level=0):
    """Render a guard :class:`Formula` in the grammar's formula syntax.

    Atoms follow the labelling convention in reverse: ``Prop("x=3")``
    renders as ``x == 3`` and a bare ``Prop("b")`` as ``b`` — re-parsing
    (which compiles comparisons back to ``"x=v"`` atoms) restores the
    original formula.

    Parentheses are minimal (``_level`` tracks the binding strength of the
    enclosing context: 0 = or, 1 = and, 2 = unary/modal operand).  This is
    what makes the rendering a structural round-trip: an unparenthesized
    ``a & b`` re-parses through the formula route, preserving operand
    order, whereas a parenthesized pure-propositional group would take the
    expression route and come back in ``to_formula``'s canonical order.
    Nested groups that *do* need parentheses are always already canonical
    (the parser canonicalises every parenthesized propositional atom when
    first parsing), so those stay stable too.
    """
    if isinstance(formula, Prop):
        name = formula.name
        if "=" in name:
            variable, value = name.split("=", 1)
            text = f"{variable} == {value}"
            return f"({text})" if _level >= 2 else text
        return name
    if isinstance(formula, TrueFormula):
        return "true"
    if isinstance(formula, FalseFormula):
        return "false"
    if isinstance(formula, Not):
        return f"!{render_formula(formula.operand, 2)}"
    if isinstance(formula, And):
        text = " & ".join(render_formula(op, 2) for op in formula.operands)
        return f"({text})" if _level >= 2 else text
    if isinstance(formula, Or):
        text = " | ".join(render_formula(op, 1) for op in formula.operands)
        return f"({text})" if _level >= 1 else text
    if isinstance(formula, Knows):
        return f"K[{formula.agent}] {render_formula(formula.operand, 2)}"
    if isinstance(formula, Possible):
        return f"M[{formula.agent}] {render_formula(formula.operand, 2)}"
    if isinstance(formula, EveryoneKnows):
        return f"E[{','.join(formula.group)}] {render_formula(formula.operand, 2)}"
    if isinstance(formula, CommonKnows):
        return f"C[{','.join(formula.group)}] {render_formula(formula.operand, 2)}"
    if isinstance(formula, DistributedKnows):
        return f"D[{','.join(formula.group)}] {render_formula(formula.operand, 2)}"
    raise SpecError(
        f"cannot render formula {formula} in the grammar "
        f"(implication and bi-implication are not part of the guard syntax)"
    )


def is_boolean_expression(expression):
    """Whether an :class:`Expression` is boolean-valued — i.e. may be used
    as a guard atom, an ``init``/``constraint`` condition, or compiled via
    :meth:`Expression.to_formula`."""
    if isinstance(expression, (Comparison, BoolOp, NotOp)):
        return True
    if isinstance(expression, Const):
        return isinstance(expression.value, bool)
    if isinstance(expression, VarRef):
        return expression.variable.is_boolean
    if isinstance(expression, Ite):
        return is_boolean_expression(expression.then) and is_boolean_expression(
            expression.otherwise
        )
    return False
