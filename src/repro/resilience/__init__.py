"""Resource governance: budgets, cancellation, and graceful degradation.

Knowledge-based program interpretation is not guaranteed to terminate or
stabilise — the paper's fixed-point semantics admits programs with no (or
many) implementations, and a symbolic fixed point can blow up the BDD
unique table long before it converges.  This module bounds every
long-running computation in the engine with a cooperative :class:`Budget`:

* a **wall-clock deadline** (``wall_seconds``),
* a **BDD node ceiling** (``node_limit``, live unique-table entries),
* a **fixed-point iteration ceiling** (``max_iterations``),
* an optional **cancellation token** (:class:`CancellationToken`).

A budget is installed as a context manager (ambient, per thread) or passed
as a per-call ``budget=`` keyword to the governed entry points
(``construct_by_rounds``, ``iterate_interpretation``, the CTLK checker,
the synthesis search, the spec fuzzer)::

    from repro import resilience

    with resilience.Budget(wall_seconds=10.0, node_limit=200_000):
        result = construct_by_rounds(program, model)

Checks run cooperatively at the *safe points* the obs layer already
instruments — BDD unique-table growth, every ``fixpoint.iter`` /
``construct.round`` boundary, evaluator batches, the synthesis candidate
loop — and raise :class:`~repro.util.errors.BudgetExceededError` carrying
structured diagnostics *and the partial result* (a
:class:`PartialProgress`), so callers can degrade instead of losing
everything: the interpretation loops accept the partial back through their
``resume=`` argument and continue to the identical fixed point.

Mitigation ladder
-----------------

A node-ceiling hit does not give up immediately.  At the next safe point
the budget climbs a ladder, emitting a ``resilience.mitigate`` obs event
per rung:

1. **rooted sift reorder** — when the governed loop can enumerate its live
   roots, a reorder both compacts the diagram and garbage-collects
   unreachable nodes; if the table drops back under the ceiling, the
   computation simply continues (and the ladder re-arms);
2. **operation-cache clear** — frees the memo tables' memory and gives the
   loop one more round;
3. **raise** ``BudgetExceededError(reason="nodes")`` with the partial
   result.  ``construct_by_rounds`` adds a fourth rung above the raise:
   when the model's universe is enumerable, it falls back from the
   symbolic to the explicit backend and re-runs under the same deadline,
   token and iteration ceiling (:meth:`Budget.without_node_limit`).

Near-zero cost when disabled
----------------------------

Mirroring :mod:`repro.obs`, the module-level :data:`ACTIVE` flag is false
until a budget is installed; governed loops guard their per-iteration
bookkeeping behind it, and the kernel's per-node check is one attribute
load and an ``is None`` branch.

Environmental activation: ``REPRO_BUDGET_DEADLINE`` (seconds),
``REPRO_BUDGET_NODES`` and ``REPRO_BUDGET_ITERATIONS`` install a global
ambient budget at import time, so any entry point (pytest, benchmarks,
``python -m repro.spec``) runs governed without code changes — this is
what the budget-armed CI leg uses.
"""

import os
import threading
import time

from repro import obs as _obs
from repro.obs import registry as _registry
from repro.util.errors import BudgetExceededError, EngineError

__all__ = [
    "ACTIVE",
    "Budget",
    "CancellationToken",
    "PartialProgress",
    "activate",
    "current_budget",
    "rooted_reorder",
]

ACTIVE = False
"""True while at least one budget is installed (any thread).  Governed
loops read this directly (``if resilience.ACTIVE: ...``) so the disabled
cost of a safe point is one attribute load and a branch."""

DEFAULT_CHECK_INTERVAL = 1024
"""How many freshly allocated BDD nodes may pass between two kernel-level
deadline checks (the node ceiling itself is exact up to this granularity)."""

DEFAULT_NODE_SLACK = 2.0
"""Multiplier above ``node_limit`` at which the *kernel* raises mid-operation.
Between the soft ceiling and this hard ceiling only loop safe points act,
giving the mitigation ladder room to run at a point where no kernel
recursion is in flight."""

_LOCAL = threading.local()


def _stack():
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def current_budget():
    """The innermost installed budget of this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


class CancellationToken:
    """A thread-safe cancellation flag a budget can watch.

    The owner (a server request handler, a signal handler, another thread)
    calls :meth:`cancel`; every governed loop holding a budget with this
    token raises ``BudgetExceededError(reason="cancelled")`` at its next
    safe point.  Cancellation is level-triggered and permanent.
    """

    __slots__ = ("_event",)

    def __init__(self):
        self._event = threading.Event()

    def cancel(self):
        self._event.set()

    @property
    def cancelled(self):
        return self._event.is_set()

    def __repr__(self):
        return f"CancellationToken(cancelled={self.cancelled})"


class PartialProgress:
    """The progress a governed loop had made when its budget fired.

    ``kind`` names the producing loop (``"construct_by_rounds_symbolic"``,
    ``"iterate_interpretation"``, ...); the remaining keyword arguments are
    loop-specific state, readable both as attributes and through the
    ``state`` dict.  Loops accept their own partials back via ``resume=``
    and continue from them — node ids referenced by a symbolic partial stay
    valid because they live in the model's manager, whose unique table is
    never cleared.
    """

    def __init__(self, kind, **state):
        self.kind = kind
        self.state = dict(state)
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self):
        inner = ", ".join(f"{name}={value!r}" for name, value in self.state.items())
        return f"PartialProgress({self.kind!r}, {inner})"


def rooted_reorder(manager, roots, groups=None):
    """Run a rooted sift as a mitigation step and return ``(before, after)``.

    When the manager has no keep-groups declared yet (models built with
    reordering off never declare them), ``groups`` — typically the
    encoding's interleaved current/primed pairs — is declared first so the
    sift cannot break the order-preservation of the prime renames.
    """
    if groups is not None and manager.variable_groups() is None:
        manager.declare_groups(groups)
    return manager.reorder(list(roots))


def _resolve(value):
    """Partials/roots/groups may be supplied lazily as callables."""
    return value() if callable(value) else value


class Budget:
    """A cooperative resource budget for the engine's long-running loops.

    Parameters
    ----------
    wall_seconds:
        Wall-clock allowance.  The deadline starts at the first
        installation (``with budget:`` or the first governed call the
        budget is passed to) and spans the budget's whole lifetime —
        re-entering does not reset it.
    node_limit:
        Ceiling on the *live* unique-table entries of every governed BDD
        manager.  Crossing it at a loop safe point climbs the mitigation
        ladder; crossing ``node_limit * node_slack`` raises from inside the
        kernel (the table stays consistent — the node that crossed the line
        is fully inserted first).
    max_iterations:
        Ceiling on the iteration count of any single governed fixed-point
        loop (construction rounds, CTLK iterates, evaluator batches).
    token:
        A :class:`CancellationToken` checked at every safe point.
    mitigate:
        Whether the node-ceiling ladder (reorder, cache clear, explicit
        fallback) may run before the raise.  ``False`` raises immediately.
    """

    def __init__(
        self,
        wall_seconds=None,
        node_limit=None,
        max_iterations=None,
        token=None,
        mitigate=True,
        node_slack=DEFAULT_NODE_SLACK,
        check_interval=DEFAULT_CHECK_INTERVAL,
    ):
        if wall_seconds is not None and wall_seconds <= 0:
            raise EngineError("wall_seconds must be a positive duration")
        if node_limit is not None and node_limit < 1:
            raise EngineError("node_limit must be a positive node count")
        if max_iterations is not None and max_iterations < 1:
            raise EngineError("max_iterations must be a positive iteration count")
        if node_slack < 1.0:
            raise EngineError("node_slack must be >= 1.0")
        self.wall_seconds = wall_seconds
        self.node_limit = node_limit
        self.max_iterations = max_iterations
        self.token = token
        self.mitigate = mitigate
        self.node_slack = node_slack
        self.check_interval = check_interval
        self.deadline = None
        self.hard_node_limit = (
            int(node_limit * node_slack) if node_limit is not None else None
        )
        self._mitigated = {}  # manager id -> set of ladder rungs already tried

    # -- installation ------------------------------------------------------------------

    def __enter__(self):
        global ACTIVE
        self._start_clock()
        _stack().append(self)
        ACTIVE = True
        self._arm_managers(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        global ACTIVE
        stack = _stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        ACTIVE = bool(stack)
        self._arm_managers(stack[-1] if stack else None)
        return False

    def _start_clock(self):
        if self.wall_seconds is not None and self.deadline is None:
            self.deadline = time.perf_counter() + self.wall_seconds

    def without_node_limit(self):
        """A budget with this one's absolute deadline, token and iteration
        ceiling but no node ceiling — for work that leaves the BDD path (the
        explicit fallback), where any diagram the work still builds must
        not trip a ceiling meant for the abandoned one."""
        budget = Budget(
            wall_seconds=self.wall_seconds,
            max_iterations=self.max_iterations,
            token=self.token,
            check_interval=self.check_interval,
        )
        self._start_clock()
        budget.deadline = self.deadline
        return budget

    def _arm_managers(self, budget):
        for manager in _registry.live_managers():
            _arm_manager(manager, budget)

    # -- state -------------------------------------------------------------------------

    @property
    def cancelled(self):
        return self.token is not None and self.token.cancelled

    @property
    def expired(self):
        return self.deadline is not None and time.perf_counter() > self.deadline

    def remaining(self):
        """Seconds left before the deadline (``None`` without one)."""
        if self.deadline is None:
            return None
        return self.deadline - time.perf_counter()

    def _diagnostics(self, manager=None, iterations=None):
        info = {
            "wall_seconds": self.wall_seconds,
            "remaining": self.remaining(),
            "node_limit": self.node_limit,
            "max_iterations": self.max_iterations,
        }
        if iterations is not None:
            info["iterations"] = iterations
        if manager is not None:
            info["live_nodes"] = len(manager._unique)
            info["mitigation_tried"] = sorted(self._mitigated.get(id(manager), ()))
        return info

    def _raise(self, reason, site, *, manager=None, iterations=None, partial=None):
        messages = {
            "deadline": f"wall-clock budget of {self.wall_seconds}s exhausted",
            "cancelled": "computation cancelled",
            "iterations": f"iteration budget of {self.max_iterations} exhausted",
            "nodes": f"BDD node budget of {self.node_limit} exhausted",
        }
        if _obs.ENABLED:
            _obs.event("resilience.exceeded", reason=reason, site=site)
        raise BudgetExceededError(
            f"{messages[reason]} at {site}",
            reason=reason,
            site=site,
            diagnostics=self._diagnostics(manager=manager, iterations=iterations),
            partial=_resolve(partial),
        )

    # -- the check protocol ------------------------------------------------------------

    def tick(
        self,
        site,
        *,
        iterations=None,
        manager=None,
        roots=None,
        groups=None,
        partial=None,
    ):
        """The loop-level safe-point check.

        ``site`` is the obs hook-point name of the caller.  ``iterations``
        is the loop's own counter (checked against ``max_iterations``);
        ``manager`` the BDD manager whose live size the node ceiling
        governs; ``roots``/``groups`` (values or thunks) enable the
        reorder rung of the mitigation ladder; ``partial`` (value or
        thunk) is attached to any raise.
        """
        if self.token is not None and self.token.cancelled:
            self._raise("cancelled", site, manager=manager, partial=partial)
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self._raise("deadline", site, manager=manager, partial=partial)
        if (
            self.max_iterations is not None
            and iterations is not None
            and iterations >= self.max_iterations
        ):
            self._raise(
                "iterations", site, manager=manager, iterations=iterations, partial=partial
            )
        if (
            self.node_limit is not None
            and manager is not None
            and len(manager._unique) > self.node_limit
        ):
            self._node_pressure(site, manager, roots, groups, partial)

    def _node_pressure(self, site, manager, roots, groups, partial):
        """Climb the mitigation ladder; raise when it is exhausted."""
        tried = self._mitigated.setdefault(id(manager), set())
        if self.mitigate and roots is not None and "reorder" not in tried:
            tried.add("reorder")
            before = len(manager._unique)
            if _obs.ENABLED:
                _obs.event(
                    "resilience.mitigate", step="reorder", site=site, nodes=before
                )
            rooted_reorder(manager, _resolve(roots), _resolve(groups))
            if len(manager._unique) <= self.node_limit:
                # Recovered: the ladder re-arms for the next pressure episode.
                tried.clear()
                if _obs.ENABLED:
                    _obs.event(
                        "resilience.recovered",
                        step="reorder",
                        site=site,
                        nodes=len(manager._unique),
                    )
            return
        if self.mitigate and "cache_clear" not in tried:
            tried.add("cache_clear")
            if _obs.ENABLED:
                _obs.event(
                    "resilience.mitigate",
                    step="cache_clear",
                    site=site,
                    nodes=len(manager._unique),
                )
            manager.clear_operation_caches()
            return  # one grace round; still over the ceiling next tick -> raise
        self._raise("nodes", site, manager=manager, partial=partial)

    def _kernel_check(self, manager):
        """The kernel-level check, called from ``BDD._node`` every
        ``check_interval`` fresh allocations.  Never fires during a reorder
        (a raise between level swaps is exactly what the safe-point
        protocol exists to avoid); the surrounding loop re-checks at its
        next boundary.
        """
        manager._budget_check_at = len(manager._var) + self.check_interval
        if manager._in_reorder:
            return
        if self.token is not None and self.token.cancelled:
            self._raise("cancelled", "bdd.unique_growth", manager=manager)
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self._raise("deadline", "bdd.unique_growth", manager=manager)
        if (
            self.hard_node_limit is not None
            and len(manager._unique) > self.hard_node_limit
        ):
            self._raise("nodes", "bdd.unique_growth", manager=manager)

    def __repr__(self):
        parts = []
        if self.wall_seconds is not None:
            parts.append(f"wall_seconds={self.wall_seconds}")
        if self.node_limit is not None:
            parts.append(f"node_limit={self.node_limit}")
        if self.max_iterations is not None:
            parts.append(f"max_iterations={self.max_iterations}")
        if self.token is not None:
            parts.append(f"token={self.token!r}")
        return f"Budget({', '.join(parts)})"


class activate:
    """Resolve a per-call ``budget=`` argument against the ambient stack.

    ``with activate(budget) as bud:`` installs ``budget`` for the body when
    one is given (so nested calls and the kernel see it) and yields the
    effective budget — the explicit one, else the innermost ambient one,
    else ``None``.  This is the standard prologue of every governed entry
    point; with no budget anywhere it allocates one object and touches one
    thread-local.
    """

    __slots__ = ("_budget", "_installed")

    def __init__(self, budget=None):
        self._budget = budget
        self._installed = False

    def __enter__(self):
        if self._budget is not None:
            self._budget.__enter__()
            self._installed = True
            return self._budget
        return current_budget()

    def __exit__(self, exc_type, exc, tb):
        if self._installed:
            return self._budget.__exit__(exc_type, exc, tb)
        return False


def _arm_manager(manager, budget):
    """Point a manager's kernel hook at ``budget`` (or disarm with None)."""
    try:
        if budget is None:
            manager._budget = None
        else:
            manager._budget = budget
            manager._budget_check_at = len(manager._var)
    except AttributeError:  # a foreign manager-like object; nothing to arm
        pass


@_registry.add_register_hook
def _on_new_manager(manager):
    # Managers created inside an installed budget's scope are governed too.
    if ACTIVE:
        _arm_manager(manager, current_budget())


def _configure_from_env():
    """Honour ``REPRO_BUDGET_DEADLINE`` / ``REPRO_BUDGET_NODES`` /
    ``REPRO_BUDGET_ITERATIONS``: install a global ambient budget at import,
    never popped — the process-wide governor the budget-armed CI leg uses."""
    deadline = os.environ.get("REPRO_BUDGET_DEADLINE")
    nodes = os.environ.get("REPRO_BUDGET_NODES")
    iterations = os.environ.get("REPRO_BUDGET_ITERATIONS")
    if not (deadline or nodes or iterations):
        return None
    budget = Budget(
        wall_seconds=float(deadline) if deadline else None,
        node_limit=int(nodes) if nodes else None,
        max_iterations=int(iterations) if iterations else None,
    )
    return budget.__enter__()


_ENV_BUDGET = _configure_from_env()
