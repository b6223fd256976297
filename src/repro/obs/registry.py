"""The converged metric schema behind every ``cache_info()`` surface.

Before this module each caching component named its introspection keys ad
hoc (``ite_high_water`` here, ``hits`` there, ``set_memo`` elsewhere).
The schema below fixes one dotted vocabulary; every ``cache_info()``
implementation returns the canonical keys only.

Canonical vocabulary
--------------------

``unique.nodes``
    Internal nodes a BDD manager has allocated (monotone: the node arrays
    never shrink, so this is also the peak allocation).
``cache.ite.size`` / ``cache.op.size``
    Current entry counts of the kernel's two operation memos.
``cache.ite.high_water`` / ``cache.op.high_water``
    Largest size each memo ever reached; survives every clear.
``cache.ite.hits`` / ``cache.ite.misses`` / ``cache.op.hits`` /
``cache.op.misses``
    Lifetime lookup accounting of the kernel memos (never reset — clears
    drop entries, not history).
``cache.hits`` / ``cache.misses``
    Lookup accounting of a non-kernel memoising component (the evaluator's
    extension cache, the CTLK checker's formula memo).
``cache.clears``
    How often a bounded cache was dropped (overflow clears in the kernel;
    explicit ``clear_cache`` calls elsewhere).
``cache.ceiling``
    The configured entry bound (``None`` = unbounded).
``gc.passes`` / ``gc.purged``
    Rooted-reorder garbage collections run and nodes purged by them.
``reorder.enabled`` / ``reorder.pending`` / ``reorder.count`` /
``reorder.swaps`` / ``reorder.last_size`` / ``reorder.trigger``
    Dynamic-reordering state: armed?, safe-point requested?, sift passes,
    elementary level swaps, ``(before, after)`` live sizes of the last
    pass, the table size arming the next request.
``memo.*``
    Sizes of a component's memo tables: ``memo.formulas`` (evaluator and
    CTLK formula caches; ``memo.formulas.high_water`` survives
    ``clear_cache``), ``memo.frozensets``, ``memo.sets`` / ``memo.masks``
    (state-set encodings), ``memo.cubes`` / ``memo.expressions``
    (variable encodings), ``memo.relations`` (per-agent and group
    relation BDDs of the dense-index encoding of an enumerated structure;
    model views build none).

The same table is rendered in ARCHITECTURE.md's Observability section.

BDD manager registry
--------------------

The kernel registers every :class:`~repro.symbolic.bdd.BDD` it creates
(weakly — registration never extends a manager's lifetime).
:func:`checkpoint` + :func:`bdd_metrics` let a harness ask "what did the
managers created since this point do?", which is how
``benchmarks/run_all.py`` attaches kernel metrics to every workload
without threading handles through the workloads themselves.
"""

import weakref

__all__ = [
    "SCHEMA",
    "add_register_hook",
    "bdd_metrics",
    "checkpoint",
    "hit_rate",
    "live_managers",
    "register_manager",
]

SCHEMA = {
    "unique.nodes": "internal nodes allocated by a BDD manager (monotone peak)",
    "cache.ite.size": "current entries in the kernel ite memo",
    "cache.op.size": "current entries in the kernel quantify/rename/count memo",
    "cache.ite.high_water": "largest ite memo size ever (survives clears)",
    "cache.op.high_water": "largest op memo size ever (survives clears)",
    "cache.ite.hits": "lifetime ite memo lookup hits",
    "cache.ite.misses": "lifetime ite memo lookup misses",
    "cache.op.hits": "lifetime op memo lookup hits",
    "cache.op.misses": "lifetime op memo lookup misses",
    "cache.hits": "lifetime lookup hits of a component's primary cache",
    "cache.misses": "lifetime lookup misses of a component's primary cache",
    "cache.clears": "times a bounded cache was dropped (overflow or explicit)",
    "cache.ceiling": "configured entry bound of the operation caches (None = unbounded)",
    "gc.passes": "rooted-reorder garbage collections run",
    "gc.purged": "nodes purged by rooted-reorder garbage collections",
    "reorder.enabled": "dynamic-reordering growth trigger armed",
    "reorder.pending": "a safe-point reorder request is outstanding",
    "reorder.count": "sift passes run",
    "reorder.swaps": "elementary level swaps run",
    "reorder.last_size": "(before, after) live node counts of the last sift",
    "reorder.trigger": "unique-table size arming the next reorder request",
    "memo.formulas": "memoised formula extensions",
    "memo.formulas.high_water": "largest formula memo ever (survives clear_cache)",
    "memo.frozensets": "memoised frozenset conversions",
    "memo.sets": "memoised world-set nodes of a state-set encoding",
    "memo.masks": "memoised mask nodes of a state-set encoding",
    "memo.cubes": "memoised quantification cubes of a variable encoding",
    "memo.expressions": "memoised compiled expressions of a variable encoding",
    "memo.relations": "relation BDDs cached by a dense-index encoding",
}


def hit_rate(hits, misses):
    """``hits / (hits + misses)`` guarded against an empty denominator."""
    total = hits + misses
    return hits / total if total else None


# -- BDD manager registry ----------------------------------------------------------------

_managers = weakref.WeakValueDictionary()
_next_serial = 0
_register_hooks = []


def add_register_hook(hook):
    """Call ``hook(manager)`` for every BDD manager registered from now on.

    This is how cross-cutting layers attach themselves to managers they did
    not create — :mod:`repro.resilience` arms new managers with the ambient
    budget through one.  Hooks must be cheap and must not raise (a manager
    under construction is not a safe place to fail); they are never removed.
    """
    _register_hooks.append(hook)
    return hook


def register_manager(manager):
    """Weakly register a BDD manager; returns its creation serial."""
    global _next_serial
    serial = _next_serial
    _next_serial += 1
    _managers[serial] = manager
    for hook in _register_hooks:
        hook(manager)
    return serial


def live_managers(since=0):
    """The live registered managers created at or after ``since`` (a
    :func:`checkpoint` value; 0 = all), in creation order."""
    return [manager for serial, manager in sorted(_managers.items()) if serial >= since]


def checkpoint():
    """An opaque marker: managers created from now on have serial >= it."""
    return _next_serial


def bdd_metrics(since=0):
    """Aggregate kernel metrics over the *live* managers created at or
    after ``since`` (a :func:`checkpoint` value; 0 = all).

    Returns a flat dict — manager count, peak/total node allocations,
    summed cache hit/miss/clear accounting, reorder and GC totals, plus
    the derived ``bdd.cache.hit_rate`` over both operation caches — or an
    empty dict when no matching manager is alive (explicit-path workloads
    never touch the kernel, so their snapshot simply has no ``bdd.*``
    keys).
    """
    infos = [
        manager.cache_info()
        for serial, manager in sorted(_managers.items())
        if serial >= since
    ]
    if not infos:
        return {}
    metrics = {
        "bdd.managers": len(infos),
        "bdd.nodes.peak": max(info["unique.nodes"] for info in infos),
        "bdd.nodes.total": sum(info["unique.nodes"] for info in infos),
    }
    for key in (
        "cache.ite.hits",
        "cache.ite.misses",
        "cache.op.hits",
        "cache.op.misses",
        "cache.clears",
        "gc.passes",
        "gc.purged",
        "reorder.count",
        "reorder.swaps",
    ):
        metrics["bdd." + key] = sum(info[key] for info in infos)
    rate = hit_rate(
        metrics["bdd.cache.ite.hits"] + metrics["bdd.cache.op.hits"],
        metrics["bdd.cache.ite.misses"] + metrics["bdd.cache.op.misses"],
    )
    if rate is not None:
        metrics["bdd.cache.hit_rate"] = round(rate, 4)
    return metrics
