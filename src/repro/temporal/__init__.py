"""Temporal-epistemic reasoning (CTLK) over interpreted systems.

The paper's correctness claims about its examples mix temporal and epistemic
assertions ("eventually the receiver knows the bit", "the muddy children say
*yes* simultaneously in round ``k``").  This package provides the substrate
to check such claims mechanically: CTLK — the branching-time logic CTL
extended with the knowledge modalities of :mod:`repro.logic` — interpreted
over the finite transition systems generated by protocols.

* temporal operator constructors: :class:`EX`, :class:`EF`, :class:`EG`,
  :class:`EU`, :class:`AX`, :class:`AF`, :class:`AG`, :class:`AU`;
* :class:`repro.temporal.ctlk.CTLKModelChecker` — model checking by the
  standard fixed-point algorithms, with knowledge evaluated over the
  reachable states.  The checker is written once over a small ops object
  that holds the state sets: :class:`repro.temporal.ctlk.ExplicitCTLKOps`
  (frozensets of enumerated states) or, for symbolic systems,
  :class:`repro.temporal.symbolic.SymbolicCTLKOps` (BDDs, no state ever
  enumerated);
* convenience wrappers :func:`repro.temporal.ctlk.check_valid` (truth at all
  initial states) and :func:`repro.temporal.ctlk.check_reachable`.
"""

from repro.temporal.ctlk import (
    EX,
    EF,
    EG,
    EU,
    AX,
    AF,
    AG,
    AU,
    CTLKModelChecker,
    check_valid,
    check_reachable,
    TemporalFormula,
)

__all__ = [
    "EX",
    "EF",
    "EG",
    "EU",
    "AX",
    "AF",
    "AG",
    "AU",
    "CTLKModelChecker",
    "check_valid",
    "check_reachable",
    "TemporalFormula",
]
