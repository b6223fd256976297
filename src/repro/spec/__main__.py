"""Command-line front end of the spec layer.

Usage::

    python -m repro.spec <file.kbp | bundled-name> [--param n=5 ...]
    python -m repro.spec --list
    python -m repro.spec --fuzz 50 --seed 0

Given a spec (a ``.kbp`` path or the name of a bundled protocol), the tool
parses it, validates it and prints its statistics: variables, agents,
state-space size and the symbolic reachable-state count of its main
program's implementation (computed on BDDs, so it works at sizes the
explicit path cannot enumerate).  ``--kbp`` echoes the canonical rendering
instead.  ``--fuzz`` runs the spec-level differential fuzzer.
"""

import argparse
import sys

from repro.spec import SpecError, bundled_spec_names, load_spec


def _parse_params(pairs):
    params = {}
    for pair in pairs or ():
        name, separator, value = pair.partition("=")
        if not separator or not name:
            raise SpecError(f"--param expects NAME=INTEGER, got {pair!r}")
        try:
            params[name] = int(value)
        except ValueError:
            raise SpecError(f"parameter {name!r} must be an integer, got {value!r}")
    return params


def _reachable_count(spec):
    """The reachable-state count of the main program's implementation,
    computed entirely on BDDs.  Falls back to the liberal over-approximation
    (every enabled action taken) when the construction fails."""
    from repro.interpretation import construct_by_rounds, liberal_protocol
    from repro.interpretation.symbolic import SymbolicSynthesisOps

    model = spec.symbolic_model()
    program = spec.program()
    try:
        result = construct_by_rounds(
            program.check_against_context(model), model, verify=False
        )
        return result.system.state_count(), "implementation"
    except Exception:
        liberal = liberal_protocol(program, model)
        system, _ = SymbolicSynthesisOps(program, model).represent(liberal)
        return system.state_count(), "liberal over-approximation"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.spec",
        description="Parse, validate and summarise .kbp protocol specs.",
    )
    parser.add_argument(
        "spec", nargs="?", help="a .kbp file path or the name of a bundled spec"
    )
    parser.add_argument(
        "--param",
        "-p",
        action="append",
        metavar="NAME=INT",
        help="override a spec parameter (repeatable)",
    )
    parser.add_argument(
        "--kbp", action="store_true", help="print the canonical .kbp rendering"
    )
    parser.add_argument(
        "--no-reachable",
        action="store_true",
        help="skip the symbolic reachability computation",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the bundled protocol specs"
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        help="generate and differential-check N random specs",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="fuzzer seed (default 0)"
    )
    parser.add_argument(
        "--spec-deadline",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-spec wall-clock budget for --fuzz; a spec whose check "
        "exceeds it is counted as timed out instead of stalling the "
        "campaign (default 60, 0 disables)",
    )
    options = parser.parse_args(argv)

    if options.list:
        for name in bundled_spec_names():
            print(name)
        return 0

    if options.fuzz is not None:
        from repro.spec.fuzz import run_fuzz

        stats = run_fuzz(
            options.fuzz,
            seed=options.seed,
            timings=True,
            spec_deadline=options.spec_deadline or None,
        )
        print(
            f"checked {stats['checked']} specs (seed {options.seed}): "
            f"{stats['converged']} constructed ({stats['states_total']} states total), "
            f"{stats['failed_cleanly']} failed identically on both paths, "
            f"{stats['timed_out']} timed out"
        )
        timing = stats.get("timing")
        if timing:
            print(
                "per-spec check time: "
                f"p50 {timing['p50'] * 1000:.1f} ms, "
                f"p90 {timing['p90'] * 1000:.1f} ms, "
                f"p99 {timing['p99'] * 1000:.1f} ms, "
                f"max {timing['max'] * 1000:.1f} ms"
            )
        return 0

    if not options.spec:
        parser.error("expected a spec file or bundled name (or --list/--fuzz)")

    try:
        spec = load_spec(options.spec, **_parse_params(options.param))
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if options.kbp:
        print(spec.to_kbp(), end="")
        return 0

    print(spec.describe())
    if not options.no_reachable:
        count, method = _reachable_count(spec)
        print(f"  reachable:   {count} states ({method}, symbolic)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
