"""The declarative spec layer: grammar, validator diagnostics, golden
round-trips of the bundled zoo, the registry and the CLI.

The round-trip property at the heart of the layer: for every bundled
protocol (at several parameter instantiations), ``to_kbp`` followed by
``parse_spec`` reproduces an equivalent spec — same variables, same
observation structure, same effects, same initial condition, same
programs clause for clause."""

import pytest

from repro.modeling.expressions import Comparison, Const, VarRef
from repro.protocols import registered_protocols
from repro.spec import (
    SpecError,
    bundled_spec_names,
    bundled_spec_path,
    load_spec,
    parse_spec,
    parse_spec_file,
    render_formula,
)
from repro.spec.__main__ import main as spec_cli


MINIMAL = """
protocol minimal

var x : bool
var n : 0..2

agent a
  observes x n
  action bump : n := ite(n < 2, n + 1, n)
  if K[a] !x do bump
end

init !x & (n == 0)
"""


# -- parsing basics ----------------------------------------------------------------------


class TestParser:
    def test_minimal_spec_parses(self):
        spec = parse_spec(MINIMAL, source="minimal.kbp")
        assert spec.name == "minimal"
        assert [v.name for v in spec.variables] == ["x", "n"]
        assert spec.agents == ("a",)
        assert set(spec.actions["a"]) == {"bump"}

    def test_param_override(self):
        spec = load_spec("muddy_children", n=2)
        assert spec.params["n"] == 2
        assert len(spec.agents) == 2

    def test_unknown_param_override_rejected(self):
        with pytest.raises(SpecError, match="unknown parameter"):
            load_spec("bit_transmission", bogus=3)

    def test_foreach_expands_and_nests(self):
        text = """
param n = 2
protocol grid
foreach i in 0..n-1
  foreach j in 0..n-1
    var cell{i}{j} : bool
  end
end
agent a
  observes cell00 cell01 cell10 cell11
end
init cell00
"""
        spec = parse_spec(text, source="grid.kbp")
        assert [v.name for v in spec.variables] == [
            "cell00",
            "cell01",
            "cell10",
            "cell11",
        ]

    def test_any_all_folds(self):
        text = """
param n = 3
protocol folds
foreach i in 0..n-1
  var b{i} : bool
end
agent a
  observes b0 b1 b2
  action go
  if K[a] any(i in 0..n-1 : b{i}) do go
end
init all(i in 0..n-1 : !b{i})
"""
        spec = parse_spec(text, source="folds.kbp")
        # The empty range folds to the neutral element.
        empty = parse_spec(
            text.replace("param n = 3", "param n = 3\nparam m = 0").replace(
                "init all(i in 0..n-1 : !b{i})", "init all(i in 0..m-1 : !b{i})"
            ),
            source="folds.kbp",
        )
        assert empty.initial.equals(Const(True))
        assert spec.equivalent(parse_spec(spec.to_kbp(), source="rt"))

    def test_lets_substitute_in_guards(self):
        spec = parse_spec(MINIMAL.replace(
            "  if K[a] !x do bump",
            "  if K[a] $ready do bump",
        ).replace("agent a", "let ready = !x\nagent a"), source="lets.kbp")
        base = parse_spec(MINIMAL, source="base.kbp")
        assert spec.programs["main"]["a"] == base.programs["main"]["a"]

    def test_unbalanced_end_rejected(self):
        with pytest.raises(SpecError, match="unmatched 'end'"):
            parse_spec("protocol p\nend\n", source="bad.kbp")

    def test_errors_carry_source_and_line(self):
        with pytest.raises(SpecError) as excinfo:
            parse_spec("protocol p\nvar x : bool\nvar x : bool\n", source="dup.kbp")
        assert "dup.kbp:3" in str(excinfo.value)


# -- validator diagnostics ---------------------------------------------------------------


def _spec_text(body):
    return f"protocol p\n{body}\n"


class TestValidatorDiagnostics:
    """Spec-level errors must name the offending construct precisely,
    before any lowering happens."""

    def test_unknown_observed_variable(self):
        with pytest.raises(SpecError, match="unknown variable 'y' in observes of agent 'a'"):
            parse_spec(_spec_text("var x : bool\nagent a\n  observes y\nend\ninit x"))

    def test_overlapping_write_sets_name_both_parties(self):
        text = _spec_text(
            "var x : bool\n"
            "agent a\n  observes x\n  action s : x := true\nend\n"
            "agent b\n  observes x\n  action t : x := false\nend\n"
            "init x"
        )
        with pytest.raises(
            SpecError,
            match="overlapping write sets: variable 'x' is written by both agent 'a' and agent 'b'",
        ):
            parse_spec(text)

    def test_out_of_domain_assignment(self):
        text = _spec_text(
            "var x : 0..2\nagent a\n  observes x\n  action s : x := 5\nend\ninit x == 0"
        )
        with pytest.raises(
            SpecError, match=r"assigns out-of-domain constant 5 to 'x' \(domain: \[0, 1, 2\]\)"
        ):
            parse_spec(text)

    def test_out_of_domain_comparison(self):
        text = _spec_text("var x : 0..2\nagent a\n  observes x\nend\ninit x == 7")
        with pytest.raises(
            SpecError, match=r"constant 7 is outside the domain of variable 'x'"
        ):
            parse_spec(text)

    def test_type_mismatch_in_assignment(self):
        # True == 1 in Python, so 'n := b' would pass a naive domain check
        # and then diverge between the lowerings; the validator rejects it.
        text = _spec_text(
            "var n : 0..1\nvar b : bool\nagent a\n  observes n b\n"
            "  action copy : n := b\nend\ninit n == 0"
        )
        with pytest.raises(
            SpecError,
            match="assigns a boolean expression to non-boolean variable 'n'",
        ):
            parse_spec(text)

    def test_unknown_action_in_clause(self):
        text = _spec_text("var x : bool\nagent a\n  observes x\n  if x do zap\nend\ninit x")
        with pytest.raises(SpecError, match="agent 'a' has no action 'zap'"):
            parse_spec(text)

    def test_modality_for_unknown_agent(self):
        text = _spec_text(
            "var x : bool\nagent a\n  observes x\n  action s : x := true\n"
            "  if K[ghost] x do s\nend\ninit x"
        )
        with pytest.raises(
            SpecError, match="knowledge modality for unknown agent 'ghost'"
        ):
            parse_spec(text)

    def test_non_boolean_guard_atom(self):
        text = _spec_text("var x : 0..2\nagent a\n  observes x\n  if x do noop\nend\ninit x == 0")
        with pytest.raises(SpecError, match="guard atom x is not boolean"):
            parse_spec(text)

    def test_order_must_be_a_permutation(self):
        text = _spec_text(
            "var x : bool\nvar y : bool\norder x\nagent a\n  observes x\nend\ninit x"
        )
        with pytest.raises(
            SpecError, match=r"order hint is not a permutation of the variables \(missing: \['y'\]\)"
        ):
            parse_spec(text)

    def test_param_must_precede_use(self):
        with pytest.raises(SpecError, match="unknown parameter 'n'"):
            parse_spec("protocol p-{n}\nparam n = 2\nvar x : bool\nagent a\n  observes x\nend\ninit x")

    def test_program_name_main_reserved(self):
        text = _spec_text(
            "var x : bool\nagent a\n  observes x\nend\nprogram main\nend\ninit x"
        )
        with pytest.raises(SpecError, match="program name 'main' is reserved"):
            parse_spec(text)


# -- golden round trips over the bundled zoo ---------------------------------------------


ROUND_TRIP_CASES = [
    ("bit_transmission", {}),
    ("variable_setting", {}),
    ("muddy_children", {}),
    ("muddy_children", {"n": 2}),
    ("muddy_children", {"n": 5, "max_round": 7}),
    ("dining_cryptographers", {}),
    ("dining_cryptographers", {"n": 4}),
    ("sequence_transmission", {}),
    ("sequence_transmission", {"length": 3}),
    ("unexpected_examination", {}),
    ("unexpected_examination", {"num_days": 3}),
    ("coordinated_attack", {}),
    ("coordinated_attack", {"n": 3}),
    ("leader_election", {}),
    ("leader_election", {"n": 3}),
]


@pytest.mark.parametrize(
    "name,params",
    ROUND_TRIP_CASES,
    ids=[f"{name}-{params}" for name, params in ROUND_TRIP_CASES],
)
def test_bundled_spec_round_trips(name, params):
    spec = load_spec(name, **params)
    # The cached load is a fresh copy of what a fresh parse yields.
    fresh = parse_spec_file(bundled_spec_path(name), **params)
    again = load_spec(name, **params)
    assert again is not spec
    assert spec.equivalent(fresh) and again.equivalent(fresh)
    assert again.params == fresh.params
    reparsed = parse_spec(spec.to_kbp(), source=f"<{name} roundtrip>")
    assert spec.equivalent(reparsed)
    # The rendering is canonical after one round: re-rendering the reparsed
    # spec is textually a no-op (the original may differ in the parameter
    # comment, which parsing deliberately drops).
    assert parse_spec(reparsed.to_kbp(), source="<rt2>").to_kbp() == reparsed.to_kbp()


def test_every_bundled_spec_is_covered():
    tested = {name for name, _ in ROUND_TRIP_CASES}
    assert tested == set(bundled_spec_names())


def test_bundled_specs_validate_and_lower():
    for name in bundled_spec_names():
        spec = load_spec(name)
        spec.validate()
        parts = spec.context_parts()
        assert parts["name"] == spec.name
        assert set(parts["observables"]) == set(spec.agents)


# -- the load cache ----------------------------------------------------------------------


def test_mutating_a_loaded_spec_does_not_leak_into_the_next_load():
    spec = load_spec("muddy_children", n=2)
    agent = spec.agents[0]
    spec.observables[agent] = ()
    spec.observables["intruder"] = ("said0",)
    spec.actions[agent].clear()
    spec.actions["intruder"] = {}
    spec.env_effects.clear()
    spec.programs["main"].clear()
    spec.programs["extra"] = {}
    spec.params["n"] = 99
    again = load_spec("muddy_children", n=2)
    fresh = parse_spec_file(bundled_spec_path("muddy_children"), n=2)
    assert again.equivalent(fresh)
    assert again.params == fresh.params


def test_an_edited_file_is_parsed_again(tmp_path):
    from repro.spec import library

    path = tmp_path / "minimal.kbp"
    path.write_text(MINIMAL)
    assert load_spec(str(path)).name == "minimal"
    for edit in range(2 * library._CACHE_SIZE):
        path.write_text(MINIMAL.replace("protocol minimal", f"protocol edit{edit}"))
        edited = load_spec(str(path))
        assert edited.name == f"edit{edit}"
        assert edited.equivalent(parse_spec_file(str(path)))
    assert len(library._CACHE) <= library._CACHE_SIZE


def test_failed_loads_are_not_cached():
    load_spec("muddy_children", n=1)
    load_spec("muddy_children", n=3)
    for _ in range(2):
        with pytest.raises(SpecError, match="unknown parameter"):
            load_spec("bit_transmission", bogus=3)
    # Values that compare equal to a cached integer are still rejected.
    for value in (3.0, True, "3"):
        with pytest.raises(SpecError, match="must be an integer"):
            load_spec("muddy_children", n=value)


# -- the registry ------------------------------------------------------------------------


class TestRegistry:
    def test_all_eight_protocols_registered(self):
        registry = registered_protocols()
        assert set(registry) == set(bundled_spec_names())

    def test_entries_follow_the_shared_convention(self):
        for name, entry in registered_protocols().items():
            module = entry.module
            for attribute in ("spec", "context_parts", "context", "symbolic_model", "program"):
                assert hasattr(module, attribute), (name, attribute)
            assert module.SPEC_NAME == entry.spec_name

    def test_spec_names_resolve_to_bundled_files(self):
        for entry in registered_protocols().values():
            assert load_spec(entry.spec_name) is not None


# -- equivalence of the two lowerings on the new zoo specs covered here ------------------


def test_spec_context_and_symbolic_model_share_parts():
    spec = parse_spec(MINIMAL, source="minimal.kbp")
    context = spec.variable_context()
    model = spec.symbolic_model()
    assert context.name == model.name == "minimal"
    explicit_initial = set(context.initial_states)
    symbolic_initial = set(model.encoding.iter_states(model.initial))
    assert symbolic_initial == explicit_initial


def test_variable_order_hint_flows_to_the_symbolic_model():
    spec = load_spec("dining_cryptographers")
    model = spec.symbolic_model()
    assert tuple(v.name for v in model.encoding.variables) == spec.variable_order
    assert spec.variable_order != tuple(v.name for v in spec.variables)


# -- renderer ----------------------------------------------------------------------------


def test_render_formula_minimal_parentheses():
    from repro.logic.formula import And, Knows, Not, Or, Prop

    formula = Or((And((Prop("a"), Prop("b"))), Not(Prop("c"))))
    assert render_formula(formula) == "a & b | !c"
    assert render_formula(Knows("x", And((Prop("a"), Prop("b"))))) == "K[x] (a & b)"


# -- the CLI -----------------------------------------------------------------------------


class TestCli:
    def test_list(self, capsys):
        assert spec_cli(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == sorted(bundled_spec_names())

    def test_stats_with_param(self, capsys):
        assert spec_cli(["muddy_children", "-p", "n=2"]) == 0
        out = capsys.readouterr().out
        assert "muddy-children-2" in out
        assert "state space" in out
        assert "reachable" in out

    def test_kbp_echo_round_trips(self, capsys):
        assert spec_cli(["bit_transmission", "--kbp"]) == 0
        out = capsys.readouterr().out
        assert parse_spec(out, source="<cli>").equivalent(load_spec("bit_transmission"))

    def test_unknown_spec_fails(self, capsys):
        assert spec_cli(["no_such_protocol"]) == 1
        assert "no bundled spec" in capsys.readouterr().err

    def test_bad_param_fails(self, capsys):
        assert spec_cli(["bit_transmission", "-p", "n"]) == 1
        assert "--param expects" in capsys.readouterr().err

    def test_fuzz_smoke(self, capsys):
        assert spec_cli(["--fuzz", "3", "--seed", "11"]) == 0
        assert "checked 3 specs" in capsys.readouterr().out
