from __future__ import annotations

from itertools import product

import pytest

from interstep.history import Elem, Label, Query
from interstep.isomorphism import (
    ElementNotInDomain,
    Isomorphism,
    apply_isomorphism,
    check_isomorphism,
)
from interstep.structure import (
    App,
    ArityMismatch,
    ClashError,
    Location,
    ReplyVar,
    Structure,
    StructureError,
    SymbolDecl,
    UnboundVariable,
    Var,
    Vocabulary,
    all_locations,
    apply_updates,
    detect_clash,
    eval_term,
    format_structure,
    is_trivial,
    location_value,
    parse_structure,
    update,
    validate_structure,
)


@pytest.fixture(scope="module")
def vocab():
    return Vocabulary.make(
        [
            SymbolDecl("client0", 0, static=True),
            SymbolDecl("client1", 0, static=True),
            SymbolDecl("yes", 0, static=True),
            SymbolDecl("owner", 0),
            SymbolDecl("sold", 0, relational=True),
        ]
    )


@pytest.fixture(scope="module")
def x(vocab):
    return Structure.make(
        vocab,
        ["true", "false", "undef", "client0", "client1", "yes"],
        {
            "client0": {(): "client0"},
            "client1": {(): "client1"},
            "yes": {(): "yes"},
            "owner": {(): "undef"},
        },
    )


class TestVocabulary:
    def test_logic_names_always_present(self, vocab):
        for name in ("true", "false", "undef", "Boole", "eq", "not", "and", "or"):
            assert name in vocab

    def test_logic_names_reserved(self):
        with pytest.raises(StructureError):
            Vocabulary.make([SymbolDecl("true", 0)])

    def test_duplicate_rejected(self):
        with pytest.raises(StructureError):
            Vocabulary.make([SymbolDecl("f", 0), SymbolDecl("f", 1)])

    def test_flags(self, vocab):
        assert vocab.decl("owner").static is False
        assert vocab.decl("sold").relational is True
        assert vocab.decl("eq").static is True


class TestValidateStructure:
    def test_broker_state_is_clean(self, broker, broker_state):
        assert validate_structure(broker.vocab, broker_state) == []

    def test_fixture_state_is_clean(self, vocab, x):
        assert validate_structure(vocab, x) == []

    def test_true_equal_false_flags_distinctness(self, vocab):
        bad = Structure.make(
            vocab,
            ["true", "false", "undef", "client0", "client1", "yes"],
            {"true": {(): "false"}},
        )
        issues = validate_structure(vocab, bad)
        assert any(i.code == "distinctness" for i in issues)

    def test_relational_symbol_yielding_undef_is_flagged(self, vocab):
        bad = Structure.make(
            vocab,
            ["true", "false", "undef", "client0", "client1", "yes"],
            {"sold": {(): "undef"}},
        )
        issues = validate_structure(vocab, bad)
        assert [i.code for i in issues] == ["relational-range"]
        assert issues[0].symbol == "sold"

    def test_corrupted_boole_is_flagged(self, vocab):
        bad = Structure.make(
            vocab,
            ["true", "false", "undef", "client0", "client1", "yes"],
            {"Boole": {("yes",): "true"}},
        )
        assert any(i.code == "boole-convention" for i in validate_structure(vocab, bad))

    def test_corrupted_connective_is_flagged(self, vocab):
        bad = Structure.make(
            vocab,
            ["true", "false", "undef", "client0", "client1", "yes"],
            {"and": {("true", "true"): "false"}},
        )
        assert any(i.code == "connective-convention" for i in validate_structure(vocab, bad))


class TestEvalTerm:
    def test_nullary_logic_name(self, x):
        assert eval_term(x, App("true")) == "true"

    def test_equality_convention(self, x):
        for e in x.base:
            assert eval_term(x, App("eq", (Var("v"), Var("v"))), {"v": e}) == "true"

    def test_boole_of_undef_is_false(self, x):
        # Boole maps true and false to true and everything else to false
        assert eval_term(x, App("Boole", (App("undef"),))) == "false"

    def test_unbound_variable(self, x):
        with pytest.raises(UnboundVariable):
            eval_term(x, Var("v"))
        with pytest.raises(UnboundVariable):
            eval_term(x, ReplyVar("q"))

    def test_arity_mismatch(self, x):
        with pytest.raises(ArityMismatch):
            eval_term(x, App("Boole", ()))

    def test_connectives_classical_on_booleans(self, x):
        t, f = App("true"), App("false")
        assert eval_term(x, App("and", (t, t))) == "true"
        assert eval_term(x, App("and", (t, f))) == "false"
        assert eval_term(x, App("or", (f, t))) == "true"
        assert eval_term(x, App("not", (f,))) == "true"
        assert eval_term(x, App("not", (App("undef"),))) == "false"


class TestDetectClash:
    def test_empty(self):
        assert detect_clash(set()) is None

    def test_two_values_at_one_location(self):
        delta = {update("owner", (), "client0"), update("owner", (), "client1")}
        assert detect_clash(delta) == Location("owner", ())

    def test_duplicate_updates_are_one_update(self):
        delta = [update("owner", (), "client0"), update("owner", (), "client0")]
        assert detect_clash(delta) is None

    def test_first_clash_in_canonical_order(self):
        delta = {
            update("owner", (), "client0"),
            update("owner", (), "client1"),
            update("flag", (), "client0"),
            update("flag", (), "client1"),
        }
        assert detect_clash(delta) == Location("flag", ())


class TestApplyUpdates:
    def test_empty_update_set_is_identity(self, x):
        assert apply_updates(x, set()) == x

    def test_sale_to_client0(self, x):
        y = apply_updates(x, {update("owner", (), "client0")})
        assert y.value("owner") == "client0"
        assert y.base == x.base
        for name, entries in x.tables:
            if name != "owner":
                assert dict(y.tables)[name] == entries
        assert y != x

    def test_clash_raises(self, x):
        with pytest.raises(ClashError) as err:
            apply_updates(x, {update("owner", (), "client0"), update("owner", (), "client1")})
        assert err.value.location == Location("owner", ())

    def test_static_target_rejected(self, x):
        with pytest.raises(StructureError):
            apply_updates(x, {update("yes", (), "client0")})

    def test_trivial_update_leaves_value(self, x):
        y = apply_updates(x, {update("owner", (), "undef")})
        assert y == x

    def test_differs_exactly_on_nontrivial_locations(self, x):
        delta = frozenset({update("owner", (), "client1")})
        y = apply_updates(x, delta)
        changed = {u.location for u in delta if not is_trivial(x, u)}
        for loc in all_locations(x):
            if loc in changed:
                assert location_value(y, loc) != location_value(x, loc) or loc not in changed
                assert location_value(y, loc) == "client1"
            else:
                assert location_value(y, loc) == location_value(x, loc)


class TestIsomorphism:
    def test_identity_maps_everything_to_itself(self, x):
        ident = Isomorphism.identity(x)
        assert apply_isomorphism(ident, x) == x
        q = Query((Label("offer0"),))
        assert apply_isomorphism(ident, q) == q

    def test_label_only_query_is_fixed(self, x):
        swap = Isomorphism.of({**{e: e for e in x.base}, "client0": "client1", "client1": "client0"})
        q = Query((Label("offer0"),))
        assert apply_isomorphism(swap, q) == q

    def test_update_maps_elementwise(self, x):
        swap = Isomorphism.of({**{e: e for e in x.base}, "client0": "client1", "client1": "client0"})
        u = update("owner", (), "client0")
        assert apply_isomorphism(swap, u) == update("owner", (), "client1")

    def test_element_component_maps(self, x):
        swap = Isomorphism.of({**{e: e for e in x.base}, "client0": "client1", "client1": "client0"})
        q = Query((Label("offer0"), Elem("client0")))
        assert apply_isomorphism(swap, q) == Query((Label("offer0"), Elem("client1")))

    def test_missing_element_raises(self, x):
        iso = Isomorphism.of({"client0": "client1"})
        with pytest.raises(ElementNotInDomain):
            apply_isomorphism(iso, update("owner", (), "yes"))

    def test_check_identity(self, x):
        assert check_isomorphism({e: e for e in x.base}, x, x) is True

    def test_check_non_bijective(self, x):
        m = {e: "true" for e in x.base}
        assert check_isomorphism(m, x, x) is False

    def test_check_swap_against_swapped_structure(self, x):
        swap = {**{e: e for e in x.base}, "client0": "client1", "client1": "client0"}
        y = apply_isomorphism(Isomorphism.of(swap), x)
        assert check_isomorphism(swap, x, y) is True
        # against the unswapped structure the map breaks client0's interpretation
        assert check_isomorphism(swap, x, x) is False

    def test_bijection_breaking_one_dynamic_value(self, x):
        # exhaustive commutation check catches a single perturbed entry
        swap = {**{e: e for e in x.base}, "client0": "client1", "client1": "client0"}
        y = apply_isomorphism(Isomorphism.of(swap), x)
        y_bad = apply_updates(y, {update("owner", (), "yes")})
        assert check_isomorphism(swap, x, y_bad) is False

    def test_transport_preserves_validity(self, vocab, x):
        swap = Isomorphism.of({**{e: e for e in x.base}, "client0": "client1", "client1": "client0"})
        y = apply_isomorphism(swap, x)
        assert validate_structure(vocab, x) == []
        assert validate_structure(vocab, y) == []

    def test_eval_commutes_with_isomorphism(self, x):
        swap = Isomorphism.of({**{e: e for e in x.base}, "client0": "client1", "client1": "client0"})
        y = apply_isomorphism(swap, x)
        terms = [App("client0"), App("owner"), App("Boole", (Var("v"),)), App("eq", (Var("v"), App("yes")))]
        for term, e in product(terms, x.base):
            mapped = {"v": swap.map_element(e)}
            assert swap.map_element(eval_term(x, term, {"v": e})) == eval_term(y, term, mapped)


class TestStructureFile:
    def test_round_trip_is_bit_exact(self, broker_state):
        text = format_structure(broker_state)
        again = parse_structure(text)
        assert again == broker_state
        assert format_structure(again) == text

    def test_defaults_fill_unlisted_entries(self):
        text = "base false true undef\n" "dynamic flag/0\n" "static relational ok/1\n"
        x = parse_structure(text)
        assert x.value("flag") == "undef"
        assert x.value("ok", ("true",)) == "false"

    def test_relational_line_means_dynamic_relational(self):
        x = parse_structure("base false true undef\nrelational r/0\n")
        assert x.vocab.decl("r").static is False
        assert x.vocab.decl("r").relational is True
        # canonical form spells the flags out
        assert "dynamic relational r/0" in format_structure(x)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(StructureError, match="line 2"):
            parse_structure("base a true false undef\ninterp nosuch () = a\n")

    @pytest.mark.parametrize("arity", ["²", "٣"])
    def test_non_ascii_arity_rejected(self, arity):
        with pytest.raises(StructureError, match="line 2: arity"):
            parse_structure(f"base false true undef\ndynamic r/{arity}\n")

    def test_missing_base_rejected(self):
        with pytest.raises(StructureError):
            parse_structure("dynamic f/0\n")

    def test_designated_override_round_trips(self):
        text = "base f0 t0 u0\ninterp false () = f0\ninterp true () = t0\ninterp undef () = u0\n"
        x = parse_structure(text)
        assert x.true_el == "t0"
        assert format_structure(parse_structure(format_structure(x))) == format_structure(x)
