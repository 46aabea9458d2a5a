from __future__ import annotations

import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interstep.dsl import DslNameError, DslSyntaxError, parse_spec, print_spec
from interstep.errors import EngineError
from interstep.history import Elem, Label, Query
from interstep.isomorphism import (
    ElementNotInDomain,
    Isomorphism,
    apply_isomorphism,
    check_isomorphism,
)
from interstep.model import AlgorithmSpec, Bounds, StateDef
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
    apply_updates,
    detect_clash,
    eval_term,
    update,
)
from oracle import (
    DenseStructure,
    all_locations,
    dense_apply_updates,
    dense_check_isomorphism,
    dense_transport,
    dense_validate_structure,
    derived_logic_tables,
    is_trivial,
    location_value,
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


class TestConventions:
    """A structure that breaks a logic convention is never built."""

    BASE = ["true", "false", "undef", "client0", "client1", "yes"]

    def test_true_equal_false_is_rejected(self, vocab):
        with pytest.raises(StructureError, match="true, false and undef must denote distinct elements"):
            Structure.make(vocab, self.BASE, {"true": {(): "false"}})

    def test_relational_symbol_yielding_undef_is_rejected(self, vocab):
        with pytest.raises(StructureError, match="relational symbol 'sold' takes the non-Boolean value 'undef'"):
            Structure.make(vocab, self.BASE, {"sold": {(): "undef"}})

    def test_corrupted_boole_is_rejected(self, vocab):
        with pytest.raises(StructureError, match=r"Boole at \(yes\) is 'true', but the convention gives 'false'"):
            Structure.make(vocab, self.BASE, {"Boole": {("yes",): "true"}})

    def test_corrupted_connective_is_rejected(self, vocab):
        with pytest.raises(StructureError, match=r"and at \(true true\) is 'false'"):
            Structure.make(vocab, self.BASE, {"and": {("true", "true"): "false"}})

    def test_restated_convention_is_dropped(self, vocab, x):
        restated = {"eq": {("yes", "yes"): "true"}, "and": {("true", "yes"): "false"}, "sold": {(): "false"}}
        entries = {name: dict(listed) for name, listed in x.tables}
        assert Structure.make(vocab, x.base, {**entries, **restated}) == x

    def test_update_to_a_non_boolean_relational_value_is_rejected(self, x):
        with pytest.raises(StructureError, match="relational symbol 'sold' takes the non-Boolean value 'yes'"):
            apply_updates(x, {update("sold", (), "yes")})
        assert apply_updates(x, {update("sold", (), "true")}).value("sold") == "true"


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

    def test_update_back_to_the_default_removes_the_entry(self, x):
        assert "owner" not in dict(x.tables)  # the fixture's explicit owner() = undef is the default
        sold = apply_updates(x, {update("owner", (), "client0")})
        assert dict(sold.tables)["owner"] == (((), "client0"),)
        assert apply_updates(sold, {update("owner", (), "undef")}) == x

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

    def test_non_injective_mapping_is_rejected(self, broker_state):
        merge = {**{e: e for e in broker_state.base}, "client1": "client0"}
        with pytest.raises(EngineError, match="elements 'client0' and 'client1' both map to 'client0'"):
            apply_isomorphism(Isomorphism.of(merge), broker_state)

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

    def test_transport_rejects_a_structure_built_around_the_conventions(self, x):
        # the dataclass constructor skips the checks; transport builds its image through them
        bad = Structure(x.vocab, x.base, (*x.tables, ("sold", (((), "yes"),))))
        swap = Isomorphism.of({**{e: e for e in x.base}, "client0": "client1", "client1": "client0"})
        with pytest.raises(StructureError, match="relational symbol 'sold'"):
            apply_isomorphism(swap, bad)

    def test_eval_commutes_with_isomorphism(self, x):
        swap = Isomorphism.of({**{e: e for e in x.base}, "client0": "client1", "client1": "client0"})
        y = apply_isomorphism(swap, x)
        terms = [App("client0"), App("owner"), App("Boole", (Var("v"),)), App("eq", (Var("v"), App("yes")))]
        for term, e in product(terms, x.base):
            mapped = {"v": swap.map_element(e)}
            assert swap.map_element(eval_term(x, term, {"v": e})) == eval_term(y, term, mapped)


def one_state_spec(x: Structure) -> AlgorithmSpec:
    """A spec whose only state is x, and which has no rules."""
    return AlgorithmSpec("a", x.vocab, frozenset(), (StateDef("S", x),), frozenset({"S"}), (), (), (), (), Bounds(1, 1), ())


def state_from_text(vocabulary: str, state: str) -> Structure:
    """The structure of a DSL state block over the declared vocabulary."""
    text = f"algorithm a\nvocabulary {{ {vocabulary} }}\nlabels {{ }}\nstate S {{ {state} }}\ninitial S\n"
    return parse_spec(text + "bounds { max_query_len 1 max_issued 1 }\nwitness { }\n").state("S")


def reparsed(x: Structure) -> Structure:
    return parse_spec(print_spec(one_state_spec(x))).state("S")


class TestStructureText:
    """Structures written as DSL state blocks: `print_spec` and `parse_spec` carry them."""

    def test_round_trip_is_bit_exact(self, broker_state):
        text = print_spec(one_state_spec(broker_state))
        assert parse_spec(text).state("S") == broker_state
        assert print_spec(parse_spec(text)) == text

    def test_defaults_fill_unlisted_entries(self):
        x = state_from_text("dynamic flag/0 static relational ok/1", "base false true undef")
        assert x.value("flag") == "undef"
        assert x.value("ok", ("true",)) == "false"

    def test_relational_line_means_dynamic_relational(self):
        x = state_from_text("relational r/0", "base false true undef")
        assert x.vocab.decl("r").static is False
        assert x.vocab.decl("r").relational is True
        # canonical form spells the flags out
        assert "dynamic relational r/0" in print_spec(one_state_spec(x))

    def test_arity_30_parses_at_once(self):
        start = time.perf_counter()
        x = state_from_text("dynamic f/0 dynamic r/30", "base a b c d e false true undef interp r (" + "a " * 30 + ") = b")
        assert time.perf_counter() - start < 0.5
        assert x.value("r", ["a"] * 30) == "b"
        assert x.value("r", ["b"] * 30) == "undef"
        assert reparsed(x) == x

    def test_designated_override_round_trips(self):
        x = state_from_text("", "base f0 t0 u0 interp false () = f0 interp true () = t0 interp undef () = u0")
        assert x.true_el == "t0"
        assert reparsed(x) == x

    def test_connective_override_is_rejected(self):
        with pytest.raises(DslSyntaxError, match="4:40: expected symbol name, found 'not'"):
            state_from_text("", "base false true undef interp not (true) = true")
        with pytest.raises(DslNameError, match=r"4:1: state 'S': eq at \(true false\) is 'true'"):
            state_from_text("", "base false true undef interp eq (true false) = true")

    def test_restated_convention_parses_and_prints_without_its_line(self):
        x = state_from_text("", "base false true undef interp eq (true true) = true interp Boole (undef) = false")
        assert x == state_from_text("", "base false true undef")
        assert "interp" not in print_spec(one_state_spec(x))


# --- The sparse structure against the dense oracle ------------------------------

ELEMENTS = ("a", "b", "c", "false", "true", "undef")
DESIGNATED = ("true", "false", "undef")
LOGIC_ARITIES = {"Boole": 1, "eq": 2, "not": 1, "and": 2, "or": 2, "true": 0, "false": 0, "undef": 0}


@st.composite
def small_structures(draw, conforming: bool = False):
    """A vocabulary, a base of 3-5 elements and explicit entries.

    Entries may break the logic conventions, unless `conforming`: then true,
    false and undef denote distinct elements, a logic entry restates its
    fixed value and a relational entry is what true or false denotes.
    """
    base = draw(st.lists(st.sampled_from(ELEMENTS), min_size=3, max_size=5, unique=True))
    decls = [
        SymbolDecl(f"s{i}", draw(st.integers(0, 3)), static=draw(st.booleans()), relational=draw(st.booleans()))
        for i in range(draw(st.integers(1, 3)))
    ]
    vocab = Vocabulary.make(decls)
    element = st.sampled_from(base)
    interp: dict[str, dict[tuple[str, ...], str]] = {}
    # a designated name in the base most often denotes its namesake
    implicit = [name for name in DESIGNATED if name in base and draw(st.integers(0, 3))]
    spare = iter([e for e in draw(st.permutations(base)) if e not in implicit])
    for name in DESIGNATED:
        if name not in implicit:
            interp[name] = {(): next(spare) if conforming else draw(element)}
    t, f, u = (interp[name][()] if name in interp else name for name in DESIGNATED)
    fixed = derived_logic_tables(tuple(base), t, f, u)
    relational = {d.name for d in vocab.symbols if d.relational}
    arities = {**LOGIC_ARITIES, **{d.name: d.arity for d in decls}}
    symbols = sorted(set(arities) - set(DESIGNATED))
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(symbols))
        args = tuple(draw(element) for _ in range(arities[name]))
        if not conforming:
            value = draw(element)
        elif name in fixed:
            value = fixed[name][args]
        else:
            value = draw(st.sampled_from((t, f)) if name in relational else element)
        interp.setdefault(name, {})[args] = value
    return vocab, base, interp


def every_entry(x):
    for d in x.vocab.symbols:
        for args in product(x.base, repeat=d.arity):
            yield d.name, args


def assert_same(sparse: Structure, dense: DenseStructure) -> None:
    assert sparse.base == dense.base
    for name, args in every_entry(dense):
        assert sparse.value(name, args) == dense.value(name, args), (name, args)


def assert_canonical(x: Structure, defaults: DenseStructure) -> None:
    """x stores, sorted, exactly the entries that differ from their defaults."""
    stored = [(name, args) for name, entries in x.tables for args, _ in entries]
    assert stored == sorted(stored)
    assert all(entries for _, entries in x.tables)
    for name, args in every_entry(defaults):
        default = name if name in DESIGNATED else defaults.value(name, args)
        assert ((name, args) in stored) == (x.value(name, args) != default), (name, args)


def builds(make, *args) -> bool:
    """Whether make(*args) returns rather than raising StructureError."""
    try:
        make(*args)
    except StructureError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(small_structures(), small_structures(conforming=True), st.data())
def test_structures_are_built_exactly_when_the_dense_oracle_finds_no_issue(built, conforming, data):
    vocab, base, interp = built
    dense = DenseStructure.make(vocab, base, interp)
    assert builds(Structure.make, vocab, base, interp) == (not dense_validate_structure(vocab, dense))

    # from a conforming structure, an update set may give a relational location a non-Boolean value
    vocab, base, interp = conforming
    x, dense = Structure.make(vocab, base, interp), DenseStructure.make(vocab, base, interp)
    locations = list(all_locations(dense))
    chosen = data.draw(st.lists(st.sampled_from(locations), max_size=4, unique=True)) if locations else []
    delta = {update(loc.symbol, loc.args, data.draw(st.sampled_from(x.base))) for loc in chosen}
    moved = dense_apply_updates(dense, delta)
    assert builds(apply_updates, x, delta) == (not dense_validate_structure(vocab, moved))


@settings(max_examples=150, deadline=None)
@given(small_structures(conforming=True), st.data())
def test_sparse_structures_agree_with_the_dense_oracle(built, data):
    vocab, base, interp = built
    x, dense = Structure.make(vocab, base, interp), DenseStructure.make(vocab, base, interp)
    # every entry but the designated constants' defaults from what true, false and undef denote
    defaults = DenseStructure.make(vocab, base, {n: e for n, e in interp.items() if n in DESIGNATED})
    assert_same(x, dense)
    assert_canonical(x, defaults)
    assert reparsed(x) == x

    # restating an entry's current value changes nothing; changing it does
    name, args = data.draw(st.sampled_from(list(every_entry(dense))))
    if name in LOGIC_ARITIES:
        values = [dense.value(name, args)]
    else:
        values = [x.true_el, x.false_el] if vocab.decl(name).relational else list(x.base)
    value = data.draw(st.sampled_from(values))
    y_interp = {**interp, name: {**interp.get(name, {}), args: value}}
    y, dense_y = Structure.make(vocab, base, y_interp), DenseStructure.make(vocab, base, y_interp)
    assert_same(y, dense_y)
    assert (x == y) == (dense == dense_y)
    assert x != y or hash(x) == hash(y)

    # updates, with every stored dynamic entry not otherwise updated set back to its default
    locations = list(all_locations(dense))
    if locations:
        chosen = data.draw(st.lists(st.sampled_from(locations), max_size=4, unique=True))
        booleans, elements = st.sampled_from((x.true_el, x.false_el)), st.sampled_from(x.base)
        delta = {
            update(loc.symbol, loc.args, data.draw(booleans if vocab.decl(loc.symbol).relational else elements))
            for loc in chosen
        }
        delta |= {
            update(n, a, defaults.value(n, a))
            for n, entries in x.tables
            for a, _ in entries
            if not vocab.decl(n).static and Location(n, a) not in chosen
        }
        moved = apply_updates(x, delta)
        assert_same(moved, dense_apply_updates(dense, delta))
        assert_canonical(moved, defaults)

    # transport along a random permutation, then check every permutation against the image
    iso = Isomorphism.of(dict(zip(x.base, data.draw(st.permutations(x.base)))))
    z, dense_z = apply_isomorphism(iso, x), dense_transport(iso, dense)
    assert_same(z, dense_z)
    for perm in permutations(x.base):
        mapping = dict(zip(x.base, perm))
        assert check_isomorphism(mapping, x, z) == dense_check_isomorphism(mapping, dense, dense_z), mapping
