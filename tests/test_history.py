from __future__ import annotations

from itertools import combinations, product

import pytest

from conftest import h, lq
from interstep.dsl import DslSyntaxError, parse_history, parse_query
from interstep.history import (
    EMPTY_HISTORY,
    DomainMismatch,
    EmptyBatch,
    History,
    HistoryError,
    OverlappingDomain,
    QueryNotInDomain,
    append_class,
    format_history,
    format_query,
    initial_segments,
    mk_history,
    restrict_before,
)
from interstep.model import issued
from oracle import (
    CapExceeded,
    PreconditionViolation,
    common_prefix_comparable,
    complete_history,
    is_initial_segment,
    restrict_upto,
)


class TestMkHistory:
    def test_empty(self):
        xi = mk_history({}, {})
        assert xi == EMPTY_HISTORY
        assert xi.length == 0

    def test_normalization_relabels_phases(self):
        xi = mk_history({lq("q"): "a"}, {lq("q"): 5})
        assert xi.phase_of(lq("q")) == 0
        assert xi == h(("q", "a", 0))

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            mk_history({lq("q"): "a"}, {lq("p"): 0})

    def test_simultaneous_replies_share_a_phase(self):
        xi = h(("q", "a", 0), ("p", "b", 0))
        assert xi.length == 1
        assert xi.phase_of(lq("q")) == xi.phase_of(lq("p"))

    def test_normalization_is_idempotent(self):
        xi = mk_history({lq("q"): "a", lq("p"): "b"}, {lq("q"): 3, lq("p"): 9})
        again = mk_history(xi.answers, xi.phase_map)
        assert again == xi

    def test_raw_rows_must_be_canonical(self):
        with pytest.raises(HistoryError):
            History(((lq("q"), "a", 1),))

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("q", 1)], "not contiguous"),  # first phase is not 0
            ([("p", 0), ("q", 2)], "not contiguous"),  # a phase is skipped
            ([("p", 1), ("q", 0)], "canonical form"),  # phases decrease
            ([("q", 0), ("p", 0)], "canonical form"),  # queries of a phase out of order
            ([("q", 0), ("q", 0)], "canonical form"),  # a query twice in one phase
            ([("q", 0), ("q", 1)], "canonical form"),  # a query in two phases
            ([("p", 0), ("q", 1), ("p", 2)], "canonical form"),
        ],
    )
    def test_non_canonical_rows_raise(self, rows, message):
        with pytest.raises(HistoryError, match=message):
            History(tuple((lq(name), "a", phase) for name, phase in rows))

    def test_canonical_check_agrees_with_sorting(self):
        # every row sequence of up to 3 rows over 2 queries, 2 replies and phases 0-2
        # is accepted exactly when it is contiguous from 0 and sorts to itself
        pool = [(lq(name), reply, phase) for name in "pq" for reply in "ab" for phase in range(3)]
        for n in range(4):
            for rows in product(pool, repeat=n):
                phases = sorted({p for _, _, p in rows})
                by_query = {q: (r, p) for q, r, p in rows}
                canonical = phases == list(range(len(phases))) and rows == tuple(
                    sorted(((q, r, p) for q, (r, p) in by_query.items()), key=lambda row: (row[2], row[0].sort_key))
                )
                if canonical:
                    assert History(rows).entries == rows
                else:
                    with pytest.raises(HistoryError):
                        History(rows)


def proper_down_closed_subsets(xi):
    """Brute-force oracle: down-closed, simultaneity-closed subsets of the domain."""
    domain = sorted(xi.domain, key=format_query)
    segments = []
    for k in range(len(domain) + 1):
        for subset in combinations(domain, k):
            sset = set(subset)
            down_closed = all(
                (other in sset) or (xi.phase_of(other) > xi.phase_of(q))
                for q in sset
                for other in domain
                if xi.phase_of(other) <= xi.phase_of(q)
            )
            if down_closed:
                segments.append(
                    mk_history({q: xi.reply(q) for q in sset}, {q: xi.phase_of(q) for q in sset})
                )
    return segments


class TestInitialSegments:
    def test_empty_history_has_one_segment(self):
        assert initial_segments(EMPTY_HISTORY) == [EMPTY_HISTORY]

    def test_two_phase_history_has_three_segments(self):
        xi = h(("q", "a", 0), ("p", "b", 1))
        assert len(initial_segments(xi)) == 3

    def test_broker_history_matches_brute_force(self):
        xi = h(("offer0", "yes", 0), ("choose", "client1", 1))
        expected = sorted(proper_down_closed_subsets(xi), key=format_history)
        assert sorted(initial_segments(xi), key=format_history) == expected
        assert initial_segments(xi) == [EMPTY_HISTORY, h(("offer0", "yes", 0)), xi]

    def test_brute_force_agreement_on_mixed_phases(self):
        xi = h(("a", "x", 0), ("b", "y", 0), ("c", "z", 1), ("d", "x", 2))
        assert sorted(initial_segments(xi), key=format_history) == sorted(
            proper_down_closed_subsets(xi), key=format_history
        )

    def test_segments_are_simultaneity_closed(self):
        xi = h(("a", "x", 0), ("b", "y", 0), ("c", "z", 1))
        eta = h(("a", "x", 0))
        assert not is_initial_segment(eta, xi)

    def test_whole_history_is_a_segment(self):
        xi = h(("a", "x", 0), ("b", "y", 1))
        assert is_initial_segment(xi, xi)
        assert is_initial_segment(EMPTY_HISTORY, xi)

    def test_segment_transitivity(self):
        xi = h(("a", "x", 0), ("b", "y", 1), ("c", "z", 2))
        for eta in initial_segments(xi):
            for theta in initial_segments(eta):
                assert is_initial_segment(theta, xi)


class TestRestrict:
    def test_before_first_phase_is_empty(self):
        xi = h(("q", "a", 0), ("p", "b", 1))
        assert restrict_before(xi, lq("q")) == EMPTY_HISTORY

    def test_before_second_phase_is_first(self):
        xi = h(("q", "a", 0), ("p", "b", 1))
        assert restrict_before(xi, lq("p")) == h(("q", "a", 0))

    def test_before_excludes_simultaneous_partner(self):
        xi = h(("q", "a", 0), ("p", "b", 0))
        assert restrict_before(xi, lq("q")) == EMPTY_HISTORY
        assert lq("p") not in restrict_before(xi, lq("q")).domain

    def test_upto_last_phase_is_whole(self):
        xi = h(("q", "a", 0), ("p", "b", 1))
        assert restrict_upto(xi, lq("p")) == xi

    def test_upto_first_phase(self):
        xi = h(("q", "a", 0), ("p", "b", 1))
        assert restrict_upto(xi, lq("q")) == h(("q", "a", 0))

    def test_upto_includes_simultaneous_partner(self):
        xi = h(("q", "a", 0), ("p", "b", 0))
        assert restrict_upto(xi, lq("q")) == xi

    def test_chain(self):
        xi = h(("q", "a", 0), ("p", "b", 1), ("r", "c", 1))
        for q in xi.domain:
            before, upto = restrict_before(xi, q), restrict_upto(xi, q)
            assert is_initial_segment(before, upto)
            assert is_initial_segment(upto, xi)

    def test_unknown_query_rejected(self):
        with pytest.raises(QueryNotInDomain):
            restrict_before(EMPTY_HISTORY, lq("q"))


class TestAppendClass:
    def test_append_to_empty(self):
        assert append_class(EMPTY_HISTORY, {lq("offer0"): "yes"}) == h(("offer0", "yes", 0))

    def test_append_orders_after_existing(self):
        xi = append_class(h(("offer0", "yes", 0)), {lq("offer1"): "no"})
        assert xi == h(("offer0", "yes", 0), ("offer1", "no", 1))
        assert xi.phase_of(lq("offer0")) < xi.phase_of(lq("offer1"))

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingDomain):
            append_class(h(("offer0", "yes", 0)), {lq("offer0"): "no"})

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatch):
            append_class(EMPTY_HISTORY, {})

    def test_extends_segment_list_by_one(self):
        xi = h(("a", "x", 0), ("b", "y", 1))
        ext = append_class(xi, {lq("c"): "z"})
        assert initial_segments(ext) == initial_segments(xi) + [ext]


class TestCommonPrefixComparable:
    def test_prefixes_of_different_lengths(self):
        xi = h(("a", "x", 0), ("b", "y", 1), ("c", "z", 2))
        segs = initial_segments(xi)
        assert common_prefix_comparable(segs[1], segs[2], xi)

    def test_identical_whole(self):
        xi = h(("a", "x", 0))
        assert common_prefix_comparable(xi, xi, xi)

    def test_all_pairs_of_segments(self):
        xi = h(("a", "x", 0), ("b", "y", 0), ("c", "z", 1), ("d", "w", 2))
        for s1 in initial_segments(xi):
            for s2 in initial_segments(xi):
                assert common_prefix_comparable(s1, s2, xi)

    def test_precondition_enforced(self):
        xi = h(("a", "x", 0))
        with pytest.raises(PreconditionViolation):
            common_prefix_comparable(h(("b", "y", 0)), xi, xi)


class TestCompleteHistory:
    def test_already_complete_returns_input(self, broker, broker_state):
        xi = h(("offer0", "no", 0), ("offer1", "no", 0), ("timeout", "t", 0))
        fn = lambda eta: issued(broker, broker_state, eta)
        assert complete_history(fn, xi, lambda pend: {}, cap=5) == xi

    def test_broker_from_empty_one_round(self, broker, broker_state):
        fn = lambda eta: issued(broker, broker_state, eta)
        chooser = lambda pend: {q: ("t" if q == lq("timeout") else "no") for q in pend}
        out = complete_history(fn, EMPTY_HISTORY, chooser, cap=5)
        assert out.length == 1
        assert len(out.domain) == 3
        assert out == h(("offer0", "no", 0), ("offer1", "no", 0), ("timeout", "t", 0))

    def test_broker_tie_completes_after_one_round(self, broker, broker_state):
        xi = h(("offer0", "yes", 0), ("offer1", "yes", 0))
        fn = lambda eta: issued(broker, broker_state, eta)
        chooser = lambda pend: {q: ("t" if q == lq("timeout") else "client0") for q in pend}
        out = complete_history(fn, xi, chooser, cap=5)
        assert out.length == 2
        assert is_initial_segment(xi, out)
        assert lq("choose") in out.domain and lq("timeout") in out.domain

    def test_cap_exceeded_on_unbounded_issuing(self):
        # a rule system that issues a fresh query for every answered one
        counter = [0]

        def fn(eta):
            return {lq(f"q{len(eta.domain)}")}

        def chooser(pend):
            counter[0] += 1
            return {q: "a" for q in pend}

        with pytest.raises(CapExceeded):
            complete_history(fn, EMPTY_HISTORY, chooser, cap=3)

    def test_chooser_must_cover_pending(self, broker, broker_state):
        fn = lambda eta: issued(broker, broker_state, eta)
        with pytest.raises(PreconditionViolation):
            complete_history(fn, EMPTY_HISTORY, lambda pend: {lq("offer0"): "yes"}, cap=5)


class TestLiterals:
    def test_query_round_trip(self):
        for text in ["(offer0)", "(pair #client0)", "(a b #c)"]:
            assert format_query(parse_query(text)) == text

    def test_history_round_trip_exact(self):
        text = "{ (offer0) -> yes @0 ; (offer1) -> no @1 }"
        assert format_history(parse_history(text)) == text

    def test_empty_history_literal(self):
        assert parse_history("{ }") == EMPTY_HISTORY
        assert format_history(EMPTY_HISTORY) == "{ }"

    def test_literal_normalizes_to_canonical_order(self):
        messy = "{ (offer1) -> no @1 ; (offer0) -> yes @0 }"
        assert format_history(parse_history(messy)) == "{ (offer0) -> yes @0 ; (offer1) -> no @1 }"

    def test_bad_literals_rejected(self):
        for text in ["{ (q) -> }", "{ (q) yes @0 }", "(q) -> a @0", "{ (q) -> a @x }", "{ () -> a @0 }", "{ (q) -> a @² }"]:
            with pytest.raises(DslSyntaxError):
                parse_history(text)

    def test_huge_phase_is_a_literal_error(self):
        with pytest.raises(DslSyntaxError, match="numeral of 5000 digits is too large"):
            parse_history("{ (q) -> a @" + "9" * 5000 + " }")

    def test_duplicate_query_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_history("{ (q) -> a @0 ; (q) -> b @1 }")
