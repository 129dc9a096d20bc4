"""Skyline evaluation: correctness against the paper's selection method.

The paper's abstract nested-loop selection method (section 3.2) is the
executable definition of "maximal tuples".  The ``memory`` strategy must
return exactly the same index set, which hypothesis checks over random
preferences and data.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.experiments import dominance_key
from repro.engine.algorithms import maximal_indices, nested_loop_maximal
from repro.errors import EvaluationError
from repro.model.builder import build_preference
from repro.model.categorical import pos
from repro.model.composite import ParetoPreference, PrioritizationPreference
from repro.model.numeric import AroundPreference, LowestPreference
from repro.sql import ast
from repro.sql.parser import parse_preferring

A = ast.Column(name="a")
B = ast.Column(name="b")

#: Engine algorithms the dispatcher tests run (``parallel`` has its own
#: suite in tests/test_parallel.py).
ALGORITHMS = ("memory", "nested_loop")


def two_d_pareto():
    return ParetoPreference([LowestPreference(A), LowestPreference(B)])


class TestNestedLoop:
    def test_single_tuple(self):
        assert nested_loop_maximal(two_d_pareto(), [(1, 1)]) == [0]

    def test_empty_input(self):
        assert nested_loop_maximal(two_d_pareto(), []) == []

    def test_dominated_tuple_removed(self):
        vectors = [(1, 1), (2, 2)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0]

    def test_incomparable_tuples_kept(self):
        vectors = [(1, 3), (3, 1), (2, 2)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0, 1, 2]

    def test_duplicates_all_kept(self):
        # Equal vectors do not dominate each other (strict order).
        vectors = [(1, 1), (1, 1), (2, 2)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0, 1]

    def test_chain_keeps_only_top(self):
        vectors = [(i, i) for i in range(10)]
        assert nested_loop_maximal(two_d_pareto(), vectors) == [0]


class TestAgreementAcrossAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_known_case(self, algorithm):
        vectors = [(1, 3), (3, 1), (2, 2), (4, 4), (1, 3)]
        assert maximal_indices(two_d_pareto(), vectors, algorithm) == [0, 1, 2, 4]

    @given(
        data=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=40
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_pareto_agreement(self, data):
        preference = two_d_pareto()
        expected = nested_loop_maximal(preference, data)
        assert maximal_indices(preference, data) == expected

    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from(["red", "blue", "green", None]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_cascade_agreement(self, data):
        preference = PrioritizationPreference(
            [AroundPreference(A, 3), pos(B, {"red", "blue"})]
        )
        expected = nested_loop_maximal(preference, data)
        assert maximal_indices(preference, data) == expected

    @given(
        data=st.lists(
            st.tuples(
                st.sampled_from(["red", "blue", "green", "black"]),
                st.integers(0, 5),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_explicit_in_pareto_agreement(self, data):
        preference = build_preference(
            parse_preferring("EXPLICIT(a, 'red' > 'blue', 'blue' > 'green') AND LOWEST(b)")
        )
        expected = nested_loop_maximal(preference, data)
        # EXPLICIT has no rank columns: the BNL closure loop decides.
        assert maximal_indices(preference, data) == expected


class TestDominanceKey:
    @given(
        v=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        w=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=200, deadline=None)
    def test_key_compatible_with_pareto_dominance(self, v, w):
        preference = two_d_pareto()
        if preference.is_better(v, w):
            assert dominance_key(preference, v) < dominance_key(preference, w)

    @given(
        v=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        w=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=200, deadline=None)
    def test_key_compatible_with_cascade_dominance(self, v, w):
        preference = PrioritizationPreference(
            [LowestPreference(A), LowestPreference(B)]
        )
        if preference.is_better(v, w):
            assert dominance_key(preference, v) < dominance_key(preference, w)

    def test_key_length_matches_base_count(self):
        preference = build_preference(
            parse_preferring("LOWEST(a) AND (LOWEST(b) CASCADE HIGHEST(a))")
        )
        key = dominance_key(preference, (1, 2, 3))
        assert len(key) == 3


class TestDispatcher:
    def test_maximal_indices_default(self):
        vectors = [(2, 2), (1, 1)]
        assert maximal_indices(two_d_pareto(), vectors) == [1]

    def test_unknown_algorithm_raises(self):
        with pytest.raises(EvaluationError):
            maximal_indices(two_d_pareto(), [], algorithm="quantum")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_all_empty(self, algorithm):
        assert maximal_indices(two_d_pareto(), [], algorithm) == []

    def test_large_antichain(self):
        # n incomparable tuples: everything survives.
        vectors = [(i, 100 - i) for i in range(100)]
        for algorithm in ALGORITHMS:
            assert maximal_indices(two_d_pareto(), vectors, algorithm) == list(
                range(100)
            )
