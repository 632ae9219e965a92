"""Differential safety net for the vectorized containment-join kernel.

The counting-identity (``np.bincount``) kernel and the ``np.intersect1d``
pairwise path must return exactly what the scalar rarest-first crosscut
returns — same record IDs, same ascending order, same ``limit``
semantics — on random record sets and on real graphs through the
LC-Join skyline adapter.  The scalar kernel is the oracle: it predates
the vector one and is kept verbatim for that purpose.
"""

import random

import numpy as np
import pytest

from repro.containment.lcjoin import (
    INTERSECT_VECTOR_MIN,
    JOIN_KERNEL_MIN_ENTRIES,
    ContainmentJoin,
    _intersect_sorted,
    choose_join_kernel,
)
from repro.containment.records import RecordSet
from repro.core.filter_refine import filter_refine_sky
from repro.core.join_sky import lc_join_sky
from repro.errors import ParameterError
from repro.graph.generators import barabasi_albert, erdos_renyi


def random_records(rng, nrec=50, universe=30, max_len=9):
    return [
        {rng.randrange(universe) for _ in range(rng.randrange(0, max_len))}
        for _ in range(nrec)
    ]


class TestKernelChoice:
    def test_tiny_index_stays_scalar(self):
        assert choose_join_kernel(JOIN_KERNEL_MIN_ENTRIES - 1, 10) == (
            "scalar"
        )

    def test_large_index_goes_vector(self):
        assert choose_join_kernel(10_000, 1_000) == "vector"

    def test_sparse_index_stays_scalar(self):
        # bincount zeroes num_records cells per query; with almost no
        # posting entries to count, that fixed cost dominates.
        assert choose_join_kernel(1_000, 100_000) == "scalar"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ParameterError):
            ContainmentJoin(RecordSet([{1}]), kernel="turbo")

    def test_kernel_property_reports_resolution(self):
        join = ContainmentJoin(RecordSet([{1}]), kernel="scalar")
        assert join.kernel == "scalar"
        assert ContainmentJoin(RecordSet([{1}])).kernel in (
            "scalar",
            "vector",
        )


class TestVectorMatchesScalar:
    def test_random_record_sets(self):
        rng = random.Random(31)
        for _trial in range(25):
            records = random_records(rng)
            data = RecordSet(records)
            scalar = ContainmentJoin(data, kernel="scalar")
            vector = ContainmentJoin(data, kernel="vector")
            assert vector.kernel == "vector"
            queries = records + [
                {rng.randrange(30) for _ in range(rng.randrange(1, 5))}
                for _ in range(8)
            ]
            for q in queries:
                qt = tuple(sorted(q))
                expected = scalar.containing_records(qt)
                assert vector.containing_records(qt) == expected
                brute = [
                    i
                    for i, r in enumerate(records)
                    if set(q) <= set(r)
                ]
                assert expected == brute

    def test_limit_semantics_match(self):
        rng = random.Random(32)
        data = RecordSet(random_records(rng, nrec=40))
        scalar = ContainmentJoin(data, kernel="scalar")
        vector = ContainmentJoin(data, kernel="vector")
        for q in ((3,), (1, 4), (0, 2, 5)):
            for limit in (None, 0, 1, 2, 100):
                assert scalar.containing_records(
                    q, limit=limit
                ) == vector.containing_records(q, limit=limit)

    def test_results_are_python_ints(self):
        data = RecordSet([{1, 2}, {1, 2, 3}])
        for kernel in ("scalar", "vector"):
            hits = ContainmentJoin(data, kernel=kernel).containing_records(
                (1, 2)
            )
            assert all(type(r) is int for r in hits)

    def test_results_are_fresh_lists(self):
        # A single-element query must not hand back index internals.
        data = RecordSet([{1}, {1, 2}])
        join = ContainmentJoin(data, kernel="scalar")
        hits = join.containing_records((1,))
        hits.append(999)
        assert join.containing_records((1,)) == [0, 1]


class TestIntersectVectorPath:
    def test_ndarray_fast_path_matches_galloping(self):
        rng = random.Random(33)
        for _trial in range(20):
            a = sorted(rng.sample(range(400), rng.randrange(
                INTERSECT_VECTOR_MIN, 80)))
            b = sorted(rng.sample(range(400), rng.randrange(
                INTERSECT_VECTOR_MIN, 80)))
            expected = _intersect_sorted(a, b)
            got = _intersect_sorted(
                np.asarray(a, dtype=np.int32),
                np.asarray(b, dtype=np.int32),
            )
            assert list(got) == expected

    def test_short_ndarrays_use_scalar_loop(self):
        a = np.asarray([1, 5], dtype=np.int32)
        b = np.asarray([5, 9], dtype=np.int32)
        assert list(_intersect_sorted(a, b)) == [5]


class TestJoinSkyKernels:
    @pytest.mark.parametrize("kernel", ["scalar", "vector", "auto"])
    def test_skyline_identical_across_kernels(self, kernel):
        rng = random.Random(34)
        for _trial in range(6):
            n = rng.randrange(5, 50)
            g = erdos_renyi(n, rng.random(), seed=rng.randrange(10**6))
            expected = filter_refine_sky(g).skyline
            assert lc_join_sky(g, join_kernel=kernel).skyline == expected

    def test_power_law_graph(self):
        g = barabasi_albert(300, 3, seed=9)
        expected = filter_refine_sky(g).skyline
        for kernel in ("scalar", "auto"):
            assert lc_join_sky(g, join_kernel=kernel).skyline == expected

    def test_bad_kernel_surfaces_parameter_error(self):
        g = erdos_renyi(10, 0.4, seed=0)
        with pytest.raises(ParameterError):
            lc_join_sky(g, join_kernel="warp")
