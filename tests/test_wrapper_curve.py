"""Property tests pinning the wrapper-curve kernel to the reference BFD path.

The single-pass kernel (:mod:`repro.wrapper.curve`) must agree *exactly*
with the per-width reference implementation
(:func:`repro.wrapper.design_wrapper.design_wrapper` and its memoised
helpers) -- every scan-in/scan-out length, every staircase value, every
Pareto point, on every core.  The randomized cases here are
partly seeded draws and partly hypothesis strategies aimed at the
kernel's branches: equal chain lengths (tie-breaks), widths below, at and
above the chain count (LPT vs saturated), bidir-only cores and cores with
no inputs or no outputs, ``max_width`` above 64 (a wider packed-key shift),
curves grown in two steps, and the shared-memory export/seed round trip.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc.benchmarks import get_benchmark
from repro.soc.core import Core
from repro.wrapper.curve import (
    CURVE_TABLE_FIELDS,
    WrapperCurve,
    _CurveData,
    clear_curve_cache,
    curve_cache_info,
    export_curve_tables,
    seed_curve_table,
    wrapper_curve,
)

# The reference module object (the package re-exports a function under the
# same name, so plain attribute imports would shadow it).
import repro.wrapper.design_wrapper  # noqa: F401

reference = sys.modules["repro.wrapper.design_wrapper"]


def assert_curve_matches_reference(core: Core, max_width: int) -> None:
    """Pin every kernel quantity to the reference BFD design at each width."""
    curve = wrapper_curve(core, max_width)
    for width in range(1, max_width + 1):
        design = reference.design_wrapper(core, width)
        assert curve.raw_scan_lengths(width) == (
            design.scan_in_length,
            design.scan_out_length,
        ), f"{core.name}: raw scan lengths diverge at width {width}"
        assert curve.raw_time(width) == design.testing_time
        best = reference._best_width_upto(core, width)
        assert curve.best_width(width) == best
        assert curve.time(width) == reference._raw_testing_time(core, best)
        assert curve.scan_lengths(width) == reference._scan_lengths_cached(core, best)


def random_core(rng: random.Random, index: int) -> Core:
    """One random core: random scan-chain multiset and I/O counts."""
    while True:
        num_chains = rng.randint(0, 12)
        chains = tuple(rng.randint(1, 400) for _ in range(num_chains))
        inputs = rng.randint(0, 150)
        outputs = rng.randint(0, 150)
        bidirs = rng.randint(0, 80)
        if inputs + outputs + bidirs + num_chains == 0:
            continue
        return Core(
            name=f"random-{index}",
            inputs=inputs,
            outputs=outputs,
            bidirs=bidirs,
            patterns=rng.randint(1, 50),
            scan_chains=chains,
        )


class TestKernelEqualsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_cores_match_reference(self, seed):
        rng = random.Random(1000 + seed)
        for index in range(25):
            core = random_core(rng, index)
            max_width = rng.choice((1, 2, 3, 7, 17, 33, 64))
            assert_curve_matches_reference(core, max_width)

    def test_d695_cores_match_reference_across_full_staircase(self):
        soc = get_benchmark("d695")
        for core in soc.cores:
            assert_curve_matches_reference(core, 64)

    def test_combinational_core_matches_reference(self):
        core = Core.combinational("comb", inputs=23, outputs=9, patterns=11, bidirs=4)
        assert_curve_matches_reference(core, 40)

    def test_single_chain_core_matches_reference(self):
        core = Core("one", inputs=5, outputs=5, patterns=3, scan_chains=(100,))
        assert_curve_matches_reference(core, 16)

    def test_tie_break_heavy_core_matches_reference(self):
        # Many identical chains and cell counts that leave a remainder after
        # water-filling: the analytic distributor must reproduce the heap's
        # (secondary key, index) tie-break exactly.
        core = Core(
            "ties",
            inputs=7,
            outputs=7,
            bidirs=5,
            patterns=2,
            scan_chains=(50,) * 8 + (25,) * 4,
        )
        assert_curve_matches_reference(core, 64)


@st.composite
def kernel_cores(draw, inputs=None, outputs=None, bidirs=None):
    """A core whose chains come in a few repeated lengths (many ties)."""
    lengths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
    chains = tuple(
        length for length in lengths for _ in range(draw(st.integers(0, 6)))
    )
    cells = st.integers(0, 90)
    inputs = draw(cells) if inputs is None else inputs
    outputs = draw(cells) if outputs is None else outputs
    bidirs = draw(st.integers(0, 40)) if bidirs is None else bidirs
    if inputs + outputs + bidirs + len(chains) == 0:
        chains = (1,)
    return Core(
        name="kernel",
        inputs=inputs,
        outputs=outputs,
        bidirs=bidirs,
        patterns=draw(st.integers(1, 40)),
        scan_chains=chains,
    )


def table(core: Core, *widths: int):
    """The per-core arrays after extending a fresh store to each width."""
    data = _CurveData(core)
    for width in widths:
        data.extend(width)
    return {name: list(getattr(data, name)) for name in CURVE_TABLE_FIELDS}


class TestKernelProperties:
    @given(core=kernel_cores(), extra=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_widths_below_at_and_above_chain_count(self, core, extra):
        assert_curve_matches_reference(core, len(core.scan_chains) + extra + 1)

    @given(core=kernel_cores(bidirs=0), extra=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_cores_without_bidir_cells(self, core, extra):
        assert_curve_matches_reference(core, len(core.scan_chains) + extra + 1)

    @given(
        core=st.one_of(
            kernel_cores(inputs=0, outputs=0),
            kernel_cores(inputs=0),
            kernel_cores(outputs=0),
            kernel_cores(inputs=0, bidirs=0),
            kernel_cores(outputs=0, bidirs=0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bidir_only_and_one_sided_cores(self, core):
        assert_curve_matches_reference(core, len(core.scan_chains) + 4)

    @given(core=kernel_cores(), max_width=st.integers(65, 140))
    @settings(max_examples=15, deadline=None)
    def test_max_width_above_64(self, core, max_width):
        assert_curve_matches_reference(core, max_width)

    @given(core=kernel_cores())
    @settings(max_examples=60, deadline=None)
    def test_extending_32_to_64_equals_a_fresh_build(self, core):
        assert table(core, 32, 64) == table(core, 64)

    @given(cores=st.lists(kernel_cores(), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_export_seed_round_trip(self, cores):
        clear_curve_cache()
        try:
            for index, core in enumerate(cores):
                wrapper_curve(core, (32, 64)[index % 2])
            exported = [
                (core, [field.tobytes() for field in fields])
                for core, fields in export_curve_tables()
            ]
            clear_curve_cache()
            for core, fields in exported:
                assert seed_curve_table(core, fields)
            assert [
                (core, [field.tobytes() for field in fields])
                for core, fields in export_curve_tables()
            ] == exported
            # A seeded table extends exactly like a freshly built one.
            for core in cores:
                wrapper_curve(core, 80)
            for core, fields in export_curve_tables():
                assert {
                    name: list(field) for name, field in zip(CURVE_TABLE_FIELDS, fields)
                } == table(core, 80)
        finally:
            clear_curve_cache()


class TestWrapperCurveApi:
    @pytest.fixture
    def core(self):
        return Core("c", inputs=12, outputs=20, patterns=15, scan_chains=(14, 10, 8, 8, 4))

    def test_times_is_the_non_increasing_staircase(self, core):
        curve = wrapper_curve(core, 64)
        times = curve.times
        assert len(times) == 64
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_pareto_widths_are_the_strict_steps(self, core):
        curve = wrapper_curve(core, 64)
        times = curve.times
        expected = [1] + [
            w for w in range(2, 65) if times[w - 1] < times[w - 2]
        ]
        assert list(curve.pareto_widths) == expected

    def test_effective_width_binary_search_matches_linear_scan(self, core):
        curve = wrapper_curve(core, 64)
        widths = list(curve.pareto_widths)
        for query in range(1, 80):
            expected = max((w for w in widths if w <= query), default=widths[0])
            assert curve.effective_width(query) == expected

    def test_first_width_within_matches_linear_scan(self, core):
        curve = wrapper_curve(core, 64)
        times = curve.times
        for percent in (0, 1, 5, 10, 25, 50):
            target = (1 + percent / 100) * times[-1]
            expected = next(w for w in range(1, 65) if times[w - 1] <= target)
            assert curve.first_width_within(target) == expected

    def test_invalid_widths_raise(self, core):
        curve = wrapper_curve(core, 8)
        with pytest.raises(ValueError):
            curve.time(0)
        with pytest.raises(ValueError):
            curve.time(9)
        with pytest.raises(ValueError):
            curve.effective_width(0)
        with pytest.raises(ValueError):
            wrapper_curve(core, 0)

    def test_min_area_over_pareto_points(self, core):
        curve = wrapper_curve(core, 64)
        assert curve.min_area == min(p.area for p in curve.pareto_points())

    def test_pareto_points_are_memoised(self, core):
        curve = wrapper_curve(core, 64)
        assert curve.pareto_points() is curve.pareto_points()


class TestCurveCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_curve_cache()
        yield
        clear_curve_cache()

    def test_views_are_cached(self):
        core = Core("c", inputs=3, outputs=3, patterns=2, scan_chains=(9, 5))
        first = wrapper_curve(core, 16)
        second = wrapper_curve(core, 16)
        assert first is second
        info = curve_cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_wider_request_grows_instead_of_recomputing(self):
        core = Core("c", inputs=3, outputs=3, patterns=2, scan_chains=(9, 5))
        narrow = wrapper_curve(core, 8)
        wide = wrapper_curve(core, 32)
        assert curve_cache_info().cores == 1
        assert curve_cache_info().widths_computed == 32
        assert wide.times[:8] == narrow.times
        # The narrower view still answers correctly after the growth.
        assert narrow.max_width == 8
        assert narrow.effective_width(100) <= 8

    def test_clear_resets_statistics(self):
        core = Core("c", inputs=3, outputs=3, patterns=2, scan_chains=(9, 5))
        wrapper_curve(core, 8)
        clear_curve_cache()
        info = curve_cache_info()
        assert (info.hits, info.misses, info.cores, info.widths_computed) == (0, 0, 0, 0)

    def test_isinstance_of_wrapper_curve(self):
        core = Core("c", inputs=1, outputs=1, patterns=1)
        assert isinstance(wrapper_curve(core, 4), WrapperCurve)
