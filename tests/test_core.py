"""Core quadrature, inversion, and builtin-density tests.

Derived expected values are produced by independent oracles (recursions,
fixed-point iterations, finite differences) rather than by the code paths
under test.
"""

import bisect
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entroscope import core, transforms
from entroscope.core import (
    Density,
    Support,
    builtin,
    integrate,
    invert_monotone,
    parse_density,
    quantiles,
    reflect,
    rescale,
    translate,
)
from entroscope.errors import (
    DivergentIntegral,
    EdgeIllConditioned,
    EntroscopeError,
    InvalidParams,
    NonConvergent,
    NotMonotone,
    TargetOutOfRange,
    UnknownDensity,
)
from entroscope.transforms import down, up


# ----------------------------------------------------------------- oracles
def gamma_int_oracle(n: int) -> float:
    """Gamma(n) for integer n via the factorial recursion."""
    out = 1.0
    for k in range(1, n):
        out *= k
    return out


def fixed_point_oracle():
    """Solve x + sin x = 1 by iterating x <- 1 - sin x."""
    x = 0.5
    for _ in range(500):
        x = 1.0 - math.sin(x)
    return x


def _one_call_per_level(g, edge_map, half, tol, min_scale, record=None):
    """The tanh-sinh rule of `core._tanh_sinh` with one call to g per level
    and the midpoint in a scalar call before level 0: the same nodes, reach
    caps, side sums and tests, level by level, in plain numpy.  A side
    takes the live nodes at most one chunk past where it stopped at the
    level before, adds its chunks' sums (each in turn) in turn, and stops
    after its first chunk whose largest |term| is below eps times
    max(|running sum|, largest |term| so far).  Returns a QuadResult or
    raises as integrate does, naming the heuristic.  Each level appends
    its sides' (terms taken under the reach cap, terms used) to `record`,
    if given."""
    s, h, estimates, last_edge, reach = 0.0, 1.0, [], [], [math.inf, math.inf]
    for level in range(core._MAX_LEVEL + 1):
        ts, dfrac, weight = core._level_nodes(level)
        total, edge_terms, sides_record = 0.0, [], []
        with np.errstate(all="ignore"):
            if level == 0:
                x, jac = edge_map(half, True)
                v0 = g(x)
                for q in jac:
                    v0 = v0 / q
                v0 = float(v0)
                if math.isinf(v0):
                    raise DivergentIntegral("midpoint", heuristic="midpoint")
                total += half * core._PI_2 * (0.0 if math.isnan(v0) else v0)
            caps = [bisect.bisect_right(ts, r) + core._CHUNK for r in reach]
            n = min(len(ts), max(caps))
            w = half * weight[:n]
            deltas = half * dfrac[:n]
            live = int(np.count_nonzero((w > 0.0) & (deltas > 0.0)))
            counts = [min(c, live) for c in caps]
            vs = np.zeros(0)
            sides = [edge_map(deltas[:c], upper) for c, upper in zip(counts, (True, False))]
            if sum(counts):
                vs = np.asarray(g(np.concatenate([x for x, _ in sides])), dtype=float)
                vs = np.broadcast_to(vs, (sum(counts),))
            for side, (c, (_, jac)) in enumerate(zip(counts, sides)):
                v, vs = vs[:c], vs[c:]
                for q in jac:
                    v = v / q
                terms = v * w[:c]
                bad = ~np.isfinite(terms)
                terms = np.where(bad, 0.0, terms)
                chunks = np.zeros(-(-c // core._CHUNK) * core._CHUNK)
                chunks[:c] = terms
                chunks = chunks.reshape(-1, core._CHUNK)
                used = 0
                if c:
                    running = np.add.accumulate(np.add.accumulate(chunks, axis=1)[:, -1])
                    peaks = np.abs(chunks).max(axis=1)
                    largest = np.maximum.accumulate(peaks)
                    stop = peaks < core._TRUNC_EPS * np.maximum(np.abs(running), largest)
                    j = int(stop.argmax()) if stop.any() else len(stop) - 1
                    used = min(c, (j + 1) * core._CHUNK)
                    total += float(running[j])
                sides_record.append((c, used))
                if np.isinf(v[:used][bad[:used]]).any():
                    raise DivergentIntegral("weights", heuristic="weights")
                if used:
                    reach[side] = ts[used - 1]
                    first = max(used - 3, (used - 1) // core._CHUNK * core._CHUNK)
                    last3 = np.abs(terms[first:used]).tolist()
                    if not edge_terms or max(last3) > max(edge_terms):
                        edge_terms = last3
        if record is not None:
            record.append(sides_record)
        s += total
        est = h * s
        last_edge = edge_terms or last_edge
        estimates.append(est)
        if abs(est) > core._HUGE:
            raise DivergentIntegral("overflow", heuristic="overflow")
        if level >= 2:
            err = abs(estimates[-1] - estimates[-2])
            scale = max(min_scale, abs(est)) or 1.0
            if err <= tol * scale:
                if last_edge and max(last_edge) > 1e3 * tol * scale and last_edge == sorted(last_edge):
                    raise DivergentIntegral("edge", heuristic="edge")
                return core.QuadResult(est, err, 0)
        h *= 0.5
    err = abs(estimates[-1] - estimates[-2])
    scale = max(1.0, abs(estimates[-1]))
    if err > 1e-6 * scale:
        d1, d2, d3 = (abs(estimates[i] - estimates[i - 1]) for i in (-1, -2, -3))
        if d3 > 0 and d2 > 0 and d1 / d3 > 0.5 and d1 / d2 > 0.7:
            raise DivergentIntegral("logarithmic", heuristic="increments")
        if abs(estimates[-1]) > abs(estimates[-2]) >= abs(estimates[-3]) and d1 >= d2:
            raise DivergentIntegral("growing", heuristic="growth")
        if last_edge and last_edge == sorted(last_edge) and max(last_edge) > err:
            raise DivergentIntegral("edge", heuristic="edge")
    raise NonConvergent("last level", core.QuadResult(estimates[-1], err, 0), heuristic="tolerance")


def _reference_map(g, support):
    """(g, edge_map, half) of the tanh-sinh rule on `support`, (0, b) or
    (b, inf), as integrate sets them up: on (b, inf) the map x = b + L t/(1 -
    t), L a power of two, and g scaled by L where L != 1."""
    if math.isfinite(support.upper):
        a, b = support.lower, support.upper
        return g, (lambda d, upper: ((b - d if upper else a + d), ())), 0.5 * (b - a)
    b = support.lower
    L = math.ldexp(1.0, math.frexp(max(1.0, b))[1] - 1)
    ref_g = (lambda y: g(b + L * y) * L) if L != 1.0 else g
    a = 0.0 if L != 1.0 else b

    def edge_map(d, upper):
        if upper:
            return a + (1.0 - d) / d, (d, d)
        return a + d / (1.0 - d), ((1.0 - d) ** 2,)

    return ref_g, edge_map, 0.5


def _first_call_size(half):
    """The midpoint and the live nodes of levels 0-4 on both sides."""
    live = 0
    for level in range(core._FIRST_LEVELS):
        _, dfrac, weight = core._level_nodes(level)
        live += int(np.count_nonzero((half * weight > 0.0) & (half * dfrac > 0.0)))
    return 1 + 2 * live


def _chunk_loop(terms):
    """(terms used, their sum) of one side: each chunk of 8 sums in turn,
    the running sum adds the chunks in turn, and the side stops after its
    first chunk whose largest |term| is below eps max(|running sum|,
    largest |term| so far)."""
    running, largest = 0.0, 0.0
    for c0 in range(0, len(terms), core._CHUNK):
        chunk = terms[c0 : c0 + core._CHUNK].tolist()
        part = chunk[0]
        for t in chunk[1:]:
            part += t
        running = part if c0 == 0 else running + part
        peak = max(map(abs, chunk))
        largest = max(largest, peak)
        if peak < core._TRUNC_EPS * max(abs(running), largest):
            return min(len(terms), c0 + core._CHUNK), running
    return len(terms), running


def _scan_of(term_rows, value_rows):
    """`core._scan` of one call's terms and values, given per side and
    level (term_rows[side][level])."""
    counts = tuple(tuple(len(t) for t in side) for side in term_rows)
    row = core._CHUNK * max(1, max(-(-n // core._CHUNK) for side in counts for n in side))
    dest = np.concatenate([np.arange(n) + k * row for k, n in enumerate(counts[0] + counts[1])])
    flat = lambda rows: np.concatenate([np.asarray(t, dtype=float) for side in rows for t in side])
    return core._scan(flat(term_rows), flat(value_rows), counts, dest, (2, len(counts[0]), row))


# --------------------------------------------------------------- integrate
class TestIntegrate:
    def test_exponential(self):
        r = integrate(lambda x: np.exp(-np.asarray(x)), Support(0.0, math.inf), tol=1e-12)
        assert abs(r.value - 1.0) < 1e-12

    def test_endpoint_singularity(self):
        r = integrate(lambda x: np.asarray(x) ** -0.5, Support(0.0, 1.0), tol=1e-11)
        assert abs(r.value - 2.0) < 1e-10

    def test_gamma3(self):
        expected = gamma_int_oracle(3)  # = 2
        r = integrate(lambda x: np.asarray(x) ** 2 * np.exp(-np.asarray(x)), Support(0.0, math.inf))
        assert abs(r.value - expected) < 1e-10

    def test_gaussian_full_line(self):
        c = 1.0 / math.sqrt(2 * math.pi)
        r = integrate(lambda x: c * np.exp(-np.asarray(x) ** 2 / 2), Support(-math.inf, math.inf))
        assert abs(r.value - 1.0) < 1e-10

    def test_divergent_constant_tail(self):
        # 1 on (0, inf) is inf at the mapped upper edge already at level 0
        with pytest.raises(DivergentIntegral) as info:
            integrate(lambda x: np.ones_like(np.asarray(x, dtype=float)), Support(0.0, math.inf))
        assert info.value.heuristic == "weights"
        assert info.value.interval == (0.0, math.inf)
        assert info.value.estimates == ()
        assert str(info.value) == "integrand grows faster than the node weights decay on (0.0, inf)"

    def test_divergent_endpoint(self):
        with pytest.raises(DivergentIntegral) as info:
            integrate(lambda x: 1.0 / np.asarray(x), Support(0.0, 1.0))
        assert info.value.heuristic == "edge"
        assert info.value.interval == (0.0, 1.0)
        # the estimates settle near ln(1/d) at the least node distance d the
        # rule reaches, ~710, while the edge terms rise toward the edge
        estimates = info.value.estimates
        assert len(estimates) == core._MAX_LEVEL + 1
        assert 700.0 < estimates[-1] < 720.0
        assert str(info.value) == "partial sums grow without bound under endpoint refinement on (0.0, 1.0)"

    def test_divergent_log_tail(self):
        with pytest.raises(DivergentIntegral) as info:
            integrate(lambda x: 1.0 / (1.0 + np.asarray(x)), Support(0.0, math.inf))
        assert info.value.heuristic == "edge"
        assert info.value.interval == (0.0, math.inf)
        assert len(info.value.estimates) == core._MAX_LEVEL + 1
        assert str(info.value) == "partial sums grow without bound under endpoint refinement on (0.0, inf)"

    def test_interior_split_point(self):
        r = integrate(
            lambda x: np.abs(np.asarray(x)) ** -0.5,
            Support(-1.0, 1.0),
            tol=1e-11,
            points=(0.0,),
        )
        assert abs(r.value - 4.0) < 1e-9

    def test_error_estimate_fields(self):
        r = integrate(lambda x: np.exp(-np.asarray(x)), Support(0.0, math.inf))
        assert r.error_estimate >= 0
        assert r.evaluations > 0

    def test_mass_beyond_an_underflowed_midpoint(self):
        # the integrand is exactly 0 around the midpoint: each side must
        # still expand until it reaches the mass at the endpoint
        r = integrate(lambda x: np.exp(-np.asarray(x) ** 2), Support(0.0, 100.0))
        assert r.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14, abs=0.0)
        r = integrate(lambda x: np.exp(-np.asarray(x)), Support(700.0, 1200.0), min_scale=0.0)
        assert r.value == pytest.approx(math.exp(-700.0) - math.exp(-1200.0), rel=1e-13, abs=0.0)

    def test_nonconvergent_carries_result(self):
        # a 1e-12 ripple keeps the level-to-level error near 2e-14
        def g(x):
            x = np.asarray(x)
            return np.exp(-x) * (1.0 + 1e-12 * np.sin(1e7 * x))

        with pytest.raises(NonConvergent) as info:
            integrate(g, Support(0.0, math.inf), tol=1e-15)
        r = info.value.result
        assert r.value == 1.0000000000000018
        assert r.error_estimate == pytest.approx(2.44e-14, rel=1e-2, abs=0.0)
        assert r.evaluations == 4743
        assert info.value.heuristic == "tolerance"
        assert info.value.interval == (0.0, math.inf)
        assert len(info.value.estimates) == core._MAX_LEVEL + 1
        assert info.value.estimates[-1] == r.value

    def test_raising_integrand_called_once_on_an_array(self):
        # an exception from an array call propagates; the chunk is not
        # evaluated again point by point
        array_calls = []

        def g(x):
            if np.ndim(x):
                array_calls.append(len(x))
                raise ValueError("no arrays")
            return math.exp(-x)

        with pytest.raises(ValueError):
            integrate(g, Support(0.0, 1.0))
        assert len(array_calls) == 1

    def test_constant_integrand(self):
        assert integrate(lambda x: 2.0, Support(0.0, 3.0)).value == pytest.approx(6.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "g, support",
        [
            (lambda x: np.exp(-np.asarray(x)), Support(0.0, math.inf)),
            (lambda x: np.asarray(x) ** -0.5, Support(0.0, 1.0)),
            # e^{100 x}: the lower side stops after a chunk or two, so the
            # reach caps bind on it at the next levels
            (lambda x: np.exp(100.0 * np.asarray(x)), Support(0.0, 1.0)),
        ],
        ids=["exp", "inverse_sqrt", "steep"],
    )
    def test_one_array_call_per_level(self, g, support):
        # the first call holds the midpoint and the live nodes of levels 0-4
        # on both sides; each later level makes one call of its own, on the
        # nodes the reference rule takes there, which uses a side at most
        # one chunk of nodes past where it stopped at the level before
        shapes = []

        def counted(x):
            shapes.append(np.shape(x))
            return g(x)

        integrate(counted, support)
        ref_g, edge_map, half = _reference_map(g, support)
        assert shapes[0] == (_first_call_size(half),)
        record = []
        _one_call_per_level(ref_g, edge_map, half, 1e-10, 1.0, record)
        assert len(record) >= 3
        assert len(shapes) == 1 + max(0, len(record) - core._FIRST_LEVELS)
        for shape, sides in zip(shapes[1:], record[core._FIRST_LEVELS :]):
            assert shape == (sum(taken for taken, _ in sides),)
        for level, sides in enumerate(record[1:], start=1):
            ts, before = core._level_nodes(level)[0], core._level_nodes(level - 1)[0]
            for (taken, _), (_, used) in zip(sides, record[level - 1]):
                stopped = before[used - 1]
                assert sum(t > stopped for t in ts[:taken]) <= core._CHUNK

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["finite", "upper_inf", "steep"]),
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=-1.2, max_value=3.0),
        st.floats(min_value=-4.0, max_value=4.0),
        st.sampled_from([1e-6, 1e-10, 1e-13]),
        st.sampled_from([0.0, 1.0]),
    )
    @example("steep", 1.0, 0.0, 4.0, 1e-10, 1.0)  # e^{100 x} on (0, 1)
    @example("steep", 1.0, 0.0, -4.0, 1e-13, 0.0)  # e^{-100 x} on (0, 1)
    # (0, 1e-300): the half-width underflows the outer nodes of every level
    @example("finite", 1e-300, 0.0, 0.0, 1e-10, 0.0)
    @example("finite", 1e-300, -0.5, 0.0, 1e-10, 0.0)
    def test_integrate_equals_one_call_per_level(self, kind, b, p, k, tol, min_scale):
        # integrate, with levels 0-4 evaluated in one call, against the
        # level-by-level rule with one call per level (the midpoint in a
        # scalar call first), kept here as the reference: the same value and
        # error to the bit, or the same error class and heuristic; on (0, b)
        # and (b, inf) for x^p e^{kx} (e^{-|k| x} on (b, inf)), which may
        # diverge at 0.  "steep" is x^p e^{25 k x / b} on (0, b): up to
        # e^{+-100} across the interval, so one side stops after a chunk at
        # one level and the reach cap binds at the next.  The evaluations
        # are those of the first call and of the nodes the reference takes
        # from level 5 on
        k = {"finite": k, "upper_inf": -abs(k) - 0.05, "steep": 25.0 * k / b}[kind]

        def g(x):
            x = np.asarray(x, dtype=float)
            return x**p * np.exp(k * x)

        support = Support(b, math.inf) if kind == "upper_inf" else Support(0.0, b)
        ref_g, edge_map, half = _reference_map(g, support)

        def outcome(run):
            try:
                r = run()
            except (DivergentIntegral, NonConvergent) as exc:
                return type(exc).__name__, exc.heuristic
            return r.value.hex(), r.error_estimate.hex()

        record = []
        got = outcome(lambda: integrate(g, support, tol=tol, min_scale=min_scale))
        ref = outcome(lambda: _one_call_per_level(ref_g, edge_map, half, tol, min_scale, record))
        assert got == ref
        if not isinstance(ref[1], str) or ref[0].startswith(("-", "0x")):
            later = sum(taken for sides in record[core._FIRST_LEVELS :] for taken, _ in sides)
            assert integrate(g, support, tol=tol, min_scale=min_scale).evaluations == _first_call_size(half) + later

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.05, max_value=5.0),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([0.0, 1.0, -3.0]),
    )
    def test_side_sum_matches_the_chunk_loop(self, n, zeros, decay, seed, total):
        # the vectorized truncation against the loop it replaced: one side
        # of one level, on either side, with no reach cap; `total` is added
        # to the side's sum and takes no part in where the side stops
        rng = np.random.default_rng(seed)
        terms = rng.standard_normal(n) * np.exp(-decay * np.arange(n) ** 1.5)
        terms[: min(zeros, n)] = 0.0  # an integrand underflowed near the midpoint
        used, side_sum = _chunk_loop(terms)
        ts = tuple(float(j) for j in range(1, n + 1))
        for side in (0, 1):
            rows = [[np.empty(0)], [np.empty(0)]]
            rows[side] = [terms]
            got, got_used, inf = core._level_sum(_scan_of(rows, rows), 0, ts, [math.inf, math.inf], total)
            assert got_used == [used if s == side else 0 for s in (0, 1)]
            assert got.hex() == (total + side_sum).hex()
            assert not inf

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=-40, max_value=8)),
            max_size=90,
        ),
        st.sampled_from([0.0, -0.0, 1.0, -3.5, 1e-20, 7e8]),
        st.integers(min_value=0, max_value=100),
    )
    # a chunk of -0.0, full or completed by the table's zero padding, sums
    # to +0.0: np.add.reduce starts from its identity
    @example(mantissas=[(-0.0, 0)], total=-0.0, other=0)
    @example(mantissas=[(-0.0, 0)] * 8, total=-0.0, other=0)
    @example(mantissas=[(-0.0, 0)] * 11, total=-0.0, other=40)
    def test_side_sum_bit_identical_to_numpy(self, mantissas, total, other):
        # the side sums of the vectorized pass (`_scan`, over a table whose
        # rows the other side's `other` terms may make longer) and
        # `_level_sum`, against a plain numpy form of each side: the
        # zero-padded chunks sum in turn from +0.0, np.add.accumulate
        # across chunks, and the side stops at its first chunk whose peak
        # is below eps max(|running sum|, largest peak so far); bit for bit
        def numpy_side_sum(terms):
            n = len(terms)
            chunks = np.zeros((-(-n // core._CHUNK), core._CHUNK))
            chunks.flat[:n] = terms
            sums = np.zeros(len(chunks))
            for j in range(core._CHUNK):
                sums = sums + chunks[:, j]
            running = np.add.accumulate(sums)
            peaks = np.abs(chunks).max(axis=1)
            stop = peaks < core._TRUNC_EPS * np.maximum(np.abs(running), np.maximum.accumulate(peaks))
            c = int(stop.argmax()) if stop.any() else len(stop) - 1
            return min(n, (c + 1) * core._CHUNK), float(running[c])

        terms = np.array([m * 10.0**e for m, e in mantissas], dtype=float)
        filler = 0.5 ** np.arange(other)
        ts = tuple(float(j) for j in range(1, max(len(terms), other) + 1))
        for rows in ([[terms], [filler]], [[filler], [terms]]):
            got, got_used, inf = core._level_sum(_scan_of(rows, rows), 0, ts, [math.inf, math.inf], total)
            expected, expected_used = total, []
            for (side_terms,) in rows:
                used, side_sum = numpy_side_sum(side_terms) if len(side_terms) else (0, 0.0)
                expected_used.append(used)
                if used:
                    expected += side_sum
            assert got_used == expected_used
            assert got.hex() == expected.hex()
            assert not inf

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=60),
                st.integers(min_value=0, max_value=20),
                st.floats(min_value=0.05, max_value=5.0),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_level_sum_matches_the_chunk_loop(self, levels, seed):
        # the vectorized pass over a call's terms (`_scan`, several levels
        # and both sides in one table) and the reach caps of `_level_sum`,
        # against the chunk loop on each side's first k terms, for every
        # cap k from one chunk on, bit for bit
        rng = np.random.default_rng(seed)
        rows = [[], []]
        for side in rows:
            for n, zeros, decay in levels:
                terms = rng.standard_normal(n) * np.exp(-decay * np.arange(n) ** 1.5)
                terms[: min(zeros, n)] = 0.0  # an integrand underflowed near the midpoint
                side.append(terms)
        scan = _scan_of(rows, rows)
        for i, (n, _, _) in enumerate(levels):
            ts = tuple(float(j) for j in range(1, n + 1))
            for k in range(core._CHUNK, n + 2 * core._CHUNK):
                caps = (k, n + 3 * core._CHUNK - k)  # one for each side
                total, used, inf = core._level_sum(scan, i, ts, [c - core._CHUNK + 0.5 for c in caps], 0.0)
                expected = [_chunk_loop(rows[side][i][:cap]) for side, cap in enumerate(caps)]
                assert used == [u for u, _ in expected]
                assert total.hex() == ((0.0 + expected[0][1]) + expected[1][1]).hex()
                assert not inf

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=-40, max_value=8)).map(
                    lambda me: me[0] * 10.0 ** me[1]
                ),
                st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
            ),
            min_size=1,
            max_size=30,
        ),
        # 3e300 makes a term overflow to inf where its value is finite
        st.sampled_from([1.0, 0.37, 3e300]),
    )
    # chunks of -0.0, whole and cut short by a reach cap
    @example(values=[-0.0] * 11, weight=1.0)
    # nan terms are zeroed; an inf value raises only inside the used prefix
    @example(values=[1.0, math.nan, 0.5] + [1e-30] * 8 + [math.inf, 2.0], weight=1.0)
    @example(values=[1.0, 2.0, -math.inf, 0.5] + [0.0] * 9, weight=0.37)
    def test_level_sum_of_non_finite_terms(self, values, weight):
        # terms that are not finite are 0 in the sums, and an inf value is
        # flagged only where it lies among the terms used; the level sits
        # between two others on both sides (the lower side reversed), so
        # the table's offsets are exercised too
        v = np.array(values, dtype=float)
        L = len(v)
        fill = [np.full(5, 0.25), np.full(2, 0.125)]
        value_rows = [[fill[0], v, fill[1]], [fill[0], v[::-1], fill[1]]]
        with np.errstate(all="ignore"):  # as in the calls of _tanh_sinh
            term_rows = [[r[0], weight * r[1], r[2]] for r in value_rows]
            scan = _scan_of(term_rows, value_rows)
        zeroed = [np.where(np.isfinite(r[1]), r[1], 0.0) for r in term_rows]
        ts = tuple(float(j) for j in range(1, L + 1))
        for k in range(core._CHUNK, L + 2 * core._CHUNK):
            total, used, inf = core._level_sum(scan, 1, ts, [k - core._CHUNK + 0.5] * 2, 0.0)
            expected = [_chunk_loop(z[:k]) for z in zeroed]
            assert used == [u for u, _ in expected]
            assert total == (0.0 + expected[0][1]) + expected[1][1]
            assert inf == any(np.isinf(r[1][:u]).any() for r, u in zip(value_rows, used))

    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(min_value=-0.9, max_value=3.0),
        st.floats(min_value=0.05, max_value=4.0),
        st.sampled_from([1e-6, 1e-10, 1e-13]),
        st.one_of(st.just(math.inf), st.floats(min_value=0.1, max_value=40.0)),
    )
    def test_error_estimate_bounds_the_error(self, p, k, tol, b):
        # the reported error is a real bound: |value - exact| stays within
        # error_estimate + 8 ulp(exact) for x^p e^{-kx} on (0, b) and on
        # (0, inf), against Gamma(p+1)/k^{p+1} and the lower incomplete
        # Gamma function at 40 digits
        with mpmath.workdps(40):
            scale = mpmath.mpf(k) ** (p + 1)
            exact = float((mpmath.gamma(p + 1) if math.isinf(b) else mpmath.gammainc(p + 1, 0, k * b)) / scale)
        r = integrate(lambda x: np.asarray(x) ** p * np.exp(-k * np.asarray(x)), Support(0.0, b), tol=tol)
        assert abs(r.value - exact) <= r.error_estimate + 8 * math.ulp(exact)

    def test_far_tail_map_follows_the_interval(self):
        # (a, inf) is mapped by x = a + L t/(1-t) with L on the scale of a,
        # so an interval far out takes a few hundred nodes at most
        r = integrate(lambda x: 2 * x**-2, Support(1e89, math.inf), tol=1e-13, min_scale=0.0)
        assert r.value == pytest.approx(2e-89, rel=1e-13, abs=0.0)
        assert r.evaluations <= 200


# --------------------------------------------------------- invert_monotone
class TestInvertMonotone:
    def test_cube_root(self):
        x = invert_monotone(lambda t: t**3, 8.0, (0.0, 3.0), tol=1e-14)
        assert abs(x - 2.0) < 1e-12

    def test_identity_point(self):
        x = invert_monotone(lambda t: math.exp(-t), 1.0, (-1.0, 1.0), tol=1e-14)
        assert abs(x) < 1e-12

    def test_x_plus_sin(self):
        expected = fixed_point_oracle()
        x = invert_monotone(lambda t: t + math.sin(t), 1.0, (0.0, 2.0), tol=1e-14)
        assert abs(x - expected) < 1e-10

    def test_newton_branch(self):
        x = invert_monotone(lambda t: t**3, 8.0, (0.0, 3.0), tol=1e-14, dg=lambda t: 3 * t**2)
        assert abs(x - 2.0) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            invert_monotone(lambda t: t, 5.0, (0.0, 1.0))

    def test_not_monotone_detected(self):
        with pytest.raises(NotMonotone):
            invert_monotone(lambda t: math.sin(3 * t), 0.4, (0.0, 2.6))

    def test_invert_level_without_inverter(self):
        # f = 2 (1 - x) on (0, 1) carries no level inverter: invert_monotone
        # solves f(x) = y, whose root is 1 - y/2
        f = Density(
            support=Support(0.0, 1.0),
            value=lambda x: 2.0 * (1.0 - np.asarray(x, dtype=float)),
            derivative=lambda x: np.full_like(np.asarray(x, dtype=float), -2.0),
            monotone_decreasing=True,
        )
        for y in (0.1, 0.7, 1.3, 1.9):
            assert f.invert_level(y) == pytest.approx(1.0 - y / 2.0, rel=1e-13, abs=0.0)

    def test_invert_level_without_inverter_needs_a_bounded_support(self):
        f = Density(
            support=Support(0.0, math.inf),
            value=lambda x: np.exp(-np.asarray(x, dtype=float)),
            monotone_decreasing=True,
        )
        with pytest.raises(EdgeIllConditioned):
            f.invert_level(0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.98))
    def test_roundtrip_random_levels(self, u):
        for g, dg, lo, hi in [
            (lambda t: t**3 + t, lambda t: 3 * t**2 + 1, -2.0, 2.0),
            (lambda t: math.exp(-t), lambda t: -math.exp(-t), 0.0, 5.0),
        ]:
            x_true = lo + u * (hi - lo)
            x = invert_monotone(g, g(x_true), (lo, hi), tol=1e-13, dg=dg)
            assert abs(x - x_true) < 1e-9 * max(1, abs(x_true))


# ------------------------------------------------------------------ builtins
class TestBuiltins:
    @pytest.mark.parametrize(
        "spec",
        [
            "exp:rate=1",
            "exp:rate=0.5",
            "halfgauss:sigma=1",
            "gauss:sigma=1",
            "pareto:eta=3,xmin=1",
            "powerlaw:a=-0.5",
            "uniform:a=0,b=1",
            "gg:p=2,lambda=1",
            "gg:p=2,lambda=2",
            "exp",
            "gg",
            "gg:p=3,lambda=1.5,mode=paper",
        ],
    )
    def test_normalized(self, spec):
        f = parse_density(spec)
        pts = (0.0,) if f.support.contains(0.0) else ()
        r = integrate(f.value, f.support, tol=1e-11, points=pts)
        assert abs(r.value - f.mass) < 1e-8

    def test_exp_value(self):
        f = builtin("exp", {"rate": 1})
        assert abs(f(1.0) - math.exp(-1)) < 1e-15

    def test_pareto_formulas(self):
        f = builtin("pareto", {"eta": 3, "xmin": 1})
        assert abs(f(1.5) - 2 * 1.5**-3) < 1e-14
        assert abs(f.d(1.5) - (-6 * 1.5**-4)) < 1e-14

    def test_pareto_invalid_eta(self):
        with pytest.raises(InvalidParams):
            builtin("pareto", {"eta": 1.0})

    def test_unknown_name(self):
        with pytest.raises(UnknownDensity):
            builtin("cauchy", {})

    def test_unknown_key(self):
        with pytest.raises(InvalidParams):
            parse_density("exp:rate=1,scale=2")
        # a non-numeric value is invalid too, given directly or parsed
        with pytest.raises(InvalidParams):
            builtin("exp", {"rate": "abc"})
        with pytest.raises(InvalidParams):
            parse_density("exp:rate=abc")

    def test_case_insensitive(self):
        f = parse_density("EXP:Rate=2")
        assert abs(f(0.0) - 2.0) < 1e-15

    @pytest.mark.parametrize(
        "spec",
        ["exp:rate=1", "halfgauss:sigma=2", "pareto:eta=3,xmin=1", "powerlaw:a=-0.5"],
    )
    def test_derivative_matches_finite_differences(self, spec):
        f = parse_density(spec)
        qs = quantiles(f, np.linspace(0.02, 0.98, 50))
        for x in qs:
            h = 6e-6 * abs(x)  # cbrt(eps)-scaled relative step
            fd = (f(x + h) - f(x - h)) / (2 * h)
            an = f.d(x)
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))

    def test_monotone_flags(self):
        assert builtin("exp", {}).monotone_decreasing
        assert not builtin("gauss", {}).monotone_decreasing
        assert builtin("powerlaw", {"a": 0.5}).monotone_increasing

    def test_level_inversion(self):
        f = builtin("halfgauss", {"sigma": 1})
        y = f(0.7)
        assert abs(f.invert_level(y) - 0.7) < 1e-10

    @pytest.mark.parametrize(
        "name, params, y",
        [
            ("exp", {}, 0.0),  # not a positive level
            ("halfgauss", {}, 1.0),  # above sup f = sqrt(2/pi)
            ("pareto", {"eta": 3}, -1.0),  # the closed form would be complex
            ("exp", {}, 10.0),  # the closed form gives x < 0
            ("gg", {"p": 2, "lambda": 0.7}, 1.0),  # the closed form gives nan
        ],
    )
    def test_level_outside_range_raises(self, name, params, y):
        with pytest.raises(TargetOutOfRange):
            builtin(name, params).invert_level(y)

    def test_gg_level_above_amplitude_is_quiet(self):
        # the closed-form inverter checks its range before it takes a
        # fractional power, which numpy would warn about
        f = builtin("gg", {"p": 2, "lambda": 0.7})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TargetOutOfRange):
                f.invert_level(1.0)


# ------------------------------------------------------------------ rescale
class TestRescale:
    def test_identity(self):
        f = builtin("exp", {"rate": 1})
        assert rescale(f, 1.0) is f

    def test_definition(self):
        f = builtin("exp", {"rate": 1})
        g = rescale(f, 2.0)
        x = 0.3
        assert abs(g(x) - 2 * math.exp(-2 * x)) < 1e-14
        assert g.support.lower == 0.0 and math.isinf(g.support.upper)

    def test_second_moment_halves(self):
        # sigma_2[rescale(halfgauss, 2)] = sigma_2[halfgauss] / 2, both by quadrature
        f = builtin("halfgauss", {"sigma": 1})
        g = rescale(f, 2.0)
        m_f = integrate(lambda x: np.asarray(x) ** 2 * f(x), f.support).value ** 0.5
        m_g = integrate(lambda x: np.asarray(x) ** 2 * g(x), g.support).value ** 0.5
        assert abs(m_g - m_f / 2) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.2, max_value=5.0))
    def test_involution(self, kappa):
        f = builtin("exp", {"rate": 1})
        g = rescale(rescale(f, kappa), 1.0 / kappa)
        for x in (0.1, 0.5, 1.0, 3.0):
            assert abs(g(x) - f(x)) < 1e-12 * max(1.0, f(x))

    def test_invalid_kappa(self):
        with pytest.raises(InvalidParams):
            rescale(builtin("exp", {}), -1.0)


class TestReflectTranslate:
    def test_reflect(self):
        f = builtin("exp", {"rate": 1})
        g = reflect(f)
        assert g.support.upper == 0.0
        assert abs(g(-1.0) - f(1.0)) < 1e-15
        assert g.monotone_increasing and not g.monotone_decreasing
        assert abs(g.d(-1.0) + f.d(1.0)) < 1e-15

    def test_translate(self):
        f = builtin("uniform", {"a": 0, "b": 1})
        g = translate(f, 2.0)
        assert g.support.lower == 2.0 and g.support.upper == 3.0
        assert abs(g(2.5) - 1.0) < 1e-15


# (map, sigma, kappa, c): each map sends a source coordinate X to
# x = sigma X / kappa + c and a density f to x -> kappa f(X)
AFFINE_MAPS = [
    pytest.param(lambda f: rescale(f, 1.7), 1.0, 1.7, 0.0, id="rescale"),
    pytest.param(reflect, -1.0, 1.0, 0.0, id="reflect"),
    pytest.param(lambda f: translate(f, 0.6), 1.0, 1.0, 0.6, id="translate"),
]


class TestAffineFields:
    @pytest.mark.parametrize("amap,sigma,kappa,c", AFFINE_MAPS)
    def test_every_field(self, amap, sigma, kappa, c):
        f = builtin("exp", {"rate": 1})
        g = amap(f)
        lk = math.log(kappa)
        for X in (0.2, 1.0, 2.5):
            x = sigma * X / kappa + c
            assert g(x) == pytest.approx(kappa * f(X), rel=1e-13, abs=0.0)
            assert g.d(x) == pytest.approx(sigma * kappa**2 * f.d(X), rel=1e-13, abs=0.0)
            assert g.dd(x) == pytest.approx(kappa**3 * f.dd(X), rel=1e-13, abs=0.0)
            assert g.invert_level(g(x)) == pytest.approx(x, rel=1e-12, abs=0.0)
            assert g.log_value(x) == pytest.approx(lk + f.log_value(X), rel=1e-13, abs=1e-15)
            assert g.log_abs_derivative(x) == pytest.approx(
                2 * lk + f.log_abs_derivative(X), rel=1e-13, abs=1e-15
            )
        ends = sorted(sigma * e / kappa + c for e in (f.support.lower, f.support.upper))
        assert (g.support.lower, g.support.upper) == tuple(ends)
        assert g.mass == f.mass
        dec, inc = f.monotone_decreasing, f.monotone_increasing
        assert (g.monotone_decreasing, g.monotone_increasing) == ((inc, dec) if sigma < 0 else (dec, inc))

    @pytest.mark.parametrize("amap,sigma,kappa,c", AFFINE_MAPS)
    def test_image_float_value(self, amap, sigma, kappa, c):
        d = down(builtin("halfgauss", {"sigma": 1}), 3.0)
        g = amap(d)
        X = d.support.lower + 1.0
        v = g(sigma * X / kappa + c)
        assert type(v) is float
        assert v == pytest.approx(kappa * d(X), rel=1e-12, abs=0.0)


class TestQuantiles:
    def test_uniform(self):
        f = builtin("uniform", {"a": 0, "b": 1})
        q = quantiles(f, [0.25, 0.5, 0.75])
        assert np.allclose(q, [0.25, 0.5, 0.75], atol=1e-8)

    def test_exp_median(self):
        f = builtin("exp", {"rate": 1})
        (q,) = quantiles(f, [0.5])
        assert abs(q - math.log(2)) < 1e-8

    def test_support_supremum(self):
        f = builtin("uniform", {"a": 0, "b": 1})
        assert abs(quantiles(f, [0.999])[0] - 0.999) < 1e-6

    @pytest.mark.parametrize("flip", [False, True])
    def test_heavy_tail_beyond_outer_knot(self, flip):
        # pareto(eta=1.5): 1 - F(x) = x^{-1/2}, so the 1 - 1e-6 quantile is
        # 1e12, far past the outermost knot; the 1e-10 tolerance is on the
        # cumulative fraction and bounds x only to about 2e-4 there
        f = builtin("pareto", {"eta": 1.5})
        q, exact = (1.0 - 1e-6, 1e12) if not flip else (1e-6, -1e12)
        (x,) = quantiles(reflect(f) if flip else f, [q])
        assert x == pytest.approx(exact, rel=1e-3, abs=0.0)

    def test_upper_tail_by_complement(self):
        # 1 - q is exact in floating point for q > 1/2; the exact quantiles
        # of q are sqrt(2) erfinv(2q - 1) (mpmath, 40 digits) and -ln(1 - q)
        q = 1.0 - 1e-9
        g, e = quantiles(builtin("gauss"), [q])[0], quantiles(builtin("exp"), [q])[0]
        assert g == pytest.approx(5.997807019601637, rel=1e-9, abs=0.0)
        assert e == pytest.approx(-math.log(1.0 - q), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "spec, q", [("exp", 0.3), ("exp", 0.7), ("pareto:eta=1.5", 1.0 - 1e-6)]
    )
    def test_bracket_ends_not_integrated_again(self, monkeypatch, spec, q):
        # the solve takes the fraction at both ends of its bracket from where
        # it was computed: the table's masses for a finite segment, the
        # march for the pair it returns.  A quadrature is an `integrate`
        # call or a piece that the Gauss-Kronrod pair certifies, a halved
        # piece of a table row included (a piece or row handed back is
        # integrated again further down, and counted there).
        calls, alone, certified = [], [], []

        def counted(g, support, *args, **kwargs):
            alone.append((support.lower, support.upper))
            calls.append((support.lower, support.upper, kwargs.get("tol")))
            return counted.inner(g, support, *args, **kwargs)

        def pieces(g, los, his):
            out = pieces.inner(g, los, his)
            rows = [(a, b, core._SEG_TOL) for a, b, c in zip(los, his, out[2]) if c]
            certified.extend(rows)
            calls.extend(rows)
            return out

        counted.inner, pieces.inner = core.integrate, core._gk_pieces
        monkeypatch.setattr(core, "integrate", counted)
        monkeypatch.setattr(core, "_gk_pieces", pieces)
        quantiles(parse_density(spec), [q])
        assert len(set(calls)) == len(calls)
        if spec == "exp":
            # 63 table segments between knots: 53 certified by the pair at
            # once, then 8 whose halved pieces it certifies, which tile
            # them, then the 2 outermost by `integrate`, and the head and
            # tail; then 1 piece in the solve at q = 0.3 and at q = 0.7 (u to
            # 1e-13 relative at the first iterate, the root of the row's
            # Kronrod interpolant), certified by the pair, over no table
            # segment or piece
            knots = np.unique(builtin("exp").support.clustered(64))
            rows = list(zip(knots[:-1], knots[1:]))
            n_solve = 1
            assert calls[-n_solve:] == certified[-n_solve:]
            assert [(lo, hi) for lo, hi, _ in certified[:53]] == rows[:53]
            for lo, hi in rows[53:61]:
                inside = sorted((a, b) for a, b, _ in certified[53:-n_solve] if lo <= a and b <= hi)
                assert inside[0][0] == lo and inside[-1][1] == hi
                assert all(b == a2 for (_, b), (a2, _) in zip(inside[:-1], inside[1:]))
            assert alone == rows[61:] + [(0.0, knots[0]), (knots[-1], math.inf)]

    def test_lower_tail(self):
        (x,) = quantiles(builtin("gauss"), [1e-9])
        assert x == pytest.approx(-5.99780701500769, rel=1e-10, abs=0.0)

    def test_tails_at_full_precision(self):
        # both tails solve u to 1e-13 relative from their own edge; the gauss
        # values are sqrt(2) erfinv(2q - 1) in mpmath at 40 digits for the
        # float q
        lo, hi = 1e-12, 1.0 - 1e-12
        g = quantiles(builtin("gauss"), [lo, hi])
        assert g[0] == pytest.approx(-7.034483825301132, rel=1e-12, abs=0.0)
        assert g[1] == pytest.approx(7.034486910047835, rel=1e-12, abs=0.0)
        e = quantiles(builtin("exp"), [lo, hi])
        assert e[0] == pytest.approx(-math.log1p(-lo), rel=1e-12, abs=0.0)
        assert e[1] == pytest.approx(-math.log(1.0 - hi), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("flip", [False, True])
    def test_unresolved_heavy_tail_raises(self, flip):
        # pareto(eta=1.01): the open segment past the last knot does not
        # converge, and the 1 - 1e-6 quantile lies near 1e600
        f = builtin("pareto", {"eta": 1.01})
        q = 1e-6 if flip else 1.0 - 1e-6
        with pytest.raises(EntroscopeError):
            quantiles(reflect(f) if flip else f, [q])


# ---------------------------------------------------------- segment tables


def _masses_one_by_one(w, support, knots):
    """The segment table with one `_w_mass` quadrature per segment: the
    path of every row that the 7-15 pair does not certify."""

    def seg(lo, hi, open_ended):
        try:
            return core._w_mass(w, lo, hi)
        except (DivergentIntegral, EdgeIllConditioned) as exc:
            if open_ended or isinstance(exc, DivergentIntegral):
                return math.inf
            raise

    inner = np.array([seg(a, b, False) for a, b in zip(knots[:-1], knots[1:])])
    return inner, seg(support.lower, knots[0], True), seg(knots[-1], support.upper, True)


def _table(monkeypatch, spec, alpha=None):
    """(weight, support, knots) of the segment table that up(spec, alpha)
    builds for its weight f/U, or that quantiles builds for f itself."""
    f = parse_density(spec)
    if alpha is None:
        return f.value, f.support, np.unique(f.support.clustered(64))
    seen = []
    real = transforms._segment_masses
    with monkeypatch.context() as m:
        m.setattr(transforms, "_segment_masses", lambda *table: seen.append(table) or real(*table))
        up(f, alpha)
    return seen[0]


def _run_alone(monkeypatch):
    """The lower ends of the segments that `_segment_masses` hands to
    `_w_mass`, in order, as a list that fills as it runs."""
    lows, real = [], core._w_mass
    monkeypatch.setattr(core, "_w_mass", lambda w, lo, hi, *a, **k: lows.append(lo) or real(w, lo, hi, *a, **k))
    return lows


def _assert_within_ulps(got, want, ulps=4):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    fin = np.isfinite(want)
    assert np.all(np.abs(got[fin] - want[fin]) <= ulps * np.spacing(np.abs(want[fin])))


# a weight on (0, 2) per way a row escapes the pair's certificate, each
# forced on known segments between the knots KNOTS
KNOTS = np.unique(Support(0.0, 2.0).clustered(16))
_C = float(KNOTS[7])


def _pole(x):
    # the pieces next to the knot never certify; the mass diverges
    return 1.0 / np.abs(np.asarray(x, dtype=float) - _C)


def _step(x):
    # the piece that holds the step never certifies, and its row's integral stalls
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.5 * (KNOTS[3] + KNOTS[4]) + 1e-3 * math.pi, 1.0, 2.0)


def _nan_band(x):
    # nan where the weight has underflowed anyway: no mass is lost
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        v = np.where(x > _C, np.exp(-1.0 / (x - _C)), 1.0)
    return np.where((x > _C) & (x < _C + 1e-3), np.nan, v)


def _raising(x):
    # a weight that reports its own divergence on (KNOTS[10], KNOTS[11])
    x = np.asarray(x, dtype=float)
    if np.any((x > KNOTS[10]) & (x < KNOTS[11])):
        raise DivergentIntegral("weight not integrable here")
    return np.ones_like(x)


def _underflow_half(x):
    # 1 up to KNOTS[4], then a drop that underflows to 0 before the midpoint
    # of (KNOTS[4], KNOTS[5]) and stays 0
    t = (np.asarray(x, dtype=float) - KNOTS[4]) / (KNOTS[5] - KNOTS[4])
    return np.where(t < 0.0, 1.0, np.exp(-3000.0 * t * t))


def _exact_masses(spec, alpha, los, his):
    """The masses of the table weights of `_table` on (los[i], his[i]) in
    mpmath at 40 digits: closed forms for x e^{-x} (up(exp,3)) and the gauss
    density, whose upper tail is taken as the difference of its
    complements, and mpmath quadrature of 2.5 x^{-3.5} e^x
    (up(pareto:eta=3.5,2)) on each short segment."""
    import mpmath as mp

    with mp.workdps(40):
        out = []
        for a, b in zip(map(mp.mpf, los), map(mp.mpf, his)):
            if spec == "exp":
                out.append((a + 1) * mp.exp(-a) - (b + 1) * mp.exp(-b))
            elif spec == "gauss":
                # ncdf(b) - ncdf(a) cancels far above 0: ncdf(10) = 1 - 7.6e-24
                out.append(mp.ncdf(-a) - mp.ncdf(-b) if a > 0 else mp.ncdf(b) - mp.ncdf(a))
            else:
                out.append(mp.quad(lambda x: 2.5 * x**-3.5 * mp.exp(x), [a, b]))
        return np.array([float(v) for v in out])


class TestSegmentMasses:
    @pytest.mark.parametrize(
        "spec, alpha, counts",
        [("exp", 3.0, (141, 14, 4)), ("pareto:eta=3.5", 2.0, (141, 10, 8)), ("gauss", None, (43, 12, 8))],
        ids=["up(exp,3)", "up(pareto:eta=3.5,2)", "quantiles(gauss)"],
    )
    def test_batched_equals_one_by_one(self, monkeypatch, spec, alpha, counts):
        # the rows that the 7-15 pair certifies on its first call keep its
        # K15, and they and the rows it certifies after halving lie within
        # 1e-13 of the exact mass; the rows it hands back, and the head and
        # tail, come out as one `_w_mass` quadrature per segment gives them
        table = _table(monkeypatch, spec, alpha)
        knots = table[2]
        alone = _run_alone(monkeypatch)
        inner, head, tail, _ = core._segment_masses(*table)
        back = np.isin(knots[:-1], alone)
        monkeypatch.undo()
        ref_inner, ref_head, ref_tail = _masses_one_by_one(*table)
        k15, _, at_once, _ = core._gk_pieces(table[0], knots[:-1], knots[1:])
        assert (at_once.sum(), (~at_once & ~back).sum(), back.sum()) == counts
        assert np.array_equal(inner[at_once], k15[at_once])
        exact = _exact_masses(spec, alpha, knots[:-1][~back], knots[1:][~back])
        assert np.all(np.abs(inner[~back] - exact) <= 1e-13 * exact)
        _assert_within_ulps(np.append(inner[back], [head, tail]), np.append(ref_inner[back], [ref_head, ref_tail]))
        # up(pareto:eta=3.5, 2): the weight x^{-eta} e^x passes 1e50 on the
        # 8 outermost segments, whose partial sums then count as divergent
        outer = list(range(len(inner) - 8, len(inner))) if "pareto" in spec else []
        assert np.flatnonzero(np.isinf(inner)).tolist() == outer
        assert np.flatnonzero(np.isinf(ref_inner)).tolist() == outer

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=12, unique=True),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-0.9, max_value=2.0),
    )
    def test_each_row_is_its_own_quadrature(self, points, k, p):
        # each row of a table of x^p e^{kx} is one `_w_mass` quadrature on
        # its own interval to 1e-13 relative, whether the pair certifies it
        # at once or after halving (a row it hands back is that quadrature);
        # the head, down to a singular edge at 0, and the tail are those
        # quadratures
        knots = np.array(sorted(points))
        support = Support(0.0, knots[-1] + 1.0)

        def g(x):
            x = np.asarray(x, dtype=float)
            return x**p * np.exp(k * x)

        inner, head, tail, _ = core._segment_masses(g, support, knots)
        ref_inner, ref_head, ref_tail = _masses_one_by_one(g, support, knots)
        assert inner == pytest.approx(ref_inner, rel=1e-13, abs=0.0)
        assert (head, tail) == (ref_head, ref_tail)

    @pytest.mark.parametrize(
        "w, handed_back",
        [(_pole, [6, 7]), (_step, [3]), (_nan_band, [7]), (_raising, list(range(15)))],
        ids=["pole", "stall", "nan", "raising"],
    )
    def test_rows_leaving_clean_convergence_run_alone(self, monkeypatch, w, handed_back):
        # a row that the 7-15 pair does not certify, halving included, runs
        # alone through `_w_mass`, whose checks decide it, before the head
        # and tail: the pole's pieces next to the knot never certify, nor
        # does the step's piece, K15 of the nan row is not finite, and a
        # call that raises certifies no row
        support = Support(0.0, 2.0)
        alone = _run_alone(monkeypatch)
        if w is _step:
            # the closed segment's EdgeIllConditioned propagates, as one by one
            with pytest.raises(EdgeIllConditioned) as got:
                core._segment_masses(w, support, KNOTS)
            assert alone == KNOTS[handed_back].tolist()
            with pytest.raises(EdgeIllConditioned, match="stalled") as ref:
                _masses_one_by_one(w, support, KNOTS)
            assert str(got.value) == str(ref.value)
            return
        inner, head, tail, _ = core._segment_masses(w, support, KNOTS)
        assert alone == KNOTS[handed_back].tolist() + [0.0, KNOTS[-1]]
        ref_inner, ref_head, ref_tail = _masses_one_by_one(w, support, KNOTS)
        _assert_within_ulps(np.append(inner, [head, tail]), np.append(ref_inner, [ref_head, ref_tail]))
        inf = {_pole: [6, 7], _nan_band: [], _raising: [10]}[w]
        assert np.flatnonzero(np.isinf(inner)).tolist() == inf

    def test_row_with_an_underflowed_half_runs_alone(self, monkeypatch):
        # (KNOTS[4], KNOTS[5]) fails the pair's error test alone, so it is
        # halved; its upper half has K15 = 0, which stops the halving and
        # hands the whole row to tanh-sinh (the rows past it are 0
        # throughout, handed back at once)
        lo, mid, hi = KNOTS[4], 0.5 * (KNOTS[4] + KNOTS[5]), KNOTS[5]
        k15, _, ok, _ = core._gk_pieces(_underflow_half, [lo, lo, mid], [hi, mid, hi])
        assert not ok[0] and k15[0] != 0.0 and k15[2] == 0.0
        support = Support(0.0, 2.0)
        pieces, real = [], core._gk_pieces

        def recorded(w, los, his):
            pieces.append(list(zip(los, his)))
            return real(w, los, his)

        monkeypatch.setattr(core, "_gk_pieces", recorded)
        alone = _run_alone(monkeypatch)
        inner, _, _, _ = core._segment_masses(_underflow_half, support, KNOTS)
        assert pieces[1:] == [[(lo, mid), (mid, hi)]]
        assert alone == KNOTS[4:-1].tolist() + [0.0, KNOTS[-1]]
        assert inner[4] == core._w_mass(_underflow_half, lo, hi)
        assert inner[4] == pytest.approx(0.5 * math.sqrt(math.pi / 3000.0) * (hi - lo), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("spec, alpha", [("exp", 3.0), ("pareto:eta=3.5", 2.0)])
    def test_seed_pieces_per_solve(self, monkeypatch, spec, alpha):
        # x_of_u at 30% of the way along 40 segments of the up coordinate's
        # table: 1.375 and 1.6 pieces of u per solve (each one 7-15 pair
        # call, or a quadrature where the pair hands it back), where the
        # cubic Hermite inverse of the bracket took 2.65 and 2.68.  In the
        # rows that the pair certified at once (35 and 37 targets) the first
        # iterate, the root of the row's Kronrod interpolant, stands at its
        # first check, but for pareto's row 0, where no float meets the
        # target (5 pieces).  The outer rows certified after halving (5 and
        # 3 targets) hold no node values: Newton steps from a bracket end
        # take 0-10 pieces there
        w, support, knots = _table(monkeypatch, spec, alpha)
        coords = core._Cumulative(w, support, knots, core._segment_masses(w, support, knots))
        uk = coords.u_knots
        us = [uk[i] + 0.3 * (uk[i + 1] - uk[i]) for i in np.linspace(0, len(uk) - 2, 40).astype(int)]
        pieces = []
        real = core._Cumulative._mass
        monkeypatch.setattr(core._Cumulative, "_mass", lambda *a: pieces.append(1) or real(*a))
        xs = [coords.x_of_u(u) for u in us]
        assert len(pieces) / len(us) <= 1.65
        monkeypatch.setattr(core._Cumulative, "_mass", real)
        for x, u in zip(xs, us):
            assert coords.u_of_x(x) == pytest.approx(u, rel=1e-11)

    def test_row_failing_only_on_rounding_is_not_halved(self, monkeypatch):
        # e^{2(x - 1000)} on knots in (1000, 1001): K15 and G7 agree to
        # 1e-13, but the rounding of the nodes, u 1001 times the variation
        # of w, passes 1e-13 K15 in every row.  Halving does not shrink that
        # bound relative to K15, so no row is halved: the first pair call is
        # the only one, and every row runs alone through `_w_mass`
        knots = 1000.0 + 0.5 * KNOTS
        w = lambda x: np.exp(2.0 * (np.asarray(x, dtype=float) - 1000.0))
        exact = 0.5 * (np.exp(2.0 * (knots[1:] - 1000.0)) - np.exp(2.0 * (knots[:-1] - 1000.0)))
        k15, halve, ok, values = core._gk_pieces(w, knots[:-1], knots[1:])
        g7 = 0.5 * (knots[1:] - knots[:-1]) * (values @ core._GK_G)
        assert np.all(np.abs(k15 - g7) <= core._SEG_TOL * k15)
        assert not ok.any() and not halve.any()
        calls, real = [], core._gk_pieces
        monkeypatch.setattr(core, "_gk_pieces", lambda *a: calls.append(1) or real(*a))
        alone = _run_alone(monkeypatch)
        inner, _, _, _ = core._segment_masses(w, Support(1000.0, 1001.0), knots)
        assert len(calls) == 1
        assert alone == knots[:-1].tolist() + [1000.0, knots[-1]]
        assert np.all(np.abs(inner - exact) <= 1e-12 * exact)

    def test_one_integrand_call_per_level(self, monkeypatch):
        # up(exp,3)'s 159 inner segments take one call on the pair's 15
        # nodes of each, then one call per halving round on the pieces of
        # the rows it has not certified; the 4 rows still left (far-tail
        # rows, where w drops by orders of magnitude), the head and the tail
        # are one `integrate` each
        w, support, knots = _table(monkeypatch, "exp", 3.0)
        sizes, alone = [], []

        def counted(x):
            sizes.append(np.size(x))
            return w(x)

        def integrate_alone(g, interval, *args, **kwargs):
            alone.append(((interval.lower, interval.upper), len(sizes)))
            return integrate_alone.inner(g, interval, *args, **kwargs)

        integrate_alone.inner = core.integrate
        monkeypatch.setattr(core, "integrate", integrate_alone)
        core._segment_masses(counted, support, knots)
        assert sizes[0] == len(core._GK_X) * (len(knots) - 1)
        rounds = sizes[1 : alone[0][1]]
        assert 1 <= len(rounds) <= core._HALVINGS
        assert all(n % len(core._GK_X) == 0 for n in rounds)
        rows = list(zip(knots[:-1], knots[1:]))
        assert [iv for iv, _ in alone] == rows[-4:] + [(support.lower, knots[0]), (knots[-1], support.upper)]

    @pytest.mark.parametrize(
        "w, handed_back", [(_pole, [6, 7]), (_step, [3]), (_nan_band, [7]), (_raising, list(range(15)))],
        ids=["pole", "stall", "nan", "raising"],
    )
    def test_pair_hands_back_what_the_batched_pass_hands_back(self, w, handed_back):
        # a row that leaves clean tanh-sinh convergence is not one the 7-15
        # pair certifies on its first call, so it reaches halving and, past
        # that, the checks that decide it
        _, _, ok, _ = core._gk_pieces(w, KNOTS[:-1], KNOTS[1:])
        assert not ok[handed_back].any()
        if w is _raising:
            assert not ok.any()


# ----------------------------------------------------- cumulative coordinates

_PIECE_SOURCES = ["exp", "halfgauss", "pareto:eta=3", "powerlaw:a=-0.5", "powerlaw:a=2", "gg:p=2,lambda=1.5"]


@functools.cache
def _coordinate(spec, alpha, anchor):
    """The cumulative coordinate of up(spec, alpha) (alpha None: of the
    quantile table of spec, anchored at `anchor`)."""
    f = parse_density(spec)
    if alpha is None:
        w, support, knots = f.value, f.support, np.unique(f.support.clustered(64))
    else:
        with pytest.MonkeyPatch.context() as m:
            w, support, knots = _table(m, spec, alpha)
        anchor = ""
    return core._Cumulative(w, support, knots, core._segment_masses(w, support, knots), anchor)


def _in_row_targets(coords, n=40):
    """u at 30% of the way along n evenly spread rows of the coordinate's
    table that hold node values (rows the pair certified at once)."""
    rows = np.flatnonzero(~np.isnan(coords.values[:, 0]))
    uk = coords.u_knots
    return [uk[i] + 0.3 * (uk[i + 1] - uk[i]) for i in rows[np.linspace(0, len(rows) - 1, n).astype(int)]]


def _certify_nothing(w, los, his):
    no = np.zeros(len(los), dtype=bool)
    return np.full(len(los), math.nan), no, no, np.full((len(los), len(core._GK_X)), math.nan)


class TestCumulative:
    def test_underflowed_masses_tie_knots_beyond_the_solves(self):
        # up(halfgauss, 3)'s weight underflows past x ~ 38.6, so its segment
        # masses there are 0.0 and the knots from x = 40.37 on tie at u =
        # 0.0; a solve for u down to a subnormal still lands before them
        image = up(builtin("halfgauss"), 3.0)
        for u in (1e-300, 1e-320):
            assert 37.0 < image.locate(u) < 39.0

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(_PIECE_SOURCES),
        st.sampled_from([None, -1.0, 0.5, 2.0, 2.5, 3.0]),
        st.sampled_from(["lower", "upper"]),
        st.floats(min_value=0.001, max_value=0.999),
    )
    @example("pareto:eta=3", 2.0, "lower", 0.9915)  # x = 117.6, past the last knot
    @example("gg:p=2,lambda=1.5", None, "upper", 0.999)  # steep weight near the edge
    def test_pair_pieces_match_tanh_sinh(self, spec, alpha, anchor, t):
        # u(x) from the pieces the 7-15 pair certifies against u(x) with
        # every piece a `_w_mass` quadrature, to 1e-13 relative; and x_of_u
        # finds a point whose u is the target's wherever the solve on
        # quadratures alone finds one (past the last knot of up(pareto,2)
        # its march meets partial sums past 1e50: beyond reach on both)
        try:
            coords = _coordinate(spec, alpha, anchor)
        except EntroscopeError:
            return  # an image that does not build
        x = float(coords.support.at(np.array(t)))

        def u_or_error():
            try:
                return coords.u_of_x(x)
            except EntroscopeError as exc:
                return type(exc)

        u = u_or_error()
        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "_gk_pieces", _certify_nothing)
            ref = u_or_error()
        if isinstance(ref, type):
            assert u is ref  # a piece the weight cannot integrate is never certified
            return
        assert u == pytest.approx(ref, rel=1e-13, abs=0.0)
        if not (math.isfinite(u) and coords.sup.contains(u)) or u == 0.0:
            return
        x2 = coords.x_of_u(u)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "_gk_pieces", _certify_nothing)
            assert (x2 is None) == (coords.x_of_u(u) is None)
        if x2 is not None:
            assert coords.u_of_x(x2) == pytest.approx(u, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("spec, alpha", [("exp", 3.0), ("pareto:eta=3", 3.0), ("gauss", None)])
    def test_pieces_in_a_solve_are_certified(self, spec, alpha):
        # between two knots the weight is smooth: every piece of a solve
        # there is one call to w on 15 nodes, and no quadrature runs
        coords = _coordinate(spec, alpha, "upper")
        uk = coords.u_knots
        targets = [uk[i] + 0.3 * (uk[i + 1] - uk[i]) for i in range(10, len(uk) - 30, 7)]
        ok, quadratures = [], []
        real, tanh_sinh = core._gk_pieces, core._tanh_sinh

        def pieces(*args):
            out = real(*args)
            ok.extend(out[2])
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "_gk_pieces", pieces)
            m.setattr(core, "_tanh_sinh", lambda *a: quadratures.append(1) or tanh_sinh(*a))
            for u in targets:
                coords.x_of_u(u)
        assert ok and all(ok)
        assert not quadratures

    @pytest.mark.parametrize("coef, r, root", [([1.0, 1.0], 0.25, -0.75), ([0.75, 1.0, 0.25], 0.125, -0.5)])
    def test_chebyshev_root_stops_at_an_exact_root(self, coef, r, root):
        # P = 1 + t, whose linear guess is the root, and P = (1 + t)^2 / 2,
        # whose Newton steps land on -0.5: a zero residual ends the solve
        # there, before a bisection of the bracket could move off the root
        assert core._chebyshev_root(coef + [0.0] * (16 - len(coef)), r) == root

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("spec", _PIECE_SOURCES)
    def test_one_piece_per_in_row_solve(self, monkeypatch, spec, alpha):
        # in a row the pair certified at once, the first iterate, the root of
        # the row's Kronrod interpolant, stands at its first check: one
        # `_mass` piece, and no call to w at one point (a Newton step), per
        # solve, with either anchor whose mass is finite.  A target that no
        # float meets is left out: where half an ulp of x moves u by more
        # than _SEG_TOL |u|, the solve goes on to the resolution of x (one
        # target each of up(pareto:eta=3, 2) and up(powerlaw:a=-0.5, 3))
        w, support, knots = _table(monkeypatch, spec, alpha)
        masses = core._segment_masses(w, support, knots)
        pieces, points, unmet, solves = [], [], [], 0
        real = core._Cumulative._mass
        monkeypatch.setattr(core._Cumulative, "_mass", lambda *a: pieces.append(1) or real(*a))
        counted = lambda x: (points.append(1) if np.size(x) == 1 else None) or w(x)
        for anchor in ("lower", "upper"):
            coords = core._Cumulative(counted, support, knots, masses, anchor)
            if len(coords.knots) < 2:
                continue  # the mass toward this anchor diverges
            for u in _in_row_targets(coords):
                del pieces[:], points[:]
                x = coords.x_of_u(u)
                if 0.5 * float(w(x)) * np.spacing(x) > core._SEG_TOL * abs(u):
                    unmet.append(x)
                    continue
                solves += 1
                assert (len(pieces), len(points)) == (1, 0)
        assert solves + len(unmet) >= 40 and len(unmet) <= 1

    @pytest.mark.parametrize("spec, alpha", [("exp", 3.0), ("pareto:eta=3", 3.0), ("halfgauss", 0.5)])
    def test_seed_is_only_a_seed(self, monkeypatch, spec, alpha):
        # with node values 1e-6 off, the seeds miss u by more than _SEG_TOL
        # and fail their check, and Newton steps on w still round-trip u to
        # 1e-13 relative: the interpolant never stands on its own
        w, support, knots = _table(monkeypatch, spec, alpha)
        coords = core._Cumulative(w, support, knots, core._segment_masses(w, support, knots))
        coords.values = coords.values * (1.0 + 1e-6)
        us, per_solve = _in_row_targets(coords), []
        real = core._Cumulative._mass
        for u in us:
            pieces = []
            with monkeypatch.context() as m:
                m.setattr(core._Cumulative, "_mass", lambda *a: pieces.append(1) or real(*a))
                x = coords.x_of_u(u)
            per_solve.append(len(pieces))
            assert coords.u_of_x(x) == pytest.approx(u, rel=1e-13, abs=0.0)
        assert sum(n > 1 for n in per_solve) >= 30
