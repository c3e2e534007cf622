"""Monte-Carlo pushforward sampler: correctness, determinism, error bars."""

import json
import math
import re
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import dhlab.measure as measure
from dhlab import (
    CutWindow,
    DegenerateWindowError,
    DensityEstimate,
    DomainError,
    EmptyMeasureError,
    Form,
    Histogram,
    OmegaParams,
    Poly,
    SamplerConfig,
    analytic_dh_density,
    analytic_logconcavity,
    compare,
    normalize,
    sample_pushforward,
    standard_construction,
    verify_construction,
)
from helpers import iter_sample_chunks

WINDOW = CutWindow(0.5, 4.5)
WIDTH = WINDOW.hi - WINDOW.lo
RHO = Poly(1, {(2,): 1, (1,): -5, (0,): 7})
FLAT_TOP = Poly.constant(6, 6)


def _verified_top() -> Poly:
    _, _, omega = standard_construction(WINDOW)
    return verify_construction(omega, WINDOW).top_power_poly


VERIFIED_TOP = _verified_top()


def _manual_histogram(weights_per_bin, window=WINDOW, sample_count=1000):
    weights = np.asarray(weights_per_bin, dtype=float)
    edges = np.linspace(window.lo, window.hi, len(weights) + 1)
    return Histogram(edges, weights, weights ** 2, sample_count)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_liouville_weight_values():
    assert VERIFIED_TOP.evaluate((0.1, 0.2, 0.3, 0.4, 2.5, 0.9)) == 4.5
    assert VERIFIED_TOP.evaluate((0.0, 0.0, 0.0, 0.0, 0.5, 0.0)) == 28.5
    assert FLAT_TOP.evaluate((0.5, 0.5, 0.5, 0.5, 1.0, 0.5)) == 6.0


def test_weight_ignores_fiber_coordinates():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.random(6)
        y = x.copy()
        y[[0, 1, 2, 3, 5]] = rng.random(5)
        assert VERIFIED_TOP.evaluate(x) == VERIFIED_TOP.evaluate(y)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_flat_pushforward_is_uniform():
    cfg = SamplerConfig(1_000_000, 10, WINDOW, seed=7)
    est = normalize(sample_pushforward(FLAT_TOP, cfg))
    target = 1.0 / WIDTH
    assert np.all(np.abs(est.density - target) <= 3 * est.stderr)


def test_pushforward_density_near_dip():
    cfg = SamplerConfig(400_000, 40, WINDOW, seed=42)
    est = normalize(sample_pushforward(VERIFIED_TOP, cfg))
    # bin 20 = [2.5, 2.6); its exact average density is int_2.5^2.6 rho / (0.1 * int rho)
    exact_bin_avg = float(RHO.integrate(Fraction(5, 2), Fraction(13, 5))
                          / (RHO.integrate(Fraction(1, 2), Fraction(9, 2)) * Fraction(1, 10)))
    assert est.bin_centers[20] == pytest.approx(2.55)
    assert abs(est.density[20] - exact_bin_avg) <= 4 * est.stderr[20]
    assert est.density[20] == pytest.approx(0.09, abs=0.01)


def test_sampler_preconditions():
    with pytest.raises(ValueError):
        SamplerConfig(0, 10, WINDOW, seed=1)
    with pytest.raises(ValueError):
        SamplerConfig(100, 1, WINDOW, seed=1)
    with pytest.raises(ValueError):
        SamplerConfig(5, 10, WINDOW, seed=1)  # fewer samples than bins


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("bins", 10.5), ("sample_count", 1000.7), ("chunk_size", 100.5),
    ("seed", True), ("bins", np.float64(10.0)), ("chunk_size", np.bool_(True))])
def test_sampler_config_refuses_a_field_that_is_no_integer(field, value):
    # seed=1.5 would run seed 1's stream while the provenance printed 1.5
    fields = {"sample_count": 1_000, "bins": 10, "seed": 1, "chunk_size": 100, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        SamplerConfig(window=WINDOW, **fields)


def test_sampler_config_takes_numpy_integers():
    cfg = SamplerConfig(np.int64(1_000), np.int32(10), WINDOW, seed=np.uint64(1),
                        chunk_size=np.int16(300))
    assert (sample_pushforward(VERIFIED_TOP, cfg)
            == sample_pushforward(VERIFIED_TOP, SamplerConfig(1_000, 10, WINDOW, 1, 300)))


@pytest.mark.parametrize("threads", [0, -3])
def test_sampler_rejects_fewer_than_one_thread(threads):
    cfg = SamplerConfig(1_000, 10, WINDOW, seed=1)
    with pytest.raises(ValueError, match="threads must be positive"):
        sample_pushforward(VERIFIED_TOP, cfg, threads=threads)


def test_sampler_rejects_a_weight_beyond_the_chart():
    # an axis 6 would read a counter range that no chart coordinate owns
    beyond = Poly(7, {(0, 0, 0, 0, 0, 0, 1): 1})
    with pytest.raises(ValueError, match="top_poly has 7 variables; the chart has 6"):
        sample_pushforward(beyond, SamplerConfig(1_000, 10, WINDOW, seed=1))


def test_sampler_rejects_a_weight_of_another_arity():
    # t^2 in one variable would be read as x1^2 on the chart, not t^2
    with pytest.raises(ValueError, match="top_poly has 1 variables; the chart has 6"):
        sample_pushforward(Poly(1, {(2,): 1}), SamplerConfig(1_000, 10, WINDOW, seed=1))


@pytest.mark.parametrize("top, window, what, cfg", [
    (Poly.constant(6, Fraction(10) ** 400), WINDOW, "inf at t=", {}),
    (Poly.constant(6, Fraction(6e300)), WINDOW, "6e+300 at t=", {}),
    (Poly(6, {(0, 0, 0, 0, 2, 0): 1}), CutWindow(1e160, 1e200), "inf at t=", {}),
    # each chunk's squared sums are finite, their merge is not
    (Poly.constant(6, Fraction(10) ** 153), WINDOW, "1e+153 at t=",
     {"sample_count": 10_000, "chunk_size": 100}),
    # the squared sums merge to 1e305, but normalize squares a bin sum of 1e155
    (Poly.constant(6, Fraction(10) ** 150), WINDOW, "1e+150 at t=",
     {"sample_count": 200_000, "bins": 2}),
])
def test_sampler_refuses_weights_beyond_the_float_range(top, window, what, cfg):
    # the weight, its square, a bin sum or its square overflows; a numpy
    # warning on the way would fail here too (warnings are errors)
    cfg = SamplerConfig(**{"sample_count": 1_000, "bins": 10, "window": window, "seed": 1, **cfg})
    with pytest.raises(DomainError, match=re.escape(f"Liouville weight {what}")):
        sample_pushforward(top, cfg)


def test_sampler_refuses_a_window_too_narrow_to_bin():
    # the plan refuses each before sample_pushforward can draw a sample
    for lo, hi, bins, message in [
            # bin centres that do not ascend
            (1.0, 1.0000000000000004, 8, "too narrow for 8 float bins: [1.0, 1.0000000000000004]"),
            (5e-324, 1.5e-323, 2, "too narrow for 2 float bins: [5e-324, 1.5e-323]"),
            # ascending centres, but 40 / (hi - lo) overflows
            (1e-310, 3e-310, 40, "too narrow for 40 float bins: [1e-310, 3e-310]"),
            # a finite width, but bin centres past 1.7e308
            (1e300, 1.7e308, 10, "wider than the float range: [1e+300, 1.7e+308]")]:
        with pytest.raises(DomainError, match=re.escape(f"window is {message}") + "$"):
            SamplerConfig(1_000, bins, CutWindow(lo, hi), 1)


def test_sampler_refuses_negative_weights():
    # t - 3 is negative on part of the window: not a verified Liouville density
    bad_top = Poly(6, {(0, 0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0, 0): -3})
    with pytest.raises(DegenerateWindowError, match="negative Liouville weight at t=") as info:
        sample_pushforward(bad_top, SamplerConfig(10_000, 10, WINDOW, seed=1))
    t = float(re.search(r"at t=([^;]+);", str(info.value)).group(1))
    assert WINDOW.lo <= t < 3


def test_histogram_total_weight_consistency():
    cfg = SamplerConfig(100_000, 20, WINDOW, seed=3)
    h = sample_pushforward(VERIFIED_TOP, cfg)
    assert h.total_weight == float(np.sum(h.weight_sums))
    assert np.all(h.weight_sums >= 0)
    assert h.bin_edges[0] == WINDOW.lo and h.bin_edges[-1] == WINDOW.hi


def test_histogram_width_and_total_follow_from_its_arrays():
    for window, bins in [(WINDOW, 20), (CutWindow(0.1, 0.7), 7), (CutWindow(1e-300, 3e300), 9)]:
        h = _manual_histogram(np.arange(1.0, bins + 1), window)
        assert (h.bin_edges[0], h.bin_edges[-1]) == (window.lo, window.hi)
        assert h.bin_width == (window.hi - window.lo) / bins
        assert h.total_weight == float(np.sum(h.weight_sums)) == bins * (bins + 1) / 2


# ---------------------------------------------------------------------------
# determinism and chunking
# ---------------------------------------------------------------------------

def test_bit_identical_for_identical_config():
    cfg = SamplerConfig(150_000, 25, WINDOW, seed=11)
    assert sample_pushforward(VERIFIED_TOP, cfg) == sample_pushforward(VERIFIED_TOP, cfg)


def test_chunk_size_invariance():
    base = SamplerConfig(200_000, 30, WINDOW, seed=13, chunk_size=200_000)
    hists = [sample_pushforward(VERIFIED_TOP, base)]
    for chunk in (1 << 13, 1 << 15, 77_777):
        cfg = SamplerConfig(200_000, 30, WINDOW, seed=13, chunk_size=chunk)
        hists.append(sample_pushforward(VERIFIED_TOP, cfg))
    # regrouped float sums agree to rounding: about 7e-15 relative is measured
    for other in hists[1:]:
        for got, want in ((other.weight_sums, hists[0].weight_sums),
                          (other.weight_sq_sums, hists[0].weight_sq_sums)):
            assert np.max(np.abs(got - want) / want) <= 1e-13
        assert abs(other.total_weight / hists[0].total_weight - 1) <= 1e-13


@pytest.mark.parametrize("params", [OmegaParams(2, 3), OmegaParams(1, 3)])
def test_histogram_does_not_depend_on_term_order(params):
    # the sampler sums a weight's terms in a fixed order, not in dict order
    _, _, omega = standard_construction(WINDOW, params)
    top = verify_construction(omega, WINDOW, params).top_power_poly
    flipped = Poly(top.nvars, reversed(list(top.terms.items())))
    assert flipped == top and list(flipped.terms) == list(reversed(top.terms))
    cfg = SamplerConfig(200_000, 40, WINDOW, seed=7)
    assert sample_pushforward(flipped, cfg) == sample_pushforward(top, cfg)


def _reversed_terms(p: Poly) -> Poly:
    return Poly(p.nvars, reversed(list(p.terms.items())))


@pytest.mark.parametrize("params", [OmegaParams(2, 3), OmegaParams(Fraction(7, 3), Fraction(11, 4)),
                                    OmegaParams(Fraction(1, 2), 1)])
def test_no_output_depends_on_term_order(params):
    # omega and the top power rebuilt with every tuple and term map reversed
    chart, _, omega = standard_construction(WINDOW, params)
    flipped = Form(chart, 2, [(idx, _reversed_terms(p)) for idx, p in reversed(omega.terms.items())])
    assert flipped == omega and list(flipped.terms) == list(reversed(omega.terms))
    report = verify_construction(omega, WINDOW, params)
    top = _reversed_terms(report.top_power_poly)
    assert list(top.terms) == list(reversed(report.top_power_poly.terms))
    reports = [report, verify_construction(flipped, WINDOW, params),
               replace(report, top_power_poly=top)]
    cfg = SamplerConfig(100_000, 40, WINDOW, seed=7)
    outputs = []
    for r in reports:
        density = analytic_dh_density(r, WINDOW)
        outputs.append((json.dumps(r.to_json_dict()), r.text_table(), density, str(density),
                        json.dumps(analytic_logconcavity(density, (WINDOW.lo, WINDOW.hi))
                                   .to_json_dict()),
                        sample_pushforward(r.top_power_poly, cfg)))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_a_window_holds_the_nearest_doubles_of_its_ends():
    window = CutWindow(Fraction(1, 2), Fraction(9, 2))
    assert (window.lo, window.hi) == (0.5, 4.5)
    assert type(window.lo) is float and type(window.hi) is float
    _, _, omega = standard_construction(window)
    report, want = verify_construction(omega, window), verify_construction(omega, WINDOW)
    assert json.dumps(report.to_json_dict()) == json.dumps(want.to_json_dict())
    assert report.text_table() == want.text_table()
    assert (sample_pushforward(VERIFIED_TOP, SamplerConfig(50_000, 20, window, seed=3))
            == sample_pushforward(VERIFIED_TOP, SamplerConfig(50_000, 20, WINDOW, seed=3)))
    # ends with an exact ratio of their own keep it; a float end is kept as it is
    assert CutWindow(np.float32(1.5), Decimal("2.5")) == CutWindow(1.5, 2.5)
    for lo, hi in [(math.nan, 1.0), (1.0, math.inf)]:
        with pytest.raises(ValueError, match=r"^cut window needs finite 0 < A < B, got"):
            CutWindow(lo, hi)


@pytest.mark.parametrize("lo, hi, want", [
    (np.int64(1), np.int64(3), (1.0, 3.0)),
    ("1", "3", (1.0, 3.0)),
    ("1/3", "7/2", (1 / 3, 3.5)),
    (np.int64(2), Fraction(5, 2), (2.0, 2.5)),
])
def test_a_window_end_enters_as_any_outside_number(lo, hi, want):
    window = CutWindow(lo, hi)
    assert (window.lo, window.hi) == want
    assert type(window.lo) is float and type(window.hi) is float


@pytest.mark.parametrize("lo, hi, exc", [
    ("a", "b", ValueError),
    ("1", "x", ValueError),
    (None, 3, TypeError),
    (1, [3], TypeError),
])
def test_a_malformed_window_end_raises_as_rational_does(lo, hi, exc):
    with pytest.raises(exc):
        CutWindow(lo, hi)


def test_thread_count_invariance():
    cfg = SamplerConfig(120_000, 20, WINDOW, seed=17, chunk_size=1 << 13)
    serial = sample_pushforward(VERIFIED_TOP, cfg, threads=1)
    threaded = sample_pushforward(VERIFIED_TOP, cfg, threads=4)
    assert serial == threaded  # bit-identical: merge order is fixed


def test_stderr_scales_with_sample_count():
    small = normalize(sample_pushforward(
        VERIFIED_TOP, SamplerConfig(100_000, 20, WINDOW, seed=19)))
    big = normalize(sample_pushforward(
        VERIFIED_TOP, SamplerConfig(400_000, 20, WINDOW, seed=19)))
    ratio = small.stderr / big.stderr
    # quadrupling the sample count halves the error, within a factor 1.5
    assert np.all(ratio >= 2 / 1.5)
    assert np.all(ratio <= 2 * 1.5)


def test_fiber_coordinate_independence():
    cfg = SamplerConfig(600_000, 20, WINDOW, seed=97)
    full = normalize(sample_pushforward(VERIFIED_TOP, cfg))
    for cond_axis, lo, hi in [(0, 0.0, 0.5), (5, 0.25, 1.0), (2, 0.1, 0.7)]:
        ws = np.zeros(cfg.bins)
        w2 = np.zeros(cfg.bins)
        kept = 0
        for pts, wts in iter_sample_chunks(VERIFIED_TOP, cfg):
            mask = (pts[:, cond_axis] >= lo) & (pts[:, cond_axis] < hi)
            idx = ((pts[mask, 4] - WINDOW.lo) * (cfg.bins / WIDTH)).astype(int)
            np.clip(idx, 0, cfg.bins - 1, out=idx)
            ws += np.bincount(idx, weights=wts[mask], minlength=cfg.bins)
            w2 += np.bincount(idx, weights=wts[mask] ** 2, minlength=cfg.bins)
            kept += int(mask.sum())
        edges = np.linspace(WINDOW.lo, WINDOW.hi, cfg.bins + 1)
        cond = normalize(Histogram(edges, ws, w2, kept))
        assert np.all(np.abs(cond.density - full.density) <= 3 * cond.stderr)


def _oracle_sums(top_poly: Poly, cfg: SamplerConfig):
    """Per-bin weight sums of the oracle chunks, added in chunk order, as the
    reproducibility contract states: a fixed order makes the merge
    bit-identical across thread counts."""
    sums, sq = np.zeros(cfg.bins), np.zeros(cfg.bins)
    for pts, wts in iter_sample_chunks(top_poly, cfg):
        idx = ((pts[:, 4] - WINDOW.lo) * (cfg.bins / WIDTH)).astype(np.int64)
        np.clip(idx, 0, cfg.bins - 1, out=idx)
        sums += np.bincount(idx, weights=wts, minlength=cfg.bins)
        sq += np.bincount(idx, weights=wts * wts, minlength=cfg.bins)
    return sums, sq


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("chunk_size", [1 << 13, 77_777])
@pytest.mark.parametrize("top", ["verified", "flat", "fiber"])
def test_sampler_matches_the_stream_oracle(top, chunk_size, threads):
    top_poly = {"verified": VERIFIED_TOP, "flat": FLAT_TOP,
                "fiber": (Poly.constant(6, 1) + Poly.variable(6, 0)) * VERIFIED_TOP}[top]
    cfg = SamplerConfig(250_000, 20, WINDOW, seed=29, chunk_size=chunk_size)
    h = sample_pushforward(top_poly, cfg, threads=threads)
    sums, sq = _oracle_sums(top_poly, cfg)
    assert h.weight_sums.tobytes() == sums.tobytes()
    assert h.weight_sq_sums.tobytes() == sq.tobytes()
    assert h.total_weight == float(np.sum(sums))


@pytest.mark.parametrize("threads", [1, 3])
def test_sampler_draws_one_word_per_axis_it_reads(monkeypatch, threads):
    words, philox = [], measure.Philox

    class CountingPhilox:
        def __init__(self, *args, **kwargs):
            self._bg = philox(*args, **kwargs)

        def random_raw(self, size):
            words.append(size)
            return self._bg.random_raw(size)

    monkeypatch.setattr(measure, "Philox", CountingPhilox)
    cfg = SamplerConfig(250_000, 20, WINDOW, seed=29, chunk_size=77_777)
    chunks = -(-cfg.sample_count // cfg.chunk_size)
    drawn = {}
    for top, poly in [("verified", VERIFIED_TOP), ("flat", FLAT_TOP),
                      ("fiber", (Poly.constant(6, 1) + Poly.variable(6, 0)) * VERIFIED_TOP)]:
        words.clear()
        sample_pushforward(poly, cfg, threads=threads)
        drawn[top] = sum(words)
    # t is all the paper's weight reads: one word per sample, and at most 3
    # words per chunk before its first sample
    assert cfg.sample_count <= drawn["verified"] <= cfg.sample_count + 3 * chunks
    assert drawn["flat"] == drawn["verified"]
    assert drawn["fiber"] == 2 * drawn["verified"]  # t and x1


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_flat_weights():
    est = normalize(_manual_histogram([5.0] * 8))
    assert np.allclose(est.density, 1.0 / WIDTH, atol=1e-15)
    assert abs(np.sum(est.density) * (WIDTH / 8) - 1.0) <= 1e-12


def test_normalize_single_spike():
    est = normalize(_manual_histogram([0, 0, 7.5, 0, 0]))
    width = WIDTH / 5
    assert est.density[2] == pytest.approx(1.0 / width)
    assert np.all(est.density[[0, 1, 3, 4]] == 0)


def test_normalize_rejects_empty_measure():
    with pytest.raises(EmptyMeasureError):
        normalize(_manual_histogram([0.0] * 5))


def test_density_integrates_to_one():
    cfg = SamplerConfig(100_000, 40, WINDOW, seed=23)
    est = normalize(sample_pushforward(VERIFIED_TOP, cfg))
    assert abs(float(np.sum(est.density)) * (WIDTH / 40) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _rho_bin_averages(bins: int) -> np.ndarray:
    """Exact bin averages of the normalized RHO, from its antiderivative."""
    def antiderivative(t):
        return t ** 3 / 3 - 5 * t ** 2 / 2 + 7 * t

    lo, hi = Fraction(1, 2), Fraction(9, 2)
    edges = [lo + (hi - lo) * k / bins for k in range(bins + 1)]
    mass = antiderivative(hi) - antiderivative(lo)
    return np.array([float((antiderivative(b) - antiderivative(a)) / ((b - a) * mass))
                     for a, b in zip(edges, edges[1:])])


def test_compare_exact_self():
    bins = 40
    edges = np.linspace(WINDOW.lo, WINDOW.hi, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    est = DensityEstimate(centers, _rho_bin_averages(bins), np.zeros(bins))
    comp = compare(est, RHO, WINDOW)
    assert comp.max_rel_error <= 1e-12
    assert np.all(comp.per_bin_z == 0)
    assert np.array_equal(comp.reference, est.density)


def test_compare_reference_is_the_bin_average():
    # a bin estimates the average of the density over it, which differs from
    # the value at the centre by O(h^2): at 4 bins the centre values are off
    # by up to 8%, far beyond the standard errors of 2 million samples
    cfg = SamplerConfig(2_000_000, 4, WINDOW, seed=42)
    comp = compare(normalize(sample_pushforward(VERIFIED_TOP, cfg)), RHO, WINDOW)
    assert np.array_equal(comp.reference, _rho_bin_averages(4))
    assert comp.max_rel_error <= 0.01
    assert np.all(np.abs(comp.per_bin_z) <= 3)


def test_compare_flat_estimate_worst_bin_at_the_dip():
    bins = 40
    est = normalize(_manual_histogram([1.0] * bins))
    comp = compare(est, RHO, WINDOW)
    # the relative error peaks where rho is smallest: the dip at t = 5/2,
    # between bins 19 and 20, not the endpoints where the absolute
    # deviation peaks
    assert comp.worst_bin in (bins // 2 - 1, bins // 2)
    rel = np.abs(est.density - comp.reference) / comp.reference
    assert comp.max_rel_error == rel[comp.worst_bin] == rel.max() > 1.0
    assert np.argmax(np.abs(est.density - comp.reference)) in (0, bins - 1)


def test_compare_statistical_run():
    cfg = SamplerConfig(2_000_000, 40, WINDOW, seed=42)
    est = normalize(sample_pushforward(VERIFIED_TOP, cfg))
    comp = compare(est, RHO, WINDOW)
    assert comp.max_rel_error <= 0.03


def test_compare_rejects_bad_analytic():
    est = normalize(_manual_histogram([1.0] * 10))
    with pytest.raises(ValueError):
        compare(est, Poly.constant(1, 0), WINDOW)          # zero mass
    with pytest.raises(ValueError):
        compare(est, VERIFIED_TOP, WINDOW)                    # not univariate


def test_analytic_density_feeds_compare():
    _, _, omega = standard_construction(WINDOW)
    report = verify_construction(omega, WINDOW)
    density = analytic_dh_density(report, WINDOW)
    cfg = SamplerConfig(300_000, 30, WINDOW, seed=29)
    comp = compare(normalize(sample_pushforward(report.top_power_poly, cfg)),
                   density, WINDOW)
    assert comp.max_rel_error <= 0.08
    assert np.count_nonzero(np.abs(comp.per_bin_z) > 3) <= 1
