import math

import numpy as np
import pytest

from finslercheck import sampling
from finslercheck.metrics import MetricSample
from finslercheck.sampling import (
    SampleSpec,
    default_r_range,
    sample_domain,
    splitmix64_words,
    uniforms,
)

# Reference values from a direct transcription of the documented generator
# (state += 0x9E3779B97F4A7C15; z ^= z>>30; z *= 0xBF58476D1CE4E5B9;
#  z ^= z>>27; z *= 0x94D049BB133111EB; z ^= z>>31; uniform = (z>>11)*2^-53).
SEED42_FIRST_U64 = 13679457532755275413
SEED42_UNIFORMS = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
]
# First sample for seed 42, n=2, ball of radius 1 (r in [0.05, 0.95], u in [0.1, 2]):
# draws are x-radius, x-direction rejection, y-radius, y-direction rejection.
SEED42_N2_X = [-0.6012311762975995, -0.39140244247301625]
SEED42_N2_Y = [-0.5154246354541868, 0.5502696498691432]


class _Transcription:
    """Independent re-implementation used as the bit-exactness oracle."""

    MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & self.MASK
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & self.MASK
        z ^= z >> 31
        return z

    def uniform(self):
        return (self.next_u64() >> 11) * 2.0**-53


class TestSplitMix64:
    def test_first_word_frozen(self):
        assert splitmix64_words(42, 0, 1).tolist() == [SEED42_FIRST_U64]

    def test_uniform_stream_frozen(self):
        assert uniforms(42, 0, 4).tolist() == SEED42_UNIFORMS

    def test_matches_transcription_for_many_words(self):
        ref = _Transcription(123456789)
        assert splitmix64_words(123456789, 0, 1000).tolist() == [ref.next_u64() for _ in range(1000)]

    def test_block_continues_the_stream(self):
        # words 1..1000 drawn as two blocks, and at seeds where seed + k*gamma wraps
        for seed in (123456789, 2**63 + 5, 2**64 - 1):
            whole = splitmix64_words(seed, 0, 1000)
            parts = np.concatenate([splitmix64_words(seed, 0, 300), splitmix64_words(seed, 300, 700)])
            assert whole.tolist() == parts.tolist()
            ref = _Transcription(seed)
            assert whole.tolist() == [ref.next_u64() for _ in range(1000)]

    def test_uniforms_in_unit_interval(self):
        got = uniforms(7, 0, 1000)
        assert ((0.0 <= got) & (got < 1.0)).all()


def _walked_samples(spec):
    """An independent per-draw walk of the documented order over
    ``_Transcription``: one ``np.dot`` per rejection attempt, one sample at a time."""
    rng = _Transcription(spec.seed)

    def unit_vector():
        while True:
            w = np.array([2.0 * rng.uniform() - 1.0 for _ in range(spec.n)])
            ss = float(np.dot(w, w))
            if 0.0 < ss <= 1.0:
                return w / math.sqrt(ss)

    (r_lo, r_hi), (u_lo, u_hi) = spec.r_range, spec.u_range
    pairs = []
    for _ in range(spec.count):
        x = (r_lo + (r_hi - r_lo) * rng.uniform()) * unit_vector()
        y = (u_lo + (u_hi - u_lo) * rng.uniform()) * unit_vector()
        pairs.append((x, y))
    return pairs


class TestSampleDomain:
    def test_first_sample_bit_identical(self):
        spec = SampleSpec.for_metric(n=2, count=1, seed=42, domain_radius=1.0)
        s = sample_domain(spec)[0]
        assert list(s.x) == SEED42_N2_X
        assert list(s.y) == SEED42_N2_Y

    def test_repeat_runs_identical(self):
        spec = SampleSpec.for_metric(n=3, count=50, seed=42, domain_radius=1.0)
        a = sample_domain(spec)
        b = sample_domain(spec)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.y, sb.y)

    def test_bounds_respected(self):
        for radius in (1.0, math.inf):
            spec = SampleSpec.for_metric(n=3, count=200, seed=9, domain_radius=radius)
            lo, hi = spec.r_range
            for s in sample_domain(spec):
                assert lo <= s.r <= hi
                assert s.r >= 0.05
                assert s.r < radius
                assert 0.1 <= s.u <= 2.0
                assert abs(s.v) <= s.r * s.u

    def test_default_ranges(self):
        assert default_r_range(1.0) == (0.05, 0.95)
        assert default_r_range(math.inf) == (0.05, 2.0)
        assert default_r_range(0.5) == (0.05, 0.475)

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            SampleSpec.for_metric(n=2, count=0, seed=7)

    def test_dimension_range_enforced(self):
        with pytest.raises(ValueError):
            SampleSpec.for_metric(n=1, count=5, seed=7)
        with pytest.raises(ValueError):
            SampleSpec.for_metric(n=5, count=5, seed=7)

    def test_explicit_ranges_validated(self):
        with pytest.raises(ValueError):
            SampleSpec.for_metric(n=2, count=5, seed=7, r_range=(0.01, 0.9))
        with pytest.raises(ValueError):
            SampleSpec.for_metric(n=2, count=5, seed=7, u_range=(0.1, 3.0))
        for hi in (1.0, 1.5):  # points at r >= 1 lie outside a unit ball
            with pytest.raises(ValueError, match=rf"r_range \[0.05, {hi}\] must end below the domain radius 1.0"):
                SampleSpec.for_metric(n=2, count=5, seed=7, domain_radius=1.0, r_range=(0.05, hi))

    def test_different_seeds_differ(self):
        a = sample_domain(SampleSpec.for_metric(n=2, count=5, seed=1, domain_radius=1.0))
        b = sample_domain(SampleSpec.for_metric(n=2, count=5, seed=2, domain_radius=1.0))
        assert not np.array_equal(a[0].x, b[0].x)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("radius", [1.0, math.inf])
    @pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
    def test_matches_per_draw_walk(self, n, radius, seed):
        spec = SampleSpec.for_metric(n=n, count=40, seed=seed, domain_radius=radius)
        got = sample_domain(spec)
        assert len(got) == spec.count
        for s, (x, y) in zip(got, _walked_samples(spec)):
            assert s.x.tobytes() == x.tobytes() and s.y.tobytes() == y.tobytes()
            ref = MetricSample.of(x, y)
            assert (s.r, s.u, s.v) == (ref.r, ref.u, ref.v)

    def test_walk_past_the_first_block_draws_the_next(self, monkeypatch):
        # seed 0 at n = 4 needs more than the expected draws for one sample
        spec = SampleSpec.for_metric(n=4, count=1, seed=0, domain_radius=1.0)
        blocks = []

        def counted(seed, start, count):
            blocks.append((start, count))
            return uniforms(seed, start, count)

        monkeypatch.setattr(sampling, "uniforms", counted)
        [s] = sample_domain(spec)
        # the second block starts at the first undrawn word
        assert len(blocks) >= 2 and blocks[0][0] == 0 and blocks[1][0] == blocks[0][1]
        [(x, y)] = _walked_samples(spec)
        assert s.x.tobytes() == x.tobytes() and s.y.tobytes() == y.tobytes()
