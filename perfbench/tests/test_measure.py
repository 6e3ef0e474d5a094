import pytest

from perfbench.measure import MIN_SAMPLES_BEYOND, percentile, supported


class TestPercentile:
    def test_nearest_rank_is_a_sample(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 50) == (50.0, 50)
        assert percentile(samples, 95) == (95.0, 5)
        assert percentile(samples, 100) == (100.0, 0)

    def test_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(samples, 50) == (3.0, 2)

    def test_small_rank_rounds_up_to_first_sample(self):
        assert percentile([7.0, 9.0], 1) == (7.0, 1)

    def test_ties_are_not_counted_beyond(self):
        samples = [1.0] * 50 + [2.0] * 50
        assert percentile(samples, 95) == (2.0, 0)
        assert percentile(samples, 50) == (1.0, 50)

    @pytest.mark.parametrize("q", [0, -1, 100.5])
    def test_rank_out_of_range_raises(self, q):
        with pytest.raises(ValueError):
            percentile([1.0], q)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestSamplesBeyond:
    def test_p95_of_199_samples_is_not_supported(self):
        _, beyond = percentile([float(i) for i in range(199)], 95)
        assert beyond == MIN_SAMPLES_BEYOND - 1
        assert not supported(beyond)

    def test_p95_of_200_samples_is_supported(self):
        value, beyond = percentile([float(i) for i in range(1, 201)], 95)
        assert (value, beyond) == (190.0, 10)
        assert supported(beyond)
