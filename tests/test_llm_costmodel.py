"""Cost model: fitting quality, Eq. 12/13 scaling behaviour."""

import pytest

from repro.llm import (
    TEST_GPU,
    TINY,
    A100,
    V100,
    BatchSpec,
    CostModelBank,
    SyntheticExecutor,
    fit_compute_model,
    get_hardware,
    profile_decode,
    profile_prefill,
)


@pytest.fixture(scope="module")
def tiny_model():
    return fit_compute_model(TINY, TEST_GPU, seed=0)


class TestProfiler:
    def test_prefill_samples_features(self):
        samples = profile_prefill(TINY, TEST_GPU, p_tens=2, seed=0)
        assert all(s.features.shape == (3,) for s in samples)
        assert all(s.latency > 0 for s in samples)

    def test_decode_samples(self):
        samples = profile_decode(TINY, TEST_GPU, 2, 2, seed=0)
        assert all(s.latency > 0 for s in samples)

    def test_executor_deterministic_given_seed(self):
        b = BatchSpec.uniform(2, 64, 8)
        a = SyntheticExecutor(TINY, TEST_GPU, seed=1).prefill_time(b, 1)
        c = SyntheticExecutor(TINY, TEST_GPU, seed=1).prefill_time(b, 1)
        assert a == c

    def test_executor_tp_speedup(self):
        b = BatchSpec.uniform(2, 512, 8)
        ex = SyntheticExecutor(TINY, TEST_GPU, jitter=0.0)
        assert ex.prefill_time(b, 4) < ex.prefill_time(b, 1)

    def test_decode_memory_bound_floor(self):
        """At q=1 decode time is dominated by the weight-read floor."""
        ex = SyntheticExecutor(TINY, TEST_GPU, jitter=0.0)
        t1 = ex.decode_time(BatchSpec.uniform(1, 8, 1), 8, 1)
        t2 = ex.decode_time(BatchSpec.uniform(2, 8, 1), 16, 1)
        # Doubling the batch shouldn't double the time (bandwidth bound).
        assert t2 < 1.5 * t1

    def test_get_hardware(self):
        assert get_hardware("A100") is A100
        with pytest.raises(KeyError):
            get_hardware("H100")

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            SyntheticExecutor(TINY, TEST_GPU, jitter=0.6)


class TestFit:
    def test_coefficients_nonnegative(self, tiny_model):
        assert all(c >= 0 for c in tiny_model.coeffs.as_array())

    def test_fit_accuracy_against_executor(self, tiny_model):
        """Fitted model predicts fresh noise-free measurements within 20%."""
        ex = SyntheticExecutor(TINY, TEST_GPU, jitter=0.0)
        b = BatchSpec.uniform(3, 200, 10)
        pred = tiny_model.prefill_time(b, 2)
        truth = ex.prefill_time(b, 2)
        assert pred == pytest.approx(truth, rel=0.2)

    def test_fit_cache_returns_same_object(self):
        a = fit_compute_model(TINY, TEST_GPU, seed=0)
        b = fit_compute_model(TINY, TEST_GPU, seed=0)
        assert a is b

    def test_different_hardware_different_model(self):
        a = fit_compute_model(TINY, TEST_GPU, seed=0)
        b = fit_compute_model(TINY, A100, seed=0)
        assert a is not b


class TestEq12Eq13Scaling:
    def test_prefill_scales_down_with_tp(self, tiny_model):
        b = BatchSpec.uniform(4, 256, 16)
        assert tiny_model.prefill_time(b, 4) < tiny_model.prefill_time(b, 1)

    def test_prefill_grows_with_kin(self, tiny_model):
        b1 = BatchSpec.uniform(4, 128, 16)
        b2 = BatchSpec.uniform(4, 512, 16)
        assert tiny_model.prefill_time(b2, 2) > tiny_model.prefill_time(b1, 2)

    def test_prefill_quadratic_term(self, tiny_model):
        """Same K_in, more skewed lengths -> higher K_in2 -> slower."""
        uniform = BatchSpec((100, 100), (1, 1))
        skewed = BatchSpec((190, 10), (1, 1))
        assert tiny_model.prefill_time(
            skewed, 1
        ) >= tiny_model.prefill_time(uniform, 1)

    def test_decode_scales_with_context(self, tiny_model):
        t1 = tiny_model.decode_time(4, 100, 1, 1)
        t2 = tiny_model.decode_time(4, 10_000, 1, 1)
        assert t2 > t1

    def test_decode_scales_down_with_parallelism(self, tiny_model):
        t1 = tiny_model.decode_time(4, 1000, 1, 1)
        t2 = tiny_model.decode_time(4, 1000, 2, 2)
        assert t2 < t1

    def test_validation(self, tiny_model):
        b = BatchSpec.uniform(1, 8, 1)
        with pytest.raises(ValueError):
            tiny_model.prefill_time(b, 0)
        with pytest.raises(ValueError):
            tiny_model.decode_time(0, 10, 1, 1)
        with pytest.raises(ValueError):
            tiny_model.decode_time(1, 10, 0, 1)


class TestBank:
    def test_group_times_take_slowest(self):
        bank = CostModelBank(TINY, {"TEST": TEST_GPU, "V100": V100}, seed=0)
        b = BatchSpec.uniform(2, 128, 8)
        slow = bank.group_prefill_time(["TEST"], b, 1)
        fast = bank.group_prefill_time(["V100"], b, 1)
        mixed = bank.group_prefill_time(["TEST", "V100"], b, 1)
        assert mixed == max(slow, fast)

    @pytest.mark.parametrize(
        "members",
        [
            ["A100", "V100", "A100", "A100", "V100", "V100", "A100"],
            ["V100"] * 5 + ["A100"] * 3,
            ["A100"] * 8,
        ],
    )
    def test_group_times_price_each_model_once(self, members):
        bank = CostModelBank(TINY, {"A100": A100, "V100": V100}, seed=0)
        b = BatchSpec.uniform(3, 200, 16)
        assert bank.group_prefill_time(members, b, 2) == max(
            bank.for_hardware(hw).prefill_time(b, 2) for hw in members
        )
        assert bank.group_decode_time(members, 6, 1900, 2, 3) == max(
            bank.for_hardware(hw).decode_time(6, 1900, 2, 3) for hw in members
        )

    def test_unknown_hardware_raises(self):
        bank = CostModelBank(TINY, {"TEST": TEST_GPU}, seed=0)
        with pytest.raises(KeyError):
            bank.for_hardware("A100")

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            CostModelBank(TINY, {})
