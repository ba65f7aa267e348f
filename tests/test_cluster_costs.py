"""Unit tests for the paper-calibrated cost model."""

import pytest

from repro.cluster import CostModel


class TestCPUCosts:
    def test_paper_8kb_document_rate(self):
        """Paper: 'an 8 KByte document can be served from the main memory
        cache at a rate of approximately 1075 requests/sec'."""
        model = CostModel()
        per_request = model.cached_request_time(8 * 1024)
        rate = 1.0 / per_request
        assert rate == pytest.approx(1075, rel=0.01)

    def test_connection_costs(self):
        model = CostModel()
        assert model.connection_time() == pytest.approx(145e-6)
        assert model.teardown_time() == pytest.approx(145e-6)

    def test_transmit_per_512_bytes(self):
        model = CostModel()
        assert model.transmit_time(512) == pytest.approx(40e-6)
        assert model.transmit_time(1024) == pytest.approx(80e-6)
        assert model.transmit_time(513) == pytest.approx(80e-6)  # rounds up
        assert model.transmit_time(0) == 0.0

    def test_cpu_speed_scales_cpu_only(self):
        fast = CostModel(cpu_speed=2.0)
        assert fast.connection_time() == pytest.approx(72.5e-6)
        assert fast.transmit_time(512) == pytest.approx(20e-6)
        assert fast.disk_read_time(4096) == CostModel().disk_read_time(4096)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CostModel().transmit_time(-1)


class TestDiskCosts:
    def test_initial_latency_plus_transfer(self):
        model = CostModel()
        # 4 KB: 28 ms + one 410 us transfer unit.
        assert model.disk_read_time(4096) == pytest.approx(28e-3 + 410e-6)

    def test_peak_transfer_rate_about_10mb_per_sec(self):
        model = CostModel()
        one_mb = 2**20
        transfer_only = model.disk_transfer_time(one_mb)
        assert one_mb / transfer_only == pytest.approx(10e6, rel=0.05)

    def test_no_extra_seek_below_44kb(self):
        model = CostModel()
        chunks = model.disk_chunks(44 * 1024)
        assert len(chunks) == 1

    def test_extra_seek_every_44kb(self):
        """Paper: an additional 14 ms per 44 KB beyond 44 KB."""
        model = CostModel()
        chunks = model.disk_chunks(100 * 1024)
        assert len(chunks) == 3  # 44 + 44 + 12 KB
        assert chunks[0][1] > chunks[1][1]  # first chunk pays the 28 ms
        total = model.disk_read_time(100 * 1024)
        expected = 28e-3 + 2 * 14e-3 + model.disk_transfer_time(44 * 1024) * 2 + \
            model.disk_transfer_time(12 * 1024)
        assert total == pytest.approx(expected)

    def test_chunks_cover_exact_size(self):
        model = CostModel()
        for size in (0, 1, 4096, 44 * 1024, 44 * 1024 + 1, 1_000_000):
            chunks = model.disk_chunks(size)
            assert sum(c for c, _ in chunks) == size

    def test_zero_byte_file_still_pays_initial_latency(self):
        model = CostModel()
        assert model.disk_read_time(0) == pytest.approx(28e-3)

    def test_disk_speed_scaling(self):
        fast = CostModel(disk_speed=2.0)
        assert fast.disk_read_time(4096) == pytest.approx((28e-3 + 410e-6) / 2)


class TestDerived:
    def test_with_cpu_speed(self):
        model = CostModel().with_cpu_speed(3.0)
        assert model.cpu_speed == 3.0
        assert CostModel().cpu_speed == 1.0  # frozen: original untouched

    def test_gms_fetch_time(self):
        model = CostModel()
        assert model.gms_fetch_time(512) == pytest.approx(40e-6)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            CostModel(cpu_speed=0)
        with pytest.raises(ValueError):
            CostModel(disk_speed=-1)

    @pytest.mark.parametrize("speed", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("field", ["cpu_speed", "disk_speed"])
    def test_speed_must_be_positive_and_finite(self, field, speed):
        """NaN passed the old ``<= 0`` test and ran (idle nan%, delay
        nan ms); inf ran a zero-time server."""
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            CostModel(**{field: speed})

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1e-6])
    @pytest.mark.parametrize(
        "field",
        ["connection_setup_s", "connection_teardown_s", "transmit_s_per_512b",
         "disk_initial_latency_s", "disk_transfer_s_per_4kb", "disk_extra_seek_s",
         "gms_fetch_s_per_512b"],
    )
    def test_service_constants_must_be_finite_and_non_negative(self, field, seconds):
        with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
            CostModel(**{field: seconds})
        assert getattr(CostModel(**{field: 0.0}), field) == 0.0  # free is legal

    def test_hashable_for_memoization(self):
        assert hash(CostModel()) == hash(CostModel())
        assert CostModel() == CostModel()
