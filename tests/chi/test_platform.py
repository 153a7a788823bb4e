"""ExoPlatform assembly and the tracked host accessor."""

import numpy as np
import pytest

from repro.chi.platform import ExoPlatform, HostAccessor
from repro.errors import CoherenceViolation, SchedulingError


class TestAssembly:
    def test_shared_components(self, platform):
        # one address space threaded everywhere
        assert platform.device.space is platform.space
        assert platform.exoskeleton.space is platform.space
        assert platform.device.coherence is platform.coherence

    def test_time_conversions(self, platform):
        assert platform.gma_seconds(667e6) == pytest.approx(1.0)
        assert platform.cpu_seconds(2.33e9) == pytest.approx(1.0)

    def test_config_names(self):
        assert ExoPlatform().config_name == "CC Shared"
        assert ExoPlatform(coherent=False).config_name == "Non-CC Shared"
        assert ExoPlatform(shared_virtual_memory=False).config_name == \
            "Data Copy"

    def test_default_configs_are_per_instance(self):
        """Defaulted configs are constructed per platform, so nothing one
        platform does can leak into the next (no shared mutable default
        arguments in the signature)."""
        first, second = ExoPlatform(), ExoPlatform()
        assert first.device.config is not second.device.config
        assert first.cpu.config is not second.cpu.config
        assert first.bandwidth is not second.bandwidth


class TestFabricAssembly:
    def test_default_fabric_contents(self, platform):
        assert platform.fabric.names() == ["gma0"]
        assert platform.fabric.require("X3000") == platform.gma_devices
        assert platform.device is platform.fabric.get("gma0").gma

    def test_n_accelerator_fabric_shares_the_address_space(self):
        platform = ExoPlatform(num_gma_devices=3)
        devices = platform.gma_devices
        assert [d.name for d in devices] == ["gma0", "gma1", "gma2"]
        for device in devices:
            assert device.gma.space is platform.space
            assert device.gma.coherence is platform.coherence

    def test_device_count_validated(self):
        with pytest.raises(SchedulingError, match="at least one"):
            ExoPlatform(num_gma_devices=0)

    def test_queue_configuration_reaches_every_device(self):
        platform = ExoPlatform(num_gma_devices=2, queue_depth=32,
                               admission_policy="block")
        for device in platform.fabric:
            assert device.queue.depth == 32
            assert device.queue.policy.value == "block"


class TestHostAccessor:
    def test_writes_dirty_the_host_cache(self):
        platform = ExoPlatform(coherent=False)
        base = platform.space.alloc(4096, eager=True)
        platform.host.write_bytes(base, np.zeros(100, dtype=np.uint8))
        assert platform.coherence.cache("cpu").dirty_bytes > 0

    def test_coherent_mode_tracks_nothing(self):
        platform = ExoPlatform(coherent=True)
        base = platform.space.alloc(4096, eager=True)
        platform.host.write_bytes(base, np.zeros(100, dtype=np.uint8))
        assert platform.coherence.cache("cpu").dirty_bytes == 0

    def test_strict_host_read_of_device_dirty_lines(self):
        platform = ExoPlatform(coherent=False, strict_coherence=True)
        base = platform.space.alloc(4096, eager=True)
        platform.coherence.note_write("gma", base, 64)
        with pytest.raises(CoherenceViolation):
            platform.host.read_bytes(base, 8)
        platform.coherence.flush("gma")
        platform.host.read_bytes(base, 8)

    def test_typed_roundtrip(self, platform):
        base = platform.space.alloc(64)
        platform.host.write_array(base, np.array([1.5, 2.5],
                                                 dtype=np.float32))
        got = platform.host.read_array(base, 2, np.float32)
        assert got.tolist() == [1.5, 2.5]
