"""The shipped default: every unobserved path runs its fused function.

``tests/conftest.py`` may pin the whole suite to the compiled tier
(``--tier compiled``); this module restores the value ``Path.specialize``
had before any pin so it checks the default the package ships with.
"""

import pytest

from repro.api import PA_LOCAL_PORT, PA_NET_PARTICIPANTS, PA_TRACE, Scout
from repro.core import BWD
from repro.core.path import Path
from repro.net.addresses import EthAddr, IpAddr
from repro.net.packets import build_udp_frame

from ..conftest import SHIPPED_SPECIALIZE

LOCAL_MAC, LOCAL_IP = "02:00:00:00:00:01", "10.0.0.1"
REMOTE_MAC, REMOTE_IP = "02:00:00:00:00:02", "10.0.0.2"


def frames(port, count, start=0):
    return [bytes(build_udp_frame(EthAddr(REMOTE_MAC), EthAddr(LOCAL_MAC),
                                  IpAddr(REMOTE_IP), IpAddr(LOCAL_IP),
                                  7000, port, b"msg%04d" % i))
            for i in range(start, start + count)]


@pytest.fixture
def scout(monkeypatch):
    monkeypatch.setattr(Path, "specialize", SHIPPED_SPECIALIZE)
    scout = Scout(seed=1, udp_sink=True, display=False)
    scout.add_peer(REMOTE_IP, REMOTE_MAC)
    return scout


def test_fused_tier_is_the_shipped_default():
    assert SHIPPED_SPECIALIZE is True


def test_default_sink_path_runs_fused(scout):
    path = scout.kernel.start_udp_sink(6100, (REMOTE_IP, 7000), batch=8)
    assert path._specialized[BWD] is not None
    received = scout.kernel.test.received
    # The first burst fills the flow cache; its first run is cold.
    scout.kernel.rx_burst(frames(6100, 16))
    scout.world.run_until_idle()
    delivered, fused = len(received), path.specialized_msgs
    assert delivered == 16
    scout.kernel.rx_burst(frames(6100, 32, start=16))
    scout.world.run_until_idle()
    assert len(received) - delivered == 32
    assert path.specialized_msgs - fused == 32


def test_traced_path_stays_interpreted(scout):
    path = (scout.path(scout.kernel.test)
            .invariants({PA_NET_PARTICIPANTS: (REMOTE_IP, 7000),
                         PA_LOCAL_PORT: 6200,
                         PA_TRACE: scout.kernel.observatory})
            .build())
    assert path.observer is not None
    assert path._specialized == [None, None]
