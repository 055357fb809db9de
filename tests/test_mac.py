import numpy as np
import pytest

from vrwifi import mac
from vrwifi.config import MacConfig


def packets(n=10_001, size=1243):
    """Columns of n packets of one size, ids 0 to n - 1."""
    return mac.Packets.of_sizes([size] * n)


def ap(capacity=1000, pk=None):
    cfg = MacConfig(ap_buffer=capacity)
    return mac.make_station(mac.AP, cfg, pk or packets())


def rng(seed=0):
    return np.random.default_rng(seed)


def test_station_capacities_from_config():
    cfg = MacConfig()
    assert mac.make_station(mac.AP, cfg, packets()).capacity == 1000
    assert mac.make_station(mac.CLIENT, cfg, packets()).capacity == 150


def test_enqueue_accepts_below_capacity():
    st = ap(capacity=1000)
    for i in range(999):
        assert mac.enqueue(st, i, float(i)) == "accepted"
    assert mac.enqueue(st, 999, 999.0) == "accepted"
    assert st.drops_buffer == 0


def test_enqueue_tail_drops_at_capacity():
    st = ap(capacity=1000)
    for i in range(1000):
        mac.enqueue(st, i, 0.0)
    assert mac.enqueue(st, 1000, 1.0) == "dropped"
    assert st.drops_buffer == 1
    assert len(st.buffer) == 1000


def test_enqueue_stamps_time():
    st = ap()
    mac.enqueue(st, 0, 123.5)
    assert st.packets.enqueue_us[0] == 123.5
    assert st.packets.enqueue_us[1] is None


def test_backoff_within_window():
    st = ap()
    r = rng(1)
    draws = [mac.draw_backoff(st, r) for _ in range(2000)]
    assert min(draws) >= 0 and max(draws) <= 31
    assert 0 in draws and 31 in draws


def test_cw_doubling_sequence_and_cap():
    st = ap()
    seen = [st.cw]
    for _ in range(6):
        mac.note_exchange_failure(st)
        seen.append(st.cw)
    assert seen == [31, 63, 127, 255, 511, 1023, 1023]


def test_cw_resets_on_success():
    st = ap()
    for _ in range(4):
        mac.note_exchange_failure(st)
    mac.note_exchange_success(st)
    assert st.cw == 31


def test_cw_for_retry_scaling():
    st = ap()
    assert [mac.cw_for_retry(st, k) for k in range(7)] == [
        31, 63, 127, 255, 511, 1023, 1023]


def test_assemble_respects_max_ampdu():
    st = ap()
    for i in range(300):
        mac.enqueue(st, i, 0.0)
    ampdu = mac.assemble_ampdu(st, max_ampdu=256)
    assert len(ampdu) == 256
    assert ampdu.mpdus == list(range(256))
    assert len(st.buffer) == 44


def test_assemble_takes_whole_small_buffer():
    st = ap()
    for i in range(14):
        mac.enqueue(st, i, 0.0)
    ampdu = mac.assemble_ampdu(st, max_ampdu=256)
    assert len(ampdu) == 14
    assert ampdu.total_bytes == 14 * 1243


def test_assemble_empty_buffer_no_attempt():
    assert mac.assemble_ampdu(ap(), max_ampdu=256) is None


def test_assemble_with_snapshot_limit():
    st = ap()
    for i in range(40):
        mac.enqueue(st, i, 0.0)
    ampdu = mac.assemble_ampdu(st, max_ampdu=256, limit=10)
    assert len(ampdu) == 10
    assert ampdu.mpdus == list(range(10))


def test_assemble_byte_bound():
    st = ap()
    for i in range(100):
        mac.enqueue(st, i, 0.0)
    ampdu = mac.assemble_ampdu(st, max_ampdu=256, max_bytes=65535)
    assert len(ampdu) == 65535 // 1243 == 52
    assert ampdu.total_bytes <= 65535
    # a single oversized packet still goes out alone
    st2 = ap(pk=packets(1, size=70_000))
    mac.enqueue(st2, 0, 0.0)
    assert len(mac.assemble_ampdu(st2, 256, max_bytes=65535)) == 1


def test_apply_per_extremes():
    st = ap()
    for i in range(20):
        mac.enqueue(st, i, 0.0)
    ampdu = mac.assemble_ampdu(st, 256)
    assert mac.apply_per(ampdu, 0.0, rng()).all()
    assert not mac.apply_per(ampdu, 1.0, rng()).any()


def test_apply_per_binomial_three_sigma():
    st = ap()
    for i in range(10_000):
        st.buffer.append(i)
    ampdu = mac.assemble_ampdu(st, max_ampdu=10_000)
    failures = int((~mac.apply_per(ampdu, 0.1, rng(7))).sum())
    assert abs(failures - 1000) <= 90   # 3 sigma of Binomial(1e4, 0.1)


def test_handle_back_all_success():
    st = ap()
    for i in range(10):
        mac.enqueue(st, i, 0.0)
    ampdu = mac.assemble_ampdu(st, 256)
    delivered, requeued, dropped = mac.handle_back(
        st, ampdu, np.ones(10, dtype=bool), max_retx=7)
    assert len(delivered) == 10 and not requeued and not dropped
    assert len(st.buffer) == 0


def test_handle_back_failed_subset_precedes_new_packets():
    st = ap()
    for i in range(6):
        mac.enqueue(st, i, 0.0)
    ampdu = mac.assemble_ampdu(st, max_ampdu=4)    # takes 0..3
    flags = np.array([True, False, True, False])
    delivered, requeued, dropped = mac.handle_back(st, ampdu, flags, 7)
    assert delivered == [0, 2]
    assert requeued == [1, 3]
    assert st.packets.retx_count[:6] == [0, 1, 0, 1, 0, 0]
    nxt = mac.assemble_ampdu(st, 256)
    assert nxt.mpdus == [1, 3, 4, 5]


def test_handle_back_drop_after_max_retx():
    st = ap()
    st.packets.retx_count[0] = 7
    mac.enqueue(st, 0, 0.0)
    ampdu = mac.assemble_ampdu(st, 256)
    delivered, requeued, dropped = mac.handle_back(
        st, ampdu, np.array([False]), max_retx=7)
    assert dropped == [0] and not delivered and not requeued
    assert st.drops_retx == 1
    assert len(st.buffer) == 0


def test_handle_back_retry_below_limit_requeues():
    st = ap()
    st.packets.retx_count[0] = 6
    mac.enqueue(st, 0, 0.0)
    ampdu = mac.assemble_ampdu(st, 256)
    _, requeued, dropped = mac.handle_back(st, ampdu, np.array([False]), 7)
    assert requeued == [0] and not dropped
    assert st.packets.retx_count[0] == 7
