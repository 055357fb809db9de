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


def draws(seed=0):
    return mac.Draws(rng(seed))


def test_station_capacities_from_config():
    cfg = MacConfig()
    assert mac.make_station(mac.AP, cfg, packets()).capacity == 1000
    assert mac.make_station(mac.CLIENT, cfg, packets()).capacity == 150


def test_enqueue_accepts_below_capacity():
    st = ap(capacity=1000)
    assert mac.enqueue(st, list(range(999))) == 999
    assert mac.enqueue(st, [999]) == 1
    assert mac.enqueue(st, []) == 0
    assert st.drops_buffer == 0
    assert st.buffer == list(range(1000))


def test_enqueue_tail_drops_at_capacity():
    st = ap(capacity=1000)
    mac.enqueue(st, list(range(1000)))
    assert mac.enqueue(st, [1000]) == 0
    assert st.drops_buffer == 1
    assert len(st.buffer) == 1000
    # a span that overfills the buffer: its head enters, its tail drops
    st = ap(capacity=10)
    assert mac.enqueue(st, list(range(4))) == 4
    assert mac.enqueue(st, list(range(4, 20))) == 6
    assert st.buffer == list(range(10)) and st.drops_buffer == 10


def test_enqueue_admits_nothing_above_capacity():
    # failed MPDUs requeued at the head can leave the buffer above its
    # capacity; a span of arrivals then drops whole
    st = ap(capacity=4)
    mac.enqueue(st, list(range(4)))
    ampdu = mac.assemble_ampdu(st, max_ampdu=3)
    mac.enqueue(st, [4, 5, 6])
    mac.handle_back(st, ampdu, [False] * 3, max_retx=7)
    assert st.buffer == [0, 1, 2, 3, 4, 5, 6]
    assert mac.enqueue(st, [7, 8, 9, 10, 11]) == 0
    assert st.drops_buffer == 5
    assert st.buffer == [0, 1, 2, 3, 4, 5, 6]


def test_backoff_within_window():
    st = ap()
    source = draws(1)
    slots = [mac.draw_backoff(st, source) for _ in range(2000)]
    assert min(slots) >= 0 and max(slots) <= 31
    assert 0 in slots and 31 in slots


# 999, 2**31 and 2**62 are ranges that Lemire's rule must reject draws in
# (about half of them for 2**31, a quarter for 2**62); from 2**32 on a
# backoff takes a 64-bit draw
@pytest.mark.parametrize("cw", [0, 1, 31, 999, 1023, 2**31, 2**32 - 2,
                                2**32 - 1, 2**33, 2**62, 2**63 - 1])
def test_backoff_draw_is_numpy_integers(cw):
    """A draw source gives Generator.integers(0, cw + 1)'s backoffs and
    Generator.random's uniforms, interleaved, and leaves the generator
    where those calls leave it: it starts after an odd count of 32-bit
    draws, which leaves half a 64-bit output buffered, and a flags call
    may take none, part of a block or more than a block. Vector draws
    made on the generator between two sources match too."""
    st = ap()
    st.cw = cw
    mine, ref, probe = rng(3), rng(3), rng(3)
    for g in (mine, ref, probe):
        g.integers(1, 3, size=901)
    # the first uniform is a PER equal to itself: a success, as u >= per
    pers = [probe.random(), 0.0, 0.1, 0.5, 1.0, 5e-324]
    sizes = [2 * mac.RAW_BLOCK + 1, 0, 1, 7, 0, 3, 64]
    for part in range(2):
        source = mac.Draws(mine)
        for k in range(400):
            n, per = sizes[k % len(sizes)], pers[k % len(pers)]
            assert source.flags(n, per) == (ref.random(n) >= per).tolist()
            assert mac.draw_backoff(st, source) == ref.integers(0, cw + 1)
        source.give_back()
        assert (mine.random(5) == ref.random(5)).all()
        assert (mine.integers(1, 3, size=3)
                == ref.integers(1, 3, size=3)).all()
    assert mine.bit_generator.state == ref.bit_generator.state


def test_flags_span_any_number_of_blocks():
    # an A-MPDU may hold more MPDUs than a thousand blocks of draws
    mine, ref = rng(5), rng(5)
    source = mac.Draws(mine)
    n = 1001 * mac.RAW_BLOCK + 5
    assert source.flags(n, 0.3) == (ref.random(n) >= 0.3).tolist()
    source.give_back()
    assert mine.bit_generator.state == ref.bit_generator.state


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
    mac.enqueue(st, list(range(300)))
    ampdu = mac.assemble_ampdu(st, max_ampdu=256)
    assert len(ampdu) == 256
    assert ampdu.mpdus == list(range(256))
    assert len(st.buffer) == 44


def test_assemble_takes_whole_small_buffer():
    st = ap()
    mac.enqueue(st, list(range(14)))
    ampdu = mac.assemble_ampdu(st, max_ampdu=256)
    assert len(ampdu) == 14
    assert ampdu.total_bytes == 14 * 1243


def test_assemble_with_snapshot_limit():
    st = ap()
    mac.enqueue(st, list(range(40)))
    ampdu = mac.assemble_ampdu(st, max_ampdu=256, limit=10)
    assert len(ampdu) == 10
    assert ampdu.mpdus == list(range(10))


def test_assemble_byte_bound():
    st = ap()
    mac.enqueue(st, list(range(100)))
    ampdu = mac.assemble_ampdu(st, max_ampdu=256, max_bytes=65535)
    assert len(ampdu) == 65535 // 1243 == 52
    assert ampdu.total_bytes <= 65535
    # a single oversized packet still goes out alone
    st2 = ap(pk=packets(1, size=70_000))
    mac.enqueue(st2, [0])
    assert len(mac.assemble_ampdu(st2, 256, max_bytes=65535)) == 1


def test_apply_per_extremes():
    st = ap()
    mac.enqueue(st, list(range(20)))
    ampdu = mac.assemble_ampdu(st, 256)
    assert mac.apply_per(ampdu, 0.0, draws()) == [True] * 20
    assert mac.apply_per(ampdu, 1.0, draws()) == [False] * 20


def test_apply_per_binomial_three_sigma():
    st = ap()
    st.buffer.extend(range(10_000))
    ampdu = mac.assemble_ampdu(st, max_ampdu=10_000)
    failures = mac.apply_per(ampdu, 0.1, draws(7)).count(False)
    assert abs(failures - 1000) <= 90   # 3 sigma of Binomial(1e4, 0.1)


def test_handle_back_all_success():
    st = ap()
    mac.enqueue(st, list(range(10)))
    ampdu = mac.assemble_ampdu(st, 256)
    delivered, requeued, dropped = mac.handle_back(
        st, ampdu, [True] * 10, max_retx=7)
    assert len(delivered) == 10 and not requeued and not dropped
    assert len(st.buffer) == 0


def test_handle_back_failed_subset_precedes_new_packets():
    st = ap()
    mac.enqueue(st, list(range(6)))
    ampdu = mac.assemble_ampdu(st, max_ampdu=4)    # takes 0..3
    flags = [True, False, True, False]
    delivered, requeued, dropped = mac.handle_back(st, ampdu, flags, 7)
    assert delivered == [0, 2]
    assert requeued == [1, 3]
    assert st.packets.retx_count[:6].tolist() == [0, 1, 0, 1, 0, 0]
    nxt = mac.assemble_ampdu(st, 256)
    assert nxt.mpdus == [1, 3, 4, 5]


def test_handle_back_drop_after_max_retx():
    st = ap()
    st.packets.retx_count[0] = 7
    mac.enqueue(st, [0])
    ampdu = mac.assemble_ampdu(st, 256)
    delivered, requeued, dropped = mac.handle_back(
        st, ampdu, [False], max_retx=7)
    assert dropped == [0] and not delivered and not requeued
    assert st.drops_retx == 1
    assert len(st.buffer) == 0


def test_handle_back_retry_below_limit_requeues():
    st = ap()
    st.packets.retx_count[0] = 6
    mac.enqueue(st, [0])
    ampdu = mac.assemble_ampdu(st, 256)
    _, requeued, dropped = mac.handle_back(st, ampdu, [False], 7)
    assert requeued == [0] and not dropped
    assert st.packets.retx_count[0] == 7


def reference_assemble(buffer, size, n, max_bytes):
    """The per-packet rule: take head packets while the byte bound holds,
    at least one; returns (mpdus, total bytes)."""
    mpdus, total = [], 0
    for pid in buffer[:n]:
        if max_bytes is not None and mpdus and total + size[pid] > max_bytes:
            break
        mpdus.append(pid)
        total += size[pid]
    return mpdus, total


@pytest.mark.parametrize("seed", range(4))
def test_assemble_matches_the_per_packet_rule(seed):
    # mixed sizes, with the head full-size or small, so that the bound
    # falls inside or beyond the look-ahead by the head's size
    r = rng(seed)
    sizes = r.choice([1243, 1243, 1243, 60, 700, 3000], size=3000).tolist()
    for _ in range(300):
        st = ap(capacity=10_000, pk=mac.Packets.of_sizes(sizes))
        st.buffer.extend(r.permutation(3000)[:r.integers(1, 400)].tolist())
        max_ampdu = int(r.choice([1, 4, 64, 256]))
        limit = None if r.random() < 0.5 else int(r.integers(1, 300))
        max_bytes = [None, 1, 1243, 5000, 65535][r.integers(5)]
        n = min(len(st.buffer), max_ampdu)
        if limit is not None:
            n = max(1, min(n, limit))
        before = list(st.buffer)
        mpdus, total = reference_assemble(before, sizes, n, max_bytes)
        ampdu = mac.assemble_ampdu(st, max_ampdu, limit, max_bytes)
        assert (ampdu.mpdus, ampdu.total_bytes) == (mpdus, total)
        assert st.buffer == before[len(mpdus):]
