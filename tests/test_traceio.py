import csv
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from vrwifi import traceio as tio
from vrwifi import traffic as tr
from vrwifi.config import SimConfig, TrafficConfig
from vrwifi.engine import run_simulation
from tests.conftest import make_cfg


def rec(t, length=1243, **kw):
    return tio.TraceRecord(timestamp_s=t, length=length, **kw)


def flow(size, gap_ms, n, sport, dport, t0=0.0, **kw):
    return [rec(t0 + i * gap_ms / 1e3, size, src_port=sport, dst_port=dport,
                **kw) for i in range(n)]


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- parsing ---------------------------------------------------------------


def test_parse_sorted_three_rows(tmp_path):
    path = write(tmp_path, "timestamp,length\n3.0,100\n1.0,200\n2.0,300\n")
    parsed = tio.parse_trace(path)
    assert len(parsed.records) == 3 and not parsed.skipped
    assert [r.timestamp_s for r in parsed.records] == [1.0, 2.0, 3.0]


def test_parse_missing_length_column_is_hard_error(tmp_path):
    path = write(tmp_path, "timestamp,size\n1.0,100\n")
    with pytest.raises(tio.TraceError, match="missing mandatory column"):
        tio.parse_trace(path)


def test_parse_skips_bad_rows_with_line_numbers(tmp_path):
    path = write(tmp_path,
                 "timestamp,length\n1.0,100\nnot-a-number,100\n2.0,50\n")
    parsed = tio.parse_trace(path)
    assert len(parsed.records) == 2
    assert [line for line, _ in parsed.skipped] == [3]


# each far row's time is finite, but no double holds it to the
# microsecond, and the spacing of the two far pairs overflows
FAR_APART = "-1e308,1243\n-1e308,1243\n1e308,1243\n1e308,1243"


@pytest.mark.parametrize("bad,reason", [
    ("nan,100", "non-finite"), ("inf,100", "non-finite"),
    ("-inf,100", "non-finite"), ("1.5,nan", "non-finite"),
    ("1.5,inf", "non-finite"), (FAR_APART, "beyond 2**53 us")],
    ids=["nan,100", "inf,100", "-inf,100", "1.5,nan", "1.5,inf",
         "far_apart"])
def test_parse_rejects_non_finite_rows_with_line_numbers(tmp_path, bad,
                                                         reason):
    path = write(tmp_path, f"timestamp,length\n1.0,100\n{bad}\n2.0,50\n")
    parsed = tio.parse_trace(path)
    assert [r.timestamp_s for r in parsed.records] == [1.0, 2.0]
    assert [line for line, _ in parsed.skipped] == list(
        range(3, 4 + bad.count("\n")))
    assert all(reason in why for _, why in parsed.skipped)


@pytest.mark.parametrize("column", ["src_port", "dst_port",
                                    "rtp_payload_type", "rtp_ssrc",
                                    "rtp_timestamp"])
def test_parse_skips_infinite_integer_fields_with_line_numbers(tmp_path,
                                                               column):
    path = write(tmp_path, f"timestamp,length,{column}\n1.0,100,7\n"
                           "2.0,100,inf\n3.0,100,-inf\n4.0,100,1e400\n"
                           "5.0,100,9\n")
    parsed = tio.parse_trace(path)
    assert [getattr(r, column) for r in parsed.records] == [7, 9]
    assert [line for line, _ in parsed.skipped] == [3, 4, 5]


def test_parse_reports_non_positive_length_at_its_line(tmp_path):
    path = write(tmp_path, "timestamp,length\n1.0,100\nx,1\n2.0,0\n"
                           "3.0,-5\n4.0,0.5\n5.0,7\n")
    parsed = tio.parse_trace(path)
    assert [r.length for r in parsed.records] == [100, 7]
    assert [line for line, _ in parsed.skipped] == [3, 4, 5, 6]
    assert all("non-positive length" in reason
               for _, reason in parsed.skipped[1:])


def test_parse_reports_the_line_each_skipped_row_starts_on(tmp_path):
    # a blank line and a quoted field over two lines used to shift the
    # line of every later row
    path = write(tmp_path, "timestamp,length,protocol\n"
                           "0.1,100,UDP\n"
                           "\n"
                           "0.2,abc,UDP\n"
                           '0.3,x,"two\nlines"\n'
                           "0.4,100,UDP\n"
                           "0.5,-1,UDP\n")
    parsed = tio.parse_trace(path)
    assert [r.timestamp_s for r in parsed.records] == [0.1, 0.4]
    assert [line for line, _ in parsed.skipped] == [4, 5, 8]


def test_parse_skips_a_direction_other_than_dl_or_ul(tmp_path):
    path = write(tmp_path, "timestamp,length,direction\n1.0,100,DL\n"
                           "2.0,100,ul\n3.0,100,\n4.0,100,sideways\n"
                           "5.0,100,Dl\n6.0,100,D L\n")
    parsed = tio.parse_trace(path)
    assert [r.direction for r in parsed.records] == ["DL", "UL", "DL", "DL"]
    assert parsed.skipped == [
        (5, "direction 'sideways' is neither DL nor UL"),
        (7, "direction 'D L' is neither DL nor UL")]


def test_records_with_another_direction_are_refused():
    with pytest.raises(tio.TraceError, match="neither DL nor UL"):
        tio.Trace.from_records([rec(0.0), rec(0.1, direction="SIDEWAYS")])


def test_parse_accepts_tshark_field_names(tmp_path):
    path = write(tmp_path,
                 "frame.time_epoch,frame.len,udp.srcport,udp.dstport,"
                 "rtp.timestamp\n10.5,1243,5004,6000,9000\n")
    parsed = tio.parse_trace(path)
    (r,) = parsed.records
    assert r.timestamp_s == 10.5 and r.length == 1243
    assert r.src_port == 5004 and r.rtp_timestamp == 9000


@pytest.mark.parametrize("header,first,second", [
    ("frame.time_epoch,frame.len,udp.length", "frame.len", "udp.length"),
    ("timestamp,length,frame.len", "length", "frame.len"),
    ("timestamp,length,length", "length", "length"),
    ("timestamp,length,rtp.ssrc,rtp_ssrc", "rtp.ssrc", "rtp_ssrc"),
], ids=["tshark_pair", "canonical_and_tshark", "repeated", "optional"])
def test_parse_rejects_two_columns_for_one_field(tmp_path, header, first,
                                                 second):
    # the parser used to keep the later column's value silently
    path = write(tmp_path, header + "\n" + "1.0,100,80,7\n")
    with pytest.raises(tio.TraceError,
                       match=f"columns '{first}' and '{second}' both give"):
        tio.parse_trace(path)


# Columns in their own order, an unknown column, absent dst_port, short
# and long rows, rtp_marker spellings, and values each integer column
# must truncate, overflow on or refuse.
EDGE_CASE_CSV = (
    "udp.srcport,frame.len,extra,frame.time_epoch,direction,rtp.marker,"
    "rtp.ssrc,rtp.timestamp,rtp.p_type,_ws.col.protocol\n"
    "5004,1243,x,2.0,DL,1,4294967295,1000000000000,96,\n"
    "5004.9,1243.7,,1.0,ul,True,7,-5,96.5,DTLS\n"
    "0,100,,1.0,Dl,t,,,,\n"
    ",100,,-0.0,,yes,,,,\n"
    "1,100,,0.0,UL, YES ,,,,\n"
    "1,100,,0.5,DL,0,,,,RTP\n"
    "1,100,,0.5,DL,false\n"
    "1,100,,0.25\n"
    "1,100,,0.75,DL,no,1,2,3,\"a,b\",surplus\n"
    "1,100,,0.8,DL, ,,,,\n"
    "1e400,100,,3.0,DL,,,,,\n"
    "1,1e400,,3.0,DL,,,,,\n"
    "1,100,,1e400,DL,,,,,\n"
    "1,nan,,3.0,DL,,,,,\n"
    "1,100,,nan,DL,,,,,\n"
    "nan,100,,3.0,DL,,,,,\n"
    "1,100,,3.0,DL,,nan,,,\n"
    "1,100,,3.0,DL,,,1e400,,\n"
    "1,100,,3.0,DL,,,,-inf,\n"
    "1,0.5,,3.0,DL,,,,,\n"
    "1,-2,,3.0,DL,,,,,\n"
    "1,100,, 4.5 ,DL,,,,,\n"
    "1,100,,abc,DL,,,,,\n"
    "1,1e20,,5.0,DL,,1e30,,,\n"
)

PINNED_PARSE = (
    "9a3fb96c095b6d0402487c5a088bb0a830ebabf851ec017f69869da13f073520")


def test_pinned_parse_output(tmp_path):
    # every field's value and Python type, the order of equal times, and
    # each skipped row's line and reason
    parsed = tio.parse_trace(write(tmp_path, EDGE_CASE_CSV))
    out = ([dataclasses.astuple(r) for r in parsed.records], parsed.skipped)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == PINNED_PARSE


def test_parse_sorts_rows_out_of_time_order_stably(tmp_path):
    # rows out of time order, three sharing a time, a skipped row and an
    # SSRC beyond 2**32 (an object column): the Trace is the stable sort
    # of the rows, the same as parsing them written in that order
    header = "timestamp,length,src_port,dst_port,direction,rtp_ssrc\n"
    rows = ["2.0,100,1,2,DL,7", "1.0,200,1,2,UL,",
            "2.0,300,3,4,DL,8589934592", "bad,100,1,2,DL,",
            "0.5,400,1,2,DL,9", "1.0,500,3,4,UL,7", "2.0,600,1,2,DL,"]
    parsed = tio.parse_trace(write(tmp_path, header + "\n".join(rows)))
    in_order = sorted((row for row in rows if not row.startswith("bad")),
                      key=lambda row: float(row.split(",")[0]))
    reference = tio.parse_trace(
        write(tmp_path, header + "\n".join(in_order), "sorted.csv"))
    assert parsed.skipped == [(5, "could not convert string to float: "
                                  "'bad'")]
    assert [r.length for r in parsed.records] == [400, 200, 500, 100, 300,
                                                  600]
    assert ([dataclasses.astuple(r) for r in parsed.records]
            == [dataclasses.astuple(r) for r in reference.records])
    dtypes = [getattr(parsed.records, f.name).dtype
              for f in dataclasses.fields(tio.Trace)]
    assert dtypes == [getattr(reference.records, f.name).dtype
                      for f in dataclasses.fields(tio.Trace)]
    assert parsed.records.rtp_ssrc.dtype == object


def test_parse_optional_columns_empty(tmp_path):
    path = write(tmp_path,
                 "timestamp,length,rtp_ssrc,rtp_marker\n1.0,99,,\n")
    (r,) = tio.parse_trace(path).records
    assert r.rtp_ssrc is None and r.rtp_marker is None


TSHARK_HEADER = ("frame.time_epoch,frame.len,udp.srcport,udp.dstport,"
                 "direction,rtp.p_type,rtp.ssrc,rtp.timestamp,rtp.marker,"
                 "_ws.col.protocol")
# one row of every canonical column, each cell readable
GOOD_ROW = ["2.0", "1243", "50000", "5004", "DL", "96", "7", "3000", "true",
            "RTP"]


def write_bytes(tmp_path, data: bytes, name="t.csv"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def parsed_rows(parsed):
    return [dataclasses.astuple(r) for r in parsed.records]


@pytest.mark.parametrize("header", [",".join(tio.CANONICAL_COLUMNS),
                                    TSHARK_HEADER],
                         ids=["canonical", "tshark"])
def test_parse_reads_a_capture_saved_with_a_bom(tmp_path, header):
    # Windows tools save UTF-8 with a byte order mark, which once hid the
    # first column's name
    text = f"{header}\n{','.join(GOOD_ROW)}\n1.0,175,50001,5006,UL,,,,,DTLS\n"
    plain = tio.parse_trace(write(tmp_path, text))
    bom = tio.parse_trace(write_bytes(tmp_path, b"\xef\xbb\xbf"
                                      + text.encode(), "bom.csv"))
    assert len(plain.records) == 2 and not plain.skipped
    assert parsed_rows(bom) == parsed_rows(plain) and not bom.skipped


@pytest.mark.parametrize("column", ["timestamp", "length", "src_port",
                                    "direction", "rtp_ssrc", "rtp_marker",
                                    "protocol"])
def test_parse_skips_only_the_row_with_a_byte_not_utf8(tmp_path, column):
    # a bad byte in a cell parse_trace reads skips that row, at its line,
    # with a reason that prints on any terminal; rtp_marker and protocol
    # read any text, and once took the byte in silently
    cells = [cell.encode() for cell in GOOD_ROW]
    cells[tio.CANONICAL_COLUMNS.index(column)] += b"\xff"
    data = (",".join(tio.CANONICAL_COLUMNS).encode() + b"\n"
            + ",".join(GOOD_ROW).replace("2.0", "1.0", 1).encode() + b"\n"
            + b",".join(cells) + b"\n"
            + ",".join(GOOD_ROW).replace("2.0", "3.0", 1).encode() + b"\n")
    parsed = tio.parse_trace(write_bytes(tmp_path, data))
    assert [r.timestamp_s for r in parsed.records] == [1.0, 3.0]
    ((line, reason),) = parsed.skipped
    assert line == 3 and "\\udcff" in reason and reason.isascii()


def test_parse_reads_a_byte_not_utf8_in_a_column_it_does_not_read(tmp_path):
    header = ",".join(tio.CANONICAL_COLUMNS) + ",note"
    data = f"{header}\n{','.join(GOOD_ROW)},".encode() + b"caf\xe9\n"
    parsed = tio.parse_trace(write_bytes(tmp_path, data))
    assert len(parsed.records) == 1 and not parsed.skipped


def test_parse_skips_an_over_long_field_and_reads_on(tmp_path):
    # csv.reader refuses a field over its limit and goes on at the next
    # line; the rows after it keep their line numbers
    limit = csv.field_size_limit()
    text = ("timestamp,length\n1.0,100\n"
            f"2.0,{'9' * (limit + 1)}\n3.0,300\n\nx,1\n4.0,400\n")
    parsed = tio.parse_trace(write(tmp_path, text))
    assert [r.timestamp_s for r in parsed.records] == [1.0, 3.0, 4.0]
    assert parsed.skipped == [
        (3, f"field larger than field limit ({limit})"),
        (6, "could not convert string to float: 'x'")]


def test_parse_refuses_an_over_long_header(tmp_path):
    text = f"timestamp,length,{'n' * (csv.field_size_limit() + 1)}\n1.0,1\n"
    with pytest.raises(tio.TraceError, match="header row: field larger"):
        tio.parse_trace(write(tmp_path, text))


def test_write_parse_round_trip(tmp_path):
    # every marker value, a protocol csv must quote, UL rows and absent
    # optional ints; each timestamp is a whole number of microseconds
    records = [
        rec(0.000125, 1243, src_port=50000, dst_port=5004,
            rtp_payload_type=96, rtp_ssrc=7, rtp_timestamp=1000,
            rtp_marker=True, protocol="RTP"),
        rec(0.00019, 1243, src_port=50000, dst_port=5004,
            rtp_payload_type=96, rtp_ssrc=7, rtp_timestamp=1000,
            rtp_marker=False, protocol='SRTP, "video"'),
        rec(0.00416, 175, src_port=50001, dst_port=5006, direction="UL"),
        rec(0.5, 83, direction="UL", rtp_timestamp=2**32,
            rtp_marker=None, protocol="udp"),
        rec(1.25, 122, src_port=3478, rtp_ssrc=0, rtp_marker=True),
    ]
    path = tmp_path / "rt.csv"
    tio.write_trace(tio.Trace.from_records(records), str(path))
    parsed = tio.parse_trace(str(path))
    assert not parsed.skipped
    assert list(parsed.records) == records


# -- classification ----------------------------------------------------------


def test_classify_table_style_flows():
    records = (flow(1243, 0.19, 100, 1, 2)        # video: big, sub-ms
               + flow(83, 20.0, 50, 3, 4)         # audio: 83 B every 20 ms
               + flow(122, 1287.0, 5, 5, 6)       # STUN: sparse keepalive
               + flow(175, 4.9, 50, 7, 8)         # DTLS controller
               + flow(435, 67.0, 20, 9, 10))      # SRTCP reports
    labels = tio.classify_streams(tio.Trace.from_records(records)).tolist()
    assert labels[:100] == [tio.SRTP_VIDEO] * 100
    assert labels[100:150] == [tio.SRTP_AUDIO] * 50
    assert labels[150:155] == [tio.STUN] * 5
    assert labels[155:205] == [tio.DTLS] * 50
    assert labels[205:] == [tio.SRTCP] * 20


def test_classify_partition_covers_every_record():
    records = flow(1243, 0.19, 30, 1, 2) + flow(999, 300.0, 4, 3, 4)
    labels = tio.classify_streams(tio.Trace.from_records(records))
    assert len(labels) == len(records)
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    assert sum(counts.values()) == len(records)


def test_classify_unknown_flow_is_generic_never_error():
    odd = flow(555, 123.0, 7, 1, 2)
    assert set(tio.classify_streams(tio.Trace.from_records(odd))) == {
        tio.GENERIC}
    single = tio.Trace.from_records([rec(0.0, 400)])
    assert tio.classify_streams(single).tolist() == [tio.GENERIC]


def test_classify_by_rtp_ssrc_splits_video_and_audio():
    video = flow(1243, 0.19, 40, 1, 2, rtp_ssrc=111, rtp_payload_type=96)
    audio = flow(83, 20.0, 10, 1, 2, rtp_ssrc=222, rtp_payload_type=111)
    labels = tio.classify_streams(
        tio.Trace.from_records(video + audio)).tolist()
    assert labels[:40] == [tio.SRTP_VIDEO] * 40
    assert labels[40:] == [tio.SRTP_AUDIO] * 10


def test_classify_by_protocol_column():
    records = tio.Trace.from_records(flow(107, 8.9, 20, 1, 2,
                                          protocol="DTLS"))
    assert set(tio.classify_streams(records)) == {tio.DTLS}


def test_classify_object_columns_as_int64_ones():
    # a port and SSRCs beyond 2**32 are held as Python ints (dtype
    # object); they split flows and SSRC groups as small values in the
    # same order do
    def trace(big):
        return tio.Trace.from_records(
            flow(1243, 0.19, 40, 1 + big, 2, rtp_ssrc=111 + big,
                 rtp_payload_type=96)
            + flow(83, 20.0, 10, 1 + big, 2, rtp_ssrc=222 + big,
                   rtp_payload_type=111)
            + flow(1000, 5.0, 5, 1 + big, 2, rtp_payload_type=96)
            + flow(175, 4.9, 20, 7 + big, 8)
            + flow(83, 20.0, 10, 1 + big, 9, rtp_ssrc=111 + big))
    small, large = trace(0), trace(2**40)
    assert large.src_port.dtype == object and large.rtp_ssrc.dtype == object
    assert small.src_port.dtype == np.int64
    labels = tio.classify_streams(large).tolist()
    assert labels == tio.classify_streams(small).tolist()
    assert labels == ([tio.SRTP_VIDEO] * 40 + [tio.SRTP_AUDIO] * 10
                      + [tio.SRTP_VIDEO] * 5 + [tio.DTLS] * 20
                      + [tio.SRTP_AUDIO] * 10)


def test_stream_summaries_consistent_load():
    records = flow(1000, 1.0, 101, 1, 2)     # 101 pkts, 1 ms apart
    groups = tio.analyze_video(tio.Trace.from_records(records)).groups
    assert list(groups) == [tio.SRTP_VIDEO]
    (summary,) = tio.stream_summaries(groups)
    span = records[-1].timestamp_s - records[0].timestamp_s
    assert summary.load_mbps == pytest.approx(101 * 1000 * 8 / span / 1e6)
    assert summary.packet_count == 101
    assert summary.mean_inter_packet_ms == pytest.approx(1.0)


def test_stream_mean_gap_is_summed_left_to_right():
    # gaps from 1 ns to 1 s, whose left-to-right sum is not their
    # correctly rounded sum, so that a compensated sum (Python 3.12's
    # sum(), say) would give another mean
    rng = np.random.default_rng(7)
    times = np.cumsum(rng.random(500) / 10.0 ** rng.integers(0, 9, 500))
    trace = tio.Trace.from_records([rec(t) for t in times.tolist()])
    gaps = tio.inter_packet_ms(trace).tolist()
    total = 0.0
    for gap in gaps:
        total += gap
    assert total / len(gaps) != math.fsum(gaps) / len(gaps)
    (summary,) = tio.stream_summaries({tio.SRTP_VIDEO: trace})
    assert summary.mean_inter_packet_ms == total / len(gaps)


# -- batches -----------------------------------------------------------------


def test_detect_batches_threshold_definition():
    times_ms = [0.0, 0.02, 0.05, 5.56, 5.58]
    records = tio.Trace.from_records([rec(t / 1e3) for t in times_ms])
    starts = tio.detect_batches(records, gap_threshold_ms=1.0)
    assert starts.tolist() == [0.0, 5.56e-3]


def test_detect_batches_extreme_thresholds():
    records = tio.Trace.from_records([rec(t)
                                      for t in np.arange(0, 0.1, 0.01)])
    assert len(tio.detect_batches(records, gap_threshold_ms=1e9)) == 1
    assert len(tio.detect_batches(records, gap_threshold_ms=1e-9)) == len(records)


def test_detect_batches_single_packet():
    single = tio.Trace.from_records([rec(0.0)])
    assert tio.detect_batches(single).tolist() == [0.0]


def test_modal_spacing():
    spacings = [5.56, 5.56, 5.56, 11.12, 16.68]
    assert tio.modal_spacing_ms(spacings) == pytest.approx(5.56)


# -- frames ------------------------------------------------------------------


def test_reconstruct_frames_groups_consecutive_timestamps():
    records = [rec(0.0, 1000, rtp_timestamp=100),
               rec(0.001, 900, rtp_timestamp=100),
               rec(0.011, 800, rtp_timestamp=200)]
    frames = tio.reconstruct_frames(records)
    assert [(f.n_packets, f.size_bytes) for f in frames] == [
        (2, 1900), (1, 800)]


def test_reconstruct_requires_rtp_timestamp():
    with pytest.raises(tio.TraceError, match="detect_batches"):
        tio.reconstruct_frames([rec(0.0), rec(0.1)])


def test_assembly_delay_definition():
    records = [rec(1.0, 1000, rtp_timestamp=1),
               rec(1.00558, 1000, rtp_timestamp=1)]
    (frame,) = tio.reconstruct_frames(records)
    (delay,) = tio.assembly_delays([frame])
    assert delay == pytest.approx(5.58)


def test_inter_frame_times_first_to_first():
    records = [rec(0.0, 1, rtp_timestamp=1), rec(0.002, 1, rtp_timestamp=1),
               rec(0.0111, 1, rtp_timestamp=2)]
    frames = tio.reconstruct_frames(records)
    assert tio.inter_frame_times_ms(frames) == [pytest.approx(11.1)]


# -- jitter ------------------------------------------------------------------


def test_jitter_periodic_stream_is_zero():
    records = flow(100, 10.0, 60, 1, 2)
    assert tio.interarrival_jitter(records) == pytest.approx(0.0, abs=1e-9)


def test_jitter_alternating_spacings_matches_recurrence():
    times = np.cumsum([0.0] + [0.010, 0.012] * 40)
    records = [rec(t, 100) for t in times]
    got = tio.interarrival_jitter(records)
    # direct evaluation of the smoothing recurrence
    gaps = np.diff(times) * 1e3
    expected = 0.0
    for prev, cur in zip(gaps, gaps[1:]):
        expected += (abs(cur - prev) - expected) / 16.0
    assert got == pytest.approx(expected)
    assert got > 0


def test_jitter_with_rtp_timestamps_uses_transit_difference():
    # arrivals drift +1 ms every packet vs the 90 kHz RTP clock
    records = [rec(0.010 * i + 0.001 * i, 100,
                   rtp_timestamp=int(0.010 * i * 90_000)) for i in range(50)]
    j = tio.interarrival_jitter(records)
    assert j == pytest.approx(1.0, rel=0.05)


@pytest.mark.parametrize("block", [1, 3])
def test_jitter_in_blocks_is_the_one_pass_recurrence(monkeypatch, block):
    monkeypatch.setattr(tio, "BLOCK_ROWS", block)
    # binary fractions of a second, so that equal gaps tie exactly
    times = (np.cumsum([0, 1, 1, 0, 2, 1, 1, 3, 1, 1, 2, 1]) / 1024).tolist()
    cases = [
        [rec(t) for t in times],
        [rec(t, rtp_timestamp=90 * i) for i, t in enumerate(times)],
        [rec(0.0), rec(1e-3)],                      # one gap: no D
        [rec(0.0, rtp_timestamp=0), rec(1e-3, rtp_timestamp=77)],
    ]
    for records in cases:
        trace = tio.Trace.from_records(records)
        gaps = np.diff(trace.timestamp_s) * 1e3
        if trace.has_rtp_timestamp.all():
            d = gaps - np.diff(trace.rtp_timestamp) / tio.RTP_CLOCK_HZ * 1e3
        else:
            d = np.diff(gaps)
        expected = 0.0
        for abs_d in np.abs(d).tolist():
            expected += (abs_d - expected) / 16.0
        assert tio.interarrival_jitter(records) == expected


def test_jitter_needs_two_records():
    with pytest.raises(tio.TraceError):
        tio.interarrival_jitter([rec(0.0)])


def test_analyze_video_without_rtp_reports_batches_only():
    records = tio.Trace.from_records([
        rec(k * 5.56e-3 + j * 1e-4, 1243, src_port=1, dst_port=2)
        for k in range(20) for j in range(6)])
    n = len(records)    # analyze_video moves the rows out of records
    assert tio.classify_streams(records).tolist() == [tio.SRTP_VIDEO] * n
    va = tio.analyze_video(records)
    assert list(va.groups) == [tio.SRTP_VIDEO]
    assert len(va.groups[tio.SRTP_VIDEO]) == n
    assert len(va.batches) == 20 and va.frames is None
    tm = va.trace_metrics()
    assert tm["batch_spacing_modal_ms"] == pytest.approx(5.56)
    assert set(tm) == {"video_mean_packet_size_bytes",
                       "video_mean_inter_packet_ms",
                       "batch_spacing_modal_ms", "video_jitter_ms"}


def test_analyze_video_without_video_keeps_every_group():
    va = tio.analyze_video(tio.Trace.from_records(flow(175, 4.9, 20, 7, 8)))
    assert list(va.groups) == [tio.DTLS] and len(va.groups[tio.DTLS]) == 20
    assert tio.SRTP_VIDEO not in va.groups and va.trace_metrics() == {}


def write_mixed_capture(path) -> None:
    """18,716 rows of four streams: RTP video (90 fps, 12 packets a
    frame) and audio SSRCs on one flow, a DTLS uplink known by its
    protocol column, and a flow that no signature fits."""
    rows = [(f / 90 + i * 4e-5, 1243, 50000, 5004, "DL", 96, 1, 1000 * f,
             "true" if i == 11 else "false", "")
            for f in range(1200) for i in range(12)]
    rows += [(i * 0.02 + 0.003, 110 + i % 4, 50000, 5004, "DL", 111, 2,
              960 * i, "true", "") for i in range(667)]
    rows += [(i * 4.16e-3 + 0.001, 175, 50001, 5006, "UL", "", "", "", "",
              "DTLS") for i in range(3205)]
    rows += [(i * 0.03 + 0.002, 420, 40000, 40001, "DL", "", "", "", "", "")
             for i in range(444)]
    path.write_text(",".join(tio.CANONICAL_COLUMNS) + "\n" + "".join(
        f"{t:.6f}," + ",".join(map(str, rest)) + "\n"
        for t, *rest in sorted(rows)))


@pytest.fixture
def tracing():
    """tracemalloc on, from before the test builds its trace: the rows a
    function frees count against its peak."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    yield
    if started:
        tracemalloc.stop()


def traced_peak(fn, *args):
    """fn(*args), and the traced peak of the call above what was held."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1] - base


def column_bytes(trace) -> int:
    return sum(getattr(trace, f.name).nbytes
               for f in dataclasses.fields(trace))


def test_classify_memory_grows_with_its_trace(tmp_path, tracing):
    # every row's label starts as one shared str: on this capture the
    # traced peak of classify_streams is 0.67 times the bytes of the
    # columns, where a new str per row took 1.44 times
    write_mixed_capture(tmp_path / "capture.csv")
    trace = tio.parse_trace(str(tmp_path / "capture.csv")).records
    tio.classify_streams(trace)     # numpy's first-call allocations
    labels, peak = traced_peak(tio.classify_streams, trace)
    assert set(labels.tolist()) == {tio.SRTP_VIDEO, tio.SRTP_AUDIO,
                                    tio.DTLS, tio.GENERIC}
    assert peak < 1.05 * column_bytes(trace)


def test_analyze_video_moves_each_row_once(tmp_path, tracing):
    # the rows move into their groups a column at a time, each column
    # dropped from the trace before the next is split. With the trace
    # held by its caller, the traced peak of analyze_video on this
    # capture is 0.86 times the bytes of the columns, where a copy of
    # the video rows, with a str per label, took 1.54 times
    write_mixed_capture(tmp_path / "capture.csv")
    trace = tio.parse_trace(str(tmp_path / "capture.csv")).records
    copy = tio.Trace(*(getattr(trace, f.name).copy()
                       for f in dataclasses.fields(trace)))
    n, nbytes = len(trace), column_bytes(trace)
    labels = tio.classify_streams(copy)     # also numpy's first-call ones
    va, peak = traced_peak(tio.analyze_video, trace)
    assert peak < 1.2 * nbytes
    assert len(trace) == 0 and column_bytes(trace) == 0
    assert list(va.groups) == sorted(set(labels.tolist()))
    assert sum(map(len, va.groups.values())) == n
    for label, group in va.groups.items():
        expected = copy.take(labels == label)
        for f in dataclasses.fields(copy):
            got, want = getattr(group, f.name), getattr(expected, f.name)
            assert got.dtype == want.dtype and np.array_equal(got, want)


# -- simulator export round trip ---------------------------------------------


def test_generated_trace_round_trip(tmp_path):
    cfg = TrafficConfig(fps=60.0)
    frames = tr.generate_video_frames(cfg, np.random.default_rng(3), 10.0)
    records = tio.generated_video_trace(frames)
    path = tmp_path / "gen.csv"
    tio.write_trace(records, str(path))
    parsed = tio.parse_trace(str(path))
    assert list(parsed.records) == list(records) and not parsed.skipped

    labels = tio.classify_streams(parsed.records)
    assert set(labels) == {tio.SRTP_VIDEO}

    rec_frames = tio.reconstruct_frames(parsed.records)
    ift = tio.inter_frame_times_ms(rec_frames)
    fps = 1e3 / np.mean(ift)
    assert fps == pytest.approx(60.0, rel=0.02)

    mean_size = np.mean([f.size_bytes for f in rec_frames])
    assert mean_size == pytest.approx(50e6 / 60.0 / 8.0, rel=0.01)

    spacings = tio.batch_spacings_ms(tio.detect_batches(parsed.records))
    assert tio.modal_spacing_ms(spacings) == pytest.approx(5.56, rel=0.05)


def test_delivered_trace_drops_undelivered():
    cfg = TrafficConfig(fps=90.0)
    frames = tr.generate_video_frames(cfg, np.random.default_rng(1), 0.1)
    # the engine's form: float64, NaN for an undelivered packet
    frames.delivery_us = frames.packet_gen_us + 500.0
    frames.delivery_us[1::2] = np.nan
    records = tio.delivered_trace(frames)
    assert len(records) == np.count_nonzero(~np.isnan(frames.delivery_us))
    times = [r.timestamp_s for r in records]
    assert times == sorted(times)


# the configs of benchmarks/golden.py's digest matrix
GOLDEN_MATRIX = [
    {}, {"traffic": {"fps": 30.0}}, {"traffic": {"fps": 60.0}},
    {"traffic": {"inter_batch_time_ms": 0.01}}, {"mac": {"per": 0.0}},
    {"mac": {"per": 0.5}},
    {"mac": {"rts_cts_enabled": False, "ul_rts_cts_enabled": False}},
    {"mac": {"collisions_enabled": False}}, {"mac": {"cw_policy": "exchange"}},
]


def printed(times_s: np.ndarray) -> np.ndarray:
    return np.array([float("{:.6f}".format(t)) for t in times_s.tolist()])


def test_round_us_matches_the_printed_times_of_the_golden_runs():
    # every generation and delivery time of both runs of every entry
    for over in GOLDEN_MATRIX:
        cfg = make_cfg(duration_s=2.0, warmup_ms=SimConfig().warmup_ms,
                       **over)
        for seed in (1, 2):
            frames = run_simulation(cfg, seed, keep_packets=True).frames
            delivery = np.array(frames.delivery_us, dtype=float)
            for times_us in (frames.packet_gen_us,
                             delivery[~np.isnan(delivery)]):
                t_s = times_us / 1e6
                assert tio._round_us(t_s).tobytes() == printed(t_s).tobytes()


def test_round_us_matches_the_printed_times_at_halves():
    halves = (np.arange(0, 10**7, 9973) + 0.5) / 1e6
    t_s = np.concatenate([
        np.arange(1, 2**12, 2) / 128,   # exact ties: j * 7812.5 us
        halves, np.nextafter(halves, 0), np.nextafter(halves, 1),
        np.nextafter(np.nextafter(halves, 1), 1),
        [0.0, -0.0, 1e-7, -1e-7, 5e-7, -5e-7, 2.0**33, 2.0**40 + 0.5,
         1e10, 1e300]])
    assert tio._round_us(t_s).tobytes() == printed(t_s).tobytes()
