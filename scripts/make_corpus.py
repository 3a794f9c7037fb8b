#!/usr/bin/env python3
"""Regenerates the seed corpus under tests/corpus/.

The corpus is checked in as binary files (the replay driver and libFuzzer
both consume plain files); this script documents every entry's intent and
lets new regression inputs be added next to the existing ones. Running it
is idempotent — it only writes the seed entries, never deletes extras, so
minimized crash inputs dropped in by hand survive regeneration.

Input conventions (see fuzz/fuzz_*.cpp):
  message_decoder:  [8B chunking seed][tunnel wire stream]
  tunnel_roundtrip: [1B type][4B router][4B port][1B epoch][1B flags][payload]
  decompressor:     [8B seed][1B prime count][encoded bytes / frame material]
  json:             UTF-8 text
  api:              newline-separated JSON request bodies
  dispatch:         [8B chunking seed][client byte stream]; the seed's low
                    nibble e caps chunks at 2^e bytes (15: one chunk)
"""

import os
import struct

ROOT = os.path.join(os.path.dirname(__file__), "..", "tests", "corpus")

MAGIC = 0x524E4C31  # "RNL1"


def frame(msg_type, router=0, port=0, payload=b"", flags=0):
    """One tunnel wire frame (see wire/tunnel.cpp encode_message_into)."""
    return (
        struct.pack(">IBBHIII", MAGIC, 1, msg_type, flags, router, port,
                    len(payload))
        + payload
    )


def write(harness, name, data):
    directory = os.path.join(ROOT, harness)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "wb") as f:
        f.write(data if isinstance(data, bytes) else data.encode())
    print(f"wrote {path} ({len(data)} bytes)")


SEED = struct.pack("<Q", 0x1501)

# -- message_decoder: exercises framing accept/reject and split-feed resume --
JOIN_JSON = (
    b'{"site":"hq","routers":[{"name":"r1","description":"","image":"",'
    b'"console":"","ports":[{"name":"Gi0/1","description":"","nic":"",'
    b'"rect":[0,0,10,10]}]}]}'
)
write("message_decoder", "keepalive.bin", SEED + frame(5))
write("message_decoder", "join.bin", SEED + frame(1, payload=JOIN_JSON))
write("message_decoder", "data_pair.bin",
      SEED + frame(3, 7, 9, b"\xde\xad\xbe\xef" * 16) + frame(5))
# Compressed (bit0) without the recorded bit (bit2): written before bit2
# existed as an accepted compressed frame, it is now a framing error.
write("message_decoder", "epoch_compressed.bin",
      SEED + frame(3, 1, 2, b"\x01\x01\x04\x00\x04abcd", flags=0xAB01))
# kFlagRecorded (bit2): a raw frame the sender recorded in its codec
# history, a compressed frame (always recorded), and a compressed frame
# without the bit behind a good one — rejected from its header on.
write("message_decoder", "data_recorded.bin",
      SEED + frame(3, 7, 9, b"\xca\xfe" * 24, flags=0x0504) + frame(5))
write("message_decoder", "compressed_recorded.bin",
      SEED + frame(3, 1, 2, b"\x01\x01\x04\x00\x04abcd", flags=0xAB05))
write("message_decoder", "compressed_unrecorded.bin",
      SEED + frame(5) + frame(3, 1, 2, b"\x01\x01\x04\x00\x04abcd",
                              flags=0x0001) + frame(5))
write("message_decoder", "bad_magic.bin", SEED + b"XXXX" + frame(5)[4:])
write("message_decoder", "bad_version.bin",
      SEED + struct.pack(">IBBHIII", MAGIC, 9, 5, 0, 0, 0, 0))
write("message_decoder", "bad_type.bin",
      SEED + struct.pack(">IBBHIII", MAGIC, 1, 0, 0, 0, 0, 0))
write("message_decoder", "huge_length.bin",
      SEED + struct.pack(">IBBHIII", MAGIC, 1, 3, 0, 1, 1, 0xFFFFFFFF))
write("message_decoder", "max_payload_edge.bin",
      SEED + struct.pack(">IBBHIII", MAGIC, 1, 3, 0, 1, 1, 8 * 1024 * 1024 + 1))
# A coalescing sender's wire image: several data frames under interleaved
# epochs (flags high byte) in one stream, the last frame truncated mid-payload
# — the chunking seed then replays it across every split point.
write("message_decoder", "batch_epochs_truncated.bin",
      SEED
      + frame(3, 7, 9, b"\xca\xfe" * 32, flags=0x0000)
      + frame(3, 7, 9, b"\xca\xfe" * 32, flags=0x0300)
      + frame(3, 7, 9, b"\xca\xfe" * 32, flags=0x0000)
      + frame(3, 7, 9, b"\xca\xfe" * 32, flags=0x0100)[:-17])
write("message_decoder", "truncated_header.bin", SEED + frame(5)[:10])
write("message_decoder", "truncated_payload.bin",
      SEED + frame(3, 1, 2, b"0123456789abcdef")[:-7])
write("message_decoder", "error_then_frame.bin",
      SEED + frame(5) + b"JUNK" + frame(5))

# -- tunnel_roundtrip: field combinations for the encode/decode identity --
write("tunnel_roundtrip", "keepalive_min.bin",
      b"\x04" + struct.pack(">II", 0, 0) + b"\x00\x00")
write("tunnel_roundtrip", "data_epoch.bin",
      b"\x02" + struct.pack(">II", 0xFFFFFFFF, 0xFFFFFFFF) + b"\xff\x01"
      + b"payload-bytes" * 7)
write("tunnel_roundtrip", "join_ids.bin",
      b"\x00" + struct.pack(">II", 1, 2) + b"\x07\x00" + JOIN_JSON)
# Batch section drivers: router low bits pick the batch size (2 + router&7),
# port picks where the trailing frame is torn, epoch 0xFE wraps mid-batch.
write("tunnel_roundtrip", "batch_interleaved_epochs.bin",
      b"\x02" + struct.pack(">II", 7, 9) + b"\xfe\x01"
      + b"coalesced-frame-payload" * 4)
write("tunnel_roundtrip", "batch_truncated_tail.bin",
      b"\x02" + struct.pack(">II", 3, 0xFFFFFFF1) + b"\x00\x00"
      + b"torn-tail" * 8)
# Traced data frame (flags bit1): the harness derives a trace id from the
# router/port ids and round-trips the 8-byte kFlagTraced payload prefix.
write("tunnel_roundtrip", "traced_data.bin",
      b"\x02" + struct.pack(">II", 0x1234, 0x5678) + b"\x05\x02"
      + b"traced-frame-payload" * 3)
write("tunnel_roundtrip", "traced_compressed_epoch.bin",
      b"\x02" + struct.pack(">II", 0xCAFE, 0xBEEF) + b"\xfe\x03"
      + b"traced+compressed" * 4)
# Raw frame recorded in the sender's codec history (flags bit2).
write("tunnel_roundtrip", "recorded_raw.bin",
      b"\x02" + struct.pack(">II", 0x0102, 0x0304) + b"\x09\x04"
      + b"recorded-raw-frame" * 3)

# -- decompressor: hostile encodings against a primed ring --
def decomp(body, prime=4, seed=SEED):
    return seed + bytes([prime]) + body

write("decompressor", "empty_body.bin", decomp(b""))
write("decompressor", "unknown_scheme.bin", decomp(b"\x00\x01\x04abcd"))
write("decompressor", "age_out_of_range.bin", decomp(b"\x01\xc8\x04abcd"))
write("decompressor", "age_beyond_count.bin",
      decomp(b"\x01\x0f\x04abcd", prime=2))
write("decompressor", "huge_length_varint.bin",
      decomp(b"\x01\x01\xff\xff\xff\xff\x0f\x00\x00"))
write("decompressor", "zero_progress_op.bin",
      decomp(b"\x01\x01\x08\x00\x00\x00\x00"))
write("decompressor", "copy_beyond_ref.bin",
      decomp(b"\x01\x01\xc8\x01\xc8\x01\x00"))
write("decompressor", "truncated_literals.bin",
      decomp(b"\x01\x01\x20\x00\x20abc"))
write("decompressor", "lockstep_frames.bin",
      decomp(b"ABCDABCDABCDABCD" * 40 + b"ABCEABCDABCDABCD" * 40, prime=0))

# -- json: grammar edges, all five satellite cases included --
write("json", "design_doc.json",
      '{"site":"hq","routers":[{"name":"r1","ports":[1,2,3]}],"wan":'
      '{"delay_us":5000,"loss":0.01}}')
write("json", "deep_nest_at_limit.json", "[" * 128 + "]" * 128)
write("json", "deep_nest_over_limit.json", "[" * 300 + "]" * 300)
write("json", "deep_object_over_limit.json", '{"a":' * 200 + "1" + "}" * 200)
write("json", "number_overflow.json", "1e999")
write("json", "number_big_int.json", "9223372036854775807")
write("json", "number_neg_zero.json", "-0")
write("json", "number_max_double.json", "1.7976931348623157e308")
write("json", "truncated_escape.json", '"abc\\')
write("json", "truncated_unicode.json", '"\\u00')
write("json", "surrogate_pair.json", '"\\ud83d\\ude00"')
write("json", "lone_surrogate.json", '"\\ud800"')
write("json", "duplicate_keys.json", '{"k":1,"k":2}')
write("json", "control_chars.json", '"\\u0000\\u001f"')
write("json", "trailing_garbage.json", "{} extra")
write("json", "unterminated_string.json", '"abc')
write("json", "nan_literals.json", "[NaN, Infinity]")
# Control-plane payloads as the system sends them: the JOIN of one
# perfbench fleet_rejoin site (one 2-port router), a JoinAck, and a
# lab_deploy design.connect request.
write("json", "fleet_join.json",
      '{"routers":[{"console":"","description":"harness device",'
      '"image":"h.png","name":"site-qwertyui/h","ports":[{"description":'
      '"p0","name":"p0","nic":"site-qwertyui-nic1","rect":[0,0,40,20]},'
      '{"description":"p1","name":"p1","nic":"site-qwertyui-nic2",'
      '"rect":[0,0,40,20]}]}],"site":"site-qwertyui"}')
write("json", "join_ack.json",
      '{"epoch":3,"routers":[{"port_ids":[1027,1028],"router_id":514}]}')
write("json", "design_connect.json",
      '{"method":"design.connect","params":{"design_id":17,"a":301,'
      '"b":305}}')
# Escapes between long unescaped runs, in a key and in a value: the
# parser copies each run whole and the printer must split at each escape.
write("json", "escapes_between_runs.json",
      '{"' + "k" * 40 + '\\t' + "key" * 10 + '":"' + "a" * 40 + '\\n' +
      "b" * 40 + '\\"' + "c" * 40 + '\\u00e9' + "d" * 40 + '\\\\' +
      "e" * 40 + '\\u0001' + "f" * 40 + '"}')
write("json", "unicode_escape_cut_after_run.json", '"' + "x" * 48 + '\\u00')
# Every escape the parser decodes and the printer writes: the short forms,
# \u below 0x20 (printed back as \u00xx), and \u values at the UTF-8
# width edges (printed back raw).
write("json", "all_escapes.json",
      '"\\b\\f\\n\\r\\t\\"\\\\\\/\\u0000\\u001f\\u007f\\u0080\\u07ff\\u0800'
      '\\uFFFF x"')
# Mixed array/object nesting with the innermost value at depth 128 (the
# limit, accepted) and 129 (rejected).
def mixed_nest(containers):
    opens = "".join('[' if i % 2 == 0 else '{"k":' for i in range(containers))
    closes = "".join(']' if i % 2 == 0 else '}'
                     for i in reversed(range(containers)))
    return opens + "1" + closes
write("json", "mixed_nest_depth_128.json", mixed_nest(128))
write("json", "mixed_nest_depth_129.json", mixed_nest(129))
# Number forms whose printed bytes the golden records pin: strtod's
# lenient spellings, and values at and past the edges of the integer path.
write("json", "number_lenient_forms.json", "[+1,.5,1.,01,-.5,1.e3,-0,1E2]")
write("json", "number_print_edges.json",
      "[0.1,1e16,123456789012345678,9007199254740993,999999999999999,"
      "-999999999999999,8999999999999999,9000000000000000,2.5,-1e-7]")

# -- api: request batches, including PR 1's two hand-found hostile inputs --
write("api", "hostile_capture_port.txt",
      '{"method":"capture.start","params":{"port_id":4294967295}}\n')
write("api", "hostile_connect_wrap.txt",
      '{"method":"design.create","params":{"user":"eve","name":"x"}}\n'
      '{"method":"design.connect","params":{"design_id":1,"a":4294967295,'
      '"b":1}}\n')
write("api", "lifecycle.txt",
      '{"method":"inventory.list"}\n'
      '{"method":"design.create","params":{"user":"ops","name":"nightly"}}\n'
      '{"method":"design.add_router","params":{"design_id":1,"router_id":1}}\n'
      '{"method":"design.add_router","params":{"design_id":1,"router_id":2}}\n'
      '{"method":"design.connect","params":{"design_id":1,"a":1,"b":2}}\n'
      '{"method":"deploy","params":{"design_id":1}}\n'
      '{"method":"capture.start","params":{"port_id":1}}\n'
      '{"method":"traffic.inject","params":{"port_id":1,'
      '"frame":"de:ad:be:ef:00:01"}}\n'
      '{"method":"run_for","params":{"millis":5}}\n'
      '{"method":"capture.stop","params":{"port_id":1}}\n'
      '{"method":"stats"}\n')
write("api", "huge_numbers.txt",
      '{"method":"design.add_router","params":{"design_id":1e308,'
      '"router_id":-1e308}}\n'
      '{"method":"reserve","params":{"design_id":1,"start_s":1e300,'
      '"end_s":-1e300}}\n'
      '{"method":"design.connect","params":{"design_id":1,"a":1,"b":2,'
      '"wan":{"delay_us":1e300,"jitter_us":-1e300}}}\n'
      '{"method":"capture.start","params":{"port_id":1e15}}\n')
write("api", "malformed.txt",
      "not json at all\n"
      "{\n"
      '{"method":123}\n'
      '{"params":{}}\n'
      '[]\n'
      '{"method":"unknown.method","params":null}\n')
write("api", "overload_ledger.txt",
      # PR 5 surface: the stats ledger's shed/eviction fields, metrics.dump's
      # overload gauges, and deploy's admission check (refusal path when the
      # design id is bogus exercises the same typed-error serialization).
      '{"method":"stats"}\n'
      '{"method":"deploy","params":{"design_id":4294967295}}\n'
      '{"method":"metrics.dump"}\n'
      '{"method":"run_for","params":{"millis":50}}\n'
      '{"method":"stats"}\n'
      '{"method":"metrics.prometheus"}\n')
write("api", "log_and_metrics.txt",
      '{"method":"log.set_level","params":{"level":"debug"}}\n'
      '{"method":"log.set_level","params":{"level":"warn"}}\n'
      '{"method":"metrics.dump"}\n'
      '{"method":"metrics.prometheus"}\n')
write("api", "trace_surface.txt",
      # PR 7 surface: the tracing control/export methods, including hostile
      # sampling periods (0 disables head sampling; huge values bit_ceil).
      '{"method":"trace.enable","params":{"on":true,"head_sample_period":1}}\n'
      '{"method":"trace.enable","params":{"head_sample_period":0}}\n'
      '{"method":"trace.enable","params":{"head_sample_period":4294967295}}\n'
      '{"method":"trace.dump","params":{"max_events":3}}\n'
      '{"method":"trace.slow"}\n'
      '{"method":"trace.perfetto"}\n'
      '{"method":"trace.enable","params":{"on":false}}\n')

# -- dispatch: one client stream through the sharded front door and a plain
# server; the seeds cover placement, reaping and the JOIN the shard reuses --
def join_json(site, routers):
    return ('{"site":"%s","routers":[%s]}' % (site, ",".join(
        '{"name":"%s","description":"","image":"","console":"",'
        '"ports":[{"name":"p0","description":"","nic":"","rect":[0,0,10,10]}]}'
        % name for name in routers))).encode()


SMALL_CHUNKS = struct.pack("<Q", 0x1503)  # chunks of at most 8 bytes
ONE_CHUNK = struct.pack("<Q", 0x150F)      # the whole stream in one chunk
write("dispatch", "valid_join.bin", SMALL_CHUNKS + frame(1, payload=JOIN_JSON))
write("dispatch", "join_plus_data_one_chunk.bin",
      ONE_CHUNK + frame(1, payload=JOIN_JSON)
      + frame(3, 1, 1, b"\xde\xad\xbe\xef" * 16) + frame(5))
write("dispatch", "keepalive_then_join.bin",
      SMALL_CHUNKS + frame(5) + frame(1, payload=JOIN_JSON))
write("dispatch", "join_malformed_json.bin",
      SEED + frame(1, payload=b'{"site":"hq","routers":[{"name":'))
write("dispatch", "join_257_routers.bin",
      SEED + frame(1, payload=join_json("big", ["r%d" % i for i in range(257)])))
write("dispatch", "garbage_then_join.bin",
      SEED + b"\xee" * 1024 + frame(1, payload=JOIN_JSON))
# The second JOIN lacks a site name: the plain server answers it with a
# kError, so a shard that wrongly reused the sniffed JOIN for it would not.
write("dispatch", "second_join_same_session.bin",
      SMALL_CHUNKS + frame(1, payload=JOIN_JSON)
      + frame(1, payload=b'{"routers":[]}') + frame(1, payload=JOIN_JSON))
