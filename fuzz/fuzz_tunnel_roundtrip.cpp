// Fuzz harness for the tunnel framing round-trip: every message
// encode_message_into produces must decode back to exactly the fields that
// went in — type, router/port ids, epoch, compressed and recorded flags,
// payload bytes — whether it arrives alone or concatenated behind another
// frame.
//
// Input layout:
//   [1B type selector][4B router][4B port][1B epoch][1B flags][payload...]
// The selector maps onto the seven valid MessageTypes; the payload is the
// rest of the input verbatim. Flags bit0 selects compression (which always
// carries the recorded bit), bit2 marks a raw frame recorded, and bit1
// marks the frame traced (the trace id is derived from the ids so the
// round-trip covers the 8-byte payload prefix added by wire::kFlagTraced).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fuzz_util.h"
#include "util/bytes.h"
#include "wire/tunnel.h"

using rnl::util::ByteReader;
using rnl::util::BytesView;
using rnl::util::ByteWriter;
using rnl::wire::MessageDecoder;
using rnl::wire::MessageType;
using rnl::wire::PayloadCoding;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 11) return 0;
  ByteReader r(BytesView(data, size));
  const auto type = static_cast<MessageType>(1 + r.u8() % 7);
  const std::uint32_t router_id = r.u32();
  const std::uint32_t port_id = r.u32();
  const std::uint8_t epoch = r.u8();
  const std::uint8_t flags = r.u8();
  const bool compressed = (flags & 1) != 0;
  const bool recorded = compressed || (flags & 4) != 0;
  const PayloadCoding coding = compressed ? PayloadCoding::kCompressed
                               : recorded ? PayloadCoding::kRecorded
                                          : PayloadCoding::kRaw;
  const bool traced = (flags & 2) != 0;
  const std::uint64_t trace_id =
      traced ? (std::uint64_t{router_id} << 32 | port_id) | 1 : 0;
  const BytesView payload = r.rest();

  ByteWriter w;
  rnl::wire::encode_message_into(w, type, router_id, port_id, payload,
                                 coding, epoch, trace_id);

  MessageDecoder decoder;
  const auto& views = decoder.feed_views(w.view());
  FUZZ_ASSERT(!decoder.failed());
  FUZZ_ASSERT(views.size() == 1);
  FUZZ_ASSERT(views[0].type == type);
  FUZZ_ASSERT(views[0].router_id == router_id);
  FUZZ_ASSERT(views[0].port_id == port_id);
  FUZZ_ASSERT(views[0].epoch == epoch);
  FUZZ_ASSERT(views[0].compressed == compressed);
  FUZZ_ASSERT(views[0].recorded == recorded);
  FUZZ_ASSERT(views[0].trace_id == trace_id);
  FUZZ_ASSERT(views[0].payload.size() == payload.size());
  FUZZ_ASSERT(std::equal(views[0].payload.begin(), views[0].payload.end(),
                         payload.begin()));
  FUZZ_ASSERT(decoder.buffered() == 0);

  // Two frames back to back must come out as two messages — framing cannot
  // depend on a frame being alone in the stream.
  ByteWriter pair;
  rnl::wire::encode_message_into(pair, type, router_id, port_id, payload,
                                 coding, epoch, trace_id);
  rnl::wire::encode_message_into(pair, MessageType::kKeepalive, 0, 0, {},
                                 PayloadCoding::kRaw, epoch);
  MessageDecoder decoder2;
  const auto& both = decoder2.feed_views(pair.view());
  FUZZ_ASSERT(!decoder2.failed());
  FUZZ_ASSERT(both.size() == 2);
  FUZZ_ASSERT(both[1].type == MessageType::kKeepalive);

  // A coalesced batch: the frame repeated with interleaved epochs, then a
  // trailing copy torn at an input-derived byte — what a batching sender
  // plus TCP segmentation put on the wire. Every whole frame must come out
  // of one feed, in order, each under its own epoch; the torn tail must be
  // buffered (never an error), and the next chunk must complete it.
  const std::size_t batch_frames = 2 + (router_id & 7);
  ByteWriter stream;
  for (std::size_t i = 0; i < batch_frames; ++i) {
    rnl::wire::encode_message_into(stream, type, router_id, port_id, payload,
                                   coding,
                                   static_cast<std::uint8_t>(epoch + i));
  }
  ByteWriter tail;
  rnl::wire::encode_message_into(tail, type, router_id, port_id, payload,
                                 coding, epoch);
  const std::size_t cut = port_id % tail.view().size();
  stream.raw(BytesView(tail.view().data(), cut));

  MessageDecoder batch_decoder;
  const auto& batch = batch_decoder.feed_views(stream.view());
  FUZZ_ASSERT(!batch_decoder.failed());
  FUZZ_ASSERT(batch.size() == batch_frames);
  for (std::size_t i = 0; i < batch_frames; ++i) {
    FUZZ_ASSERT(batch[i].epoch == static_cast<std::uint8_t>(epoch + i));
    FUZZ_ASSERT(batch[i].payload.size() == payload.size());
    FUZZ_ASSERT(std::equal(batch[i].payload.begin(), batch[i].payload.end(),
                           payload.begin()));
  }
  FUZZ_ASSERT(batch_decoder.buffered() == cut);
  const auto& rest = batch_decoder.feed_views(
      BytesView(tail.view().data() + cut, tail.view().size() - cut));
  FUZZ_ASSERT(!batch_decoder.failed());
  FUZZ_ASSERT(rest.size() == 1);
  FUZZ_ASSERT(rest[0].epoch == epoch);
  FUZZ_ASSERT(batch_decoder.buffered() == 0);
  return 0;
}
