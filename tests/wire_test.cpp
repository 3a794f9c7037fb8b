#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "simnet/network.h"
#include "util/rng.h"
#include "wire/compression.h"
#include "wire/layer1.h"
#include "wire/netem.h"
#include "wire/session.h"
#include "wire/tunnel.h"

// Counts, while a test watches, the operator new calls sized like a codec:
// a Session creates each codec with one make_unique of exactly that size.
namespace {
struct CodecAllocations {
  std::size_t compressors = 0;
  std::size_t decompressors = 0;
};
bool g_watching = false;
CodecAllocations g_codec_allocations;
}  // namespace

// GCC flags free() on memory from operator new even when both are replaced.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_watching) {
    if (size == sizeof(rnl::wire::TemplateCompressor)) {
      ++g_codec_allocations.compressors;
    } else if (size == sizeof(rnl::wire::TemplateDecompressor)) {
      ++g_codec_allocations.decompressors;
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rnl::wire {
namespace {

util::Bytes copy_of(util::BytesView view) { return {view.begin(), view.end()}; }

TEST(TunnelCodec, EncodeDecodeSingleMessage) {
  TunnelMessage msg;
  msg.type = MessageType::kData;
  msg.router_id = 7;
  msg.port_id = 42;
  msg.payload = {1, 2, 3, 4, 5};
  util::Bytes wire = encode_message(msg);
  MessageDecoder decoder;
  auto out = decoder.feed(wire);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].message, msg);
  EXPECT_FALSE(out[0].compressed);
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(TunnelCodec, ReassemblesAcrossArbitraryChunks) {
  std::vector<TunnelMessage> messages;
  util::Bytes stream;
  for (int i = 0; i < 20; ++i) {
    TunnelMessage msg;
    msg.type = MessageType::kData;
    msg.router_id = static_cast<RouterId>(i);
    msg.port_id = static_cast<PortId>(i * 3);
    msg.payload.assign(static_cast<std::size_t>(i * 7 % 97), 0x5A);
    messages.push_back(msg);
    util::Bytes wire = encode_message(msg);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  MessageDecoder decoder;
  std::vector<MessageDecoder::Decoded> out;
  util::Rng rng(3);
  std::size_t offset = 0;
  while (offset < stream.size()) {
    std::size_t chunk = 1 + rng.below(13);
    chunk = std::min(chunk, stream.size() - offset);
    auto decoded =
        decoder.feed(util::BytesView(stream).subspan(offset, chunk));
    out.insert(out.end(), decoded.begin(), decoded.end());
    offset += chunk;
  }
  ASSERT_EQ(out.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(out[i].message, messages[i]);
  }
}

TEST(TunnelCodec, PoisonsOnBadMagic) {
  MessageDecoder decoder;
  util::Bytes garbage(32, 0xFF);
  decoder.feed(garbage);
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("magic"), std::string::npos);
  // Further feeds return nothing.
  TunnelMessage msg;
  EXPECT_TRUE(decoder.feed(encode_message(msg)).empty());
}

TEST(TunnelCodec, BufferedStaysConsistentAfterMidChunkFailure) {
  // A chunk with one good message followed by garbage: the good message is
  // still delivered, and buffered() must report only the unconsumed garbage,
  // not the already-parsed prefix.
  TunnelMessage msg;
  msg.type = MessageType::kData;
  msg.router_id = 3;
  msg.port_id = 4;
  msg.payload = {9, 8, 7};
  util::Bytes chunk = encode_message(msg);
  const std::size_t good = chunk.size();
  chunk.insert(chunk.end(), 32, 0xFF);  // bad magic follows
  MessageDecoder decoder;
  auto out = decoder.feed(chunk);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].message, msg);
  EXPECT_TRUE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), chunk.size() - good);
}

TEST(TunnelCodec, CompleteFramesDecodeInPlaceAndOnlyTheTailIsBuffered) {
  // With nothing buffered, a chunk's complete frames are parsed where they
  // lie: the views point into the chunk itself, and only the trailing
  // partial frame is copied into the decoder.
  util::Bytes chunk;
  std::vector<util::Bytes> payloads;
  for (std::uint8_t i = 1; i <= 3; ++i) {
    TunnelMessage msg;
    msg.type = MessageType::kData;
    msg.router_id = i;
    msg.port_id = 10u + i;
    msg.payload.assign(40u * i, i);
    payloads.push_back(msg.payload);
    util::Bytes wire = encode_message(msg);
    chunk.insert(chunk.end(), wire.begin(), wire.end());
  }
  TunnelMessage last;
  last.type = MessageType::kData;
  last.router_id = 4;
  last.port_id = 14;
  last.payload.assign(100, 0x44);
  const util::Bytes last_wire = encode_message(last);
  const std::size_t tail = 27;  // the header and part of the payload
  chunk.insert(chunk.end(), last_wire.begin(),
               last_wire.begin() + static_cast<std::ptrdiff_t>(tail));

  MessageDecoder decoder;
  const auto& views = decoder.feed_views(chunk);
  ASSERT_EQ(views.size(), 3u);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_GE(views[i].payload.data(), chunk.data());
    EXPECT_LE(views[i].payload.data() + views[i].payload.size(),
              chunk.data() + chunk.size());
    EXPECT_TRUE(std::equal(views[i].payload.begin(), views[i].payload.end(),
                           payloads[i].begin(), payloads[i].end()));
    EXPECT_EQ(views[i].port_id, 11u + i);
  }
  EXPECT_EQ(decoder.buffered(), tail);

  // The next chunk completes the buffered frame.
  const util::BytesView rest =
      util::BytesView(last_wire).subspan(tail, last_wire.size() - tail);
  const auto& completed = decoder.feed_views(rest);
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].port_id, 14u);
  EXPECT_TRUE(std::equal(completed[0].payload.begin(),
                         completed[0].payload.end(), last.payload.begin(),
                         last.payload.end()));
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.failed());
}

TEST(TunnelCodec, RejectsOversizedPayloadDeclaration) {
  TunnelMessage msg;
  msg.payload = {1};
  util::Bytes wire = encode_message(msg);
  // Header layout: ... length is the last u32 before payload (offset 16).
  wire[16] = 0xFF;
  wire[17] = 0xFF;
  wire[18] = 0xFF;
  wire[19] = 0xFF;
  MessageDecoder decoder;
  decoder.feed(wire);
  EXPECT_TRUE(decoder.failed());
}

TEST(TunnelCodec, TracedFrameRoundTripsItsTraceId) {
  const util::Bytes payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01};
  util::ByteWriter w;
  encode_message_into(w, MessageType::kData, 7, 42,
                      util::BytesView(payload.data(), payload.size()),
                      PayloadCoding::kRaw, /*epoch=*/5,
                      /*trace_id=*/0xCAFEBABE12345678ull);
  MessageDecoder decoder;
  const auto& views = decoder.feed_views(w.view());
  ASSERT_EQ(views.size(), 1u);
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(views[0].trace_id, 0xCAFEBABE12345678ull);
  EXPECT_EQ(views[0].epoch, 5u);
  // The 8-byte prefix is stripped: the payload that went in comes out.
  ASSERT_EQ(views[0].payload.size(), payload.size());
  EXPECT_TRUE(std::equal(views[0].payload.begin(), views[0].payload.end(),
                         payload.begin()));

  // An untraced frame decodes with trace_id == 0 — the flag bit, not the
  // payload contents, decides whether a prefix is consumed.
  util::ByteWriter plain;
  encode_message_into(plain, MessageType::kData, 7, 42,
                      util::BytesView(payload.data(), payload.size()));
  MessageDecoder decoder2;
  auto out2 = decoder2.feed(plain.view());
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].trace_id, 0u);
  EXPECT_EQ(out2[0].message.payload, payload);
}

TEST(TunnelCodec, TracedFrameShorterThanItsTraceIdIsAFramingError) {
  // Hand-build a header claiming kFlagTraced with only 4 payload bytes —
  // less than the 8-byte id the flag promises.
  util::ByteWriter w;
  w.u32(0x524E4C31);  // magic "RNL1"
  w.u8(1);            // version
  w.u8(3);            // kData
  w.u16(kFlagTraced);
  w.u32(1);  // router
  w.u32(1);  // port
  w.u32(4);  // length < kTraceIdSize
  w.u8(0xAA);
  w.u8(0xBB);
  w.u8(0xCC);
  w.u8(0xDD);
  MessageDecoder decoder;
  decoder.feed(w.view());
  EXPECT_TRUE(decoder.failed());
}

TEST(TunnelCodec, RejectsUndefinedReservedFlagBits) {
  // The low flag byte defines bit0 (compressed), bit1 (traced) and bit2
  // (recorded); every other bit is reserved and a frame setting one must be
  // rejected as a framing error, not silently accepted — otherwise a future
  // flag could never be introduced safely (old decoders would mis-parse
  // frames whose new flag changes the payload layout, exactly like
  // kFlagTraced does).
  for (const std::uint16_t junk :
       {std::uint16_t{0x0008}, std::uint16_t{0x0080}, std::uint16_t{0x00F8}}) {
    TunnelMessage msg;
    msg.type = MessageType::kData;
    msg.router_id = 1;
    msg.port_id = 2;
    msg.payload = {9, 9, 9};
    util::Bytes wire = encode_message(msg);
    // Flags are the u16 at offset 6 (big-endian); epoch lives in the high
    // byte and stays legal — only the low-byte reserved bits are junk.
    wire[6] = static_cast<std::uint8_t>(0x07);  // epoch 7, still valid
    wire[7] |= static_cast<std::uint8_t>(junk & 0xFF);
    MessageDecoder decoder;
    decoder.feed(wire);
    EXPECT_TRUE(decoder.failed()) << "flags 0x" << std::hex << junk;
  }
  // Control: the defined bits plus an epoch byte still decode — a raw
  // frame with 0x0004 set comes out recorded but not compressed.
  util::ByteWriter w;
  encode_message_into(w, MessageType::kData, 1, 2,
                      util::BytesView{},
                      PayloadCoding::kRecorded, /*epoch=*/7,
                      /*trace_id=*/1);
  EXPECT_EQ(w.view()[7], kFlagTraced | kFlagRecorded);
  MessageDecoder ok_decoder;
  const auto& ok_views = ok_decoder.feed_views(w.view());
  ASSERT_EQ(ok_views.size(), 1u);
  EXPECT_FALSE(ok_decoder.failed());
  EXPECT_EQ(ok_views[0].epoch, 7u);
  EXPECT_EQ(ok_views[0].trace_id, 1u);
  EXPECT_TRUE(ok_views[0].recorded);
  EXPECT_FALSE(ok_views[0].compressed);
}

TEST(TunnelCodec, CompressedFrameWithoutRecordedBitIsAFramingError) {
  // A diff references the sender's codec history, so a compressed frame the
  // sender did not record cannot be inflated in step: the stream is
  // poisoned at the header, before the payload arrives, like a traced frame
  // too short for its id. The frame before it in the chunk still decodes.
  util::ByteWriter w;
  encode_message_into(w, MessageType::kKeepalive, 0, 0, {});
  w.u32(0x524E4C31);  // magic "RNL1"
  w.u8(1);            // version
  w.u8(3);            // kData
  w.u16(0x0200 | kFlagCompressed);  // epoch 2, compressed, not recorded
  w.u32(1);  // router
  w.u32(1);  // port
  w.u32(64);  // length; only the header is here yet
  MessageDecoder decoder;
  const auto& views = decoder.feed_views(w.view());
  EXPECT_TRUE(decoder.failed());
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].type, MessageType::kKeepalive);

  // The encoder cannot produce that combination: kCompressed sets both bits.
  util::ByteWriter good;
  const util::Bytes diff = {0x01, 0x01, 0x03, 0x03, 0x00};
  encode_message_into(good, MessageType::kData, 1, 1, diff,
                      PayloadCoding::kCompressed, /*epoch=*/2);
  EXPECT_EQ(good.view()[7], kFlagCompressed | kFlagRecorded);
  MessageDecoder ok_decoder;
  const auto& ok_views = ok_decoder.feed_views(good.view());
  EXPECT_FALSE(ok_decoder.failed());
  ASSERT_EQ(ok_views.size(), 1u);
  EXPECT_TRUE(ok_views[0].compressed);
  EXPECT_TRUE(ok_views[0].recorded);
}

namespace {
// Builds a deterministic mixed-size message stream and its wire bytes.
std::pair<std::vector<TunnelMessage>, util::Bytes> make_stream(int count) {
  std::vector<TunnelMessage> messages;
  util::Bytes stream;
  for (int i = 0; i < count; ++i) {
    TunnelMessage msg;
    msg.type = MessageType::kData;
    msg.router_id = static_cast<RouterId>(i + 1);
    msg.port_id = static_cast<PortId>(i * 5 + 1);
    msg.payload.resize(static_cast<std::size_t>(i * 37 % 600));
    for (std::size_t b = 0; b < msg.payload.size(); ++b) {
      msg.payload[b] = static_cast<std::uint8_t>(b + static_cast<std::size_t>(i));
    }
    messages.push_back(msg);
    util::Bytes wire = encode_message(msg);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  return {std::move(messages), std::move(stream)};
}
}  // namespace

TEST(TunnelCodec, ByteAtATimeFeedMatchesSingleFeed) {
  auto [messages, stream] = make_stream(12);
  MessageDecoder decoder;
  std::vector<MessageDecoder::Decoded> out;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    auto decoded = decoder.feed(util::BytesView(&stream[i], 1));
    out.insert(out.end(), decoded.begin(), decoded.end());
  }
  ASSERT_EQ(out.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(out[i].message, messages[i]);
  }
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(TunnelCodec, SplitMidHeaderAndMidPayload) {
  TunnelMessage msg;
  msg.type = MessageType::kData;
  msg.router_id = 9;
  msg.port_id = 13;
  msg.payload.assign(200, 0xAB);
  util::Bytes wire = encode_message(msg);
  // Header is 20 bytes; cut inside it, then inside the payload.
  for (std::size_t cut : std::initializer_list<std::size_t>{
           1, 7, 19, 20, 21, 120, wire.size() - 1}) {
    MessageDecoder decoder;
    util::BytesView view(wire);
    EXPECT_TRUE(decoder.feed_views(view.subspan(0, cut)).empty())
        << "cut=" << cut;
    EXPECT_EQ(decoder.buffered(), cut);
    const auto& out = decoder.feed_views(view.subspan(cut));
    ASSERT_EQ(out.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(out[0].router_id, msg.router_id);
    EXPECT_EQ(out[0].port_id, msg.port_id);
    EXPECT_TRUE(std::equal(out[0].payload.begin(), out[0].payload.end(),
                           msg.payload.begin(), msg.payload.end()));
  }
}

TEST(TunnelCodec, MultiChunkFeedMatchesSingleChunkFeed) {
  auto [messages, stream] = make_stream(30);
  MessageDecoder single;
  std::vector<MessageDecoder::Decoded> whole = single.feed(stream);

  // Deterministic mixed chunk sizes: primes so splits land everywhere.
  MessageDecoder chunked;
  std::vector<MessageDecoder::Decoded> pieces;
  const std::size_t sizes[] = {3, 17, 1, 251, 29, 7, 97};
  std::size_t offset = 0, pick = 0;
  while (offset < stream.size()) {
    std::size_t n = std::min(sizes[pick++ % std::size(sizes)],
                             stream.size() - offset);
    auto decoded = chunked.feed(util::BytesView(stream).subspan(offset, n));
    pieces.insert(pieces.end(), decoded.begin(), decoded.end());
    offset += n;
  }
  ASSERT_EQ(whole.size(), messages.size());
  ASSERT_EQ(pieces.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(pieces[i].message, whole[i].message);
    EXPECT_EQ(pieces[i].message, messages[i]);
  }
  EXPECT_EQ(chunked.buffered(), 0u);
}

TEST(TunnelCodec, CompactsOnlyPastWatermark) {
  // A steady stream of small frames must not memmove per feed: the dead
  // prefix accumulates until kCompactWatermark, then one compaction claims
  // it back.
  TunnelMessage msg;
  msg.type = MessageType::kData;
  msg.router_id = 1;
  msg.port_id = 1;
  msg.payload.assign(100, 0x3C);
  util::Bytes wire = encode_message(msg);
  const std::size_t half = wire.size() / 2;

  // Keep half a frame permanently buffered so the decoder can never take the
  // full-drain shortcut; every chunk then completes exactly one frame and
  // grows the dead prefix, which is what the watermark logic manages.
  util::Bytes chunk(wire.begin() + static_cast<std::ptrdiff_t>(half),
                    wire.end());
  chunk.insert(chunk.end(), wire.begin(),
               wire.begin() + static_cast<std::ptrdiff_t>(half));

  MessageDecoder decoder;
  ASSERT_TRUE(decoder.feed_views(util::BytesView(wire).subspan(0, half))
                  .empty());
  std::size_t consumed = 0;
  while (consumed + wire.size() < MessageDecoder::kCompactWatermark) {
    const auto& out = decoder.feed_views(chunk);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(std::equal(out[0].payload.begin(), out[0].payload.end(),
                           msg.payload.begin(), msg.payload.end()));
    consumed += wire.size();
  }
  EXPECT_EQ(decoder.compactions(), 0u);
  // A few more frames push the dead prefix over the watermark: exactly one
  // compaction, and frames keep decoding correctly across it.
  for (int i = 0; i < 3; ++i) {
    const auto& out = decoder.feed_views(chunk);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(std::equal(out[0].payload.begin(), out[0].payload.end(),
                           msg.payload.begin(), msg.payload.end()));
  }
  EXPECT_EQ(decoder.compactions(), 1u);
  EXPECT_EQ(decoder.buffered(), half);
  EXPECT_FALSE(decoder.failed());
}

TEST(JoinPayload, JsonRoundTrip) {
  JoinRequest request;
  request.site_name = "hq-lab";
  RouterDeclaration router;
  router.name = "hq/sw1";
  router.description = "Catalyst 6500";
  router.image_file = "cat6500.png";
  router.console_com = "COM2";
  router.ports.push_back(PortDeclaration{"Gi0/1", "uplink", "nic3", 1, 2, 3, 4});
  router.ports.push_back(PortDeclaration{"Gi0/2", "server", "nic4", 5, 6, 7, 8});
  request.routers.push_back(router);

  auto back = JoinRequest::from_json(request.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->site_name, "hq-lab");
  ASSERT_EQ(back->routers.size(), 1u);
  EXPECT_EQ(back->routers[0].console_com, "COM2");
  ASSERT_EQ(back->routers[0].ports.size(), 2u);
  EXPECT_EQ(back->routers[0].ports[1].rect_x, 5);
}

TEST(JoinPayload, RejectsMissingFields) {
  EXPECT_FALSE(JoinRequest::from_json(*util::Json::parse("{}")).ok());
  EXPECT_FALSE(
      JoinRequest::from_json(
          *util::Json::parse(R"({"site":"x","routers":[{"ports":[]}]})"))
          .ok());
}

TEST(JoinPayload, RejectsDeclarationFloods) {
  // A hostile JOIN declaring thousands of routers/ports would make the
  // route server allocate port tables and adjacency matrices for all of
  // them before any policy check. from_json enforces declaration caps.
  util::Json routers = util::Json::array();
  for (std::size_t i = 0; i <= JoinRequest::kMaxRouters; ++i) {
    util::Json router = util::Json::object();
    router.set("name", "r" + std::to_string(i));
    router.set("ports", util::Json::array());
    routers.push_back(std::move(router));
  }
  util::Json flood = util::Json::object();
  flood.set("site", "evil");
  flood.set("routers", std::move(routers));
  auto rejected = JoinRequest::from_json(flood);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().find("too many routers"), std::string::npos);

  util::Json port = util::Json::object();
  port.set("name", "p");
  util::Json ports = util::Json::array();
  for (std::size_t i = 0; i <= JoinRequest::kMaxPortsPerRouter; ++i) {
    ports.push_back(port);
  }
  util::Json router = util::Json::object();
  router.set("name", "r1");
  router.set("ports", std::move(ports));
  util::Json port_flood = util::Json::object();
  port_flood.set("site", "evil");
  util::Json one = util::Json::array();
  one.push_back(std::move(router));
  port_flood.set("routers", std::move(one));
  auto rejected_ports = JoinRequest::from_json(port_flood);
  ASSERT_FALSE(rejected_ports.ok());
  EXPECT_NE(rejected_ports.error().find("too many ports"), std::string::npos);
}

TEST(TunnelCodec, PoisonedDecoderSurvivesContinuedFeeding) {
  // A decoder that has hit a framing error stays poisoned; feeding it more
  // bytes — including byte-at-a-time, the shape fuzzers minimize to — must
  // neither crash nor resurrect message delivery, and buffered() must keep
  // reporting a size consistent with what was consumed.
  util::Bytes bad;
  bad.insert(bad.end(), {'R', 'N', 'L', '1', 9 /* bad version */, 5});
  bad.resize(20, 0);  // pad to one full header

  MessageDecoder decoder;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    auto out = decoder.feed(util::BytesView(&bad[i], 1));
    EXPECT_TRUE(out.empty());
    EXPECT_LE(decoder.buffered(), bad.size());
  }
  ASSERT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.error().empty());
  const std::string first_error = decoder.error();

  // Keep feeding a perfectly valid frame one byte at a time: still nothing.
  TunnelMessage msg;
  msg.type = MessageType::kKeepalive;
  util::Bytes good = encode_message(msg);
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto out = decoder.feed(util::BytesView(&good[i], 1));
    EXPECT_TRUE(out.empty());
  }
  EXPECT_TRUE(decoder.failed());
  // The original diagnostic is preserved, not overwritten by later bytes.
  EXPECT_EQ(decoder.error(), first_error);

  // reset() is the documented way back: the same decoder then works.
  decoder.reset();
  EXPECT_FALSE(decoder.failed());
  auto out = decoder.feed(good);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].message.type, MessageType::kKeepalive);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(JoinAckPayload, JsonRoundTrip) {
  JoinAck ack;
  ack.routers.push_back(JoinAck::RouterIds{5, {10, 11, 12}});
  auto back = JoinAck::from_json(ack.to_json());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->routers.size(), 1u);
  EXPECT_EQ(back->routers[0].router_id, 5u);
  EXPECT_EQ(back->routers[0].port_ids, (std::vector<PortId>{10, 11, 12}));
}

TEST(TunnelCodec, EpochRoundTripsThroughFlagsHighByte) {
  util::ByteWriter w;
  util::Bytes payload{9, 9, 9};
  encode_message_into(w, MessageType::kData, 3, 4, payload,
                      PayloadCoding::kCompressed, /*epoch=*/7);
  MessageDecoder decoder;
  const auto& views = decoder.feed_views(w.view());
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].epoch, 7);
  EXPECT_TRUE(views[0].compressed);  // epoch must not clobber the low byte
  EXPECT_TRUE(views[0].recorded);

  // Pre-epoch encoders (and the default args) emit epoch 0 — the first
  // session — so old streams keep decoding as before.
  TunnelMessage msg;
  msg.type = MessageType::kData;
  msg.payload = payload;
  util::Bytes old_style = encode_message(msg);
  const auto& old_views = decoder.feed_views(old_style);
  ASSERT_EQ(old_views.size(), 1u);
  EXPECT_EQ(old_views[0].epoch, 0);
}

TEST(TunnelCodec, ResetClearsPoisonAndPartialFrames) {
  MessageDecoder decoder;
  util::Bytes garbage(32, 0xEE);
  decoder.feed_views(garbage);
  ASSERT_TRUE(decoder.failed());

  // A reconnect reuses the decoder for a brand-new stream: reset must clear
  // the poison AND any buffered partial frame from the old connection.
  decoder.reset();
  EXPECT_FALSE(decoder.failed());
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_TRUE(decoder.error().empty());

  TunnelMessage msg;
  msg.type = MessageType::kKeepalive;
  util::Bytes wire = encode_message(msg);
  // Leave half a frame buffered, then reset: the next stream must not be
  // parsed against the stale prefix.
  util::BytesView half(wire.data(), wire.size() / 2);
  decoder.feed_views(half);
  EXPECT_GT(decoder.buffered(), 0u);
  decoder.reset();
  auto out = decoder.feed(wire);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].message.type, MessageType::kKeepalive);
}

TEST(JoinAckPayload, EpochRoundTripsAndDefaultsToZero) {
  JoinAck ack;
  ack.epoch = 5;
  ack.routers.push_back(JoinAck::RouterIds{1, {2}});
  auto back = JoinAck::from_json(ack.to_json());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->epoch, 5u);

  // Acks from a pre-epoch server have no "epoch" key: first session.
  auto old = util::Json::parse(R"({"routers": []})");
  ASSERT_TRUE(old.ok());
  auto parsed = JoinAck::from_json(*old);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->epoch, 0u);
}

// ---------------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------------

TEST(Compression, TemplateTrafficCompressesHard) {
  TemplateCompressor compressor;
  TemplateDecompressor decompressor;
  util::Bytes frame(800, 0x42);
  for (std::uint32_t i = 0; i < 100; ++i) {
    // Same template, different 4-byte marking — the §4 workload.
    frame[100] = static_cast<std::uint8_t>(i >> 24);
    frame[101] = static_cast<std::uint8_t>(i >> 16);
    frame[102] = static_cast<std::uint8_t>(i >> 8);
    frame[103] = static_cast<std::uint8_t>(i);
    auto compressed = compressor.compress(frame);
    if (compressed.has_value()) {
      auto inflated = decompressor.decompress(*compressed);
      ASSERT_TRUE(inflated.ok());
      EXPECT_EQ(copy_of(*inflated), frame);
    } else {
      decompressor.note_raw(frame);
    }
  }
  // First frame is raw; the other 99 should collapse to a few bytes each.
  EXPECT_GT(compressor.stats().ratio(), 20.0);
  EXPECT_EQ(compressor.stats().frames_compressed, 99u);
}

TEST(Compression, RandomTrafficFallsBackToRaw) {
  TemplateCompressor compressor;
  util::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    util::Bytes frame(512);
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u32());
    auto compressed = compressor.compress(frame);
    EXPECT_FALSE(compressed.has_value());
  }
  EXPECT_LT(compressor.stats().ratio(), 1.01);
}

TEST(Compression, MixedSizesRoundTripLossless) {
  // Property: arbitrary frame sequences survive compress->decompress.
  util::Rng rng(99);
  TemplateCompressor compressor;
  TemplateDecompressor decompressor;
  util::Bytes base(300);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next_u32());
  for (int i = 0; i < 500; ++i) {
    util::Bytes frame = base;
    frame.resize(200 + rng.below(200));
    // Mutate a few random bytes.
    std::size_t mutations = rng.below(6);
    for (std::size_t m = 0; m < mutations; ++m) {
      if (!frame.empty()) {
        frame[rng.below(frame.size())] =
            static_cast<std::uint8_t>(rng.next_u32());
      }
    }
    auto compressed = compressor.compress(frame);
    if (compressed.has_value()) {
      ASSERT_LT(compressed->size(), frame.size());
      auto inflated = decompressor.decompress(*compressed);
      ASSERT_TRUE(inflated.ok());
      ASSERT_EQ(copy_of(*inflated), frame);
    } else {
      decompressor.note_raw(frame);
    }
  }
}

TEST(Compression, DecompressorRejectsCorruptInput) {
  TemplateCompressor compressor;
  TemplateDecompressor decompressor;
  util::Bytes frame(100, 0x11);
  compressor.compress(frame);  // prime rings
  decompressor.note_raw(frame);
  auto compressed = compressor.compress(frame);
  ASSERT_TRUE(compressed.has_value());
  util::Bytes corrupt = copy_of(*compressed);
  corrupt[1] = 200;  // absurd reference age
  EXPECT_FALSE(decompressor.decompress(corrupt).ok());
  util::Bytes truncated(compressed->begin(), compressed->begin() + 2);
  EXPECT_FALSE(decompressor.decompress(truncated).ok());
}

TEST(Compression, FramesSentWhileDisabledTouchNeitherRing) {
  // The recorded-bit rule end to end through two Sessions, the code both
  // tunnel ends run: while enabled, the sender offers every frame to its
  // compressor and sends it with kFlagRecorded, compressed or raw; while
  // disabled it sends kRaw without touching its codec. The receiver records
  // exactly the frames carrying the bit. Disabled runs of unrelated frames
  // longer than the ring would flush the template out of a ring that
  // recorded them, so the first frame after each re-enable diffing against
  // the last pre-toggle frame (age 1) and inflating intact shows neither
  // ring saw the disabled run.
  Session tx;
  Session rx;
  util::Rng rng(7);
  auto transmit = [&](const util::Bytes& frame, bool enabled) {
    tx.append_data(1, 1, frame, enabled, 0, 0);
    const auto& views = rx.feed(tx.take_batch());
    EXPECT_EQ(views.size(), 1u);
    const MessageDecoder::DecodedView& msg = views.at(0);
    EXPECT_EQ(msg.recorded, enabled);
    bool grew = false;
    const auto received = rx.receive_data(msg, grew);
    EXPECT_TRUE(received.has_value());
    if (received) {
      EXPECT_EQ(copy_of(*received), frame);
    }
    return msg.compressed ? msg.payload[1] : 0;  // reference age, 0 if raw
  };
  util::Bytes frame(400, 0x42);
  std::uint32_t seq = 0;
  auto next_template = [&]() -> const util::Bytes& {
    frame[0] = static_cast<std::uint8_t>(seq >> 8);
    frame[1] = static_cast<std::uint8_t>(seq);
    ++seq;
    return frame;
  };
  std::uint64_t enabled_frames = 0;
  const int ring = static_cast<int>(TemplateCompressor::kRingSize);
  for (const int disabled_run : {ring + 4, 3, 2 * ring, 1, ring}) {
    for (int i = 0; i < 3; ++i, ++enabled_frames) {
      transmit(next_template(), /*enabled=*/true);
    }
    for (int i = 0; i < disabled_run; ++i) {
      util::Bytes noise(100 + rng.below(300));
      for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u32());
      transmit(noise, /*enabled=*/false);
    }
    ++enabled_frames;
    EXPECT_EQ(transmit(next_template(), /*enabled=*/true), 1u)
        << "after a disabled run of " << disabled_run;
  }
  EXPECT_FALSE(rx.failed());
  EXPECT_EQ(tx.compression_stats().frames_in, enabled_frames);
  EXPECT_EQ(tx.compression_stats().frames_compressed, enabled_frames - 1);
}

TEST(Compression, SteadyStateAllocatesNothing) {
  // compress() writes into a scratch buffer it owns and decompress() into a
  // ring buffer; every buffer keeps its capacity. Once each ring slot (and
  // the decompressor's spare) has held a full-size frame, template traffic
  // grows nothing at either end.
  TemplateCompressor compressor;
  TemplateDecompressor decompressor;
  util::Bytes frame(900, 0x5A);
  auto pump = [&](int n) {
    for (int i = 0; i < n; ++i) {
      frame[40] = static_cast<std::uint8_t>(i);
      auto compressed = compressor.compress(frame);
      if (!compressed.has_value()) {
        decompressor.note_raw(frame);
        continue;
      }
      auto inflated = decompressor.decompress(*compressed);
      ASSERT_TRUE(inflated.ok());
      ASSERT_EQ(copy_of(*inflated), frame);
    }
  };
  pump(2 * static_cast<int>(TemplateCompressor::kRingSize) + 2);
  const std::uint64_t tx_allocs = compressor.allocations();
  const std::uint64_t rx_allocs = decompressor.allocations();
  EXPECT_GT(tx_allocs, 0u);
  EXPECT_GT(rx_allocs, 0u);
  pump(200);
  EXPECT_EQ(compressor.allocations(), tx_allocs);
  EXPECT_EQ(decompressor.allocations(), rx_allocs);
  EXPECT_GT(compressor.stats().frames_compressed, 200u);

  // A larger frame grows buffers again, once per buffer it lands in.
  frame.resize(1400, 0x5A);
  pump(1);
  EXPECT_EQ(compressor.allocations(), tx_allocs + 1);
  EXPECT_EQ(decompressor.allocations(), rx_allocs + 1);
}

TEST(Compression, LockstepSurvivesPeerRestartViaReset) {
  // Regression for the peer-restart desync: when one side restarts
  // mid-stream (RIS crash, reconnect) its ring is empty, but the surviving
  // side's ring still holds the old session's frames. Unless the survivor
  // starts a new Session too, its first compressed frame references history
  // the restarted peer never saw.
  Session tx;
  util::Bytes frame(600, 0x5A);
  auto pump = [&](Session& rx, int n) -> util::Status {
    for (int i = 0; i < n; ++i) {
      frame[7] = static_cast<std::uint8_t>(i);
      tx.append_data(1, 1, frame, /*compress=*/true, 0, 0);
      const auto& views = rx.feed(tx.take_batch());
      if (views.size() != 1) return util::Error{"expected one frame"};
      bool grew = false;
      const auto received = rx.receive_data(views[0], grew);
      if (!received) {
        // The codec's own verdict on the diff the survivor sent.
        TemplateDecompressor fresh;
        auto inflated = fresh.decompress(views[0].payload);
        return util::Error{inflated.ok() ? "inflated" : inflated.error()};
      }
      EXPECT_EQ(copy_of(*received), frame);
    }
    return util::Status::Ok();
  };
  Session rx;
  ASSERT_TRUE(pump(rx, 10).ok());
  ASSERT_GT(tx.compression_stats().frames_compressed, 0u);

  // Peer restarts: fresh Session, while tx still has 10 frames of history.
  // The next diff references a frame the new peer never recorded — the bug
  // the session epoch and a new Session per connection exist to prevent.
  Session restarted;
  auto desynced = pump(restarted, 1);
  ASSERT_FALSE(desynced.ok());
  EXPECT_NE(desynced.error().find("reference age out of range"),
            std::string::npos);

  // The fix: both sides start the new connection from reset Sessions. The
  // codec counters are per connection, so they start again from zero.
  tx.reset();
  restarted.reset();
  EXPECT_EQ(tx.compression_stats().frames_in, 0u);
  ASSERT_TRUE(pump(restarted, 10).ok());
  EXPECT_GE(tx.compression_stats().frames_compressed, 9u);
}

TEST(Compression, MixedRawAndCompressedTrafficStaysLossless) {
  // Mixed workload through two Sessions: template bursts (compressible)
  // interleaved with random frames (sent raw but recorded via the nullopt
  // path) and disabled-phase frames (sent raw without kFlagRecorded,
  // bypassing both codecs), several frames to a batch. The receiver must
  // reproduce every frame.
  util::Rng rng(4242);
  Session tx;
  Session rx;
  util::Bytes base(350);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next_u32());
  bool enabled = true;
  std::uint64_t enabled_frames = 0;
  std::vector<util::Bytes> batch;
  auto deliver = [&] {
    const auto& views = rx.feed(tx.take_batch());
    ASSERT_EQ(views.size(), batch.size());
    for (std::size_t k = 0; k < views.size(); ++k) {
      bool grew = false;
      const auto received = rx.receive_data(views[k], grew);
      ASSERT_TRUE(received.has_value()) << "frame " << k;
      ASSERT_EQ(copy_of(*received), batch[k]) << "frame " << k;
    }
    batch.clear();
  };
  for (int i = 0; i < 400; ++i) {
    if (i % 37 == 0) enabled = !enabled;  // mid-stream toggles
    util::Bytes frame;
    if (rng.below(4) == 0) {
      frame.resize(100 + rng.below(400));
      for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u32());
    } else {
      frame = base;
      frame[rng.below(frame.size())] = static_cast<std::uint8_t>(rng.next_u32());
    }
    if (enabled) ++enabled_frames;
    tx.append_data(1, 1, frame, enabled, 0, 0);
    batch.push_back(std::move(frame));
    if (i % 5 == 4) deliver();
  }
  deliver();
  // The template share must actually have exercised the compressed path,
  // and only frames sent while enabled reached the compressor.
  EXPECT_GT(tx.compression_stats().frames_compressed, 100u);
  EXPECT_EQ(tx.compression_stats().frames_in, enabled_frames);
  EXPECT_LT(enabled_frames, 400u);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

util::BytesView bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Session, BatchBytesReadZeroOnceTaken) {
  Session session;
  const util::Bytes frame(100, 0x33);
  session.append_data(1, 2, frame, false, 0, /*trace_id=*/9);
  session.append_data(1, 2, frame, false, 0, /*trace_id=*/11);
  EXPECT_EQ(session.batch_frames(), 2u);
  EXPECT_EQ(session.batch_trace_id(), 9u);  // the first traced frame's
  const std::size_t open_bytes = session.batch_bytes();
  EXPECT_GT(open_bytes, 2 * frame.size());
  const util::BytesView batch = session.take_batch();
  EXPECT_EQ(batch.size(), open_bytes);
  EXPECT_EQ(session.batch_bytes(), 0u);
  EXPECT_EQ(session.batch_frames(), 0u);
  EXPECT_EQ(session.batch_trace_id(), 0u);
}

TEST(Session, ControlAndDataBatchesNeverShareBytes) {
  Session session;
  const util::Bytes data(64, 0x44);
  session.append_data(3, 4, data, false, 0, 0);
  const util::Bytes first_batch = copy_of(session.take_batch());

  // A control frame framed after the taken batch is exactly the message.
  TunnelMessage console;
  console.type = MessageType::kConsoleData;
  console.router_id = 3;
  console.payload = copy_of(bytes_of("show version\n"));
  const util::BytesView control = session.frame_control(
      console.type, console.router_id, console.payload, 0);
  EXPECT_EQ(copy_of(control), encode_message(console));
  EXPECT_EQ(session.batch_bytes(), 0u);

  // The next data batch carries none of the control frame's bytes.
  session.append_data(3, 4, data, false, 0, 0);
  EXPECT_EQ(copy_of(session.take_batch()), first_batch);
}

TEST(Session, ResetDropsHalfFrameCodecsAndOpenBatch) {
  Session tx;
  Session rx;
  util::Bytes frame(200, 0x21);
  for (int i = 0; i < 3; ++i) {
    frame[0] = static_cast<std::uint8_t>(i);
    tx.append_data(1, 1, frame, /*compress=*/true, 0, 0);
    for (const auto& view : rx.feed(tx.take_batch())) {
      bool grew = false;
      ASSERT_TRUE(rx.receive_data(view, grew).has_value());
    }
  }
  // tx now diffs against history rx holds; rx is half-way through a frame.
  frame[0] = 3;
  tx.append_data(1, 1, frame, /*compress=*/true, 0, 0);
  const util::Bytes diff = copy_of(tx.take_batch());
  ASSERT_TRUE(rx.feed(util::BytesView(diff).first(10)).empty());
  tx.append_data(1, 1, frame, /*compress=*/false, 0, 0);  // left open

  rx.reset();
  tx.reset();
  EXPECT_EQ(tx.batch_frames(), 0u);
  EXPECT_EQ(tx.batch_bytes(), 0u);
  EXPECT_EQ(tx.compression_stats().frames_in, 0u);

  // The half frame is gone: the diff decodes whole from its first byte.
  // The decompressor went with it: the diff's reference is history the
  // reset receiver no longer holds.
  const auto& views = rx.feed(diff);
  ASSERT_EQ(views.size(), 1u);
  ASSERT_TRUE(views[0].compressed);
  bool grew = false;
  EXPECT_FALSE(rx.receive_data(views[0], grew).has_value());

  // The open batch is gone: the next batch holds only its own frame.
  tx.append_data(1, 1, frame, /*compress=*/false, 0, 0);
  EXPECT_EQ(tx.batch_frames(), 1u);
  EXPECT_EQ(rx.feed(tx.take_batch()).size(), 1u);
}

TEST(Session, AppendReturnsTwoWhenCodecAndBufferBothGrow) {
  Session session;
  const util::Bytes frame(300, 0x55);
  // The first compressed append grows a ring slot and the empty buffer.
  EXPECT_EQ(session.append_data(1, 1, frame, true, 0, 0), 2);
  // The same frame uncompressed fits the kept buffer: nothing grows.
  session.take_batch();
  EXPECT_EQ(session.append_data(1, 1, frame, false, 0, 0), 0);
}

template <typename Op>
CodecAllocations codec_allocations_of(Op&& op) {
  g_codec_allocations = {};
  g_watching = true;
  op();
  g_watching = false;
  return g_codec_allocations;
}

TEST(Session, CodecsAreCreatedOnlyByTheirFirstUse) {
  Session tx;
  Session rx;
  util::Bytes frame(100, 0x66);
  auto send = [&](bool compress, int frames) {
    for (int i = 0; i < frames; ++i) {
      frame[0] = static_cast<std::uint8_t>(i);
      tx.append_data(1, 1, frame, compress, 0, 0);
      for (const auto& view : rx.feed(tx.take_batch())) {
        bool grew = false;
        ASSERT_TRUE(rx.receive_data(view, grew).has_value());
      }
    }
  };
  // Sends with compression off create no compressor, and the unrecorded
  // frames they carry create no decompressor.
  const CodecAllocations off = codec_allocations_of([&] { send(false, 50); });
  EXPECT_EQ(off.compressors, 0u);
  EXPECT_EQ(off.decompressors, 0u);
  // The first recorded frame creates each codec once; later ones reuse it.
  const CodecAllocations on = codec_allocations_of([&] { send(true, 50); });
  EXPECT_EQ(on.compressors, 1u);
  EXPECT_EQ(on.decompressors, 1u);
  EXPECT_EQ(tx.compression_stats().frames_in, 50u);
}

// ---------------------------------------------------------------------------
// Netem
// ---------------------------------------------------------------------------

TEST(NetemTest, AppliesBaseDelay) {
  simnet::Scheduler sched(5);
  std::vector<util::SimTime> arrivals;
  Netem netem(sched, NetemProfile{.delay = util::Duration::milliseconds(40)},
              [&](util::Bytes) { arrivals.push_back(sched.now()); });
  util::Bytes frame{1};
  netem.send(frame);
  sched.run_all();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].nanos, 40'000'000);
}

TEST(NetemTest, JitterStaysBoundedAndFifo) {
  simnet::Scheduler sched(6);
  std::vector<util::SimTime> arrivals;
  Netem netem(sched,
              NetemProfile{.delay = util::Duration::milliseconds(10),
                           .jitter = util::Duration::milliseconds(5)},
              [&](util::Bytes) { arrivals.push_back(sched.now()); });
  util::Bytes frame{1};
  for (int i = 0; i < 200; ++i) netem.send(frame);
  sched.run_all();
  ASSERT_EQ(arrivals.size(), 200u);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i].nanos, arrivals[i - 1].nanos);  // FIFO
  }
  for (const auto& at : arrivals) {
    EXPECT_GE(at.nanos, 5'000'000);
    EXPECT_LE(at.nanos, 15'000'000);
  }
}

TEST(NetemTest, LossCountsFrames) {
  simnet::Scheduler sched(7);
  int delivered = 0;
  Netem netem(sched, NetemProfile{.loss_probability = 0.3},
              [&](util::Bytes) { ++delivered; });
  util::Bytes frame{1};
  for (int i = 0; i < 1000; ++i) netem.send(frame);
  sched.run_all();
  EXPECT_EQ(netem.delivered(), static_cast<std::uint64_t>(delivered));
  EXPECT_GT(netem.lost(), 200u);
  EXPECT_LT(netem.lost(), 400u);
}

TEST(NetemTest, SmoothedJitterConcentratesNearMean) {
  // With smoothing=4 the jitter distribution should have far fewer samples
  // in the outer quarters than uniform jitter does.
  auto spread = [](int smoothing) {
    simnet::Scheduler sched(8);
    std::vector<std::int64_t> offsets;
    Netem netem(sched,
                NetemProfile{.delay = util::Duration::milliseconds(10),
                             .jitter = util::Duration::milliseconds(8),
                             .jitter_smoothing = smoothing},
                [&](util::Bytes) {});
    // Sample the latency model directly via arrival times of isolated sends.
    util::Bytes frame{1};
    std::int64_t previous = 0;
    int outer = 0;
    for (int i = 0; i < 500; ++i) {
      simnet::Scheduler isolated(static_cast<std::uint64_t>(i + 1));
      std::int64_t at = 0;
      Netem one(isolated,
                NetemProfile{.delay = util::Duration::milliseconds(10),
                             .jitter = util::Duration::milliseconds(8),
                             .jitter_smoothing = smoothing},
                [&](util::Bytes) { at = isolated.now().nanos; });
      one.send(frame);
      isolated.run_all();
      std::int64_t offset = at - 10'000'000;
      if (std::abs(offset) > 6'000'000) ++outer;  // outer quarters
      previous = offset;
    }
    (void)previous;
    return outer;
  };
  EXPECT_LT(spread(4), spread(1) / 2);
}

// ---------------------------------------------------------------------------
// Layer-1 switch
// ---------------------------------------------------------------------------

TEST(Layer1, BridgesProgrammedPorts) {
  simnet::Network net(20);
  Layer1Switch xc(net, "mcc", 8);
  simnet::Port& a = net.make_port("a");
  simnet::Port& b = net.make_port("b");
  net.connect(a, xc.port(0));
  net.connect(b, xc.port(1));
  int b_received = 0;
  b.set_receive_handler([&](util::BytesView) { ++b_received; });
  util::Bytes frame{1, 2, 3};
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(b_received, 0);  // unprogrammed: bits die

  xc.bridge(0, 1);
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(b_received, 1);
  EXPECT_EQ(xc.frames_bridged(), 1u);
  EXPECT_EQ(xc.bridged_to(0), std::optional<std::size_t>(1));
}

TEST(Layer1, RebridgingMovesTheCircuit) {
  simnet::Network net(21);
  Layer1Switch xc(net, "mcc", 4);
  simnet::Port& a = net.make_port("a");
  simnet::Port& b = net.make_port("b");
  simnet::Port& c = net.make_port("c");
  net.connect(a, xc.port(0));
  net.connect(b, xc.port(1));
  net.connect(c, xc.port(2));
  int b_received = 0;
  int c_received = 0;
  b.set_receive_handler([&](util::BytesView) { ++b_received; });
  c.set_receive_handler([&](util::BytesView) { ++c_received; });
  xc.bridge(0, 1);
  xc.bridge(0, 2);  // re-program: 0 now goes to 2, port 1 freed
  util::Bytes frame{9};
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(b_received, 0);
  EXPECT_EQ(c_received, 1);
  EXPECT_FALSE(xc.bridged_to(1).has_value());
  xc.unbridge(0);
  a.transmit(frame);
  net.run_all();
  EXPECT_EQ(c_received, 1);
}

TEST(Layer1, InvalidBridgeThrows) {
  simnet::Network net(22);
  Layer1Switch xc(net, "mcc", 2);
  EXPECT_THROW(xc.bridge(0, 0), std::out_of_range);
  EXPECT_THROW(xc.bridge(0, 5), std::out_of_range);
}

}  // namespace
}  // namespace rnl::wire
