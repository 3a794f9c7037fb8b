#include "wire/tunnel.h"

#include "util/check.h"
#include "wire/session.h"

namespace rnl::wire {

namespace {
constexpr std::uint32_t kMagic = 0x524E4C31;  // "RNL1"
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 1 + 1 + 2 + 4 + 4 + 4;

// Header fields are fixed-offset big-endian words: the encoder fills a
// stack copy of the header and appends it in one go, and the decoder loads
// each field straight from the bytes once the loop has checked that a
// whole header is there.
void store_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint16_t load_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::uint64_t load_be64(const std::uint8_t* p) {
  return (std::uint64_t{load_be32(p)} << 32) | load_be32(p + 4);
}
}  // namespace

util::Bytes encode_message(const TunnelMessage& message) {
  util::ByteWriter w(kHeaderSize + message.payload.size());
  encode_message_into(w, message.type, message.router_id, message.port_id,
                      message.payload);
  return std::move(w).take();
}

void encode_message_into(util::ByteWriter& w, MessageType type,
                         RouterId router_id, PortId port_id,
                         util::BytesView payload, PayloadCoding coding,
                         std::uint8_t epoch, std::uint64_t trace_id) {
  std::uint8_t header[kHeaderSize + kTraceIdSize];
  const std::size_t prefix = trace_id != 0 ? kTraceIdSize : 0;
  std::uint16_t flags = static_cast<std::uint16_t>(epoch) << kEpochShift;
  if (coding != PayloadCoding::kRaw) flags |= kFlagRecorded;
  if (coding == PayloadCoding::kCompressed) flags |= kFlagCompressed;
  if (trace_id != 0) flags |= kFlagTraced;
  store_be32(header, kMagic);
  header[4] = kVersion;
  header[5] = static_cast<std::uint8_t>(type);
  store_be16(header + 6, flags);
  store_be32(header + 8, router_id);
  store_be32(header + 12, port_id);
  store_be32(header + 16, static_cast<std::uint32_t>(payload.size() + prefix));
  if (trace_id != 0) {
    store_be32(header + kHeaderSize,
               static_cast<std::uint32_t>(trace_id >> 32));
    store_be32(header + kHeaderSize + 4,
               static_cast<std::uint32_t>(trace_id));
  }
  w.raw(header, kHeaderSize + prefix);
  w.raw(payload);
}

// ---------------------------------------------------------------------------
// Session. Framing a data frame and passing an unrecorded one through are
// inline in session.h, so both ends' forward paths inline them; codec
// creation, compression, inflation and control framing live here.
// ---------------------------------------------------------------------------

util::BytesView Session::compress_frame(util::BytesView frame,
                                        PayloadCoding& coding, int& grown) {
  if (!compressor_) {
    compressor_ = std::make_unique<TemplateCompressor>(
        TemplateCompressor::kDefaultSearchDepth, ratio_hist_);
  }
  const std::uint64_t allocations = compressor_->allocations();
  const auto compressed = compressor_->compress(frame);
  if (compressor_->allocations() != allocations) ++grown;
  coding = compressed ? PayloadCoding::kCompressed : PayloadCoding::kRecorded;
  return compressed.value_or(frame);
}

std::optional<util::BytesView> Session::record(
    const MessageDecoder::DecodedView& view, bool& grew) {
  if (!decompressor_) decompressor_ = std::make_unique<TemplateDecompressor>();
  const std::uint64_t allocations = decompressor_->allocations();
  util::BytesView frame = view.payload;
  if (view.compressed) {
    auto inflated = decompressor_->decompress(view.payload);
    if (!inflated.ok()) return std::nullopt;
    frame = *inflated;
  } else {
    decompressor_->note_raw(view.payload);
  }
  grew = decompressor_->allocations() != allocations;
  return frame;
}

util::BytesView Session::frame_control(MessageType type, RouterId router,
                                       util::BytesView payload,
                                       std::uint8_t epoch) {
  RNL_DCHECK(batch_frames_ == 0);
  out_.clear();
  encode_message_into(out_, type, router, /*port_id=*/0, payload,
                      PayloadCoding::kRaw, epoch);
  return out_.view();
}

const std::vector<MessageDecoder::DecodedView>& MessageDecoder::feed_views(
    util::BytesView chunk) {
  views_.clear();
  if (failed_) return views_;

  // Lazy compaction: views handed out by the previous feed are dead by
  // contract, so the consumed prefix can be reclaimed — but only bother
  // when it is worth a memmove (fully drained, or past the watermark).
  if (consumed_ > 0) {
    if (consumed_ == buffer_.size()) {
      buffer_.clear();  // keeps capacity
      consumed_ = 0;
    } else if (consumed_ >= kCompactWatermark) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
      consumed_ = 0;
      ++compactions_;
    }
  }

  // With no partial frame buffered, the chunk is parsed where it lies and
  // only its trailing partial frame (or, on a framing error, its unconsumed
  // remainder) is copied. Otherwise the chunk joins the buffered bytes and
  // is parsed from there; all appending happens before parsing, because
  // payload views are subspans of buffer_, which must not reallocate while
  // they are live.
  const bool in_place = buffer_.empty();
  if (!in_place) buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
  const util::BytesView bytes = in_place ? chunk : util::BytesView(buffer_);
  std::size_t offset = in_place ? 0 : consumed_;

  // Whatever stays unparsed (a partial frame, or everything from a framing
  // error on) is what buffered() reports.
  auto keep_rest = [&] {
    if (in_place) {
      buffer_.assign(chunk.begin() + static_cast<std::ptrdiff_t>(offset),
                     chunk.end());
      consumed_ = 0;
    } else {
      consumed_ = offset;
    }
  };
  // On framing errors, messages parsed earlier in this chunk are still
  // consumed — keep only the bytes from the failure offset, so buffered()
  // and the compaction state stay consistent.
  auto fail = [&](const char* message) -> const std::vector<DecodedView>& {
    failed_ = true;
    error_ = message;
    keep_rest();
    return views_;
  };
  while (bytes.size() - offset >= kHeaderSize) {
    const std::uint8_t* header = bytes.data() + offset;
    const std::uint32_t magic = load_be32(header);
    const std::uint8_t version = header[4];
    const std::uint8_t type = header[5];
    const std::uint16_t flags = load_be16(header + 6);
    const std::uint32_t length = load_be32(header + 16);
    if (magic != kMagic) {
      return fail("tunnel: bad magic (stream desynchronized)");
    }
    if (version != kVersion) {
      return fail("tunnel: unsupported protocol version");
    }
    if (type < 1 || type > 7) {
      return fail("tunnel: unknown message type");
    }
    // Reserved flag bits must be zero. A peer setting them is either newer
    // than us (we would misparse its payload — e.g. miss a trace-id prefix)
    // or corrupt; both poison the stream like any other framing error.
    if ((flags & 0xFFu & ~kFlagKnownMask) != 0) {
      return fail("tunnel: reserved flag bits set");
    }
    if (length > kMaxPayload) {
      return fail("tunnel: payload length exceeds maximum");
    }
    const bool traced = (flags & kFlagTraced) != 0;
    if (traced && length < kTraceIdSize) {
      return fail("tunnel: traced frame shorter than its trace id");
    }
    // A diff references history: a sender that did not record the frame
    // cannot have compressed it, and inflating it would desynchronize the
    // receiver's ring.
    const bool compressed = (flags & kFlagCompressed) != 0;
    const bool recorded = (flags & kFlagRecorded) != 0;
    if (compressed && !recorded) {
      return fail("tunnel: compressed frame not recorded in codec history");
    }
    if (bytes.size() - offset - kHeaderSize < length) break;  // need more

    DecodedView view;
    view.type = static_cast<MessageType>(type);
    view.router_id = load_be32(header + 8);
    view.port_id = load_be32(header + 12);
    const std::size_t body = offset + kHeaderSize;
    if (traced) {
      view.trace_id = load_be64(header + kHeaderSize);
      view.payload =
          bytes.subspan(body + kTraceIdSize, length - kTraceIdSize);
    } else {
      view.payload = bytes.subspan(body, length);
    }
    view.compressed = compressed;
    view.recorded = recorded;
    view.epoch = static_cast<std::uint8_t>(flags >> kEpochShift);
    views_.push_back(view);
    offset = body + length;
  }
  keep_rest();
  return views_;
}

void MessageDecoder::reset() {
  buffer_.clear();
  consumed_ = 0;
  views_.clear();
  failed_ = false;
  error_.clear();
}

std::vector<MessageDecoder::Decoded> MessageDecoder::feed(
    util::BytesView chunk) {
  std::vector<Decoded> out;
  for (const DecodedView& view : feed_views(chunk)) {
    Decoded decoded;
    decoded.message.type = view.type;
    decoded.message.router_id = view.router_id;
    decoded.message.port_id = view.port_id;
    decoded.message.payload.assign(view.payload.begin(), view.payload.end());
    decoded.compressed = view.compressed;
    decoded.recorded = view.recorded;
    decoded.trace_id = view.trace_id;
    out.push_back(std::move(decoded));
  }
  return out;
}

// ---------------------------------------------------------------------------
// JOIN / JOIN_ACK JSON payloads
// ---------------------------------------------------------------------------

util::Json JoinRequest::to_json() const {
  util::Json routers_json = util::Json::array();
  for (const auto& router : routers) {
    util::Json ports_json = util::Json::array();
    for (const auto& port : router.ports) {
      util::Json p = util::Json::object();
      p.set("name", port.name);
      p.set("description", port.description);
      p.set("nic", port.nic);
      p.set("rect", util::Json(util::JsonArray{
                        port.rect_x, port.rect_y, port.rect_w, port.rect_h}));
      ports_json.push_back(std::move(p));
    }
    util::Json r = util::Json::object();
    r.set("name", router.name);
    r.set("description", router.description);
    r.set("image", router.image_file);
    r.set("console", router.console_com);
    r.set("ports", std::move(ports_json));
    routers_json.push_back(std::move(r));
  }
  util::Json join = util::Json::object();
  join.set("site", site_name);
  join.set("routers", std::move(routers_json));
  return join;
}

util::Result<JoinRequest> JoinRequest::from_json(const util::Json& json) {
  if (!json.is_object()) return util::Error{"join: not an object"};
  JoinRequest request;
  request.site_name = json["site"].as_string();
  if (request.site_name.empty()) return util::Error{"join: missing site"};
  const util::JsonArray& routers = json["routers"].as_array();
  if (routers.size() > JoinRequest::kMaxRouters) {
    return util::Error{"join: too many routers declared"};
  }
  request.routers.reserve(routers.size());
  for (const auto& r : routers) {
    RouterDeclaration router;
    router.name = r["name"].as_string();
    if (router.name.empty()) return util::Error{"join: router missing name"};
    const util::JsonArray& ports = r["ports"].as_array();
    if (ports.size() > JoinRequest::kMaxPortsPerRouter) {
      return util::Error{"join: too many ports declared on router '" +
                         router.name + "'"};
    }
    router.description = r["description"].as_string();
    router.image_file = r["image"].as_string();
    router.console_com = r["console"].as_string();
    router.ports.reserve(ports.size());
    for (const auto& p : ports) {
      PortDeclaration port;
      port.name = p["name"].as_string();
      if (port.name.empty()) return util::Error{"join: port missing name"};
      port.description = p["description"].as_string();
      port.nic = p["nic"].as_string();
      const auto& rect = p["rect"].as_array();
      if (rect.size() == 4) {
        port.rect_x = static_cast<int>(rect[0].as_int());
        port.rect_y = static_cast<int>(rect[1].as_int());
        port.rect_w = static_cast<int>(rect[2].as_int());
        port.rect_h = static_cast<int>(rect[3].as_int());
      }
      router.ports.push_back(std::move(port));
    }
    request.routers.push_back(std::move(router));
  }
  return request;
}

util::Json JoinAck::to_json() const {
  util::JsonArray routers_json;
  routers_json.reserve(routers.size());
  for (const auto& ids : routers) {
    util::JsonArray ports(ids.port_ids.begin(), ids.port_ids.end());
    util::Json r = util::Json::object();
    r.set("port_ids", std::move(ports));
    r.set("router_id", ids.router_id);
    routers_json.push_back(std::move(r));
  }
  util::Json ack = util::Json::object();
  ack.set("epoch", epoch);
  ack.set("routers", std::move(routers_json));
  return ack;
}

util::Result<JoinAck> JoinAck::from_json(const util::Json& json) {
  if (!json.is_object()) return util::Error{"join_ack: not an object"};
  JoinAck ack;
  // Absent in pre-epoch acks: defaults to 0, the first-session epoch.
  ack.epoch = static_cast<std::uint32_t>(json["epoch"].as_int(0));
  const util::JsonArray& routers = json["routers"].as_array();
  ack.routers.reserve(routers.size());
  for (const auto& r : routers) {
    RouterIds ids;
    ids.router_id = static_cast<RouterId>(r["router_id"].as_int());
    const util::JsonArray& port_ids = r["port_ids"].as_array();
    ids.port_ids.reserve(port_ids.size());
    for (const auto& p : port_ids) {
      ids.port_ids.push_back(static_cast<PortId>(p.as_int()));
    }
    ack.routers.push_back(std::move(ids));
  }
  return ack;
}

}  // namespace rnl::wire
