#pragma once

// The RNL tunnel protocol: how RIS instances and the route server talk.
//
// §2.2-2.3: "We capture all packets coming from the port, wrap the complete
// packet in an IP packet which includes the port's and router's unique id and
// send the packet to the route server." This header defines that wrapping —
// a versioned, length-prefixed message format carried over any reliable byte
// stream (the in-process simulated WAN or a real TCP connection; RIS always
// dials out, so it works from behind corporate firewalls).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/json.h"
#include "util/result.h"

namespace rnl::wire {

using RouterId = std::uint32_t;
using PortId = std::uint32_t;

enum class MessageType : std::uint8_t {
  kJoin = 1,          // RIS -> server: site registration (JSON config, §2.2)
  kJoinAck = 2,       // server -> RIS: assigned router/port ids
  kData = 3,          // captured L2 frame, either direction
  kConsoleData = 4,   // console byte stream, either direction
  kKeepalive = 5,     // RIS -> server heartbeat
  kLeave = 6,         // RIS -> server: orderly departure
  kError = 7,         // server -> RIS: protocol error report
};

/// Header flag bits (low byte of the 16-bit flags field).
constexpr std::uint16_t kFlagCompressed = 0x0001;
/// The frame carries a trace context: the payload is prefixed with an
/// 8-byte big-endian trace id (after compression, so the prefix is never
/// compressed) which the decoder strips into DecodedView::trace_id. This is
/// how a span context crosses the RIS <-> route-server boundary — same
/// idiom as the epoch byte: semantics extended inside reserved flag space,
/// no version bump, absent bit means absent id.
constexpr std::uint16_t kFlagTraced = 0x0002;
/// The sender recorded this frame in its codec history (the template
/// compressor's reference ring), so the receiver must record it too. A
/// sender sets it on every kData frame while its compression is enabled,
/// compressed or sent raw, and never otherwise; a compressed frame without
/// it is a framing error. Both rings therefore hold exactly the frames sent
/// with the bit, in stream order, and a frame sent with compression off
/// costs no ring copy at either end. With compression off no frame sets it,
/// so the wire bytes are those of a peer that predates the bit.
constexpr std::uint16_t kFlagRecorded = 0x0004;
/// Every defined bit of the flags low byte. The decoder rejects frames with
/// any other low-byte bit set: reserved bits must arrive as zero, so future
/// flags (this file's own history: compressed, traced, then recorded) can
/// ship knowing no old peer has been emitting junk in their slot.
constexpr std::uint16_t kFlagKnownMask =
    kFlagCompressed | kFlagTraced | kFlagRecorded;
/// Bytes of trace-id prefix a kFlagTraced payload carries on the wire.
constexpr std::size_t kTraceIdSize = 8;
/// The high byte of the flags field carries the session epoch (mod 256): the
/// route server assigns each site session an epoch at JOIN and both sides
/// stamp it into every kData frame, so frames from a dead incarnation of a
/// site are counted and dropped instead of corrupting the routing matrix.
/// Epoch 0 is the first session, which keeps pre-epoch encoders compatible.
constexpr std::uint16_t kEpochShift = 8;

/// How a kData payload relates to the sender's codec history, i.e. which of
/// kFlagCompressed and kFlagRecorded it carries. A compressed frame is
/// always recorded, so the invalid combination cannot be encoded.
enum class PayloadCoding : std::uint8_t {
  kRaw,         // no bit: the sender's compression is off
  kRecorded,    // kFlagRecorded: sent raw, recorded at both ends
  kCompressed,  // kFlagCompressed | kFlagRecorded: a template diff
};

/// A parsed tunnel message. For kData, `router_id`/`port_id` identify the
/// source (RIS->server) or destination (server->RIS) port and `payload` is
/// the complete layer-2 frame. For kJoin/kJoinAck the payload is JSON.
struct TunnelMessage {
  MessageType type = MessageType::kKeepalive;
  RouterId router_id = 0;
  PortId port_id = 0;
  util::Bytes payload;

  bool operator==(const TunnelMessage&) const = default;
};

/// Serializes one message into its wire form:
///   magic(u32) ver(u8) type(u8) flags(u16) router(u32) port(u32) len(u32)
///   payload(len bytes)
util::Bytes encode_message(const TunnelMessage& message);

/// Allocation-free framing: appends the wire form of one message to `w`
/// (typically a per-connection send buffer reused across frames, cleared by
/// the caller). `coding` sets the compressed and recorded flag bits; the
/// payload is framed as given either way (the caller runs the codec).
/// `epoch` is the sender's session epoch (mod 256), stamped into the flags
/// high byte. A nonzero `trace_id` sets kFlagTraced and prepends the id to
/// the payload on the wire (stripped at decode).
void encode_message_into(util::ByteWriter& w, MessageType type,
                         RouterId router_id, PortId port_id,
                         util::BytesView payload,
                         PayloadCoding coding = PayloadCoding::kRaw,
                         std::uint8_t epoch = 0, std::uint64_t trace_id = 0);

/// Incremental decoder for a byte stream of messages. Feed arbitrary chunks;
/// complete messages come out. Malformed input poisons the stream (a framing
/// error on TCP is unrecoverable) — check error().
class MessageDecoder {
 public:
  /// A decoded message whose payload is a view into the fed chunk itself
  /// (when no partial frame was buffered ahead of it) or into the decoder's
  /// internal buffer. Either way a view lives until the next
  /// feed()/feed_views() call, and no longer than the chunk it was decoded
  /// from: use it inside the receive callback that fed the chunk. This is
  /// the zero-copy fast path: steady-state forwarding never materializes a
  /// util::Bytes per message. Compressed payloads are surfaced
  /// still-compressed with `compressed` set; the receiver inflates them
  /// with its TemplateDecompressor.
  struct DecodedView {
    MessageType type = MessageType::kKeepalive;
    RouterId router_id = 0;
    PortId port_id = 0;
    util::BytesView payload;
    bool compressed = false;
    /// kFlagRecorded: the receiver records the frame in its codec history
    /// (always set on a compressed frame; the decoder rejects one without).
    bool recorded = false;
    /// Sender's session epoch (mod 256) from the flags high byte.
    std::uint8_t epoch = 0;
    /// Propagated trace id (kFlagTraced payload prefix), 0 if untraced.
    /// The prefix is already stripped: `payload` is the frame proper.
    std::uint64_t trace_id = 0;
  };

  /// Owning variant for callers that need payloads to outlive the decoder
  /// buffer (tests, control-plane code).
  struct Decoded {
    TunnelMessage message;
    bool compressed = false;
    bool recorded = false;
    std::uint64_t trace_id = 0;
  };

  /// Consumes stream bytes; returns views of the messages completed by this
  /// chunk. The returned vector and every payload view are invalidated by
  /// the next feed()/feed_views() call, and the payload views also by the
  /// chunk's own end of life. With nothing buffered, complete frames are
  /// parsed straight from `chunk` and only a trailing partial frame is
  /// copied; otherwise the chunk is appended behind the buffered bytes.
  /// Consumed bytes are reclaimed lazily: the buffer compacts only when the
  /// dead prefix crosses a watermark, so a steady stream of small frames
  /// costs no per-feed memmove.
  const std::vector<DecodedView>& feed_views(util::BytesView chunk);

  /// Copying convenience wrapper over feed_views (one payload allocation per
  /// message — the pre-zero-copy behaviour).
  std::vector<Decoded> feed(util::BytesView chunk);

  /// Discards all buffered bytes and clears any poisoned state. Called when
  /// a connection is replaced (RIS reconnect): a partial frame from the old
  /// stream must not desynchronize the new one.
  void reset();

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Bytes buffered waiting for a complete frame.
  [[nodiscard]] std::size_t buffered() const {
    return buffer_.size() - consumed_;
  }
  /// Times the buffer reclaimed its consumed prefix (observability for the
  /// lazy-compaction scheme; should grow ~ bytes/watermark, not ~ feeds).
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }

  /// Maximum accepted payload. Data frames are bounded by jumbo-frame size,
  /// but JOIN payloads scale with the site's inventory (a PC can front many
  /// routers, §2.2), so the cap is generous. Anything larger is a protocol
  /// violation, not a big message.
  static constexpr std::uint32_t kMaxPayload = 8 * 1024 * 1024;

  /// Dead-prefix size that triggers compaction at the next feed. Large
  /// enough that a jumbo frame's worth of consumed bytes rides along for
  /// free; small enough that the buffer stays cache-resident.
  static constexpr std::size_t kCompactWatermark = 64 * 1024;

 private:
  util::Bytes buffer_;
  std::size_t consumed_ = 0;  // dead prefix: bytes already surfaced as views
  std::vector<DecodedView> views_;  // reused across feeds
  std::uint64_t compactions_ = 0;
  bool failed_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// JOIN payload helpers (§2.2, Fig 3)
// ---------------------------------------------------------------------------

/// One router port as declared by the lab manager in the RIS configuration.
struct PortDeclaration {
  std::string name;         // e.g. "Gi0/1"
  std::string description;  // tooltip text in the web UI
  std::string nic;          // which PC network adapter it is wired to
  // Rectangle on the router back-panel image (web UI active region).
  int rect_x = 0, rect_y = 0, rect_w = 0, rect_h = 0;
};

/// One router as declared in the RIS configuration.
struct RouterDeclaration {
  std::string name;
  std::string description;
  std::string image_file;      // back-panel picture shown in the web UI
  std::string console_com;     // "" if no console connection
  std::vector<PortDeclaration> ports;
};

/// The kJoin payload.
struct JoinRequest {
  /// Declared-inventory caps enforced at parse time. A site PC fronts tens
  /// of routers (§2.2) — the scaling benchmarks push to ~1k — so these sit
  /// an order of magnitude above any legitimate lab while still rejecting a
  /// hostile or corrupt payload trying to exhaust the server's id space and
  /// dense port tables, before any per-entry allocation happens.
  static constexpr std::size_t kMaxRouters = 4096;
  static constexpr std::size_t kMaxPortsPerRouter = 1024;

  std::string site_name;
  std::vector<RouterDeclaration> routers;

  [[nodiscard]] util::Json to_json() const;
  static util::Result<JoinRequest> from_json(const util::Json& json);
};

/// The kJoinAck payload: ids assigned by the route server (§2.2: "The route
/// server will assign a unique id to each router and a unique id to each
/// port").
struct JoinAck {
  struct RouterIds {
    RouterId router_id = 0;
    std::vector<PortId> port_ids;  // parallel to RouterDeclaration::ports
  };
  std::vector<RouterIds> routers;
  /// Session epoch assigned by the route server: 0 for a site's first
  /// session, incremented on every rejoin under the same site name. The RIS
  /// stamps it into every kData frame it sends from then on.
  std::uint32_t epoch = 0;

  [[nodiscard]] util::Json to_json() const;
  static util::Result<JoinAck> from_json(const util::Json& json);
};

}  // namespace rnl::wire
