#pragma once

// One end of a tunnel connection (§2.2-2.3): the wire state the RIS and the
// route server each keep per connection, and the rules both ends apply to
// it.
//
// A Session owns the inbound MessageDecoder, the §4 template codecs and the
// outbound send buffer with its open batch of kData frames. Both codecs are
// created on first use: the compressor by the first frame sent with
// compression on, the decompressor by the first frame received with
// kFlagRecorded. A sender records a frame in its codec history, and marks
// it kFlagRecorded, only while its compression is on; the receiver records
// exactly the frames that carry the bit, so the two rings stay in lockstep
// over a reliable, ordered stream. All of it belongs to one connection:
// reset() (or a fresh Session) starts the next one empty, as the peer does.
//
// What stays with each end is policy: when to flush a batch, what to count,
// trace spans, the epoch and spoof gates, and the egress regime.

#include <memory>

#include "wire/compression.h"
#include "wire/tunnel.h"

namespace rnl::wire {

class Session {
 public:
  /// Frames the compressor shrinks record their ratio x100 into
  /// `ratio_histogram` (non-owning; nullptr records nothing).
  explicit Session(util::Histogram* ratio_histogram = nullptr)
      : ratio_hist_(ratio_histogram) {}

  // -- Inbound --

  /// Decodes a received chunk. The views live until the next feed() or
  /// reset(), and no longer than `chunk` (see MessageDecoder::feed_views).
  const std::vector<MessageDecoder::DecodedView>& feed(util::BytesView chunk) {
    return decoder_.feed_views(chunk);
  }
  /// The inbound stream hit a framing error; it stays poisoned until reset().
  [[nodiscard]] bool failed() const { return decoder_.failed(); }
  [[nodiscard]] const std::string& error() const { return decoder_.error(); }

  /// The layer-2 frame a kData view carries. A recorded frame enters the
  /// codec history, and a compressed one is inflated into it: the result
  /// then views a ring slot, valid until the next receive_data(). nullopt
  /// for a diff that does not inflate (the history is left as it was).
  /// `grew` reports whether a ring buffer had to grow.
  std::optional<util::BytesView> receive_data(
      const MessageDecoder::DecodedView& view, bool& grew) {
    grew = false;
    if (!view.recorded) return view.payload;
    return record(view, grew);
  }

  // -- Outbound --

  /// Frames one kData frame behind the open batch (opening one if none is
  /// open). With `compress` the frame enters the codec history and goes out
  /// kFlagRecorded, as a diff when that is smaller. Returns how many
  /// buffers had to grow: the codec's and the send buffer's, 0 to 2.
  int append_data(RouterId router, PortId port, util::BytesView frame,
                  bool compress, std::uint8_t epoch, std::uint64_t trace_id) {
    // Opening a batch drops whatever the buffer held before (a taken batch
    // or a control frame), so a batch never repeats bytes already sent.
    if (batch_frames_ == 0) out_.clear();
    const std::size_t capacity = out_.capacity();
    int grown = 0;
    util::BytesView payload = frame;
    PayloadCoding coding = PayloadCoding::kRaw;
    if (compress) payload = compress_frame(frame, coding, grown);
    encode_message_into(out_, MessageType::kData, router, port, payload,
                        coding, epoch, trace_id);
    if (out_.capacity() != capacity) ++grown;
    ++batch_frames_;
    if (batch_trace_id_ == 0) batch_trace_id_ = trace_id;
    return grown;
  }

  /// kData frames in the open batch (0: none open).
  [[nodiscard]] std::size_t batch_frames() const { return batch_frames_; }
  /// Bytes of the open batch, 0 once take_batch() has handed them on: a
  /// taken batch's bytes belong to the transport, so egress accounting
  /// counts each byte once.
  [[nodiscard]] std::size_t batch_bytes() const {
    return batch_frames_ == 0 ? 0 : out_.size();
  }
  /// Trace id of the batch's first traced frame, 0 if none.
  [[nodiscard]] std::uint64_t batch_trace_id() const { return batch_trace_id_; }
  /// Closes the open batch and returns its bytes (empty if none is open),
  /// valid until the next append_data(), frame_control() or reset(). A
  /// caller that drops them discards the batch.
  util::BytesView take_batch() {
    if (batch_frames_ == 0) return {};
    batch_frames_ = 0;
    batch_trace_id_ = 0;
    return out_.view();
  }

  /// Frames one control message alone in the send buffer and returns it,
  /// valid as take_batch()'s bytes are. The caller takes any open batch
  /// first, so control never overtakes data already accepted.
  util::BytesView frame_control(MessageType type, RouterId router,
                                util::BytesView payload, std::uint8_t epoch);

  /// Starts a new connection: drops a half-received frame, both codecs and
  /// the open batch. The send buffer keeps its capacity.
  void reset() {
    decoder_.reset();
    compressor_.reset();
    decompressor_.reset();
    out_.clear();
    batch_frames_ = 0;
    batch_trace_id_ = 0;
  }

  /// Outbound codec counters for this connection; zero until the first
  /// frame sent with compression on.
  [[nodiscard]] const CompressionStats& compression_stats() const {
    static const CompressionStats kNone;
    return compressor_ ? compressor_->stats() : kNone;
  }

 private:
  /// The compressed side of append_data: returns the payload to frame.
  util::BytesView compress_frame(util::BytesView frame, PayloadCoding& coding,
                                 int& grown);
  /// The recorded side of receive_data.
  std::optional<util::BytesView> record(
      const MessageDecoder::DecodedView& view, bool& grew);

  MessageDecoder decoder_;
  std::unique_ptr<TemplateCompressor> compressor_;
  std::unique_ptr<TemplateDecompressor> decompressor_;
  util::Histogram* ratio_hist_ = nullptr;
  /// Data batches and control frames serialize into it in place; cleared,
  /// never shrunk, so steady-state framing allocates nothing.
  util::ByteWriter out_;
  std::size_t batch_frames_ = 0;
  std::uint64_t batch_trace_id_ = 0;
};

}  // namespace rnl::wire
