#pragma once

// Template-based packet compression (§4, "Compression").
//
// "Performance testing packets often look similar to one another. They are
// often generated from the same template, where each packet may have a
// slight different marking, for example, having a different sequence number.
// By exploiting the similarities across packets, we could achieve a high
// compression ratio."
//
// Scheme: each side of a tunnel connection keeps a ring of the last
// kRingSize frames it recorded. A sender records a frame, and marks it with
// the tunnel's kFlagRecorded bit, only while its compression is enabled,
// whether the frame then goes out compressed or raw; the receiver records a
// raw frame only when the bit is set. The transport is reliable and ordered,
// so both rings hold exactly the frames sent with the bit, in stream order,
// and compression can be toggled at either end at any time. A frame sent
// with compression off never touches a ring; wire::Session (session.h)
// holds one connection's two codecs and applies this rule at both ends. A
// frame is encoded as a byte-aligned diff against the best recent
// reference: alternating copy-from-reference / literal runs. Template
// traffic collapses to a few bytes; incompressible traffic is sent raw (the
// codec returns nullopt and the caller sends the frame as recorded but
// uncompressed).
//
// Neither codec allocates per frame in steady state: the encoder writes
// into a scratch buffer it owns, the decoder inflates into a ring buffer,
// and every buffer keeps its capacity. allocations() counts the times one
// had to grow, which the data plane books as payload allocations.

#include <array>
#include <cstdint>
#include <optional>

#include "util/bytes.h"
#include "util/metrics.h"
#include "util/result.h"

namespace rnl::wire {

/// Counts only frames offered to compress(), i.e. frames sent while
/// compression was enabled; frames sent with it off bypass the codec.
struct CompressionStats {
  std::uint64_t frames_in = 0;
  std::uint64_t frames_compressed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;  // compressed frames only

  [[nodiscard]] double ratio() const {
    return bytes_out == 0 ? 1.0
                          : static_cast<double>(bytes_in) /
                                static_cast<double>(bytes_out);
  }
};

class TemplateCompressor {
 public:
  /// Ring capacity is a protocol constant (the decoder must be able to
  /// resolve any reference age the encoder emits); the encoder's search
  /// depth is a local cost/ratio trade-off and is tunable per instance
  /// (see bench_ablation_compression).
  static constexpr std::size_t kRingSize = 16;
  static constexpr std::size_t kDefaultSearchDepth = 8;

  /// Each compressed frame records its ratio x100 (100 = 1.0x, 2500 = 25x)
  /// into `ratio_histogram` — the paper's template-traffic claim as a
  /// distribution. Non-owning; nullptr records nothing.
  explicit TemplateCompressor(std::size_t search_depth = kDefaultSearchDepth,
                              util::Histogram* ratio_histogram = nullptr)
      : search_depth_(search_depth > kRingSize ? kRingSize : search_depth),
        ratio_hist_(ratio_histogram) {}

  /// Records `frame` as the newest ring entry and attempts to compress it.
  /// Returns the encoded bytes if strictly smaller than the original,
  /// nullopt otherwise; either way the caller MUST send the frame (raw or
  /// compressed) with kFlagRecorded set, so the peer records it too. The
  /// returned view points into a scratch buffer the codec owns and is valid
  /// until the next call.
  std::optional<util::BytesView> compress(util::BytesView frame);

  [[nodiscard]] const CompressionStats& stats() const { return stats_; }
  /// Calls that had to grow the scratch buffer or a ring slot, counted once
  /// per call. Flat once every buffer has held the stream's largest frame.
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  std::size_t search_depth_;
  util::Histogram* ratio_hist_;
  std::array<util::Bytes, kRingSize> ring_;
  std::uint64_t count_ = 0;  // frames committed so far
  util::ByteWriter scratch_;  // the last encoding; cleared, capacity kept
  std::uint64_t allocations_ = 0;
  CompressionStats stats_;
};

class TemplateDecompressor {
 public:
  /// Inflates an encoded frame into the newest ring slot and returns a view
  /// of it, valid until the next call. The slot's buffer is reused: the
  /// frame is built in a spare buffer that takes the newest slot's place,
  /// and the evicted frame's buffer becomes the next spare. A failed call
  /// records nothing. A raw frame that arrived with kFlagRecorded must be
  /// recorded via note_raw so the rings stay aligned.
  util::Result<util::BytesView> decompress(util::BytesView encoded);
  void note_raw(util::BytesView frame);
  /// Calls that grew a ring slot (see TemplateCompressor::allocations).
  [[nodiscard]] std::uint64_t allocations() const { return allocations_; }

 private:
  std::array<util::Bytes, TemplateCompressor::kRingSize> ring_;
  util::Bytes spare_;  // decompress() builds the next slot here
  std::uint64_t count_ = 0;
  std::uint64_t allocations_ = 0;
};

}  // namespace rnl::wire
