// Ablation: how much of the §4 compression win comes from each design
// choice?
//
//   (a) reference search depth — how many recent frames the encoder diffs
//       against. Depth 1 only exploits back-to-back similarity; deeper
//       search catches interleaved flows (e.g. two streams multiplexed on
//       one tunnel, which is exactly what a shared RIS produces).
//   (b) sequence-number placement — the paper's "slight different marking"
//       assumption; we move the marking around and widen it to show the
//       scheme is insensitive to where the marking lives, but sensitive to
//       how many bytes change.
//
// Workload: two interleaved template streams (A,B,A,B,...), as produced by
// two router ports multiplexed on one RIS uplink.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/rng.h"
#include "wire/compression.h"

using namespace rnl;

namespace {

std::vector<util::Bytes> interleaved_workload(std::size_t count) {
  // Two very different templates.
  util::Bytes template_a(800, 0x11);
  util::Bytes template_b(600, 0xEE);
  for (std::size_t i = 0; i < template_b.size(); ++i) {
    template_b[i] = static_cast<std::uint8_t>(i * 7);
  }
  std::vector<util::Bytes> frames;
  for (std::uint32_t i = 0; i < count; ++i) {
    util::Bytes frame = (i % 2 == 0) ? template_a : template_b;
    frame[100] = static_cast<std::uint8_t>(i >> 8);
    frame[101] = static_cast<std::uint8_t>(i);
    frames.push_back(std::move(frame));
  }
  return frames;
}

double ratio_with_depth(const std::vector<util::Bytes>& frames,
                        std::size_t depth) {
  wire::TemplateCompressor compressor(depth);
  wire::TemplateDecompressor decompressor;
  for (const auto& frame : frames) {
    auto compressed = compressor.compress(frame);
    if (compressed.has_value()) {
      auto inflated = decompressor.decompress(*compressed);
      if (!inflated.ok() ||
          !std::equal(inflated->begin(), inflated->end(), frame.begin(),
                      frame.end())) {
        std::fprintf(stderr, "FATAL: lossy at depth %zu\n", depth);
        std::exit(1);
      }
    } else {
      decompressor.note_raw(frame);
    }
  }
  return compressor.stats().ratio();
}

double ratio_with_marking(std::size_t marking_bytes, std::size_t offset) {
  wire::TemplateCompressor compressor;
  wire::TemplateDecompressor decompressor;
  util::Rng rng(42);
  util::Bytes base(800, 0x3C);
  for (std::uint32_t i = 0; i < 500; ++i) {
    util::Bytes frame = base;
    for (std::size_t b = 0; b < marking_bytes && offset + b < frame.size();
         ++b) {
      frame[offset + b] = static_cast<std::uint8_t>(rng.next_u32());
    }
    auto compressed = compressor.compress(frame);
    if (!compressed.has_value()) decompressor.note_raw(frame);
  }
  return compressor.stats().ratio();
}

}  // namespace

int main() {
  std::printf(
      "Ablation A — reference search depth on interleaved streams\n"
      "(two templates multiplexed A,B,A,B,... on one tunnel; 1000 frames)\n");
  std::printf("%8s %10s\n", "depth", "ratio");
  auto frames = interleaved_workload(1000);
  for (std::size_t depth : {1, 2, 4, 8, 16}) {
    std::printf("%8zu %9.1fx\n", depth, ratio_with_depth(frames, depth));
  }
  std::printf(
      "\nShape check: depth 1 can only diff against the OTHER stream's\n"
      "frame (poor ratio); depth >= 2 reaches the same stream's previous\n"
      "frame and the ratio jumps; beyond the interleaving factor extra\n"
      "depth buys little.\n\n");

  std::printf("Ablation B — marking width and placement (800 B template)\n");
  std::printf("%16s %10s %10s\n", "marking bytes", "offset", "ratio");
  for (std::size_t width : {2, 4, 16, 64, 256}) {
    for (std::size_t offset : {0, 400, 700}) {
      std::printf("%16zu %10zu %9.1fx\n", width, offset,
                  ratio_with_marking(width, offset));
    }
  }
  std::printf(
      "\nShape check: the ratio depends on how MANY bytes the marking\n"
      "touches, not on where it sits — the copy/literal diff is\n"
      "position-agnostic, as the paper's template assumption requires.\n");
  return 0;
}
