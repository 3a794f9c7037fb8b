// E7 (§4 "Compression"): template-based packet compression.
//
// The paper's claim: "Performance testing packets often look similar to one
// another ... By exploiting the similarities across packets, we could
// achieve a high compression ratio." We sweep workloads from pure template
// traffic to pure noise and report ratio + throughput; google-benchmark
// micro-benchmarks cover the encode/decode hot path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "packet/builder.h"
#include "util/rng.h"
#include "wire/compression.h"

using namespace rnl;

namespace {

/// Builds `count` frames: a UDP template with a per-frame sequence number
/// stamped into the payload, with `noise_bytes` random bytes mutated per
/// frame on top (0 = the paper's ideal workload).
std::vector<util::Bytes> template_workload(std::size_t count,
                                           std::size_t frame_size,
                                           std::size_t noise_bytes,
                                           std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes payload(frame_size, 0x33);
  packet::EthernetFrame base = packet::make_udp(
      packet::MacAddress::local(1), packet::MacAddress::local(2),
      *packet::Ipv4Address::parse("10.0.0.1"),
      *packet::Ipv4Address::parse("10.0.0.2"), 1024, 9000, payload);
  util::Bytes template_bytes = base.serialize();
  std::vector<util::Bytes> frames;
  frames.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    util::Bytes frame = template_bytes;
    // Sequence marking at a fixed payload offset.
    std::size_t off = frame.size() - 8;
    frame[off] = static_cast<std::uint8_t>(i >> 24);
    frame[off + 1] = static_cast<std::uint8_t>(i >> 16);
    frame[off + 2] = static_cast<std::uint8_t>(i >> 8);
    frame[off + 3] = static_cast<std::uint8_t>(i);
    for (std::size_t n = 0; n < noise_bytes; ++n) {
      frame[42 + rng.below(frame.size() - 50)] =
          static_cast<std::uint8_t>(rng.next_u32());
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

std::vector<util::Bytes> random_workload(std::size_t count,
                                         std::size_t frame_size,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<util::Bytes> frames;
  for (std::size_t i = 0; i < count; ++i) {
    util::Bytes frame(frame_size);
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next_u32());
    frames.push_back(std::move(frame));
  }
  return frames;
}

double run_ratio(const std::vector<util::Bytes>& frames) {
  wire::TemplateCompressor compressor;
  wire::TemplateDecompressor decompressor;
  for (const auto& frame : frames) {
    auto compressed = compressor.compress(frame);
    if (compressed.has_value()) {
      auto inflated = decompressor.decompress(*compressed);
      if (!inflated.ok() ||
          !std::equal(inflated->begin(), inflated->end(), frame.begin(),
                      frame.end())) {
        std::fprintf(stderr, "FATAL: lossy compression!\n");
        std::exit(1);
      }
    } else {
      decompressor.note_raw(frame);
    }
  }
  return compressor.stats().ratio();
}

void ratio_table() {
  std::printf("E7 / §4 — compression ratio by workload (1000 frames each)\n");
  std::printf("%-34s %10s\n", "workload", "ratio");
  struct Case {
    const char* name;
    std::vector<util::Bytes> frames;
  } cases[] = {
      {"template, seq-only (paper ideal)",
       template_workload(1000, 800, 0, 1)},
      {"template + 4 noise bytes", template_workload(1000, 800, 4, 2)},
      {"template + 32 noise bytes", template_workload(1000, 800, 32, 3)},
      {"template + 128 noise bytes", template_workload(1000, 800, 128, 4)},
      {"random frames (incompressible)", random_workload(1000, 800, 5)},
  };
  for (auto& c : cases) {
    std::printf("%-34s %9.1fx\n", c.name, run_ratio(c.frames));
  }
  std::printf(
      "\nShape check: ratio is very high on template traffic, degrades with\n"
      "per-frame entropy, and is ~1.0x (transparent) on random traffic.\n\n");
}

void BM_CompressTemplate(benchmark::State& state) {
  auto frames = template_workload(256, static_cast<std::size_t>(state.range(0)),
                                  0, 7);
  wire::TemplateCompressor compressor;
  std::size_t i = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const auto& frame = frames[i++ % frames.size()];
    benchmark::DoNotOptimize(compressor.compress(frame));
    bytes += static_cast<std::int64_t>(frame.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_CompressTemplate)->Arg(128)->Arg(800)->Arg(1400);

void BM_CompressRandom(benchmark::State& state) {
  auto frames = random_workload(256, static_cast<std::size_t>(state.range(0)), 8);
  wire::TemplateCompressor compressor;
  std::size_t i = 0;
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const auto& frame = frames[i++ % frames.size()];
    benchmark::DoNotOptimize(compressor.compress(frame));
    bytes += static_cast<std::int64_t>(frame.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_CompressRandom)->Arg(800);

void BM_DecompressTemplate(benchmark::State& state) {
  auto frames = template_workload(256, 800, 0, 9);
  wire::TemplateCompressor compressor;
  std::vector<util::Bytes> compressed;
  for (const auto& frame : frames) {
    auto c = compressor.compress(frame);
    if (c.has_value()) compressed.emplace_back(c->begin(), c->end());
  }
  // Decode the same short history over and over via fresh decompressors
  // primed with the raw first frame.
  for (auto _ : state) {
    wire::TemplateDecompressor decompressor;
    decompressor.note_raw(frames[0]);
    for (std::size_t i = 0; i < 15 && i < compressed.size(); ++i) {
      auto out = decompressor.decompress(compressed[i]);
      benchmark::DoNotOptimize(out);
      if (!out.ok()) state.SkipWithError("decode failed");
    }
  }
}
BENCHMARK(BM_DecompressTemplate);

}  // namespace

int main(int argc, char** argv) {
  ratio_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
