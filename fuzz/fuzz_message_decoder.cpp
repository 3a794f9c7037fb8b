// Fuzz harness for MessageDecoder: the first parser every byte from the
// Internet reaches (§2.2 — complete L2 frames tunneled from RIS PCs).
//
// Property under test: decoding is invariant to chunk boundaries. The same
// wire bytes are fed whole into one decoder and in seed-derived random
// splits into another; both must agree on every decoded message, the
// poisoned/error state, and (on success) buffered(). This pins down the
// split-feed/watermark resume path — the part of the decoder unit tests
// cannot reach from every angle.
//
// Input layout: [8-byte chunking seed][wire stream bytes].

#include <cstdint>
#include <vector>

#include "fuzz_util.h"
#include "util/rng.h"
#include "wire/tunnel.h"

using rnl::wire::MessageDecoder;

namespace {

bool same_message(const MessageDecoder::Decoded& a,
                  const MessageDecoder::Decoded& b) {
  return a.message == b.message && a.compressed == b.compressed &&
         a.recorded == b.recorded;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 8) return 0;
  const std::uint64_t seed = rnl::fuzz::seed_prefix(data, size);
  const rnl::util::BytesView stream(data + 8, size - 8);

  MessageDecoder whole;
  std::vector<MessageDecoder::Decoded> whole_out = whole.feed(stream);

  MessageDecoder chunked;
  rnl::util::Rng rng(seed);
  std::vector<MessageDecoder::Decoded> chunked_out;
  std::size_t offset = 0;
  while (offset < stream.size()) {
    // 1..96-byte chunks: small enough to split headers and payloads, large
    // enough that long streams still finish quickly.
    std::size_t take = 1 + rng.below(96);
    if (take > stream.size() - offset) take = stream.size() - offset;
    for (auto& decoded : chunked.feed(stream.subspan(offset, take))) {
      chunked_out.push_back(std::move(decoded));
    }
    offset += take;
    // Keep feeding after a framing error: a poisoned decoder must stay
    // poisoned and surface nothing, never crash.
  }

  FUZZ_ASSERT(whole.failed() == chunked.failed());
  FUZZ_ASSERT(whole.error() == chunked.error());
  FUZZ_ASSERT(whole_out.size() == chunked_out.size());
  for (std::size_t i = 0; i < whole_out.size(); ++i) {
    FUZZ_ASSERT(same_message(whole_out[i], chunked_out[i]));
  }
  if (!whole.failed()) {
    // On a clean stream both decoders hold the same trailing partial frame.
    FUZZ_ASSERT(whole.buffered() == chunked.buffered());
  }
  return 0;
}
