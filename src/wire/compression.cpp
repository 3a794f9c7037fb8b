#include "wire/compression.h"

#include <algorithm>

namespace rnl::wire {

namespace {

void put_varint(util::ByteWriter& w, std::uint32_t value) {
  while (value >= 0x80) {
    w.u8(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  w.u8(static_cast<std::uint8_t>(value));
}

bool get_varint(util::ByteReader& r, std::uint32_t& value) {
  value = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    std::uint8_t byte = r.u8();
    if (!r.ok()) return false;
    value |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // varint too long
}

/// One op of the copy/literal diff of a frame against its reference.
struct DiffOp {
  std::size_t copy = 0;  // bytes equal to the reference
  std::size_t lit = 0;   // then bytes taken from the frame
};

/// The op starting at offset `i` of `frame`: the copy run, then literals
/// until the next worthwhile copy (>= 4 bytes) or the end.
DiffOp next_op(util::BytesView frame, util::BytesView ref, std::size_t i) {
  const std::size_t overlap = std::min(frame.size(), ref.size());
  DiffOp op;
  while (i + op.copy < overlap && frame[i + op.copy] == ref[i + op.copy]) {
    ++op.copy;
  }
  const std::size_t j = i + op.copy;
  while (j + op.lit < frame.size()) {
    if (j + op.lit < overlap && frame[j + op.lit] == ref[j + op.lit]) {
      std::size_t run = 1;
      while (j + op.lit + run < overlap &&
             frame[j + op.lit + run] == ref[j + op.lit + run]) {
        ++run;
      }
      if (run >= 4) break;
      op.lit += run;
      continue;
    }
    ++op.lit;
  }
  return op;
}

/// Cost (bytes) of diffing `frame` against `ref` with the copy/literal
/// scheme; bails out early once `budget` is exceeded.
std::size_t diff_cost(util::BytesView frame, util::BytesView ref,
                      std::size_t budget) {
  std::size_t cost = 2;  // scheme byte + ref age
  for (std::size_t i = 0; i < frame.size();) {
    const DiffOp op = next_op(frame, ref, i);
    cost += 2 + op.lit;  // ~1-2 varint bytes each + literals
    if (cost > budget) return cost;
    i += op.copy + op.lit;
  }
  return cost;
}

}  // namespace

std::optional<util::BytesView> TemplateCompressor::compress(
    util::BytesView frame) {
  ++stats_.frames_in;
  stats_.bytes_in += frame.size();
  util::Bytes& slot = ring_[count_ % kRingSize];
  const std::size_t slot_capacity = slot.capacity();
  const std::size_t scratch_capacity = scratch_.capacity();

  // Pick the cheapest reference among the most recent frames.
  std::size_t best_age = 0;  // 0 = none
  std::size_t best_cost = frame.size();  // must beat raw
  std::size_t depth = static_cast<std::size_t>(
      std::min<std::uint64_t>(count_, search_depth_));
  for (std::size_t age = 1; age <= depth; ++age) {
    const util::Bytes& ref = ring_[(count_ - age) % kRingSize];
    if (ref.empty()) continue;
    std::size_t cost = diff_cost(frame, ref, best_cost);
    if (cost < best_cost) {
      best_cost = cost;
      best_age = age;
    }
  }

  bool compressed = false;
  if (best_age != 0) {
    // At age kRingSize the reference is `slot` itself, which is overwritten
    // only after the diff is written.
    const util::Bytes& ref = ring_[(count_ - best_age) % kRingSize];
    util::ByteWriter& w = scratch_;
    w.clear();
    w.reserve(best_cost + 8);
    w.u8(0x01);  // scheme: template diff
    w.u8(static_cast<std::uint8_t>(best_age));
    put_varint(w, static_cast<std::uint32_t>(frame.size()));
    for (std::size_t i = 0; i < frame.size();) {
      const DiffOp op = next_op(frame, ref, i);
      put_varint(w, static_cast<std::uint32_t>(op.copy));
      put_varint(w, static_cast<std::uint32_t>(op.lit));
      w.raw(frame.subspan(i + op.copy, op.lit));
      i += op.copy + op.lit;
    }
    compressed = w.size() < frame.size();
  }
  if (compressed) {
    ++stats_.frames_compressed;
    stats_.bytes_out += scratch_.size();
    if (ratio_hist_ != nullptr) {
      ratio_hist_->record(frame.size() * 100 / scratch_.size());
    }
  } else {
    stats_.bytes_out += frame.size();
  }

  slot.assign(frame.begin(), frame.end());
  ++count_;
  if (slot.capacity() != slot_capacity ||
      scratch_.capacity() != scratch_capacity) {
    ++allocations_;
  }
  if (!compressed) return std::nullopt;
  return scratch_.view();
}

util::Result<util::BytesView> TemplateDecompressor::decompress(
    util::BytesView encoded) {
  util::ByteReader r(encoded);
  std::uint8_t scheme = r.u8();
  std::uint8_t age = r.u8();
  if (!r.ok() || scheme != 0x01) {
    return util::Error{"decompress: unknown scheme"};
  }
  if (age == 0 || age > TemplateCompressor::kRingSize || age > count_) {
    return util::Error{"decompress: reference age out of range"};
  }
  const util::Bytes& ref = ring_[(count_ - age) % TemplateCompressor::kRingSize];
  std::uint32_t total_len = 0;
  if (!get_varint(r, total_len)) {
    return util::Error{"decompress: bad length varint"};
  }
  if (total_len > 64 * 1024) {
    return util::Error{"decompress: implausible frame length"};
  }
  // The frame is built in `spare_` and swapped into the newest slot only
  // once it is whole: at age kRingSize the reference IS that slot, and a
  // failed call must leave the ring as it was.
  util::Bytes& out = spare_;
  out.clear();
  const std::size_t capacity = out.capacity();
  out.reserve(total_len);
  while (out.size() < total_len) {
    std::uint32_t copy = 0;
    std::uint32_t lit = 0;
    if (!get_varint(r, copy) || !get_varint(r, lit)) {
      return util::Error{"decompress: truncated op"};
    }
    if (out.size() + copy > total_len || out.size() + copy > ref.size()) {
      return util::Error{"decompress: copy run exceeds reference"};
    }
    out.insert(out.end(), ref.begin() + static_cast<std::ptrdiff_t>(out.size()),
               ref.begin() + static_cast<std::ptrdiff_t>(out.size() + copy));
    auto literal = r.raw(lit);
    if (!r.ok() || out.size() + lit > total_len) {
      return util::Error{"decompress: truncated literals"};
    }
    out.insert(out.end(), literal.begin(), literal.end());
    if (copy == 0 && lit == 0) {
      return util::Error{"decompress: zero-progress op"};
    }
  }
  if (out.capacity() != capacity) ++allocations_;
  util::Bytes& slot = ring_[count_ % TemplateCompressor::kRingSize];
  slot.swap(out);  // the evicted frame's buffer becomes the next spare
  ++count_;
  return util::BytesView(slot);
}

void TemplateDecompressor::note_raw(util::BytesView frame) {
  util::Bytes& slot = ring_[count_ % TemplateCompressor::kRingSize];
  const std::size_t capacity = slot.capacity();
  slot.assign(frame.begin(), frame.end());
  if (slot.capacity() != capacity) ++allocations_;
  ++count_;
}

}  // namespace rnl::wire
