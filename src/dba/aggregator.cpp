#include "dba/aggregator.hpp"

#include <cstring>

namespace teco::dba {

namespace {

// A compile-time width lets each word's copy compile to one fixed move.
template <std::size_t N, std::size_t FromStride, std::size_t ToStride>
void move_low_bytes(const std::uint8_t* from, std::uint8_t* to) {
  for (std::size_t w = 0; w < mem::kWordsPerLine; ++w) {
    std::memcpy(to + w * ToStride, from + w * FromStride, N);
  }
}

}  // namespace

void gather_low_bytes(std::uint8_t n, const std::uint8_t* line,
                      std::uint8_t* payload) {
  // Little-endian FP32: the least significant N bytes are the first N bytes
  // of the word in memory order.
  switch (n) {
    case 1: move_low_bytes<1, 4, 1>(line, payload); break;
    case 2: move_low_bytes<2, 4, 2>(line, payload); break;
    case 3: move_low_bytes<3, 4, 3>(line, payload); break;
    default: break;  // 0 dirty bytes: nothing moves.
  }
}

void scatter_low_bytes(std::uint8_t n, const std::uint8_t* payload,
                       std::uint8_t* line) {
  switch (n) {
    case 1: move_low_bytes<1, 1, 4>(payload, line); break;
    case 2: move_low_bytes<2, 2, 4>(payload, line); break;
    case 3: move_low_bytes<3, 3, 4>(payload, line); break;
    default: break;
  }
}

Payload Aggregator::pack(const mem::BackingStore::Line& line) const {
  shard_.assert_held();
  ++lines_processed_;
  Payload p;
  if (reg_.trims()) {
    gather_low_bytes(reg_.dirty_bytes(), line.data(), p.bytes.data());
    p.len = payload_bytes(reg_.dirty_bytes());
  } else {
    p.bytes = line;
    p.len = mem::kLineBytes;
  }
  if (observer_ != nullptr) {
    observer_->on_dba_pack(line.data(), p.data(), p.size(), reg_.encode());
  }
  return p;
}

}  // namespace teco::dba
