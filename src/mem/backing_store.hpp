// Sparse byte-addressable backing store.
//
// Holds the actual contents of CPU memory and the accelerator giant cache in
// the data-carrying paths (DBA merge correctness, coherence data movement
// tests). Pages are allocated lazily at cache-line granularity; untouched
// lines read as zero, mirroring zero-initialized simulated DRAM.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/address.hpp"

namespace teco::mem {

class BackingStore {
 public:
  using Line = std::array<std::uint8_t, kLineBytes>;

  /// Read the 64-byte line containing `addr` (zeros if never written).
  Line read_line(Addr addr) const {
    const auto it = lines_.find(line_index(addr));
    if (it == lines_.end()) return Line{};
    return it->second;
  }

  void write_line(Addr addr, const Line& data) {
    lines_[line_index(addr)] = data;
  }

  bool contains_line(Addr addr) const {
    return lines_.contains(line_index(addr));
  }

  /// Byte-granular accessors that may straddle lines. Both move a line at a
  /// time: one table lookup and one copy per line the range touches.
  void write(Addr addr, std::span<const std::uint8_t> bytes) {
    for (std::size_t done = 0; done < bytes.size();) {
      const std::size_t off = (addr + done) % kLineBytes;
      const std::size_t n = std::min(bytes.size() - done, kLineBytes - off);
      Line& line = lines_[line_index(addr + done)];
      std::memcpy(line.data() + off, bytes.data() + done, n);
      done += n;
    }
  }

  void read(Addr addr, std::span<std::uint8_t> out) const {
    for (std::size_t done = 0; done < out.size();) {
      const std::size_t off = (addr + done) % kLineBytes;
      const std::size_t n = std::min(out.size() - done, kLineBytes - off);
      const auto it = lines_.find(line_index(addr + done));
      if (it == lines_.end()) {
        std::memset(out.data() + done, 0, n);
      } else {
        std::memcpy(out.data() + done, it->second.data() + off, n);
      }
      done += n;
    }
  }

  /// FP32 arrays in host (little-endian) byte order, the layout the
  /// training hooks and the fabric nodes use.
  void write_f32s(Addr addr, std::span<const float> values) {
    write(addr, {reinterpret_cast<const std::uint8_t*>(values.data()),
                 values.size_bytes()});
  }

  void read_f32s(Addr addr, std::span<float> out) const {
    read(addr, {reinterpret_cast<std::uint8_t*>(out.data()), out.size_bytes()});
  }

  float read_f32(Addr addr) const {
    float f = 0.0f;
    read_f32s(addr, {&f, 1});
    return f;
  }

  void write_f32(Addr addr, float f) { write_f32s(addr, {&f, 1}); }

  std::size_t resident_lines() const { return lines_.size(); }
  void clear() { lines_.clear(); }

  /// Visit every resident line as (line base address, contents), in
  /// ascending address order. The order is a contract, not a convenience:
  /// the ft checkpoint engine and PersistentStore::commit serialize lines
  /// in visit order, so it must not depend on hash-table layout (which
  /// varies with insertion/rehash history) or replayed checkpoint images
  /// stop being bit-identical. tests/lint_test.cpp pins this.
  template <typename Fn>
  void for_each_line(Fn&& fn) const {
    std::vector<std::uint64_t> indices;
    indices.reserve(lines_.size());
    // Keys are sorted below before any order escapes to the visitor.
    // teco-lint: allow(unordered-iter)
    for (const auto& [index, line] : lines_) indices.push_back(index);
    std::sort(indices.begin(), indices.end());
    for (const std::uint64_t index : indices) {
      fn(static_cast<Addr>(index * kLineBytes), lines_.find(index)->second);
    }
  }

 private:
  std::unordered_map<std::uint64_t, Line> lines_;
};

}  // namespace teco::mem
