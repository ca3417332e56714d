#include "ft/persistent_store.hpp"

namespace teco::ft {

void PersistentStore::stage_bytes(mem::Addr addr,
                                  std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  // Read-modify-write: a line not yet buffered starts from the committed
  // media, so the bytes of a partially covered line outside the range keep
  // their durable values.
  for (mem::Addr base = mem::line_base(addr); base < addr + bytes.size();
       base += mem::kLineBytes) {
    if (!staged_.contains_line(base)) {
      staged_.write_line(base, durable_.read_line(base));
    }
  }
  staged_.write(addr, bytes);
}

sim::Time PersistentStore::commit(sim::Time now) {
  const std::uint64_t bytes = staged_.resident_lines() * mem::kLineBytes;
  staged_.for_each_line([this](mem::Addr base, const Line& line) {
    durable_.write_line(base, line);
  });
  staged_.clear();
  ++stats_.commits;
  stats_.committed_bytes += bytes;
  if (bytes == 0) return now;  // Nothing buffered: the fence is free.
  return now + timing_.write_time(bytes) + timing_.flush_latency;
}

void PersistentStore::crash() {
  ++stats_.crashes;
  stats_.lost_staged_lines += staged_.resident_lines();
  staged_.clear();
}

}  // namespace teco::ft
