#include "coherence/home_agent.hpp"

#include <string>
#include <utility>

namespace teco::coherence {

namespace {
constexpr std::uint8_t to_byte(MesiState s) {
  return static_cast<std::uint8_t>(s);
}
constexpr MesiState from_byte(std::uint8_t b) {
  return static_cast<MesiState>(b);
}
}  // namespace

HomeAgent::HomeAgent(cxl::Link& link, GiantCache& giant_cache,
                     mem::Cache& cpu_cache, Options opts)
    : link_(link), gc_(giant_cache), cpu_cache_(cpu_cache),
      protocol_(opts.protocol), cpu_mem_(opts.cpu_mem),
      device_mem_(opts.device_mem), trace_(opts.trace),
      aggregator_(opts.dba), disaggregator_(opts.dba) {}

void HomeAgent::trace(sim::Time now, std::string_view event, mem::Addr line,
                      std::string detail) {
  if (trace_ != nullptr) {
    trace_->emit(now, "home_agent",
                 std::string(event) + "@" + std::to_string(line),
                 std::move(detail));
  }
}

MesiState HomeAgent::cpu_state(mem::Addr line) const {
  const auto* meta = cpu_cache_.peek(line);
  return meta == nullptr ? MesiState::kInvalid : from_byte(meta->state);
}

void HomeAgent::set_cpu_state(mem::Addr line, MesiState s, bool dirty) {
  auto* meta = cpu_cache_.lookup(line);
  const MesiState old =
      meta == nullptr ? MesiState::kInvalid : from_byte(meta->state);
  if (meta == nullptr) {
    cpu_cache_.insert(line, to_byte(s), dirty);
  } else {
    meta->state = to_byte(s);
    meta->dirty = dirty;
  }
  if (observer_ != nullptr) {
    observer_->on_state_change(check::Domain::kCpuCache, mem::line_base(line),
                               to_byte(old), to_byte(s));
  }
}

void HomeAgent::set_observer(check::Observer* obs) {
  observer_ = obs;
  gc_.set_observer(obs);
  cpu_cache_.set_observer(obs);
  link_.set_observer(obs);
  snoop_.set_observer(obs);
  aggregator_.set_observer(obs);
  disaggregator_.set_observer(obs);
}

void HomeAgent::set_metrics(obs::MetricsRegistry* reg) {
  link_.set_metrics(reg);
  if (reg == nullptr) {
    m_dba_lines_ = m_dba_saved_ = m_dba_fallback_ = nullptr;
    return;
  }
  m_dba_lines_ = &reg->counter("dba.lines_aggregated");
  m_dba_saved_ = &reg->counter("dba.bytes_saved");
  m_dba_fallback_ = &reg->counter("dba.fallback_full_lines");
}

cxl::Delivery HomeAgent::push_line_to_device(sim::Time now, mem::Addr line,
                                             const GiantCacheRegion& region) {
  const bool trim = region.dba_eligible && aggregator_.reg().trims();
  const std::uint32_t payload =
      trim ? dba::payload_bytes(aggregator_.reg().dirty_bytes())
           : static_cast<std::uint32_t>(mem::kLineBytes);
  if (trim) {
    ++stats_.dba_trimmed_lines;
    if (m_dba_lines_ != nullptr) {
      m_dba_lines_->add();
      m_dba_saved_->add(static_cast<double>(mem::kLineBytes) - payload);
    }
  } else if (aggregator_.reg().trims() && m_dba_fallback_ != nullptr) {
    // DBA is programmed but this region has no stable dirty-byte pattern:
    // the line goes out full.
    m_dba_fallback_->add();
  }

  if (cpu_mem_ != nullptr && device_mem_ != nullptr) {
    const auto src = cpu_mem_->read_line(line);
    if (region.dba_eligible) {
      const auto packed = aggregator_.pack(src);
      const auto merged = disaggregator_.merge(device_mem_->read_line(line),
                                               packed);
      device_mem_->write_line(line, merged);
    } else {
      // Ineligible regions (gradients, demoted fallbacks) bypass the DBA
      // units entirely: while the register is programmed, pack/merge would
      // splice the line even though the packet above declares a full
      // payload, leaving stale high bytes under a full-line push.
      device_mem_->write_line(line, src);
    }
  }
  const auto pkt = cxl::data_packet(cxl::MessageType::kFlushData,
                                    mem::line_base(line), payload, trim);
  return link_.send(cxl::Direction::kCpuToDevice, now, pkt);
}

cxl::Delivery HomeAgent::push_line_to_cpu(sim::Time now, mem::Addr line) {
  // Gradients never use DBA (Section V: no stable byte-update pattern).
  if (cpu_mem_ != nullptr && device_mem_ != nullptr) {
    cpu_mem_->write_line(line, device_mem_->read_line(line));
  }
  const auto pkt = cxl::data_packet(cxl::MessageType::kFlushData,
                                    mem::line_base(line), mem::kLineBytes);
  return link_.send(cxl::Direction::kDeviceToCpu, now, pkt);
}

void HomeAgent::demote_region(sim::Time now, mem::Addr addr) {
  auto* region = gc_.find(mem::line_base(addr));
  if (region == nullptr || region->forced_invalidation) return;
  region->forced_invalidation = true;
  ++stats_.protocol_fallbacks;
  trace(now, "ProtocolFallback", mem::line_base(addr),
        "region '" + region->name + "' -> invalidation MESI");
}

Protocol HomeAgent::effective_protocol(mem::Addr addr) const {
  const auto* region = gc_.find(mem::line_base(addr));
  if (region != nullptr && region->forced_invalidation) {
    return Protocol::kInvalidation;
  }
  return protocol_;
}

std::optional<cxl::Delivery> HomeAgent::cpu_write_line(sim::Time now,
                                                       mem::Addr addr) {
  const mem::Addr line = mem::line_base(addr);
  auto* region = gc_.find(line);
  if (region == nullptr) return std::nullopt;  // Ordinary memory.
  if (observer_ != nullptr) {
    observer_->on_op_begin(now, check::Op::kCpuWrite, line);
  }
  auto result = cpu_write_line_impl(now, line, *region);
  if (observer_ != nullptr) {
    observer_->on_op_end(now, check::Op::kCpuWrite, line);
  }
  return result;
}

std::optional<cxl::Delivery> HomeAgent::cpu_write_line_impl(
    sim::Time now, mem::Addr line, GiantCacheRegion& region) {
  // Producer/consumer violation: the device holds this line dirty while
  // the CPU writes it. The update protocol's no-snoop-filter argument no
  // longer holds for this region — fall back (Section IV-A2).
  if (protocol_ == Protocol::kUpdate && !region.forced_invalidation &&
      gc_.state(line) == MesiState::kModified) {
    demote_region(now, line);
  }

  const MesiState cs = cpu_state(line);
  if (cs == MesiState::kInvalid) {
    // ReadOwn/GO between CPU cache and home agent are on-package: no link
    // traffic, only the state transition of Fig. 5 step (1).
    trace(now, "ReadOwn", line, "Cs:I->E");
    set_cpu_state(line, MesiState::kExclusive, false);
  }

  if (effective_protocol(line) == Protocol::kUpdate) {
    // Fig. 5 step (2): Cs E->M on the store; the home agent answers with
    // GO_Flush, the line is pushed, and Cs lands in S (clean), Gs in S.
    trace(now, "GO_Flush", line, "Cs:M->S Gs:S");
    set_cpu_state(line, MesiState::kShared, false);
    ++stats_.update_pushes;
    auto delivery = push_line_to_device(now, line, region);
    gc_.set_state(line, MesiState::kShared);
    return delivery;
  }

  // Invalidation MESI: snoop out the device copy, keep the dirty line local.
  if (gc_.state(line) != MesiState::kInvalid) {
    link_.send(cxl::Direction::kCpuToDevice, now,
               cxl::control_packet(cxl::MessageType::kInvalidate, line));
    link_.send(cxl::Direction::kDeviceToCpu, now,
               cxl::control_packet(cxl::MessageType::kInvAck, line));
    gc_.set_state(line, MesiState::kInvalid);
    snoop_.remove_sharer(line, Sharer::kDevice);
    ++stats_.invalidations;
    trace(now, "Invalidate", line, "Gs->I");
  }
  set_cpu_state(line, MesiState::kModified, true);
  snoop_.add_sharer(line, Sharer::kCpu);
  return std::nullopt;
}

HomeAgent::Access HomeAgent::cpu_read_line(sim::Time now, mem::Addr addr) {
  const mem::Addr line = mem::line_base(addr);
  if (!gc_.contains_line(line)) return Access{now, false};
  if (observer_ != nullptr) {
    observer_->on_op_begin(now, check::Op::kCpuRead, line);
  }
  const Access result = cpu_read_line_impl(now, line);
  if (observer_ != nullptr) {
    observer_->on_op_end(now, check::Op::kCpuRead, line);
  }
  return result;
}

HomeAgent::Access HomeAgent::cpu_read_line_impl(sim::Time now,
                                                mem::Addr line) {
  if (effective_protocol(line) == Protocol::kUpdate ||
      gc_.state(line) != MesiState::kModified) {
    // Data is home (update pushes landed, or device copy not dirty).
    ++stats_.local_cpu_reads;
    return Access{now, false};
  }

  // Invalidation mode with a device-dirty line: demand fetch.
  link_.send(cxl::Direction::kCpuToDevice, now,
             cxl::control_packet(cxl::MessageType::kDemandRead, line));
  if (cpu_mem_ != nullptr && device_mem_ != nullptr) {
    cpu_mem_->write_line(line, device_mem_->read_line(line));
  }
  const auto d = link_.send(
      cxl::Direction::kDeviceToCpu, now,
      cxl::data_packet(cxl::MessageType::kData, line, mem::kLineBytes));
  gc_.set_state(line, MesiState::kShared);
  set_cpu_state(line, MesiState::kShared, false);
  snoop_.add_sharer(line, Sharer::kCpu);
  ++stats_.demand_fetches;
  trace(now, "DemandRead", line, "cpu<-dev");
  return Access{d.delivered, true};
}

std::uint64_t HomeAgent::cpu_flush_all(sim::Time now) {
  if (observer_ != nullptr) {
    observer_->on_op_begin(now, check::Op::kFlushAll, 0);
  }
  const std::uint64_t n = cpu_flush_all_impl(now);
  if (observer_ != nullptr) {
    observer_->on_op_end(now, check::Op::kFlushAll, 0);
  }
  return n;
}

std::uint64_t HomeAgent::cpu_flush_all_impl(sim::Time now) {
  std::uint64_t n = 0;
  // Collect giant-domain lines resident in the CPU cache, then transition.
  std::vector<mem::Addr> to_drop;
  cpu_cache_.for_each([&](const mem::CacheLineMeta& meta) {
    if (gc_.contains_line(meta.base) &&
        from_byte(meta.state) == MesiState::kShared) {
      to_drop.push_back(meta.base);
    }
  });
  for (const mem::Addr line : to_drop) {
    cpu_cache_.invalidate(line, /*writeback_on_invalidate=*/false);
    // A demoted region tracks its S-lines in the snoop filter; dropping the
    // CPU copy must retire the directory entry too, or a later consistency
    // sweep sees a phantom sharer.
    snoop_.remove_sharer(line, Sharer::kCpu);
    if (gc_.state(line) == MesiState::kShared) {
      gc_.set_state(line, MesiState::kExclusive);
    }
    ++n;
  }
  stats_.cpu_flushes += n;
  trace(now, "FlushAll", 0, std::to_string(n) + " lines");
  return n;
}

HomeAgent::Access HomeAgent::device_read_line(sim::Time now, mem::Addr addr) {
  const mem::Addr line = mem::line_base(addr);
  if (!gc_.contains_line(line)) return Access{now, false};
  if (observer_ != nullptr) {
    observer_->on_op_begin(now, check::Op::kDeviceRead, line);
  }
  const Access result = device_read_line_impl(now, line);
  if (observer_ != nullptr) {
    observer_->on_op_end(now, check::Op::kDeviceRead, line);
  }
  return result;
}

HomeAgent::Access HomeAgent::device_read_line_impl(sim::Time now,
                                                   mem::Addr line) {
  if (gc_.state(line) != MesiState::kInvalid) {
    ++stats_.local_device_reads;
    return Access{now, false};
  }

  // Invalidation mode left the device copy invalid: fetch on demand. This
  // is the on-demand transfer the paper measures at +56.6% training time.
  link_.send(cxl::Direction::kDeviceToCpu, now,
             cxl::control_packet(cxl::MessageType::kDemandRead, line));
  if (cpu_mem_ != nullptr && device_mem_ != nullptr) {
    device_mem_->write_line(line, cpu_mem_->read_line(line));
  }
  const auto d = link_.send(
      cxl::Direction::kCpuToDevice, now,
      cxl::data_packet(cxl::MessageType::kData, line, mem::kLineBytes));
  gc_.set_state(line, MesiState::kShared);
  if (cpu_state(line) == MesiState::kModified) {
    set_cpu_state(line, MesiState::kShared, true);
  }
  snoop_.add_sharer(line, Sharer::kDevice);
  ++stats_.demand_fetches;
  trace(now, "DemandRead", line, "dev<-cpu");
  return Access{d.delivered, true};
}

std::optional<cxl::Delivery> HomeAgent::device_write_line(sim::Time now,
                                                          mem::Addr addr) {
  const mem::Addr line = mem::line_base(addr);
  auto* region = gc_.find(line);
  if (region == nullptr) return std::nullopt;
  if (observer_ != nullptr) {
    observer_->on_op_begin(now, check::Op::kDeviceWrite, line);
  }
  auto result = device_write_line_impl(now, line, *region);
  if (observer_ != nullptr) {
    observer_->on_op_end(now, check::Op::kDeviceWrite, line);
  }
  return result;
}

std::optional<cxl::Delivery> HomeAgent::device_write_line_impl(
    sim::Time now, mem::Addr line, GiantCacheRegion& region) {
  // Symmetric producer/consumer violation: the CPU holds this line dirty
  // while the device writes it.
  if (protocol_ == Protocol::kUpdate && !region.forced_invalidation &&
      cpu_state(line) == MesiState::kModified) {
    demote_region(now, line);
  }

  if (effective_protocol(line) == Protocol::kUpdate) {
    // Symmetric update push: the device-produced line (a gradient) streams
    // to CPU memory at writeback time. A CPU cache copy, if resident, is
    // refreshed; non-resident lines simply land in CPU memory.
    gc_.set_state(line, MesiState::kShared);
    ++stats_.update_pushes;
    auto delivery = push_line_to_cpu(now, line);
    if (cpu_cache_.peek(line) != nullptr) {
      set_cpu_state(line, MesiState::kShared, false);
    }
    return delivery;
  }

  // Invalidation MESI: snoop out the CPU copy, keep the dirty line remote.
  if (cpu_state(line) != MesiState::kInvalid) {
    link_.send(cxl::Direction::kDeviceToCpu, now,
               cxl::control_packet(cxl::MessageType::kInvalidate, line));
    link_.send(cxl::Direction::kCpuToDevice, now,
               cxl::control_packet(cxl::MessageType::kInvAck, line));
    cpu_cache_.invalidate(line, /*writeback_on_invalidate=*/false);
    snoop_.remove_sharer(line, Sharer::kCpu);
    ++stats_.invalidations;
    trace(now, "Invalidate", line, "Cs->I");
  }
  if (gc_.state(line) == MesiState::kInvalid) {
    // Write-allocate miss: ownership is granted (ItoM) before the store
    // dirties the line — the same two-step the CPU-side write path takes,
    // so the directory never sees a raw I->M transition.
    gc_.set_state(line, MesiState::kExclusive);
  }
  gc_.set_state(line, MesiState::kModified);
  snoop_.add_sharer(line, Sharer::kDevice);
  return std::nullopt;
}

void HomeAgent::set_dba(sim::Time now, dba::DbaRegister reg) {
  aggregator_.set_register(reg);
  link_.send(cxl::Direction::kCpuToDevice, now,
             cxl::control_packet(cxl::MessageType::kDbaConfig, reg.encode()));
  disaggregator_.set_register(reg);
  trace(now, "DbaConfig", reg.encode());
}

}  // namespace teco::coherence
