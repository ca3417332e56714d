// bench_e2e — the end-to-end benchmark program: one named workload per
// process, measured on both of the repository's clocks.
//
//   bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//   bench_e2e --smoke
//
// The modeled clock is what the simulated hardware takes (step time, TTFT,
// all-reduce time); the host clock is what the simulator costs to run. Each
// workload drives the public API of the layers it exercises in a closed
// loop with one client: the next operation starts when the previous one
// returns. Every input is generated from --seed. Every operation is
// checked; one that throws or fails its check counts in ops_failed.
//
// A run sets the workload up seven times (construction plus warm-up
// operations; setup_s is the median), four times before and three after
// the timed phase. The timed phase lasts --seconds and never stops before
// the operations the modeled metrics cover. Host throughput (work_per_s)
// rests on the per-operation rates of many small operations, not on a run
// total; see Measurement::work_per_s().
//
// With --trace the run measures twice, half the time each: untraced, then
// with a host-clock span around every public call and causal tracing on.
// It reports the per-layer split and the tracing overhead, counts a failure
// unless the two halves' modeled metrics are bit-identical, and writes the
// spans as Chrome-trace JSON to <file>.
//
// --smoke runs every workload at smoke size: seed 1 untraced, seed 1
// traced, seed 2 untraced. The two seed-1 runs must agree on every modeled
// metric bit for bit, and seed 2 must change the generated inputs.
//
// The last stdout line is one JSON object:
//   {"workload": ..., "seed": n, "ops": n, "ops_failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/tier_checker.hpp"
#include "compress/lz4.hpp"
#include "compress/param_corpus.hpp"
#include "core/session.hpp"
#include "dba/disaggregator.hpp"
#include "dl/dba_training.hpp"
#include "dl/model_zoo.hpp"
#include "fabric/allreduce.hpp"
#include "mc/fabric_driver.hpp"
#include "mc/model_checker.hpp"
#include "obs/causal.hpp"
#include "obs/json.hpp"
#include "offload/activation_timeline.hpp"
#include "offload/experiments.hpp"
#include "offload/multi_device.hpp"
#include "offload/pipeline_sim.hpp"
#include "serve/scheduler.hpp"
#include "sim/rng.hpp"

namespace {

using namespace teco;
using obs::causal::Category;

constexpr double kMiB = 1024.0 * 1024.0;

double host_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finalizer: decorrelated per-operation seeds from (seed, i).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Linear-interpolated quantile, q in [0, 1]; q = 0.5 is the median.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Modeled metrics must repeat bit for bit, so equality is on the bits.
bool operator==(const Metric& a, const Metric& b) {
  return std::memcmp(&a.value, &b.value, sizeof a.value) == 0 &&
         a.unit == b.unit;
}

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  m[name] = Metric{value, unit};
}

// ---------------------------------------------------------------------------
// Host-clock spans. Kept in memory, written once at exit.

struct SpanRecord {
  const char* name = nullptr;
  double begin = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  std::int32_t open(const char* name) {
    if (!on_) return -1;
    spans_.push_back({name, host_s(), 0.0, current_, op_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }

  void close(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = host_s();
    current_ = spans_[static_cast<std::size_t>(id)].parent;
  }

  void set_op(std::uint32_t op) { op_ = op; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<SpanRecord> spans_;
  std::int32_t current_ = -1;
  std::uint32_t op_ = 0;
};

class Span {
 public:
  Span(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Span() { t_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

bool write_chrome_trace(const Tracer& t, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = t.spans().empty() ? 0.0 : t.spans().front().begin;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < t.spans().size(); ++i) {
    const SpanRecord& s = t.spans()[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"parent\":%d}}",
                 i == 0 ? "" : ",", obs::json_escape(s.name).c_str(),
                 (s.begin - t0) * 1e6, (s.end - s.begin) * 1e6, s.op,
                 s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Workloads.

struct RunConfig {
  std::uint64_t seed = 1;
  bool smoke = false;
  bool traced = false;
};

struct OpResult {
  std::size_t kind = 0;
  double work = 0.0;
};

class Workload {
 public:
  Workload(const RunConfig& rc, Tracer& tracer) : rc_(rc), tracer_(tracer) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Number of operation kinds; run_op() reports which one it ran.
  virtual std::size_t kinds() const { return 1; }
  /// Build the state from the seed and run the warm-up operations.
  virtual void setup() = 0;
  /// Run measured operation i (0-based). Throws when a check fails.
  virtual OpResult run_op(std::size_t i) = 0;
  /// Measured operations the modeled metrics cover.
  virtual std::size_t model_ops() const = 0;
  /// Simulated-clock results over the first model_ops() operations; a
  /// function of the seed alone.
  virtual void modeled(Metrics& m) const = 0;
  /// Layer counters, normalized per operation over all `ops` measured;
  /// the host split comes from the spans.
  virtual void layers(Metrics&, std::size_t /*ops*/) const {}

  /// FNV-1a digest of the generated inputs.
  std::uint64_t input_digest() const { return digest_; }
  /// False when the seed cannot change what the operations compute.
  virtual bool seeded_inputs() const { return true; }

 protected:
  void digest(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      digest_ = (digest_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void digest_value(const T& v) {
    digest(&v, sizeof v);
  }
  static void require(bool ok, const std::string& what) {
    if (!ok) throw std::runtime_error(what);
  }

  RunConfig rc_;
  Tracer& tracer_;

 private:
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

/// Listing-1 training loop on core::Session. Parameters and gradients are a
/// seeded mix of tensor sizes with a fixed line total per direction, so the
/// seed varies the working-set shape and the values but not the work.
class TrainWorkload final : public Workload {
 public:
  TrainWorkload(const RunConfig& rc, Tracer& t, coherence::Protocol protocol)
      : Workload(rc, t), protocol_(protocol) {}

  void setup() override {
    const std::uint64_t total = rc_.smoke ? 256 : 6144;
    const double lo = rc_.smoke ? 16 : 256, hi = rc_.smoke ? 64 : 4096;
    core::SessionConfig cfg;
    cfg.protocol = protocol_;
    cfg.dba_enabled = protocol_ == coherence::Protocol::kUpdate;
    // DBA turns on with the first measured step, so every measured step
    // has one shape; the warm-up step pushes full parameter lines.
    cfg.act_aft_steps = kWarmup;
    cfg.obs_causal = rc_.traced;
    session_ = std::make_unique<core::Session>(cfg);

    sim::Rng rng(mix(rc_.seed, 0x7a11));
    tensors_.clear();
    std::uint64_t left = total;
    while (left > 0) {
      auto lines = static_cast<std::uint64_t>(
          std::exp(rng.uniform(std::log(lo), std::log(hi))));
      if (left - std::min(lines, left) < lo) lines = left;
      left -= lines;
      Tensor& t = tensors_.emplace_back();
      const std::size_t n = lines * mem::kWordsPerLine;
      const std::string name = "tensor" + std::to_string(tensors_.size());
      t.params = session_->allocate_parameters(name + ".params", n * 4);
      t.grads = session_->allocate_gradients(name + ".grads", n * 4);
      t.master.resize(n);
      t.drift.resize(n);
      t.grad_base.resize(n);
      t.grad.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        t.master[i] = static_cast<float>(rng.next_gaussian() * 0.05);
        // Adam-like: tiny per-step moves, mostly inside the low bytes.
        t.drift[i] =
            t.master[i] * static_cast<float>(3e-6 * rng.next_gaussian());
        t.grad_base[i] = static_cast<float>(rng.next_gaussian() * 1e-3);
      }
      digest_value(lines);
      digest(t.master.data(), n * 4);
      session_->cpu_write_parameters(t.params, t.master);
      t.device = t.master;
    }
    session_->optimizer_step_complete();
    lines_per_dir_ = total;
    for (std::size_t s = 0; s < kWarmup; ++s) step();
  }

  OpResult run_op(std::size_t i) override {
    if (i == 0) base_ = snapshot();
    step();
    if (i + 1 == model_ops()) window_ = snapshot();
    return {0, 2.0 * static_cast<double>(lines_per_dir_)};
  }

  std::size_t model_ops() const override { return rc_.smoke ? 16 : 128; }

  void modeled(Metrics& m) const override {
    const double n = static_cast<double>(model_ops());
    put(m, "model.sim_step_ms",
        (window_.at("now") - base_.at("now")) / n * 1e3, "ms");
    put(m, "model.link_mib_per_step",
        (window_.at("payload") - base_.at("payload")) / n / kMiB, "MiB");
  }

  void layers(Metrics& m, std::size_t ops) const override {
    const Snapshot end = snapshot();
    const double n = static_cast<double>(ops);
    const auto per_step = [&](const char* k) {
      return (end.at(k) - base_.at(k)) / n;
    };
    const std::pair<const char*, const char*> counters[] = {
        {"coherence.update_pushes", "count"},
        {"coherence.invalidations", "count"},
        {"coherence.demand_fetches", "count"},
        {"coherence.cpu_flushes", "count"},
        {"coherence.protocol_fallbacks", "count"},
        {"dba.lines_aggregated", "count"},
        {"dba.bytes_saved", "bytes"},
        {"dba.fallback_full_lines", "count"},
        {"cxl.up.bytes", "bytes"},
        {"cxl.down.bytes", "bytes"},
        {"cxl.up.flits", "count"},
        {"cxl.down.flits", "count"},
        {"cxl.retries", "count"},
        {"cxl.up.busy_ms", "ms"},
        {"cxl.down.busy_ms", "ms"},
    };
    for (const auto& [k, unit] : counters) put(m, k, per_step(k), unit);
    const double pushed = per_step("param_pushes");
    put(m, "dba.trim_ratio",
        pushed > 0.0 ? per_step("dba.lines_aggregated") / pushed : 0.0,
        "ratio");
    put(m, "cxl.wire_efficiency", per_step("payload") / per_step("wire"),
        "ratio");
    const auto crit = [&](const char* name, Category c) {
      put(m, name, critpath_[static_cast<std::size_t>(c)] / n * 1e3, "ms");
    };
    crit("critpath.compute_ms", Category::kCompute);
    crit("critpath.cxl_up_ms", Category::kCxlUp);
    crit("critpath.cxl_down_ms", Category::kCxlDown);
    crit("critpath.fence_drain_ms", Category::kFenceDrain);
    crit("critpath.demand_fetch_ms", Category::kDemandFetch);
  }

 private:
  static constexpr std::size_t kWarmup = 1;
  static constexpr std::uint8_t kDirtyBytes = 2;

  struct Tensor {
    mem::Addr params = 0;
    mem::Addr grads = 0;
    std::vector<float> master;     ///< CPU FP32 master copy.
    std::vector<float> device;     ///< Expected device copy (DBA splice).
    std::vector<float> drift;      ///< Per-step optimizer move.
    std::vector<float> grad_base;  ///< Gradient pattern, rescaled per step.
    std::vector<float> grad;
  };

  /// Monotone session totals; the per-step metrics are their deltas.
  using Snapshot = std::map<std::string, double>;

  Snapshot snapshot() const {
    const core::Session& s = *session_;
    const auto& down = s.link().channel(cxl::Direction::kCpuToDevice).stats();
    const auto& up = s.link().channel(cxl::Direction::kDeviceToCpu).stats();
    const coherence::HomeAgentStats& st = s.stats();
    const obs::MetricsRegistry& reg = s.metrics();
    Snapshot r = {
        {"now", s.now()},
        {"payload", static_cast<double>(down.payload_bytes + up.payload_bytes)},
        {"wire", static_cast<double>(down.wire_bytes + up.wire_bytes)},
        {"cxl.up.busy_ms", up.busy_time * 1e3},
        {"cxl.down.busy_ms", down.busy_time * 1e3},
        {"coherence.update_pushes", static_cast<double>(st.update_pushes)},
        {"coherence.invalidations", static_cast<double>(st.invalidations)},
        {"coherence.demand_fetches", static_cast<double>(st.demand_fetches)},
        {"coherence.cpu_flushes", static_cast<double>(st.cpu_flushes)},
        {"coherence.protocol_fallbacks",
         static_cast<double>(st.protocol_fallbacks)},
        {"dba.lines_aggregated", static_cast<double>(st.dba_trimmed_lines)},
        {"param_pushes", reg.value("coherence.m2s.flushdata")},
        {"cxl.retries",
         reg.value("cxl.up.retries") + reg.value("cxl.down.retries")},
    };
    for (const char* k : {"dba.bytes_saved", "dba.fallback_full_lines",
                          "cxl.up.bytes", "cxl.down.bytes", "cxl.up.flits",
                          "cxl.down.flits"}) {
      r[k] = reg.value(k);
    }
    return r;
  }

  /// One Listing-1 step.
  void step() {
    core::Session& s = *session_;
    {
      Span sp(tracer_, "bench.inputs");
      const float scale = 1.0f + 1e-3f * static_cast<float>(step_ % 16);
      for (Tensor& t : tensors_) {
        for (std::size_t i = 0; i < t.master.size(); ++i) {
          t.master[i] -= t.drift[i];
          t.grad[i] = t.grad_base[i] * scale;
        }
      }
    }
    for (const Tensor& t : tensors_) {
      Span sp(tracer_, "core.write_gradients");
      s.device_write_gradients(t.grads, t.grad);
    }
    {
      Span sp(tracer_, "core.backward_fence");
      s.backward_complete();
    }
    for (const Tensor& t : tensors_) {
      std::vector<float> g;
      {
        Span sp(tracer_, "core.read_gradients");
        g = s.cpu_read_gradients(t.grads, t.grad.size());
      }
      Span sp(tracer_, "bench.check");
      require(std::memcmp(g.data(), t.grad.data(), g.size() * 4) == 0,
              "gradients read back differ from the values written");
    }
    const bool dba_on = s.check_activation(step_);
    for (const Tensor& t : tensors_) {
      Span sp(tracer_, dba_on ? "core.write_parameters_dba"
                              : "core.write_parameters_full");
      s.cpu_write_parameters(t.params, t.master);
    }
    {
      Span sp(tracer_, "core.optimizer_fence");
      s.optimizer_step_complete();
    }
    if (rc_.traced) {
      const auto& by = s.step_attribution().by_category;
      for (std::size_t c = 0; c < by.size(); ++c) critpath_[c] += by[c];
    }
    for (Tensor& t : tensors_) {
      std::vector<float> p;
      {
        Span sp(tracer_, "core.read_parameters");
        p = s.device_read_parameters(t.params, t.master.size());
      }
      Span sp(tracer_, "bench.check");
      for (std::size_t i = 0; i < p.size(); ++i) {
        const float want = dba_on
                               ? dba::splice_f32(t.device[i], t.master[i],
                                                 kDirtyBytes)
                               : t.master[i];
        require(std::memcmp(&p[i], &want, 4) == 0,
                "device parameter differs from the expected DBA splice");
        t.device[i] = want;
      }
    }
    ++step_;
  }

  coherence::Protocol protocol_;
  std::unique_ptr<core::Session> session_;
  std::vector<Tensor> tensors_;
  std::uint64_t lines_per_dir_ = 0;
  std::size_t step_ = 0;
  Snapshot base_;
  Snapshot window_;
  std::array<double, obs::causal::kNumCategories> critpath_{};
};

/// ServeScheduler at the knee of the load curve; one operation is one
/// seeded 400-request Poisson trace (open loop inside the simulation).
class ServeWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    model_reg_ = std::make_unique<obs::MetricsRegistry>();
    serve(config(~std::uint64_t{0}), nullptr);
  }

  OpResult run_op(std::size_t i) override {
    const serve::ServeConfig cfg = config(i);
    const serve::ServeReport r =
        serve(cfg, i < model_ops() ? model_reg_.get() : nullptr);
    require(r.admitted + r.rejected == r.offered,
            "admitted + rejected != offered");
    require(r.completed == r.admitted, "completed != admitted");
    if (i < model_ops()) {
      window_offered_ += static_cast<double>(r.offered);
      window_slo_ += static_cast<double>(r.slo_attained);
    }
    totals_.pagein += static_cast<double>(r.kv_pagein_bytes);
    totals_.clean_drops += static_cast<double>(r.kv_clean_drops);
    totals_.demand += static_cast<double>(r.kv_demand_fetches);
    totals_.prefetches += static_cast<double>(r.kv_prefetches);
    totals_.stall += r.kv_stall;
    totals_.hbm_peak += static_cast<double>(r.hbm_peak_bytes);
    totals_.rejected += static_cast<double>(r.rejected);
    return {0, static_cast<double>(r.offered)};
  }

  std::size_t model_ops() const override { return rc_.smoke ? 2 : 32; }

  void modeled(Metrics& m) const override {
    const obs::Hist* ttft = model_reg_->find_histogram("serve.ttft_us");
    put(m, "model.ttft_p50_ms", ttft->quantile(0.50) / 1e3, "ms");
    put(m, "model.ttft_p99_ms", ttft->quantile(0.99) / 1e3, "ms");
    put(m, "model.slo_attainment_pct", window_slo_ / window_offered_ * 100.0,
        "%");
  }

  void layers(Metrics& m, std::size_t ops) const override {
    const double n = static_cast<double>(ops);
    put(m, "serve.kv.pagein_mib", totals_.pagein / n / kMiB, "MiB");
    put(m, "serve.kv.clean_drops", totals_.clean_drops / n, "count");
    put(m, "serve.kv.demand_fetches", totals_.demand / n, "count");
    put(m, "serve.kv.prefetches", totals_.prefetches / n, "count");
    put(m, "serve.kv.stall_ms", totals_.stall / n * 1e3, "ms");
    put(m, "serve.kv.hbm_peak_mib", totals_.hbm_peak / n / kMiB, "MiB");
    const double pageins = totals_.prefetches + totals_.demand;
    put(m, "serve.kv.prefetch_ratio",
        pageins > 0.0 ? totals_.prefetches / pageins : 0.0, "ratio");
    put(m, "serve.rejected", totals_.rejected / n, "count");
    const double reqs = critpath_requests_ > 0 ? critpath_requests_ : 1.0;
    const auto crit = [&](const char* name, Category c) {
      put(m, name, critpath_[static_cast<std::size_t>(c)] / reqs * 1e3, "ms");
    };
    crit("serve.critpath.compute_ms", Category::kCompute);
    crit("serve.critpath.demand_fetch_ms", Category::kDemandFetch);
    crit("serve.critpath.evict_stall_ms", Category::kEvictStall);
    crit("serve.critpath.idle_ms", Category::kIdle);
  }

 private:
  serve::ServeConfig config(std::size_t i) {
    serve::ServeConfig cfg;
    cfg.arrival = serve::ArrivalKind::kPoisson;
    cfg.rate_rps = 56.0;
    cfg.n_requests = rc_.smoke ? 60 : 400;
    cfg.seed = mix(rc_.seed, i);
    cfg.max_sessions = 48;
    cfg.max_batch = 16;
    cfg.hbm_kv_bytes = 512ull << 20;
    cfg.policy = tier::Policy::kMinStall;
    cfg.kv_writethrough = true;
    digest_value(cfg.seed);
    return cfg;
  }

  serve::ServeReport serve(const serve::ServeConfig& cfg,
                           obs::MetricsRegistry* reg) {
    obs::causal::CausalGraph graph;  // Outlives the scheduler wired to it.
    serve::ServeScheduler sched(cfg, reg);
    if (rc_.traced) sched.set_causal(&graph);
    serve::ServeReport r;
    {
      Span sp(tracer_, "serve.run");
      r = sched.run();
    }
    if (rc_.traced) {
      Span sp(tracer_, "obs.critical_path");
      for (const auto& rec : sched.ttft_records()) {
        const obs::causal::Attribution a = obs::causal::critical_path(
            graph, rec.arrival, rec.first_token, rec.terminal);
        for (std::size_t c = 0; c < a.by_category.size(); ++c) {
          critpath_[c] += a.by_category[c];
        }
        critpath_requests_ += 1.0;
      }
    }
    return r;
  }

  struct Totals {
    double pagein = 0.0;
    double clean_drops = 0.0;
    double demand = 0.0;
    double prefetches = 0.0;
    double stall = 0.0;
    double hbm_peak = 0.0;
    double rejected = 0.0;
  };

  /// Pools the TTFT histogram over the modeled window's traces.
  std::unique_ptr<obs::MetricsRegistry> model_reg_;
  double window_offered_ = 0.0;
  double window_slo_ = 0.0;
  Totals totals_;
  std::array<double, obs::causal::kNumCategories> critpath_{};
  double critpath_requests_ = 0.0;
};

/// The paper's design space, one seeded point per operation: a Table III/VI
/// model x batch x dirty_bytes through every offload timeline, the tiered
/// activation step under the strict tier checker, and an LZ4 round trip.
class PaperSweepWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    cal_ = offload::default_calibration();
    models_ = dl::table3_models();
    for (const dl::ModelConfig& m : dl::table6_models()) {
      if (m.name != "GPT2") models_.push_back(m);
    }
    corpora_.clear();
    for (const compress::CorpusSpec& spec : compress::table8_corpora()) {
      corpora_.push_back(compress::make_param_corpus(spec, kCorpusBytes));
    }
    paper_cells();
  }

  OpResult run_op(std::size_t i) override {
    sim::Rng rng(mix(rc_.seed, i));
    const dl::ModelConfig& m = models_[rng.next_below(models_.size())];
    const std::uint32_t batches[] = {4, 8, 16, 20};
    const std::uint32_t batch =
        m.full_graph_only ? 4 : batches[rng.next_below(4)];
    offload::StepOptions opts;
    opts.dirty_bytes = static_cast<std::uint8_t>(1 + rng.next_below(3));
    const std::vector<std::uint8_t>& corpus =
        corpora_[rng.next_below(corpora_.size())];
    const std::size_t offset =
        rng.next_below((kCorpusBytes - kSliceBytes) / 4) * 4;
    digest(m.name.data(), m.name.size());
    digest_value(batch);
    digest_value(opts.dirty_bytes);
    digest_value(offset);

    offload::StepBreakdown reduction;
    {
      Span sp(tracer_, "offload.simulate_step");
      for (const offload::RuntimeKind k : kRuntimes) {
        const offload::StepBreakdown b =
            offload::simulate_step(k, m, batch, cal_, opts);
        require(std::isfinite(b.total()) && b.total() > 0.0,
                "simulate_step total is not positive");
        if (k == offload::RuntimeKind::kTecoReduction) reduction = b;
      }
    }
    {
      Span sp(tracer_, "offload.simulate_pipeline");
      for (const offload::RuntimeKind k : kRuntimes) {
        const offload::PipelineResult p =
            offload::simulate_pipeline(k, m, batch, 8, cal_, opts);
        require(p.step_durations.size() == 8 && p.total > 0.0,
                "simulate_pipeline did not run 8 steps");
      }
    }
    {
      Span sp(tracer_, "offload.multi_device");
      offload::MultiDeviceConfig mdc;
      mdc.devices = 4;
      mdc.global_batch = 4 * batch;
      const offload::MultiDeviceStep md = offload::simulate_multi_device_step(
          offload::RuntimeKind::kTecoReduction, m, mdc, cal_, opts);
      require(md.step_total > 0.0, "multi-device step is not positive");
    }
    offload::ActivationStepReport act;
    {
      Span sp(tracer_, "tier.activation_step");
      check::TierInvariantChecker checker(check::CheckLevel::kStrict, 0);
      offload::ActivationTimelineOptions aopts;
      aopts.dirty_bytes = opts.dirty_bytes;
      aopts.observer = &checker;
      act = offload::simulate_activation_step(m, batch, cal_, aopts);
      require(checker.violations() == 0, "tier invariant violated");
    }
    const std::span<const std::uint8_t> slice(corpus.data() + offset,
                                              kSliceBytes);
    std::vector<std::uint8_t> packed;
    {
      Span sp(tracer_, "compress.lz4_compress");
      packed = compress::lz4_compress(slice);
    }
    std::vector<std::uint8_t> unpacked;
    {
      Span sp(tracer_, "compress.lz4_decompress");
      unpacked = compress::lz4_decompress(packed, kSliceBytes);
    }
    require(unpacked.size() == kSliceBytes &&
                std::equal(unpacked.begin(), unpacked.end(), slice.begin()),
            "LZ4 round trip is not lossless");

    if (i < model_ops()) {
      split_[0] += reduction.forward_backward;
      split_[1] += reduction.grad_transfer_exposed;
      split_[2] += reduction.grad_optimizer + reduction.param_optimizer;
      split_[3] += reduction.param_transfer_exposed;
      tier_[0] += act.stall_time();
      tier_[1] += static_cast<double>(act.migrated_bytes());
      tier_[2] += act.sched.metric("tier.prefetch_hits");
      tier_[3] += act.sched.metric("tier.demand_fetches");
    }
    return {0, 1.0};
  }

  std::size_t model_ops() const override { return rc_.smoke ? 4 : 64; }

  void modeled(Metrics& m) const override {
    const double n = static_cast<double>(model_ops());
    put(m, "offload.fwd_bwd_ms", split_[0] / n * 1e3, "ms");
    put(m, "offload.grad_exposed_ms", split_[1] / n * 1e3, "ms");
    put(m, "offload.optimizer_ms", split_[2] / n * 1e3, "ms");
    put(m, "offload.param_exposed_ms", split_[3] / n * 1e3, "ms");
    put(m, "tier.stall_ms", tier_[0] / n * 1e3, "ms");
    put(m, "tier.migrated_mib", tier_[1] / n / kMiB, "MiB");
    put(m, "tier.prefetch_hits", tier_[2] / n, "count");
    put(m, "tier.demand_fetches", tier_[3] / n, "count");
    put(m, "model.time_reduction_pct", time_reduction_pct_, "%");
    put(m, "model.paper_err_pct", paper_err_pct_, "%");
  }


 private:
  static constexpr std::size_t kCorpusBytes = 1u << 20;
  static constexpr std::size_t kSliceBytes = 256u << 10;
  static constexpr offload::RuntimeKind kRuntimes[] = {
      offload::RuntimeKind::kZeroOffload,
      offload::RuntimeKind::kZeroOffloadDpu,
      offload::RuntimeKind::kCxlInvalidation,
      offload::RuntimeKind::kTecoCxl,
      offload::RuntimeKind::kTecoReduction,
  };

  /// The fixed paper cells EXPERIMENTS.md quotes: Table I (4), Table IV
  /// (11), the headline time/comm reductions (3) and the invalidation-MESI
  /// slowdown (1). paper_err_pct is their mean relative error.
  void paper_cells() {
    std::vector<std::pair<double, double>> cells;  // {measured, paper}
    const dl::ModelConfig bert = dl::bert_large_cased();
    const double table1[] = {0.4224, 0.3787, 0.2865, 0.2595};
    const std::uint32_t table1_batches[] = {4, 8, 16, 20};
    for (int i = 0; i < 4; ++i) {
      cells.emplace_back(offload::simulate_step(
                             offload::RuntimeKind::kZeroOffload, bert,
                             table1_batches[i], cal_)
                             .comm_fraction(),
                         table1[i]);
    }
    const struct {
      const char* model;
      double paper[3];
    } table4[] = {{"GPT2", {1.82, 1.52, 1.32}},
                  {"Albert-xxlarge-v1", {1.25, 1.23, 1.08}},
                  {"Bert-large-cased", {1.60, 1.62, 1.41}},
                  {"T5-large", {1.73, 1.58, 0.0}}};
    const std::uint32_t grid[] = {4, 8, 16};
    for (const auto& row : table4) {
      const dl::ModelConfig m = dl::model_by_name(row.model);
      for (int b = 0; b < 3; ++b) {
        if (row.paper[b] == 0.0) continue;  // N/A: OOM under the baseline.
        const offload::SpeedupCell c = offload::speedup_vs_baseline(
            offload::RuntimeKind::kTecoReduction, m, grid[b], cal_);
        cells.emplace_back(c.speedup, row.paper[b]);
      }
    }
    const offload::HeadlineSummary h =
        offload::headline_summary(dl::table3_models(), {4, 8, 16}, cal_);
    cells.emplace_back(h.avg_time_reduction, 0.337);
    cells.emplace_back(h.max_time_reduction, 0.554);
    cells.emplace_back(h.avg_comm_reduction, 0.937);
    double inc = 0.0;
    int n = 0;
    for (const dl::ModelConfig& m : dl::table3_models()) {
      for (const std::uint32_t b : grid) {
        if (m.full_graph_only && b != 4) continue;
        const double upd =
            offload::simulate_step(offload::RuntimeKind::kTecoCxl, m, b, cal_)
                .total();
        const double inv = offload::simulate_step(
                               offload::RuntimeKind::kCxlInvalidation, m, b,
                               cal_)
                               .total();
        inc += inv / upd - 1.0;
        ++n;
      }
    }
    cells.emplace_back(inc / n, 0.566);
    double err = 0.0;
    for (const auto& [measured, paper] : cells) {
      err += std::abs(measured - paper) / paper;
    }
    paper_err_pct_ = err / static_cast<double>(cells.size()) * 100.0;
    time_reduction_pct_ = h.avg_time_reduction * 100.0;
  }

  offload::Calibration cal_;
  std::vector<dl::ModelConfig> models_;
  std::vector<std::vector<std::uint8_t>> corpora_;
  double paper_err_pct_ = 0.0;
  double time_reduction_pct_ = 0.0;
  std::array<double, 4> split_{};
  std::array<double, 4> tier_{};
};

/// Real FP32 training of the transformer proxy on seeded classification
/// tasks, alternating exact and DBA runs on the same task.
class DbaFinetuneWorkload final : public Workload {
 public:
  using Workload::Workload;

  std::size_t kinds() const override { return 2; }  // FP32, DBA.

  void setup() override { train(~std::uint64_t{0}, false); }

  OpResult run_op(std::size_t i) override {
    const bool dba = i % 2 == 1;
    const dl::TrainResult r = train(i / 2, dba);
    if (!dba) {
      fp32_metric_ = r.final_metric;
    } else if (i < model_ops()) {
      delta_sum_ += std::abs(r.final_metric - fp32_metric_);
    }
    return {dba ? 1u : 0u, static_cast<double>(steps() * kBatch)};
  }

  std::size_t model_ops() const override { return rc_.smoke ? 4 : 16; }

  void modeled(Metrics& m) const override {
    put(m, "model.dba_metric_delta_pts",
        delta_sum_ / static_cast<double>(model_ops() / 2) * 100.0, "pts");
  }


 private:
  static constexpr std::size_t kBatch = 32;

  std::size_t steps() const { return rc_.smoke ? 20 : 200; }

  dl::TrainResult train(std::uint64_t pair, bool dba) {
    const std::uint64_t task_seed = mix(rc_.seed, pair);
    digest_value(task_seed);
    dl::Task task = dl::make_classification_task(task_seed);
    dl::TrainRunConfig cfg;
    cfg.transformer = dl::default_transformer_for(task, task_seed);
    cfg.steps = steps();
    cfg.batch_size = kBatch;
    cfg.record_every = 0;
    cfg.adam.weight_decay = 1e-2f;
    cfg.dba_enabled = dba;
    cfg.act_aft_steps = steps() * 2 / 3;
    cfg.data_seed = task_seed + 1;
    dl::TrainResult r;
    {
      Span sp(tracer_, dba ? "dl.run_training_dba" : "dl.run_training_fp32");
      r = dl::run_training(task, cfg);
    }
    require(std::isfinite(r.final_train_loss) &&
                std::isfinite(r.final_eval_loss) && r.steps_run == cfg.steps,
            "training diverged or stopped early");
    return r;
  }

  float fp32_metric_ = 0.0f;
  double delta_sum_ = 0.0;
};

/// In-pool all-reduce: 4 nodes, 64 KiB shards, DBA-merge reduction behind
/// an 8 GB/s contended pool port, seeded gradients.
class AllReduceWorkload final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    fabric::FabricConfig cfg;
    cfg.nodes = kNodes;
    cfg.reduce = fabric::ReduceStrategy::kDbaMerge;
    cfg.shard_bytes = rc_.smoke ? 4096 : 64 * 1024;
    cfg.port_gbps = 8.0;
    ar_ = std::make_unique<fabric::PoolAllReduce>(cfg);
    graph_ = std::make_unique<obs::causal::CausalGraph>();
    if (rc_.traced) ar_->set_causal(graph_.get());
    sim::Rng rng(mix(rc_.seed, 0xfab));
    grads_.assign(kGradientSets * kNodes,
                  std::vector<float>(ar_->shard_floats()));
    for (std::vector<float>& g : grads_) {
      for (float& v : g) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      digest(g.data(), g.size() * 4);
    }
    step(kGradientSets - 1);  // Warm-up: seeds the pool, programs DBA.
  }

  OpResult run_op(std::size_t i) override {
    if (i == 0) {
      folds_base_ = ar_->registry().value("fabric.reduce.lines_folded");
    }
    const fabric::AllReduceReport r = step(i % kGradientSets);
    if (i < model_ops()) {
      wall_ += r.wall();
      for (std::size_t c = 0; c < crit_.size(); ++c) {
        crit_[c] += r.attribution.by_category[c];
      }
    }
    queue_ += r.port_queue_time;
    port_bytes_ += static_cast<double>(r.to_pool_bytes + r.from_pool_bytes);
    return {0, 1.0};
  }

  std::size_t model_ops() const override { return rc_.smoke ? 4 : 64; }

  void modeled(Metrics& m) const override {
    put(m, "model.allreduce_us",
        wall_ / static_cast<double>(model_ops()) * 1e6, "us");
  }

  void layers(Metrics& m, std::size_t ops) const override {
    const double n = static_cast<double>(ops);
    put(m, "fabric.switch.queue_sum_us", queue_ / n * 1e6, "us");
    put(m, "fabric.port_mib_per_step", port_bytes_ / n / kMiB, "MiB");
    put(m, "fabric.reduce.lines_folded",
        (ar_->registry().value("fabric.reduce.lines_folded") - folds_base_) /
            n,
        "count");
    const double w = static_cast<double>(model_ops());
    const auto crit = [&](const char* name, Category c) {
      put(m, name, crit_[static_cast<std::size_t>(c)] / w * 1e6, "us");
    };
    crit("fabric.critpath.cxl_up_us", Category::kCxlUp);
    crit("fabric.critpath.switch_queue_us", Category::kSwitchQueue);
    crit("fabric.critpath.pool_reduce_us", Category::kPoolReduce);
    crit("fabric.critpath.cxl_down_us", Category::kCxlDown);
  }

 private:
  static constexpr std::uint32_t kNodes = 4;
  static constexpr std::size_t kGradientSets = 8;

  fabric::AllReduceReport step(std::size_t set) {
    {
      Span sp(tracer_, "fabric.set_gradients");
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        ar_->set_node_gradients(n, grads_[set * kNodes + n]);
      }
    }
    fabric::AllReduceReport r;
    {
      Span sp(tracer_, "fabric.run_step");
      r = ar_->run_step();
    }
    Span sp(tracer_, "bench.check");
    const std::vector<float> first = ar_->node_result(0);
    for (std::uint32_t n = 1; n < kNodes; ++n) {
      require(ar_->node_result(n) == first,
              "nodes disagree on the reduced result");
    }
    require(r.wall() > 0.0, "all-reduce step took no simulated time");
    return r;
  }

  /// Declared before ar_: the collective must not outlive its causal sink.
  std::unique_ptr<obs::causal::CausalGraph> graph_;
  std::unique_ptr<fabric::PoolAllReduce> ar_;
  std::vector<std::vector<float>> grads_;
  double wall_ = 0.0;
  std::array<double, obs::causal::kNumCategories> crit_{};
  double queue_ = 0.0;
  double port_bytes_ = 0.0;
  double folds_base_ = 0.0;
};

/// Exhaustive model checking of the real HomeAgent: the five
/// bench_mc_statespace sweeps plus the 2-node fabric slice. The search is
/// exhaustive, so the seed only orders the sweeps within each pass.
class McWorkload final : public Workload {
 public:
  using Workload::Workload;

  std::size_t kinds() const override { return sweeps().size(); }

  void setup() override {
    order_.clear();
    run_sweep(0);  // Warm-up.
  }

  OpResult run_op(std::size_t i) override {
    const std::size_t n = sweeps().size();
    if (i % n == 0) {
      std::vector<std::size_t> order(n);
      for (std::size_t k = 0; k < n; ++k) order[k] = k;
      sim::Rng rng(mix(rc_.seed, i / n));
      for (std::size_t k = n - 1; k > 0; --k) {
        std::swap(order[k], order[rng.next_below(k + 1)]);
      }
      digest(order.data(), order.size() * sizeof order[0]);
      order_ = order;
    }
    const std::size_t kind = order_[i % n];
    const Result r = run_sweep(kind);
    if (i < model_ops()) {
      states_ += static_cast<double>(r.states);
      edges_ += static_cast<double>(r.edges);
    }
    return {kind, static_cast<double>(r.states)};
  }

  std::size_t model_ops() const override { return sweeps().size(); }
  bool seeded_inputs() const override { return false; }

  void modeled(Metrics& m) const override {
    put(m, "mc.states", states_, "count");
    put(m, "mc.edges", edges_, "count");
    put(m, "mc.new_state_ratio", states_ / edges_, "ratio");
  }


 private:
  struct Sweep {
    const char* name;  ///< Also the host span name.
    mc::McConfig cfg;
    bool fabric = false;
  };
  struct Result {
    std::size_t states = 0;
    std::size_t edges = 0;
  };

  std::vector<Sweep> sweeps() const {
    using coherence::Protocol;
    std::vector<Sweep> out;
    mc::McConfig c;
    c.driver.param_lines = 1;
    c.driver.grad_lines = 1;
    out.push_back({"mc.sweep.update_1p1g", c});
    if (!rc_.smoke) {
      c = {};
      c.driver.param_lines = 2;
      out.push_back({"mc.sweep.update_2p", c});
      c.driver.protocol = Protocol::kInvalidation;
      out.push_back({"mc.sweep.invalidation_2p", c});
      c = {};
      c.driver.ft = true;
      c.driver.param_lines = 2;
      out.push_back({"mc.sweep.ft_update_2p", c});
      c.driver.param_lines = 1;
      c.driver.grad_lines = 1;
      out.push_back({"mc.sweep.ft_update_1p1g", c});
    }
    out.push_back({"mc.sweep.fabric_2n1l", {}, true});
    return out;
  }

  Result run_sweep(std::size_t k) {
    const Sweep s = sweeps()[k];
    Span sp(tracer_, s.name);
    if (s.fabric) {
      const mc::FabricMcResult r = mc::fabric_model_check(mc::FabricMcConfig{});
      require(r.ok() && !r.truncated, std::string(s.name) + ": " + r.summary());
      return {r.states, r.edges};
    }
    const mc::McResult r = mc::ModelChecker(s.cfg).run();
    require(r.ok() && !r.truncated, std::string(s.name) + ": " + r.summary());
    return {r.states, r.edges};
  }

  std::vector<std::size_t> order_;
  double states_ = 0.0;
  double edges_ = 0.0;
};

const char* const kWorkloads[] = {"train_update", "train_invalidate",
                                  "serve_paging", "paper_sweep",
                                  "dba_finetune", "allreduce_pool",
                                  "mc_explore"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const RunConfig& rc, Tracer& t) {
  if (name == "train_update") {
    return std::make_unique<TrainWorkload>(rc, t, coherence::Protocol::kUpdate);
  }
  if (name == "train_invalidate") {
    return std::make_unique<TrainWorkload>(rc, t,
                                           coherence::Protocol::kInvalidation);
  }
  if (name == "serve_paging") return std::make_unique<ServeWorkload>(rc, t);
  if (name == "paper_sweep") return std::make_unique<PaperSweepWorkload>(rc, t);
  if (name == "dba_finetune") {
    return std::make_unique<DbaFinetuneWorkload>(rc, t);
  }
  if (name == "allreduce_pool") {
    return std::make_unique<AllReduceWorkload>(rc, t);
  }
  if (name == "mc_explore") return std::make_unique<McWorkload>(rc, t);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Measurement.

struct Measurement {
  std::vector<std::vector<double>> op_s;  ///< Host seconds, per kind.
  std::vector<std::vector<double>> work;  ///< Work units, per kind.
  std::vector<double> all_op_s;
  std::size_t ops = 0;
  std::size_t failed = 0;

  /// sum_k W_k / sum_k (W_k / R_k): W_k is the median work of one
  /// operation of kind k, R_k the 90th percentile of its per-operation
  /// rate. Other tenants of the host only ever slow an operation, in
  /// stretches of seconds, so the fast tail is what repeats run to run.
  double work_per_s() const {
    double w = 0.0, t = 0.0;
    for (std::size_t k = 0; k < op_s.size(); ++k) {
      if (op_s[k].empty()) continue;
      std::vector<double> rate;
      for (std::size_t i = 0; i < op_s[k].size(); ++i) {
        rate.push_back(work[k][i] / op_s[k][i]);
      }
      const double wk = quantile(work[k], 0.5);
      w += wk;
      t += wk / quantile(rate, 0.9);
    }
    return t > 0.0 ? w / t : 0.0;
  }
};

/// Closed loop: operation after operation until `seconds` have passed, the
/// modeled window is complete and every kind has a few samples. A hard cap
/// past the deadline bounds a run whose operations keep failing.
constexpr std::size_t kMinSamples = 3;
constexpr double kOvertimeS = 30.0;

Measurement measure(Workload& w, Tracer& tracer, double seconds) {
  const std::size_t kinds = w.kinds();
  Measurement m;
  m.op_s.resize(kinds);
  m.work.resize(kinds);
  const double deadline = host_s() + seconds;
  for (std::size_t i = 0;; ++i) {
    const double now = host_s();
    if (i >= w.model_ops() && now >= deadline) {
      const bool sampled =
          seconds <= 0.0 ||
          std::all_of(m.op_s.begin(), m.op_s.end(), [](const auto& v) {
            return v.size() >= kMinSamples;
          });
      if (sampled || now >= deadline + kOvertimeS) break;
    }
    tracer.set_op(static_cast<std::uint32_t>(i));
    const double t0 = host_s();
    try {
      Span sp(tracer, "op");
      const OpResult r = w.run_op(i);
      const double dt = host_s() - t0;
      m.op_s[r.kind].push_back(dt);
      m.work[r.kind].push_back(r.work);
      m.all_op_s.push_back(dt);
    } catch (const std::exception& e) {
      if (m.failed == 0) {
        std::fprintf(stderr, "op %zu failed: %s\n", i, e.what());
      }
      ++m.failed;
    }
    ++m.ops;
  }
  return m;
}

/// Per-layer host split from the spans: for every span name, the median
/// over operations of the host ms the operation spent in it, plus the share
/// of each operation's time its named child spans cover.
void span_metrics(const Tracer& t, Metrics& m) {
  std::map<std::string, std::map<std::uint32_t, double>> per_op;
  std::map<std::uint32_t, double> op_total, op_children;
  const auto& spans = t.spans();
  for (const SpanRecord& s : spans) {
    const double d = s.end - s.begin;
    if (s.parent < 0) {
      op_total[s.op] += d;
      continue;
    }
    per_op[s.name][s.op] += d;
    if (spans[static_cast<std::size_t>(s.parent)].parent < 0) {
      op_children[s.op] += d;
    }
  }
  for (const auto& [name, ops] : per_op) {
    std::vector<double> v;
    for (const auto& [op, d] : ops) v.push_back(d * 1e3);
    put(m, name + "_ms", quantile(v, 0.5), "ms");
  }
  std::vector<double> coverage;
  for (const auto& [op, total] : op_total) {
    if (total > 0.0) coverage.push_back(op_children[op] / total * 100.0);
  }
  put(m, "host.span_coverage_pct", quantile(coverage, 0.5), "%");
}

/// Peak resident set of this process image, NaN when unavailable. VmHWM
/// belongs to the address space; getrusage's ru_maxrss would carry the
/// launching process's peak over the exec.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  double kib = std::nan("");
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

struct RunOutput {
  Metrics metrics;
  Metrics modeled;
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::uint64_t digest = 0;
};

/// Time one fresh set-up of the workload; returns the instance.
std::unique_ptr<Workload> timed_setup(const std::string& name,
                                      const RunConfig& rc, Tracer& tracer,
                                      std::vector<double>& setup_s) {
  std::unique_ptr<Workload> w = make_workload(name, rc, tracer);
  const double t0 = host_s();
  w->setup();
  setup_s.push_back(host_s() - t0);
  return w;
}

/// Measure one set-up instance. With `setups` > 1, setup_s is the median of
/// that many set-ups, split before and after the timed phase so that it
/// samples the host at two moments.
RunOutput run_untraced(const std::string& name, const RunConfig& rc,
                       double seconds, int setups) {
  Tracer off(false);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < (setups + 1) / 2; ++k) {
    w.reset();
    w = timed_setup(name, rc, off, setup_s);
  }
  const Measurement meas = measure(*w, off, seconds);
  RunOutput out;
  out.ops = meas.ops;
  out.failed = meas.failed;
  out.digest = w->input_digest();
  if (meas.failed == 0) w->modeled(out.modeled);
  w.reset();
  while (static_cast<int>(setup_s.size()) < setups) {
    timed_setup(name, rc, off, setup_s);
  }
  put(out.metrics, "setup_s", quantile(setup_s, 0.5), "s");
  put(out.metrics, "work_per_s", meas.work_per_s(), "work/s");
  put(out.metrics, "host.op_ms_p90", quantile(meas.all_op_s, 0.9) * 1e3, "ms");
  put(out.metrics, "host.ops", static_cast<double>(meas.ops), "count");
  return out;
}

/// Untraced half, then traced half; the per-layer split comes from the
/// traced half and its modeled metrics must equal the untraced half's.
RunOutput run_traced(const std::string& name, RunConfig rc, double seconds,
                     const std::string& trace_path) {
  RunOutput out = run_untraced(name, rc, seconds / 2.0, 1);
  Tracer tracer(true);
  rc.traced = true;
  const std::unique_ptr<Workload> w = make_workload(name, rc, tracer);
  w->setup();
  const Measurement meas = measure(*w, tracer, seconds / 2.0);
  out.ops += meas.ops;
  out.failed += meas.failed;
  Metrics traced_model;
  if (meas.failed == 0) w->modeled(traced_model);
  if (out.failed == 0 && traced_model != out.modeled) {
    std::fprintf(stderr, "traced modeled metrics differ from untraced\n");
    ++out.failed;
  }
  const double untraced = out.metrics["work_per_s"].value;
  put(out.metrics, "obs.trace_overhead_pct",
      (untraced / meas.work_per_s() - 1.0) * 100.0, "%");
  w->layers(out.metrics, meas.ops);
  span_metrics(tracer, out.metrics);
  if (!trace_path.empty() && !write_chrome_trace(tracer, trace_path)) {
    std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
    ++out.failed;
  }
  return out;
}

void print_result(const std::string& name, std::uint64_t seed,
                  const RunOutput& r) {
  std::string s = "{\"workload\":\"" + name +
                  "\",\"seed\":" + std::to_string(seed) +
                  ",\"ops\":" + std::to_string(r.ops) +
                  ",\"ops_failed\":" + std::to_string(r.failed) +
                  ",\"metrics\":{";
  bool first = true;
  for (const Metrics* ms : {&r.metrics, &r.modeled}) {
    for (const auto& [k, v] : *ms) {
      char num[64];
      std::snprintf(num, sizeof num, "%.17g", v.value);
      s += std::string(first ? "" : ",") + "\"" + obs::json_escape(k) +
           "\":{\"value\":" + (std::isfinite(v.value) ? num : "null") +
           ",\"unit\":\"" + v.unit + "\"}";
      first = false;
    }
  }
  std::printf("%s}}\n", s.c_str());
}

int smoke() {
  bool ok = true;
  for (const char* name : kWorkloads) {
    RunConfig rc;
    rc.smoke = true;
    const RunOutput a = run_untraced(name, rc, 0.0, 1);
    const RunOutput b = run_traced(name, rc, 0.0, "");
    rc.seed = 2;
    const RunOutput c = run_untraced(name, rc, 0.0, 1);
    const bool same = a.modeled == b.modeled && !a.modeled.empty();
    Tracer probe(false);
    const bool reseeded = a.digest != c.digest ||
                          !make_workload(name, rc, probe)->seeded_inputs();
    const bool clean = a.failed + b.failed + c.failed == 0;
    std::printf("%-18s modeled-repeat %s  new-seed-inputs %s  checks %s\n",
                name, same ? "ok" : "FAIL", reseeded ? "ok" : "FAIL",
                clean ? "ok" : "FAIL");
    ok = ok && same && reseeded && clean;
  }
  return ok ? 0 : 1;
}

int usage() {
  std::fputs(
      "usage: bench_e2e --workload <name> --seed <n> [--seconds <s>] "
      "[--trace <spans.json>]\n       bench_e2e --smoke\nworkloads:",
      stderr);
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fputs("\n", stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_path;
  RunConfig rc;
  double seconds = 8.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") return smoke();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        workload = v;
      } else if (a == "--seed") {
        rc.seed = std::stoull(v);
      } else if (a == "--seconds") {
        seconds = std::stod(v);
      } else if (a == "--trace") {
        trace_path = v;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  Tracer probe(false);
  if (make_workload(workload, rc, probe) == nullptr || !(seconds >= 0.0)) {
    return usage();
  }
  RunOutput out = trace_path.empty()
                      ? run_untraced(workload, rc, seconds, 7)
                      : run_traced(workload, rc, seconds, trace_path);
  put(out.metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
  print_result(workload, rc.seed, out);
  return 0;
}
