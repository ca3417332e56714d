// teco::obs — the canonical bench-results pipeline.
//
// Every bench_* binary emits one BENCH_<name>.json through this API so the
// perf trajectory is machine-readable and regressions are diffable
// (scripts/bench_diff.py). Schema "teco-bench-v1":
//
//   {
//     "schema": "teco-bench-v1",
//     "name": "tier_activation",
//     "smoke": false,                    // TECO_SMOKE=1 run
//     "config": {"batch": 8, ...},       // knobs that shaped the run
//     "headline": {"stall_reduction_pct": 76.2, ...},  // the claims
//     "metrics": {"cxl.up.bytes": ..., ...},           // registry dump
//     "wall_clock_s": 1.87               // host time, process start->json()
//   }
//
// Output lands in $TECO_BENCH_DIR when set, else the working directory.
// Committed baselines live in bench/baselines/ (see ROADMAP.md for the
// regeneration convention).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace teco::obs {

class BenchReport {
 public:
  /// `name` without the BENCH_ prefix or .json suffix, e.g.
  /// "tier_activation". Reads TECO_SMOKE at construction.
  explicit BenchReport(std::string name);

  void set_config(const std::string& key, const std::string& value);
  void set_config(const std::string& key, double value);
  /// Headline scalars are the bench's claims — the values a perf PR is
  /// judged on. At least one is required for a schema-valid report.
  void set_headline(const std::string& key, double value);
  /// Borrow `reg`; its samples are dumped at json()/write() time.
  void attach_registry(const MetricsRegistry* reg) { registry_ = reg; }

  const std::string& name() const { return name_; }
  std::string json() const;

  /// Write BENCH_<name>.json into $TECO_BENCH_DIR (or cwd). Returns the
  /// path written, or an empty string on I/O failure.
  std::string write() const;

  struct Entry {
    std::string key;
    std::string json_value;  ///< Pre-rendered (string or number).
  };

 private:
  std::string name_;
  bool smoke_ = false;
  std::vector<Entry> config_;
  std::vector<Entry> headline_;
  const MetricsRegistry* registry_ = nullptr;
};

}  // namespace teco::obs
