// Exhaustive model-checking sweep over the coherent domain (teco::mc).
//
// Runs the explicit-state checker on every small configuration the CI
// mc-exhaustive job guards: both protocols, mixed parameter/gradient
// regions, and FT mode with poison/crash/scrub actions. Prints one row per
// sweep and emits BENCH_mc_statespace.json with the state-space sizes and
// total wall time as headlines — growth in the reachable space is a
// protocol change and should be as visible in the perf trajectory as a
// latency regression would be.
//
// Exit status is the acceptance gate: 1 unless every sweep is exhaustive
// (not truncated) and free of invariant violations.
//
//   TECO_BENCH_DIR  where BENCH_mc_statespace.json lands (default: cwd).
#include <cstdio>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "mc/fabric_driver.hpp"
#include "mc/model_checker.hpp"
#include "obs/bench_report.hpp"

namespace {

struct SweepSpec {
  const char* name;
  teco::mc::McConfig cfg;
};

std::vector<SweepSpec> sweeps() {
  using teco::coherence::Protocol;
  std::vector<SweepSpec> out;
  {
    teco::mc::McConfig c;
    c.driver.param_lines = 2;
    out.push_back({"update_2p", c});
  }
  {
    teco::mc::McConfig c;
    c.driver.param_lines = 1;
    c.driver.grad_lines = 1;
    out.push_back({"update_1p1g", c});
  }
  {
    teco::mc::McConfig c;
    c.driver.protocol = Protocol::kInvalidation;
    c.driver.param_lines = 2;
    out.push_back({"invalidation_2p", c});
  }
  {
    teco::mc::McConfig c;
    c.driver.ft = true;
    c.driver.param_lines = 2;
    out.push_back({"ft_update_2p", c});
  }
  {
    teco::mc::McConfig c;
    c.driver.ft = true;
    c.driver.param_lines = 1;
    c.driver.grad_lines = 1;
    out.push_back({"ft_update_1p1g", c});
  }
  return out;
}

}  // namespace

int main() {
  using namespace teco;

  core::TextTable t(
      "Exhaustive model checking (2 agents x 2 lines x 2 values)");
  t.set_header({"sweep", "states", "edges", "deduped", "depth", "verdict"});

  obs::BenchReport report("mc_statespace");
  report.set_config("param_lines", 2.0);
  report.set_config("value_bits", 2.0);
  report.set_config("symmetry", "on");

  bool all_ok = true;
  std::size_t total_states = 0;
  std::size_t total_edges = 0;
  double total_wall = 0.0;
  for (const SweepSpec& s : sweeps()) {
    const mc::McResult r = mc::ModelChecker(s.cfg).run();
    const bool ok = r.ok() && !r.truncated;
    all_ok = all_ok && ok;
    total_states += r.states;
    total_edges += r.edges;
    total_wall += r.wall_seconds;
    t.add_row({s.name, std::to_string(r.states), std::to_string(r.edges),
               std::to_string(r.deduped), std::to_string(r.max_depth),
               ok ? "exhaustive, ok" : "FAIL"});
    if (!ok) {
      std::fprintf(stderr, "FAIL %s: %s\n", s.name, r.summary().c_str());
      for (const auto* list : {&r.violations, &r.divergences, &r.deadlocks,
                               &r.livelocks, &r.stuck}) {
        for (const mc::Counterexample& c : *list) {
          std::fprintf(stderr, "%s\n",
                       mc::format_counterexample(c, s.cfg).c_str());
        }
      }
    }
    report.set_headline(std::string(s.name) + "_states",
                        static_cast<double>(r.states));
  }
  // The pooled-fabric all-reduce slice (mc/fabric_driver.hpp): the same
  // exhaustive gate over the 2-node x 1-pool-line fabric domain.
  {
    const mc::FabricMcResult fr = mc::fabric_model_check(mc::FabricMcConfig{});
    const bool ok = fr.ok() && !fr.truncated;
    all_ok = all_ok && ok;
    total_states += fr.states;
    total_edges += fr.edges;
    t.add_row({"fabric_2n1l", std::to_string(fr.states),
               std::to_string(fr.edges), std::to_string(fr.deduped),
               std::to_string(fr.max_depth), ok ? "exhaustive, ok" : "FAIL"});
    if (!ok) std::fprintf(stderr, "FAIL fabric_2n1l: %s\n",
                          fr.summary().c_str());
    report.set_headline("fabric_2n1l_states",
                        static_cast<double>(fr.states));
  }
  std::fputs(t.to_string().c_str(), stdout);

  report.set_headline("total_states", static_cast<double>(total_states));
  report.set_headline("total_edges", static_cast<double>(total_edges));
  report.set_headline("total_wall_s", total_wall);
  const std::string written = report.write();
  if (!written.empty()) {
    std::printf("Bench report written to %s\n", written.c_str());
  }

  if (!all_ok) return 1;
  std::printf(
      "-> %zu states / %zu edges across %zu sweeps, all exhaustive with "
      "zero invariant violations.\n",
      total_states, total_edges, sweeps().size() + 1);
  return 0;
}
