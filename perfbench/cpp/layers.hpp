#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/system.hpp"

/// \file layers.hpp
/// Per-layer accounting for the simulating workloads, measured from
/// outside the simulator: counts come from RunResult and the platform's
/// StatsRegistry after each run, host times from spans the benchmark puts
/// around its own calls, and the parallel engine's figures from its
/// heartbeat JSONL stream.

namespace perfbench {

/// Sums one job's counts over all of its System runs, then derives the
/// per-layer metrics (ratios and means are taken over the job's sums).
class SimLayers {
 public:
  /// After System::run: the registry, the RunResult, the host span around
  /// run() and the ::operator new calls made during it.
  void add_run(ccnoc::core::System& sys, const ccnoc::core::RunResult& r,
               double run_s, std::uint64_t allocs);
  /// A parallel run's ccnoc-heartbeat-v1 JSONL stream.
  void add_heartbeat(const std::string& path, double run_s);
  /// An observed run: the export span, the Chrome trace size, and the
  /// run() spans of the observed run and of the same run with every
  /// observer off.
  void add_observers(double export_s, double trace_bytes, double observed_run_s,
                     double bare_run_s);

  [[nodiscard]] Layers finish() const;

 private:
  [[nodiscard]] double get(const std::string& key) const;

  Layers sum_;  ///< raw sums, keyed by registry name with indices dropped
  double mailbox_max_ = 0.0;
};

}  // namespace perfbench
