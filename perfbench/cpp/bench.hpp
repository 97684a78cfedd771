#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

/// \file bench.hpp
/// Shared types of the benchmark binaries. A workload runs as a closed loop:
/// one job at a time, the next starting when the previous one completes,
/// until the measuring window is spent. Every job checks its own outputs;
/// a job with any error counts as failed.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;     ///< os::KernelConfig's default seed
  double seconds = 15.0;       ///< measuring window; at least one job runs
  bool smoke = false;          ///< tiny inputs, for the self-test
  bool fault = false;          ///< inject the skip-invalidate protocol bug
  unsigned workers = 1;        ///< parallel-engine worker threads (<= nproc)
  std::string work_dir = ".";  ///< heartbeat JSONL and sweep records go here
  std::string baseline;        ///< paper_sweep: BENCH_*.json to match exactly
  bool traced = false;         ///< per-layer accounting (the traced binary)
};

/// Per-layer metrics by name (README.md lists them).
using Layers = std::map<std::string, double>;

struct Job {
  double wall_s = 0.0;      ///< host seconds for the whole job
  double work = 0.0;        ///< simulated instructions, or explored states
  double sim_cycles = 0.0;  ///< simulated execution cycles (summed)
  double noc_bytes = 0.0;   ///< simulated NoC traffic (summed)
  std::vector<std::string> errors;  ///< empty when every check passed
  Layers layers;            ///< traced binary only
};

struct Report {
  std::vector<double> setup_s;  ///< construction time of one job's objects
  std::vector<Job> jobs;
  Layers micro;                 ///< layer micro-benchmarks (traced only)
};

Report run_paper_sweep(const Options& opt);
Report run_ocean64_par(const Options& opt);
Report run_fuzz_observed(const Options& opt);
Report run_model_check(const Options& opt);

/// Micro-benchmarks that call one layer's public functions directly.
Layers run_layer_microbenchmarks();

/// One job's constructed objects, kept alive until the timing span ends so
/// their destruction is not measured.
using Built = std::vector<std::shared_ptr<void>>;

/// Run \p job until the measuring window is spent (at least once), and
/// time \p make, which constructs one job's Systems or checkers, in
/// between: about 20 ms of set-up samples after every job, at least five in
/// all, so set-up and jobs are measured under the same host conditions.
/// A sample batches enough constructions to span a millisecond, so
/// microsecond-scale set-ups are not quantised by the clock.
template <typename Make, typename F>
void closed_loop(const Options& opt, Report& rep, Make&& make, F&& job) {
  std::size_t batch = 1;
  auto sample = [&] {
    for (;;) {
      std::vector<Built> keep;
      keep.reserve(batch);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < batch; ++i) keep.push_back(make());
      const double dt = seconds_since(t0);
      if (dt >= 1e-3 || batch >= 1'000'000) {
        rep.setup_s.push_back(dt / double(batch));
        return dt;
      }
      batch *= 10;  // too short to time: discard and batch more
    }
  };
  const auto t0 = Clock::now();
  do {
    rep.jobs.push_back(job());
    for (double spent = 0.0; spent < 0.02;) spent += sample();
  } while (seconds_since(t0) < opt.seconds);
  while (rep.setup_s.size() < 5) sample();
}

}  // namespace perfbench
