// The four benchmark workloads. Each builds its inputs from the seed, runs
// jobs in a closed loop and checks every job's outputs:
//
//   paper_sweep    Figure 4/5 grid, serial engine, observers off
//   ocean64_par    64-CPU Ocean, arch 1, WB-MESI, parallel engine, 4 domains
//   fuzz_observed  checked fuzz on 16 CPUs, 4 domains, every observer on
//   model_check    exhaustive protocol model checker, flat and two-level

#include <memory>
#include <sstream>

#include "alloc.hpp"
#include "apps/fuzz.hpp"
#include "apps/ocean.hpp"
#include "bench.hpp"
#include "layers.hpp"
#include "paper_sweep.hpp"
#include "proto/tables.hpp"
#include "sim/latency.hpp"
#include "sim/profile.hpp"
#include "verify/hier.hpp"
#include "verify/model.hpp"

namespace perfbench {

namespace {

using ccnoc::core::RunResult;
using ccnoc::core::System;
using ccnoc::core::SystemConfig;
using ccnoc::mem::Protocol;

/// Domains of the parallel workloads (the ROADMAP acceptance partition).
constexpr unsigned kDomains = 4;

/// The simulated fields two runs of one configuration must agree on.
std::string fingerprint(const RunResult& r, bool with_check = true) {
  std::ostringstream os;
  os << "cycles=" << r.exec_cycles << " events=" << r.events
     << " noc_bytes=" << r.noc_bytes << " packets=" << r.noc_packets
     << " instructions=" << r.instructions << " d_stall=" << r.d_stall_cycles
     << " i_stall=" << r.i_stall_cycles;
  if (with_check) os << " loads_checked=" << r.check_loads_verified;
  return os.str();
}

void check_run(const RunResult& r, const std::string& label,
               std::vector<std::string>& errors) {
  if (!r.completed) {
    errors.push_back(label + ": did not complete");
  } else if (!r.verified) {
    errors.push_back(label + ": failed verification");
  }
  if (!r.check_ok || r.check_violations != 0) {
    errors.push_back(label + ": " + std::to_string(r.check_violations) +
                     " coherence violation(s)");
  }
}

void expect_same(const std::string& got, const std::string& want,
                 const std::string& what, std::vector<std::string>& errors) {
  if (got != want) errors.push_back(what + ": " + got + " != " + want);
}

void inject_fault(const Options& opt, SystemConfig& cfg) {
  if (opt.fault) cfg.dcache.fault = ccnoc::cache::CacheConfig::FaultKind::kSkipInvalidate;
}

Built build_all(const std::vector<SystemConfig>& cfgs) {
  Built built;
  for (const SystemConfig& cfg : cfgs) built.push_back(std::make_shared<System>(cfg));
  return built;
}

struct TimedRun {
  RunResult r;
  double run_s = 0.0;
};

/// System::run inside a host span; with \p layers, also its accounting.
TimedRun timed_run(System& sys, ccnoc::apps::Workload& w, SimLayers* layers,
                   ccnoc::sim::Cycle max_cycles = 4'000'000'000ull) {
  const std::uint64_t allocs0 = alloc_stats().count;
  const auto t0 = Clock::now();
  TimedRun t{sys.run(w, 0, max_cycles), 0.0};
  t.run_s = seconds_since(t0);
  if (layers != nullptr) layers->add_run(sys, t.r, t.run_s, alloc_stats().count - allocs0);
  return t;
}

void add_totals(Job& job, const RunResult& r) {
  job.work += double(r.instructions);
  job.sim_cycles += double(r.exec_cycles);
  job.noc_bytes += double(r.noc_bytes);
}

/// Heartbeat for a traced parallel run: sampled every 10 ms into the
/// work directory (the sampler thread only runs in traced runs).
std::string arm_heartbeat(const Options& opt, SystemConfig& cfg) {
  if (!opt.traced) return {};
  cfg.heartbeat_ms = 10;
  cfg.heartbeat_json = opt.work_dir + "/heartbeat.jsonl";
  return cfg.heartbeat_json;
}

// --- paper_sweep -----------------------------------------------------------

SystemConfig paper_config(const ccnoc::bench::SweepSpec& s, const Options& opt) {
  SystemConfig cfg = s.arch == 1 ? SystemConfig::architecture1(s.n, s.proto)
                                 : SystemConfig::architecture2(s.n, s.proto);
  cfg.kernel.seed = opt.seed;
  inject_fault(opt, cfg);
  return cfg;
}

/// Write a sweep as a BENCH_*.json record into the work directory and
/// compare it with opt.baseline field for field, host-speed fields
/// excluded; returns an error, or "" when it matches.
std::string baseline_error(const Options& opt,
                           const std::vector<ccnoc::bench::PaperRun>& runs) {
  const std::string path = opt.work_dir + "/paper_sweep.json";
  if (!ccnoc::bench::write_paper_json(path, "fig4_exec_time", runs) ||
      !ccnoc::bench::compare_with_baseline(path, opt.baseline, 0.0, -1.0)) {
    return "the first sweep differs from " + opt.baseline;
  }
  return {};
}

// --- ocean64_par -----------------------------------------------------------

SystemConfig ocean64_config(const Options& opt, unsigned domains) {
  SystemConfig cfg = SystemConfig::architecture1(opt.smoke ? 16 : 64, Protocol::kWbMesi);
  cfg.kernel.seed = opt.seed;
  cfg.parallel_domains = domains;
  cfg.parallel_workers = opt.workers;
  inject_fault(opt, cfg);
  return cfg;
}

/// bench_parallel's Ocean: the ROADMAP's parallel acceptance input.
ccnoc::apps::Ocean ocean64_app() {
  ccnoc::apps::Ocean::Config oc;
  oc.rows_per_thread = 2;
  oc.iterations = 2;
  return ccnoc::apps::Ocean(oc);
}

// --- fuzz_observed ---------------------------------------------------------

struct FuzzCase {
  std::uint64_t seed = 1;
  bool two_level = false;  ///< WB-MESI over 4 L2 banks; else flat WTI
};

constexpr ccnoc::sim::Cycle kFuzzMaxCycles = 50'000'000;

/// Eight fuzz seeds per benchmark seed, alternating between flat WTI and
/// two-level WB-MESI; one job runs all eight, which evens out how much
/// work one seed draws.
std::vector<FuzzCase> fuzz_cases(const Options& opt) {
  std::vector<FuzzCase> cases;
  for (std::uint64_t k = 0; k < 8; ++k) cases.push_back({opt.seed * 8 + k + 1, k % 2 == 1});
  return cases;
}

enum class Observe { kNone, kChecked, kAll };

SystemConfig fuzz_config(const Options& opt, const FuzzCase& c, unsigned domains,
                         Observe obs) {
  SystemConfig cfg = SystemConfig::architecture1(
      opt.smoke ? 4 : 16, c.two_level ? Protocol::kWbMesi : Protocol::kWti);
  cfg.seed = c.seed;
  if (c.two_level) {
    cfg.hierarchy_levels = 2;
    cfg.num_l2_banks = 4;
    cfg.l2.size_bytes = 2048;  // tiny, so capacity recalls fire
  }
  cfg.check.enabled = obs != Observe::kNone;
  if (obs == Observe::kAll) {
    cfg.trace = ccnoc::sim::TraceMode::kFull;
    cfg.profile = ccnoc::sim::ProfileMode::kOn;
    cfg.latency = ccnoc::sim::LatencyMode::kOn;
  }
  cfg.parallel_domains = domains;
  cfg.parallel_workers = opt.workers;
  inject_fault(opt, cfg);
  return cfg;
}

ccnoc::apps::FuzzWorkload fuzz_app(const Options& opt, const FuzzCase& c) {
  ccnoc::apps::FuzzWorkload::Config wc;  // 35% stores, 5% atomics, 8 KB arena
  wc.seed = c.seed;
  if (opt.smoke) wc.ops_per_thread = 100;
  return ccnoc::apps::FuzzWorkload(wc);
}

/// The same fuzz run with every observer and the checker off (traced runs
/// only): its run() span is the base of sim.obs.run_overhead.
TimedRun bare_twin(const Options& opt, const FuzzCase& c) {
  System bare(fuzz_config(opt, c, kDomains, Observe::kNone));
  auto app = fuzz_app(opt, c);
  return timed_run(bare, app, nullptr, kFuzzMaxCycles);
}

// --- model_check -----------------------------------------------------------

struct ModelCase {
  bool hier = false;
  ccnoc::verify::ModelConfig flat;
  ccnoc::verify::HierConfig h;
};

/// Flat WTI at 2 and 3 caches, flat WB-MESI at 2 caches, and the two-level
/// WTI hierarchy at 3 L1s: both explorers, about five seconds. The
/// 3-cache runs use `ccnoc_model --all`'s reduced settings; the 2-cache run
/// covers the untracked-reader rows they leave out.
std::vector<ModelCase> model_cases(const Options& opt) {
  auto flat = [&](Protocol p, unsigned caches) {
    ModelCase c;
    c.flat.protocol = p;
    c.flat.num_caches = caches;
    if (caches >= 3) {
      c.flat.wbuf_depth = 1;
      c.flat.untracked_reads = false;
    }
    c.flat.fault_skip_invalidate = opt.fault;
    return c;
  };
  ModelCase hier;
  hier.hier = true;
  hier.h.protocol = Protocol::kWti;
  hier.h.num_l1 = opt.smoke ? 2 : 3;
  std::vector<ModelCase> cases = {flat(Protocol::kWti, 2)};
  if (!opt.smoke) cases.push_back(flat(Protocol::kWti, 3));
  cases.push_back(flat(Protocol::kWbMesi, 2));
  cases.push_back(hier);
  return cases;
}

std::string model_label(const ModelCase& c) {
  if (c.hier) return std::string(to_string(c.h.protocol)) + " hier l1=" + std::to_string(c.h.num_l1);
  return std::string(to_string(c.flat.protocol)) + " caches=" + std::to_string(c.flat.num_caches);
}

}  // namespace

Report run_paper_sweep(const Options& opt) {
  const std::vector<ccnoc::bench::SweepSpec> specs = ccnoc::bench::paper_grid(
      opt.smoke ? std::vector<unsigned>{4} : std::vector<unsigned>{4, 16, 32, 64});
  Report rep;
  std::vector<SystemConfig> cfgs;
  for (const auto& s : specs) cfgs.push_back(paper_config(s, opt));

  std::vector<std::string> first;  // the first sweep's fingerprints
  std::string baseline;            // the first sweep's baseline mismatch
  closed_loop(opt, rep, [&] { return build_all(cfgs); }, [&] {
    Job job;
    SimLayers layers;
    std::vector<std::string> prints;
    std::vector<ccnoc::bench::PaperRun> runs;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& s = specs[i];
      System sys(cfgs[i]);
      auto app = ccnoc::bench::make_app(s.app);
      const TimedRun t = timed_run(sys, *app, opt.traced ? &layers : nullptr);
      check_run(t.r, ccnoc::bench::point_label(s.app, s.arch, s.proto, s.n), job.errors);
      add_totals(job, t.r);
      prints.push_back(fingerprint(t.r));
      if (first.empty()) runs.push_back({s.app, s.arch, s.proto, s.n, t.r, t.run_s, {}});
    }
    job.wall_s = seconds_since(t0);
    if (first.empty()) {
      first = prints;
      if (!opt.baseline.empty()) baseline = baseline_error(opt, runs);
    }
    // Every later sweep equals the first, so a mismatch fails them all.
    if (!baseline.empty()) job.errors.push_back(baseline);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& s = specs[i];
      expect_same(prints[i], first[i],
                  ccnoc::bench::point_label(s.app, s.arch, s.proto, s.n) +
                      " differs from this run's first sweep",
                  job.errors);
    }
    if (opt.traced) job.layers = layers.finish();
    return job;
  });
  return rep;
}

Report run_ocean64_par(const Options& opt) {
  Report rep;
  RunResult ref;
  {
    System sys(ocean64_config(opt, 0));
    auto app = ocean64_app();
    ref = sys.run(app);
  }
  std::vector<std::string> ref_errors;
  check_run(ref, "serial reference", ref_errors);

  const std::vector<SystemConfig> cfgs = {ocean64_config(opt, kDomains)};
  closed_loop(opt, rep, [&] { return build_all(cfgs); }, [&] {
    Job job;
    job.errors = ref_errors;
    SimLayers layers;
    const auto t0 = Clock::now();
    SystemConfig cfg = cfgs.front();
    const std::string heartbeat = arm_heartbeat(opt, cfg);
    System sys(cfg);
    auto app = ocean64_app();
    const TimedRun t = timed_run(sys, app, opt.traced ? &layers : nullptr);
    job.wall_s = seconds_since(t0);
    check_run(t.r, "ocean64", job.errors);
    if (t.r.engine != "parallel") {
      job.errors.push_back("ocean64 ran on the serial engine (" + t.r.engine_fallback + ")");
    }
    expect_same(fingerprint(t.r), fingerprint(ref), "ocean64 vs the serial reference",
                job.errors);
    add_totals(job, t.r);
    if (opt.traced) {
      layers.add_heartbeat(heartbeat, t.run_s);
      job.layers = layers.finish();
    }
    return job;
  });
  return rep;
}

Report run_fuzz_observed(const Options& opt) {
  Report rep;
  const std::vector<FuzzCase> cases = fuzz_cases(opt);
  // Serial, checked, unobserved reference of every case.
  std::vector<std::string> refs;
  std::vector<std::string> ref_errors;
  for (const FuzzCase& c : cases) {
    System sys(fuzz_config(opt, c, 0, Observe::kChecked));
    auto app = fuzz_app(opt, c);
    const RunResult r = sys.run(app, 0, kFuzzMaxCycles);
    check_run(r, "serial reference seed " + std::to_string(c.seed), ref_errors);
    refs.push_back(fingerprint(r));
  }

  std::vector<SystemConfig> cfgs;
  for (const FuzzCase& c : cases) cfgs.push_back(fuzz_config(opt, c, kDomains, Observe::kAll));
  closed_loop(opt, rep, [&] { return build_all(cfgs); }, [&] {
    Job job;
    job.errors = ref_errors;
    SimLayers layers;
    double twin_s = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const FuzzCase& c = cases[i];
      const std::string label = "fuzz seed " + std::to_string(c.seed);
      SystemConfig cfg = cfgs[i];
      const std::string heartbeat = arm_heartbeat(opt, cfg);
      System sys(cfg);
      auto app = fuzz_app(opt, c);
      const TimedRun t =
          timed_run(sys, app, opt.traced ? &layers : nullptr, kFuzzMaxCycles);
      // Observers export into memory: Chrome trace, profile and latency JSON.
      const auto e0 = Clock::now();
      const std::string trace = sys.simulator().tracer().chrome_json();
      const std::string profile =
          ccnoc::sim::profile_json(sys.simulator().profiler().snapshot(label));
      const std::string latency = ccnoc::sim::latency_json(sys.simulator().latency());
      const double export_s = seconds_since(e0);
      check_run(t.r, label, job.errors);
      if (t.r.engine != "parallel") {
        job.errors.push_back(label + " ran on the serial engine (" + t.r.engine_fallback + ")");
      }
      if (trace.empty() || profile.empty() || latency.empty()) {
        job.errors.push_back(label + ": an observer exported nothing");
      }
      expect_same(fingerprint(t.r), refs[i], label + " vs the serial reference", job.errors);
      add_totals(job, t.r);
      if (opt.traced) {
        layers.add_heartbeat(heartbeat, t.run_s);
        const auto b0 = Clock::now();
        const TimedRun b = bare_twin(opt, c);
        twin_s += seconds_since(b0);
        check_run(b.r, label + " (bare)", job.errors);
        expect_same(fingerprint(b.r, false), fingerprint(t.r, false),
                    label + " bare vs observed", job.errors);
        layers.add_observers(export_s, double(trace.size()), t.run_s, b.run_s);
      }
    }
    // Traced jobs also ran the bare twins; keep wall_s the observed work.
    job.wall_s = seconds_since(t0) - twin_s;
    if (opt.traced) job.layers = layers.finish();
    return job;
  });
  return rep;
}

Report run_model_check(const Options& opt) {
  namespace verify = ccnoc::verify;
  Report rep;
  const std::vector<ModelCase> cases = model_cases(opt);
  auto make = [&] {
    Built built;
    for (const ModelCase& c : cases) {
      if (c.hier) {
        built.push_back(std::make_shared<verify::HierChecker>(c.h));
      } else {
        built.push_back(std::make_shared<verify::ModelChecker>(c.flat));
      }
    }
    return built;
  };

  std::vector<std::string> first;  // the first job's (states, edges) per case
  closed_loop(opt, rep, make, [&] {
    Job job;
    double explore_s = 0.0;
    double edges = 0.0;
    double bytes = 0.0;
    double dead = 0.0;
    std::map<Protocol, ccnoc::proto::CoverageSet> flat_cover;
    std::vector<std::string> prints;
    const auto t0 = Clock::now();
    for (const ModelCase& c : cases) {
      const std::string label = model_label(c);
      const std::int64_t live0 = alloc_stats().live_bytes;
      alloc_reset_peak();
      const auto r0 = Clock::now();
      verify::ModelResult r;
      if (c.hier) {
        verify::HierChecker mc(c.h);
        r = mc.run();
        // The hierarchical checker accounts dead rows of the L2 extension
        // table itself.
        dead += double(r.dead_rows.size());
        for (int row : r.dead_rows) {
          job.errors.push_back(label + ": dead row " + ccnoc::proto::row_name(row));
        }
      } else {
        verify::ModelChecker mc(c.flat);
        r = mc.run();
        flat_cover[c.flat.protocol].merge(r.covered);
      }
      explore_s += seconds_since(r0);
      bytes += double(alloc_stats().peak_bytes - live0);
      job.work += double(r.states);
      edges += double(r.edges);
      if (!r.closed) job.errors.push_back(label + ": state space did not close");
      for (const verify::Violation& v : r.violations) {
        job.errors.push_back(label + ": violation [" + v.rule + "] " + v.detail);
      }
      prints.push_back(std::to_string(r.states) + " states, " + std::to_string(r.edges) +
                       " edges");
    }
    // Flat runs of one protocol together must take every row of its table.
    for (const auto& [proto, cover] : flat_cover) {
      const ccnoc::proto::ProtocolTable& tbl = ccnoc::proto::table_for(proto);
      for (int id = tbl.base_id(); id < tbl.base_id() + tbl.row_count(); ++id) {
        if (cover.covered(id)) continue;
        dead += 1.0;
        job.errors.push_back("dead row " + ccnoc::proto::row_name(id));
      }
    }
    job.wall_s = seconds_since(t0);
    if (first.empty()) first = prints;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      expect_same(prints[i], first[i], model_label(cases[i]) + " differs from this run's first job",
                  job.errors);
    }
    if (opt.traced) {
      job.layers["verify.states"] = job.work;
      job.layers["verify.edges"] = edges;
      job.layers["verify.explore_s"] = explore_s;
      job.layers["verify.bytes_per_state"] = job.work > 0 ? bytes / job.work : 0.0;
      job.layers["verify.dead_rows"] = dead;
    }
    return job;
  });
  return rep;
}

}  // namespace perfbench
