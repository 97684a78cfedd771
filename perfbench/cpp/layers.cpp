#include "layers.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <vector>

namespace perfbench {

namespace {

/// "cpu12.dcache.load_hits" -> "cpu.dcache.load_hits", "l2bank3.fills" ->
/// "l2bank.fills": registry names with the component index dropped, so
/// one key sums a statistic over every instance.
std::string kind_key(const std::string& name) {
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos) return name;
  std::size_t end = dot;
  while (end > 0 && std::isdigit(static_cast<unsigned char>(name[end - 1]))) --end;
  return name.substr(0, end) + name.substr(dot);
}

/// Every number following `"key":` in one JSON line.
std::vector<double> values_of(const std::string& line, const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t at = line.find(needle); at != std::string::npos;
       at = line.find(needle, at + 1)) {
    out.push_back(std::strtod(line.c_str() + at + needle.size(), nullptr));
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void SimLayers::add_run(ccnoc::core::System& sys, const ccnoc::core::RunResult& r,
                        double run_s, std::uint64_t allocs) {
  sum_["run_s"] += run_s;
  sum_["events"] += double(r.events);
  sum_["allocs"] += double(allocs);
  sum_["check.loads_verified"] += double(r.check_loads_verified);
  sum_["check.violations"] += double(r.check_violations);
  const ccnoc::sim::StatsRegistry& reg = sys.simulator().stats();
  for (const auto& [name, counter] : reg.counters()) {
    sum_[kind_key(name)] += double(counter.value());
  }
  for (const auto& [name, sample] : reg.samples()) {
    const std::string key = kind_key(name);
    sum_[key + ".sum"] += sample.sum();
    sum_[key + ".count"] += double(sample.count());
  }
}

void SimLayers::add_heartbeat(const std::string& path, double run_s) {
  std::ifstream in(path);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    for (double m : values_of(line, "mailbox")) mailbox_max_ = std::max(mailbox_max_, m);
    last = line;
  }
  if (last.empty()) return;
  // The final beat (emitted when the engine stops) carries run totals.
  const std::vector<double> epochs = values_of(last, "epochs");
  const std::vector<double> events = values_of(last, "events");
  const std::vector<double> waits = values_of(last, "barrier_wait_ms");
  double wait_ms = 0.0;
  for (double w : waits) wait_ms += w;
  double evs = 0.0;
  for (double e : events) evs += e;
  sum_["par.epochs"] += epochs.empty() ? 0.0 : epochs.front();
  sum_["par.events"] += evs;
  sum_["par.wait_s"] += wait_ms / 1000.0;
  sum_["par.worker_s"] += double(waits.size()) * run_s;
}

void SimLayers::add_observers(double export_s, double trace_bytes,
                              double observed_run_s, double bare_run_s) {
  sum_["obs.export_s"] += export_s;
  sum_["obs.trace_bytes"] += trace_bytes;
  sum_["obs.observed_run_s"] += observed_run_s;
  sum_["obs.bare_run_s"] += bare_run_s;
}

double SimLayers::get(const std::string& key) const {
  const auto it = sum_.find(key);
  return it == sum_.end() ? 0.0 : it->second;
}

Layers SimLayers::finish() const {
  Layers l;
  const double events = get("events");
  l["core.run_s"] = get("run_s");
  l["sim.events"] = events;
  l["sim.ns_per_event"] = ratio(get("run_s") * 1e9, events);
  l["sim.allocs_per_event"] = ratio(get("allocs"), events);

  l["sim.parallel.epochs"] = get("par.epochs");
  l["sim.parallel.events_per_epoch"] = ratio(get("par.events"), get("par.epochs"));
  l["sim.parallel.barrier_wait_share"] = ratio(get("par.wait_s"), get("par.worker_s"));
  l["sim.parallel.mailbox_max"] = mailbox_max_;

  l["sim.obs.export_s"] = get("obs.export_s");
  l["sim.obs.run_overhead"] = ratio(get("obs.observed_run_s"), get("obs.bare_run_s"));
  l["sim.obs.trace_bytes"] = get("obs.trace_bytes");

  l["check.loads_verified"] = get("check.loads_verified");
  l["check.violations"] = get("check.violations");

  for (const char* c :
       {"instructions", "ops", "d_stall_cycles", "i_stall_cycles", "context_switches"}) {
    l[std::string("cpu.") + c] = get(std::string("cpu.") + c);
  }

  const double ifetch = get("cpu.icache.hits") + get("cpu.icache.misses");
  l["cache.icache_accesses"] = ifetch;
  l["cache.icache_miss_ratio"] = ratio(get("cpu.icache.misses"), ifetch);
  // WTI counts store_hits and atomic_swaps; WB-MESI splits store hits by
  // the line's state and runs atomics through the store path.
  const double dmisses = get("cpu.dcache.load_misses") + get("cpu.dcache.store_misses");
  const double daccess = get("cpu.dcache.load_hits") + get("cpu.dcache.store_hits") +
                         get("cpu.dcache.store_hits_em") + get("cpu.dcache.store_hits_s") +
                         get("cpu.dcache.atomic_swaps") + dmisses;
  l["cache.dcache_accesses"] = daccess;
  l["cache.dcache_miss_ratio"] = ratio(dmisses, daccess);
  l["cache.invalidations"] = get("cpu.dcache.invalidations");
  l["cache.writebacks"] = get("cpu.dcache.writebacks");
  l["cache.wbuf_full"] =
      get("cpu.dcache.wbuf_full_stalls") + get("cpu.dcache.wb_buffer_stalls");

  l["noc.packets"] = get("noc.packets");
  l["noc.bytes"] = get("noc.bytes");
  l["noc.fifo_overflow_cycles"] = get("noc.fifo_overflow_cycles");
  l["noc.latency_mean"] = ratio(get("noc.latency.sum"), get("noc.latency.count"));

  l["mem.bank_requests"] = get("bank.requests");
  l["mem.bank_busy_cycles"] = get("bank.busy_cycles");
  l["mem.bank_queue_delay_mean"] =
      ratio(get("bank.queue_delay.sum"), get("bank.queue_delay.count"));
  l["mem.block_conflicts"] = get("bank.block_conflicts");
  l["mem.invalidations_sent"] =
      get("bank.invalidations_sent") + get("l2bank.invalidations_sent");
  l["mem.l2_fills"] = get("l2bank.fills");
  l["mem.l2_recalls"] = get("l2bank.recalls");
  return l;
}

}  // namespace perfbench
