// Layer micro-benchmarks: each calls one layer's public functions directly
// in a tight loop, so a per-call cost can be read apart from the rest of
// the simulator. Every figure is the median of five repetitions.

#include <algorithm>
#include <vector>

#include "alloc.hpp"
#include "bench.hpp"
#include "core/system.hpp"
#include "mem/directory.hpp"
#include "noc/gmn.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

namespace {

using ccnoc::cache::AccessResult;
using ccnoc::cache::MemAccess;

volatile std::uint64_t g_sink = 0;

template <typename F>
double median_of_5(F&& rep) {
  std::vector<double> v;
  for (int i = 0; i < 5; ++i) v.push_back(rep());
  std::sort(v.begin(), v.end());
  return v[2];
}

/// EventQueue::schedule_in + run, with ~64 events pending (the simulator's
/// working depth): ns per scheduled-and-executed event.
double queue_ns_per_op() {
  constexpr std::uint64_t kOps = 1'000'000;
  return median_of_5([] {
    ccnoc::sim::EventQueue q;
    std::uint64_t left = kOps;
    struct Tick {
      ccnoc::sim::EventQueue* q;
      std::uint64_t* left;
      void operator()() const {
        if (*left == 0) return;
        --*left;
        q->schedule_in(1 + *left % 13, *this);
      }
    };
    for (int i = 0; i < 64; ++i) q.schedule_in(1, Tick{&q, &left});
    const auto t0 = Clock::now();
    const std::uint64_t executed = q.run();
    return seconds_since(t0) * 1e9 / double(executed);
  });
}

struct Sink final : ccnoc::noc::Endpoint {
  std::uint64_t delivered = 0;
  void deliver(const ccnoc::noc::Packet&) override { ++delivered; }
};

/// GmnNetwork::send through delivery on a 16-node crossbar, half the
/// packets carrying a 32-byte block: ns and ::operator new calls per packet.
void noc_micro(Layers& out) {
  constexpr unsigned kNodes = 16;
  constexpr std::uint64_t kPackets = 200'000;
  double allocs = 0.0;
  out["noc.ns_per_packet"] = median_of_5([&] {
    ccnoc::sim::Simulator sim;
    ccnoc::noc::GmnNetwork net(sim, kNodes);
    std::vector<Sink> sinks(kNodes);
    for (unsigned i = 0; i < kNodes; ++i) net.attach(ccnoc::sim::NodeId(i), sinks[i]);
    ccnoc::noc::Message m;
    const std::uint64_t allocs0 = alloc_stats().count;
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < kPackets; ++k) {
      const auto src = ccnoc::sim::NodeId(k % kNodes);
      const auto dst = ccnoc::sim::NodeId((k * 7 + 3) % kNodes);
      if (src == dst) continue;
      m.addr = (k % 4096) * 32;
      m.data_len = k % 2 == 0 ? 32 : 0;
      net.send(src, dst, m);
      if (k % 64 == 63) sim.queue().run();
    }
    sim.queue().run();
    const double ns = seconds_since(t0) * 1e9 / double(net.total_packets());
    allocs = double(alloc_stats().count - allocs0) / double(net.total_packets());
    return ns;
  });
  out["noc.allocs_per_packet"] = allocs;
}

/// Hits on a warmed cache line through CacheIface::access, on a 4-CPU
/// architecture-1 platform: ns per I-fetch hit (WTI I-cache) and per
/// D-cache load hit (WB-MESI).
double cache_hit_ns(bool icache) {
  constexpr std::uint64_t kAccesses = 2'000'000;
  return median_of_5([icache] {
    ccnoc::core::System sys(ccnoc::core::SystemConfig::architecture1(
        4, icache ? ccnoc::mem::Protocol::kWti : ccnoc::mem::Protocol::kWbMesi));
    ccnoc::cache::CacheController& c =
        icache ? sys.cache_node(0).icache() : sys.cache_node(0).dcache();
    MemAccess a;
    a.addr = 0x1000;
    std::uint64_t value = 0;
    // Warm the line; a still-pending fill would make the next access throw.
    if (c.access(a, &value, [](std::uint64_t) {}) == AccessResult::kPending) {
      sys.simulator().queue().run();
    }
    const auto t0 = Clock::now();
    std::uint64_t sum = 0;
    for (std::uint64_t k = 0; k < kAccesses; ++k) {
      a.addr = 0x1000 + (k % 8) * 4;  // the eight words of the warm line
      c.access(a, &value, {});
      sum += value;
    }
    const double ns = seconds_since(t0) * 1e9 / double(kAccesses);
    g_sink = sum;  // keep the loop's loads live
    return ns;
  });
}

/// The full-map directory's sharer bookkeeping: ns per Directory call.
double dir_ns_per_op() {
  constexpr std::uint64_t kRounds = 500'000;
  return median_of_5([] {
    ccnoc::mem::Directory dir(16);
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < kRounds; ++k) {
      const ccnoc::sim::Addr block = (k % 1024) * 32;
      const auto c = ccnoc::sim::NodeId(k % 16);
      dir.add_sharer(block, c);
      dir.add_sharer(block, ccnoc::sim::NodeId((c + 5) % 16));
      dir.set_exclusive(block, c);
      dir.remove_sharer(block, c);
    }
    return seconds_since(t0) * 1e9 / double(kRounds * 4);
  });
}

}  // namespace

Layers run_layer_microbenchmarks() {
  Layers l;
  l["sim.queue_ns_per_op"] = queue_ns_per_op();
  noc_micro(l);
  l["cache.ns_per_ifetch"] = cache_hit_ns(true);
  l["cache.ns_per_dcache_hit"] = cache_hit_ns(false);
  l["mem.ns_per_dir_op"] = dir_ns_per_op();
  return l;
}

}  // namespace perfbench
