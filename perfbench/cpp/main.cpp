// Benchmark binary: runs one workload for a measuring window and prints one
// JSON object of raw measurements (per-job wall times, set-up times, checks,
// and in the traced binary the per-layer figures). run.py builds this
// program, runs it and turns the raw figures into the reported metrics.
//
//   perfbench --workload paper_sweep --seed 42 --seconds 10
//             [--workers N] [--work-dir DIR] [--baseline BENCH.json] [--smoke]
//             [--fault skip-invalidate]

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "alloc.hpp"
#include "bench.hpp"

namespace {

using perfbench::Job;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_sweep|ocean64_par|fuzz_observed|"
               "model_check\n"
               "                 [--seed N] [--seconds S] [--workers N] [--work-dir DIR]\n"
               "                 [--baseline BENCH.json] [--smoke] [--fault skip-invalidate]\n",
               msg);
  std::exit(2);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Appends \p item to the body of the JSON list or object \p out, which
/// starts with its opening bracket.
void append(std::string& out, const std::string& item) {
  if (out.size() > 1) out += ',';
  out += item;
}

std::string layers_json(const perfbench::Layers& l) {
  std::string out = "{";
  for (const auto& [name, value] : l) append(out, quoted(name) + ":" + number(value));
  return out + "}";
}

/// What the binary was built with, from its own predefined macros and the
/// flags CMake compiled it with.
std::string build_json() {
  std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  sanitizers += "clang-sanitizer ";
#endif
#endif
#if defined(_GLIBCXX_ASSERTIONS)
  const bool harden = true;
#else
  const bool harden = false;
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return std::string("{\"compiler\":") + quoted(compiler) +
         ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
         ",\"cxx_flags\":" + quoted(PERFBENCH_CXX_FLAGS) +
         ",\"optimized\":" + (optimized ? "true" : "false") +
         ",\"harden\":" + (harden ? "true" : "false") +
         ",\"sanitizers\":" + quoted(sanitizers) + "}";
}

void print_report(const Options& opt, const Report& rep) {
  std::string jobs = "[";
  for (const Job& j : rep.jobs) {
    std::string errors = "[";
    for (const std::string& e : j.errors) append(errors, quoted(e));
    append(jobs, "{\"wall_s\":" + number(j.wall_s) + ",\"work\":" + number(j.work) +
                     ",\"sim_cycles\":" + number(j.sim_cycles) +
                     ",\"noc_bytes\":" + number(j.noc_bytes) + ",\"errors\":" + errors +
                     "],\"layers\":" + layers_json(j.layers) + "}");
  }
  jobs += "]";
  std::string setup = "[";
  for (double s : rep.setup_s) append(setup, number(s));
  setup += "]";
  std::printf(
      "{\"schema\":\"ccnoc-perfbench-raw-v1\",\"workload\":%s,\"seed\":%llu,"
      "\"workers\":%u,\"build\":%s,\"setup_s\":%s,\"jobs\":%s,\"micro\":%s}\n",
      quoted(opt.workload).c_str(), static_cast<unsigned long long>(opt.seed), opt.workers,
      build_json().c_str(), setup.c_str(), jobs.c_str(), layers_json(rep.micro).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.traced = perfbench::alloc_counting();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--workers") {
      opt.workers = unsigned(std::strtoul(value().c_str(), nullptr, 10));
    } else if (a == "--work-dir") {
      opt.work_dir = value();
    } else if (a == "--baseline") {
      opt.baseline = value();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--fault") {
      if (value() != "skip-invalidate") usage("the only fault is skip-invalidate");
      opt.fault = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workers == 0) opt.workers = 1;

  Report rep;
  try {
    if (opt.workload == "paper_sweep") {
      rep = perfbench::run_paper_sweep(opt);
    } else if (opt.workload == "ocean64_par") {
      rep = perfbench::run_ocean64_par(opt);
    } else if (opt.workload == "fuzz_observed") {
      rep = perfbench::run_fuzz_observed(opt);
    } else if (opt.workload == "model_check") {
      rep = perfbench::run_model_check(opt);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    if (opt.traced) rep.micro = perfbench::run_layer_microbenchmarks();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  print_report(opt, rep);
  return 0;
}
