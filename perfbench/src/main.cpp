// spmv_perfbench: runs one benchmark workload and prints its metrics.
//
//   spmv_perfbench --workload suite-sweep|rpc-solver --seed N
//                  --seconds S --trace 0|1 [--trace-file PATH]
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is the separate traced run: it records spans around the calls
// into each layer, writes them to --trace-file, and prints the per-layer
// metrics.  The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::Result;
using perfbench::Tracer;

struct Workload {
  const char* name;
  const char* why;
  Result (*run)(const Args&, Tracer*);
};

// Keep the reasons in step with BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"suite-sweep",
     "in-process tuned SpMV over the 14 Table-3 matrices at 2 threads: "
     "kernels, tuner and dispatch do the work; serve and net are bypassed",
     perfbench::run_suite_sweep},
    {"rpc-solver",
     "one closed-loop client perturbing 1% of x per call: delta operands, "
     "scheduler linger and the wire dominate a ~100 us kernel",
     perfbench::run_rpc_solver},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: spmv_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') usage(what);
  return v;
}

std::string json_number(double v) {
  // JSON has no infinity: a latency made infinite by failed calls is
  // reported as the largest double.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(value, "--seed must be a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(value, "--seconds must be a whole number"));
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace must be 0 or 1");
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) usage("missing a required flag");
  if (args.seconds < 2 || args.seconds > 60) usage("--seconds must be 2..60");
  const Workload* w = nullptr;
  for (const auto& k : kWorkloads)
    if (args.workload == k.name) w = &k;
  if (w == nullptr) usage(("unknown workload " + args.workload).c_str());
  if (args.trace && args.trace_file.empty()) usage("--trace 1 needs --trace-file");

  const std::string provenance =
      "{\"workload\": \"" + args.workload + "\", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + json_number(args.seconds) + ", \"trace\": " +
      (args.trace ? "1" : "0") + ", \"why\": \"" + w->why +
      "\", \"host\": " + perfbench::host_stamp_json() + "}";
  std::printf("provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  Result r;
  Tracer tracer;
  try {
    r = w->run(args, args.trace ? &tracer : nullptr);
    if (args.trace) {
      tracer.note("provenance", provenance);
      tracer.write(args.trace_file);
      std::printf("trace written to %s\n", args.trace_file.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (const auto& m : r.metrics)
    std::printf("metric %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& m : r.info)
    std::printf("info   %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("attempted %llu, failed %llu, wrong results %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong));

  const bool correct = r.wrong == 0 && r.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " +
            json_number(r.metrics[i].value) + ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
