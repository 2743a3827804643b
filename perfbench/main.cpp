// The repository benchmark. One workload per invocation:
//
//   perfbench --workload paper-adjoint|sense-cg|stream-serve --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with every tracer off;
// --trace 1 reruns the workload with the benchmark's spans, the library's
// tracer and counter deltas, and reports the per-layer metrics plus the
// tracing overhead. Every run checks the workload's outputs. The last line
// of standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// preceded by one {"context": {...}} line (host, build, working set, tail
// percentile). The exit code is 1 when any output check failed or any op
// failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;

struct Spec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports with --trace 0.
const Spec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"throughput_per_s", "1/s"},
    {"on_time_ratio", "ratio"},
    {"ok_ratio", "ratio"},
    {"nrmse", "ratio"},
    {"oneshot_latency_p50_ms", "ms"},
    {"oneshot_latency_tail_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

// The per-layer metrics of --trace 1. A metric a workload does not measure
// (its layer is off the workload's path) reports 0 and is named in the
// context line's "not_measured".
const Spec kPerLayer[] = {
    {"core.grid.adjoint_ms", "ms"},
    {"core.grid.forward_ms", "ms"},
    {"core.grid.ns_per_interp", "ns"},
    {"core.grid.interpolations", "count"},
    {"core.grid.boundary_checks", "count"},
    {"core.grid.bytes_computed", "B"},
    {"kernels.lut_lookups", "count"},
    {"core.nufft.apod_ms", "ms"},
    {"core.nufft.grid_share", "ratio"},
    {"core.nufft.plan_build_ms", "ms"},
    {"core.nufft.adjoint_self_ms", "ms"},
    {"fft.exec_ms", "ms"},
    {"fft.execs", "count"},
    {"fft.cache_hit_ratio", "ratio"},
    {"common.pool.parallel_fors", "count"},
    {"common.pool.tasks", "count"},
    {"common.pool.idle_ms", "ms"},
    {"common.scaling_1t_over_nt", "ratio"},
    {"sense.cg_iterations", "count"},
    {"sense.rhs_ms", "ms"},
    {"sense.gram_ms", "ms"},
    {"sense.operator_ms", "ms"},
    {"sense.cg_self_ms", "ms"},
    {"sense.coil_transforms", "count"},
    {"stream.iterations_per_frame", "count"},
    {"stream.warm_ratio", "ratio"},
    {"stream.plan_reuse_ratio", "ratio"},
    {"stream.guard_trips", "count"},
    {"serve.plan_hit_ratio", "ratio"},
    {"serve.batch_mean_jobs", "count"},
    {"serve.queue_depth_max", "count"},
    {"serve.rejected", "count"},
    {"router.relay_ms", "ms"},
    {"router.reroutes", "count"},
    {"protocol.request_bytes", "B"},
    {"protocol.encode_us", "us"},
    {"protocol.decode_us", "us"},
    {"data.request_ms", "ms"},
    {"data.bytes_read", "B"},
    {"data.chunks_rejected", "count"},
    {"bench.generator_lag_p50_ms", "ms"},
    {"bench.generator_lag_max_ms", "ms"},
    {"bench.op_self_ms", "ms"},
    {"bench.trace_overhead_ratio", "ratio"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-adjoint|sense-cg|stream-serve --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) usage("bad value for " + flag + ": " + v);
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      opt.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(flag, v));
      if (opt.seconds < 1 || opt.seconds > 600) usage("--seconds out of range");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (flag == "--out-dir") {
      opt.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }

  Result r;
  try {
    if (opt.workload == "paper-adjoint") {
      r = perfbench::run_paper_adjoint(opt);
    } else if (opt.workload == "sense-cg") {
      r = perfbench::run_sense_cg(opt);
    } else if (opt.workload == "stream-serve") {
      r = perfbench::run_stream_serve(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  perfbench::add_context(r);

  // Exactly the metric set this mode owes, in the declared order.
  std::vector<Metric> out;
  std::set<std::string> missing;
  auto take = [&](const Spec* begin, const Spec* end, bool zero_if_absent) {
    for (const Spec* s = begin; s != end; ++s) {
      bool found = false;
      for (const Metric& m : r.metrics) {
        if (m.name == s->name) {
          if (m.unit != s->unit) {
            r.check(false, m.name + " reported in " + m.unit);
          }
          if (!std::isfinite(m.value)) {
            r.check(false, m.name + " is not finite");
          }
          out.push_back({m.name, std::isfinite(m.value) ? m.value : 0.0,
                         s->unit});
          found = true;
          break;
        }
      }
      if (!found) {
        if (!zero_if_absent) r.check(false, std::string(s->name) + " missing");
        missing.insert(s->name);
        out.push_back({s->name, 0.0, s->unit});
      }
    }
  };
  if (opt.trace) {
    take(std::begin(kPerLayer), std::end(kPerLayer), true);
  } else {
    take(std::begin(kEndToEnd), std::end(kEndToEnd), false);
  }

  std::string ctx = "{\"context\": {\"workload\": \"" + opt.workload +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.trace ? "1" : "0");
  for (const auto& [k, v] : r.notes) {
    ctx += ", \"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  if (opt.trace) {
    std::string off;
    for (const auto& name : missing) off += (off.empty() ? "" : " ") + name;
    ctx += ", \"not_measured\": \"" + off + "\"";
  }
  ctx += "}}";
  for (const auto& why : r.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  const bool correct = r.check_failures.empty() && r.failed == 0;

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", out[i].value);
    line += (i == 0 ? "\"" : ", \"") + out[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n%s\n", ctx.c_str(), line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
