#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numbers>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "kernels/simd/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.count = v.size();
  if (v.size() <= kTailBeyond) return t;
  std::sort(v.begin(), v.end());
  const std::size_t rank = v.size() - kTailBeyond - 1;
  t.valid = true;
  t.value = v[rank];
  t.beyond = v.size() - rank - 1;
  t.percentile = 100.0 * static_cast<double>(v.size() - kTailBeyond) /
                 static_cast<double>(v.size());
  return t;
}

Tail windowed_tail(const std::vector<std::pair<double, double>>& at_value,
                   double t0, double t1, int windows) {
  std::vector<std::vector<double>> parts(static_cast<std::size_t>(windows));
  for (const auto& [at, value] : at_value) {
    const double x = (at - t0) / (t1 - t0) * windows;
    const int w = std::clamp(static_cast<int>(x), 0, windows - 1);
    parts[static_cast<std::size_t>(w)].push_back(value);
  }
  std::vector<double> values, percentiles;
  Tail out;
  for (const auto& part : parts) {
    const Tail t = tail_of(part);
    if (!t.valid) continue;
    values.push_back(t.value);
    percentiles.push_back(t.percentile);
    out.beyond = t.beyond;
  }
  out.count = at_value.size();
  out.windows = windows;
  out.valid = !values.empty() && 2 * values.size() >= parts.size();
  out.value = median(values);
  out.percentile = median(percentiles);
  return out;
}

Tail steady_tail(const std::vector<std::pair<double, double>>& at_value) {
  if (at_value.empty()) return Tail{};
  double t0 = at_value.front().first, t1 = t0;
  for (const auto& s : at_value) {
    t0 = std::min(t0, s.first);
    t1 = std::max(t1, s.first);
  }
  const int windows = static_cast<int>(std::clamp<std::size_t>(
      at_value.size() / kTailWindowSamples, 1, kTailWindows));
  // Widen the last window's edge so the latest sample falls inside it.
  return windowed_tail(at_value, t0, t1 + 1e-9 * (1.0 + std::fabs(t1)),
                       windows);
}

std::string describe(const Tail& t) {
  return "median over " + std::to_string(t.windows) + " sub-windows of p" +
         num(t.percentile) + " (" + std::to_string(t.beyond) +
         " beyond), " + std::to_string(t.count) + " samples";
}

double ratio(double num, double base) { return base > 0.0 ? num / base : 0.0; }

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void pace(const std::vector<double>& due, double t0,
          const std::function<void(std::size_t)>& send,
          std::vector<OpRecord>& records) {
  records.resize(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const double at = t0 + due[i];
    const double wait = at - now_s();
    if (wait > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    records[i].due_s = at;
    records[i].sent_s = now_s();
    send(i);
  }
}

std::vector<double> poisson_arrivals(double rate, double end,
                                     std::uint64_t seed) {
  std::vector<double> out;
  if (rate <= 0.0) return out;
  jigsaw::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= end) break;
    out.push_back(t);
  }
  return out;
}

ClosedLoop closed_loop(double seconds, std::size_t min_ops,
                       const std::function<bool(std::uint64_t)>& op) {
  ClosedLoop loop;
  const double t0 = now_s();
  while (now_s() - t0 < seconds || loop.latency_ms.size() < min_ops) {
    const double a = now_s();
    bool ok = false;
    try {
      ok = op(loop.attempted);
    } catch (const std::exception&) {
      ok = false;
    }
    loop.latency_ms.push_back((now_s() - a) * 1e3);
    loop.start_s.push_back(a);
    ++loop.attempted;
    if (!ok) ++loop.failed;
  }
  loop.elapsed_s = now_s() - t0;
  return loop;
}

void closed_loop_metrics(Result& r, const ClosedLoop& loop,
                         const std::vector<double>& setup_s, double nrmse) {
  r.attempted += loop.attempted;
  r.failed += loop.failed;
  std::vector<std::pair<double, double>> at_value;
  for (std::size_t i = 0; i < loop.latency_ms.size(); ++i) {
    at_value.push_back({loop.start_s[i], loop.latency_ms[i]});
  }
  const Tail tail = steady_tail(at_value);
  r.check(tail.valid, "too few ops for a tail percentile");
  const double p50 = median(loop.latency_ms);
  const double ok = static_cast<double>(loop.attempted - loop.failed);
  r.metric("setup_s", median(setup_s), "s");
  r.metric("latency_p50_ms", p50, "ms");
  r.metric("latency_tail_ms", tail.value, "ms");
  r.metric("throughput_per_s", ratio(ok, loop.elapsed_s), "1/s");
  r.metric("on_time_ratio", ratio(ok, static_cast<double>(loop.attempted)),
           "ratio");
  r.metric("ok_ratio", ratio(ok, static_cast<double>(loop.attempted)),
           "ratio");
  r.metric("nrmse", nrmse, "ratio");
  r.metric("oneshot_latency_p50_ms", p50, "ms");
  r.metric("oneshot_latency_tail_ms", tail.value, "ms");
  r.note("latency_tail", describe(tail));
}

double rel_l2(const std::vector<c64>& a, const std::vector<c64>& b) {
  if (a.size() != b.size()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(a[i] - b[i]);
    den += std::norm(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double fitted_nrmse(const std::vector<c64>& recon,
                    const std::vector<double>& truth) {
  if (recon.size() != truth.size()) return INFINITY;
  c64 num{};
  double den = 0.0, tnorm = 0.0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    num += truth[i] * std::conj(recon[i]);
    den += std::norm(recon[i]);
    tnorm += truth[i] * truth[i];
  }
  const c64 alpha = den > 0.0 ? num / den : c64{};
  double err = 0.0;
  for (std::size_t i = 0; i < recon.size(); ++i) {
    err += std::norm(alpha * recon[i] - truth[i]);
  }
  return tnorm > 0.0 ? std::sqrt(err / tnorm) : INFINITY;
}

std::vector<Coord<2>> rotate(const std::vector<Coord<2>>& coords,
                             double angle) {
  const double c = std::cos(angle), s = std::sin(angle);
  auto wrap = [](double v) {
    v -= std::floor(v + 0.5);  // into [-0.5, 0.5)
    return v >= 0.5 ? v - 1.0 : v;
  };
  std::vector<Coord<2>> out(coords.size());
  for (std::size_t j = 0; j < coords.size(); ++j) {
    const double x = coords[j][0], y = coords[j][1];
    out[j] = {wrap(c * x - s * y), wrap(s * x + c * y)};
  }
  return out;
}

void add_noise(std::vector<c64>& values, double rel, std::uint64_t seed) {
  if (values.empty() || rel <= 0.0) return;
  double power = 0.0;
  for (const c64& v : values) power += std::norm(v);
  const double sigma =
      rel * std::sqrt(power / static_cast<double>(values.size()));
  jigsaw::Rng rng(seed);
  for (c64& v : values) {
    // Box-Muller: one complex normal per sample.
    const double u1 = 1.0 - rng.uniform();
    const double u2 = rng.uniform();
    const double r = sigma * std::sqrt(-std::log(u1));  // E|n|^2 = sigma^2
    v += c64(r * std::cos(2.0 * std::numbers::pi * u2),
             r * std::sin(2.0 * std::numbers::pi * u2));
  }
}

std::uint64_t stream_seed(std::uint64_t seed, const std::string& stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char ch : stream) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  std::uint64_t state = seed ^ h;
  return jigsaw::splitmix64(state);
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- SpanLog ----------------------------------------------------------------

std::size_t SpanLog::begin(const std::string& name, std::uint64_t op,
                           long parent) {
  spans_.push_back({name, op, parent, now_s(), 0.0});
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t span) { spans_[span].t1 = now_s(); }

std::size_t SpanLog::add(const std::string& name, std::uint64_t op,
                         long parent, double t0, double t1) {
  spans_.push_back({name, op, parent, t0, t1});
  return spans_.size() - 1;
}

double SpanLog::total_ms(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += (s.t1 - s.t0) * 1e3;
  }
  return t;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

double SpanLog::self_ms(const std::string& name) const {
  std::map<long, std::vector<std::pair<double, double>>> children;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[spans_[i].parent].emplace_back(spans_[i].t0, spans_[i].t1);
    }
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name) continue;
    auto kids = children[static_cast<long>(i)];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, reach = s.t0;
    for (auto [a, b] : kids) {
      a = std::max({a, reach, s.t0});
      b = std::min(b, s.t1);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    total += (s.t1 - s.t0 - covered) * 1e3;
  }
  return total;
}

void SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const double epoch = spans_.empty() ? 0.0 : spans_.front().t0;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 2, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %llu, \"span\": %zu, \"parent\": %ld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(), (s.t0 - epoch) * 1e6,
                 (s.t1 - s.t0) * 1e6, static_cast<unsigned long long>(s.op), i,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// --- library trace and counters ---------------------------------------------

std::map<std::string, std::vector<double>> read_library_trace(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read library trace " + path);
  std::map<std::string, std::vector<double>> out;
  std::string line;
  static const char* kName = "\"name\": \"";
  static const char* kDur = "\"dur\": ";
  while (std::getline(in, line)) {
    const auto n0 = line.find(kName);
    const auto d0 = line.find(kDur);
    if (n0 == std::string::npos || d0 == std::string::npos) continue;
    const auto name_begin = n0 + std::strlen(kName);
    const auto name_end = line.find('"', name_begin);
    if (name_end == std::string::npos) continue;
    const double dur_us =
        std::strtod(line.c_str() + d0 + std::strlen(kDur), nullptr);
    out[line.substr(name_begin, name_end - name_begin)].push_back(dur_us *
                                                                  1e-3);
  }
  return out;
}

std::map<std::string, std::vector<double>> with_library_trace(
    const std::string& path, const std::function<void()>& fn) {
  jigsaw::obs::trace_start();
  try {
    fn();
  } catch (...) {
    jigsaw::obs::trace_stop_write(path);
    throw;
  }
  jigsaw::obs::trace_stop_write(path);
  return read_library_trace(path);
}

double sum_ms(const std::map<std::string, std::vector<double>>& spans,
              const std::string& name) {
  const auto it = spans.find(name);
  if (it == spans.end()) return 0.0;
  double t = 0.0;
  for (const double d : it->second) t += d;
  return t;
}

std::map<std::string, std::uint64_t> counter_delta(
    const jigsaw::obs::Snapshot& before, const jigsaw::obs::Snapshot& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : after.counters) {
    const std::uint64_t b = before.counter(name);
    out[name] = value >= b ? value - b : 0;
  }
  return out;
}

double grid_counter(const std::map<std::string, std::uint64_t>& delta,
                    const std::string& field) {
  double total = 0.0;
  const std::string suffix = "." + field;
  for (const auto& [name, value] : delta) {
    if (name.rfind("grid.", 0) == 0 && name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

double counter(const std::map<std::string, std::uint64_t>& delta,
               const std::string& name) {
  const auto it = delta.find(name);
  return it == delta.end() ? 0.0 : static_cast<double>(it->second);
}

void core_layer_metrics(
    Result& r, const std::map<std::string, std::vector<double>>& spans,
    const std::map<std::string, std::vector<double>>& setup_spans,
    const std::map<std::string, std::uint64_t>& delta,
    const std::map<std::string, std::uint64_t>& run_delta, double ops) {
  const double adj_grid = sum_ms(spans, "nufft.adjoint.grid");
  const double fwd_grid = sum_ms(spans, "nufft.forward.grid");
  const double apod =
      sum_ms(spans, "nufft.adjoint.apod") + sum_ms(spans, "nufft.forward.apod");
  const double fft = sum_ms(spans, "fft.execute");
  const double interps = grid_counter(delta, "interpolations");
  const double luts = grid_counter(delta, "lut_lookups");
  const double samples = grid_counter(delta, "samples_in");

  r.metric("core.grid.adjoint_ms", ratio(adj_grid, ops), "ms");
  r.metric("core.grid.forward_ms", ratio(fwd_grid, ops), "ms");
  r.metric("core.nufft.apod_ms", ratio(apod, ops), "ms");
  r.metric("core.nufft.adjoint_self_ms",
           ratio(sum_ms(spans, "nufft.adjoint") - adj_grid -
                     sum_ms(spans, "nufft.adjoint.fft") -
                     sum_ms(spans, "nufft.adjoint.apod"),
                 ops),
           "ms");
  r.metric("core.nufft.grid_share",
           ratio(adj_grid + fwd_grid, adj_grid + fwd_grid + fft + apod),
           "ratio");
  std::vector<double> plans;
  for (const auto* s : {&setup_spans, &spans}) {
    const auto it = s->find("nufft.plan");
    if (it != s->end()) plans.insert(plans.end(), it->second.begin(),
                                     it->second.end());
  }
  r.metric("core.nufft.plan_build_ms", median(plans), "ms");
  r.metric("core.grid.interpolations", ratio(interps, ops), "count");
  r.metric("core.grid.boundary_checks",
           ratio(grid_counter(delta, "boundary_checks"), ops), "count");
  r.metric("kernels.lut_lookups", ratio(luts, ops), "count");
  // Computed, not measured: one c64 read-modify-write of the grid per
  // interpolation, one coordinate pair and one c64 value per sample, one
  // double per LUT lookup. Cache behaviour is not observed.
  r.metric("core.grid.bytes_computed",
           ratio(interps * 32.0 + samples * 32.0 + luts * 8.0, ops), "B");
  r.metric("core.grid.ns_per_interp",
           ratio((adj_grid + fwd_grid) * 1e6, interps), "ns");
  r.metric("fft.exec_ms", ratio(fft, ops), "ms");
  r.metric("fft.execs", ratio(counter(delta, "fft.execs"), ops), "count");
  const double hits = counter(run_delta, "fftcache.hits");
  r.metric("fft.cache_hit_ratio",
           ratio(hits, hits + counter(run_delta, "fftcache.misses")), "ratio");
  r.metric("common.pool.parallel_fors",
           ratio(counter(delta, "pool.parallel_fors"), ops), "count");
  r.metric("common.pool.tasks", ratio(counter(delta, "pool.tasks"), ops),
           "count");
  r.metric("common.pool.idle_ms",
           ratio(counter(delta, "pool.idle_ns") * 1e-6, ops), "ms");
}

// --- run context -------------------------------------------------------------

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned bench_threads() { return std::min(4u, nproc()); }

std::size_t llc_bytes() {
  long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : 0;
}

void add_context(Result& r) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  r.note("nproc", std::to_string(nproc()));
  r.note("bench_threads", std::to_string(bench_threads()));
  r.note("l2_bytes", std::to_string(std::max(0L, l2)));
  r.note("l3_bytes", std::to_string(std::max(0L, l3)));
  r.note("simd_isa",
         jigsaw::kernels::simd::to_string(jigsaw::kernels::simd::active()));
  r.note("jigsaw_obs", jigsaw::obs::kEnabled ? "ON" : "OFF");
  r.note("build_type", PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
