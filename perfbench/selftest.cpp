// Checks of the benchmark's own helpers: the tail-percentile rule and its
// sample count, ratio bases, due-time latency under an injected generator
// stall, span self time, and seeded input generation (the same seed gives
// identical inputs, another seed different ones).
//
//   perfbench_selftest        exit 0 when every check passes
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
  }
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

void test_tail_rule() {
  using perfbench::tail_of;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const auto t = tail_of(v);
  expect(t.valid && t.value == 90.0, "tail of 1..100 is the 90th value");
  expect(near(t.percentile, 90.0, 1e-12), "tail of 100 samples is p90");
  expect(t.beyond == 10 && t.count == 100, "tail reports 10 beyond of 100");
  const auto t11 = tail_of(std::vector<double>(v.end() - 11, v.end()));
  expect(t11.valid && t11.value == 1.0 && t11.beyond == 10,
         "11 samples: the tail is the minimum, 10 beyond");
  expect(!tail_of(std::vector<double>(10, 1.0)).valid,
         "10 samples support no tail");
  const auto t1000 = tail_of(std::vector<double>(1000, 2.0));
  expect(near(t1000.percentile, 99.0, 1e-12), "1000 samples give p99");
  expect(perfbench::median({3, 1, 2}) == 2.0 &&
             perfbench::median({4, 1, 2, 3}) == 2.5,
         "median of odd and even samples");
}

void test_windowed_tail() {
  // Five 1-second windows of 1..100 ms; window 3 also holds 50 samples of
  // 10 s. The whole-run tail lands in the outliers, the windowed one not.
  std::vector<std::pair<double, double>> series;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) series.push_back({w + i * 0.005, i});
    if (w == 3) {
      for (int i = 0; i < 50; ++i) series.push_back({w + 0.5, 10000.0});
    }
  }
  std::vector<double> all;
  for (const auto& s : series) all.push_back(s.second);
  const auto whole = perfbench::tail_of(all);
  const auto win = perfbench::windowed_tail(series, 0.0, 5.0, 5);
  expect(whole.value == 10000.0, "whole-run tail sits in the outliers");
  expect(win.valid && win.value == 90.0 && near(win.percentile, 90.0, 1e-12),
         "windowed tail is the median of per-window p90s");
  expect(win.count == series.size(), "windowed tail counts every sample");
  const auto sparse = perfbench::windowed_tail({{0.1, 1.0}}, 0.0, 5.0, 5);
  expect(!sparse.valid, "too few samples per window gives no tail");
  // steady_tail: one window per 100 samples, at most five.
  expect(perfbench::steady_tail(series).windows == 5, "550 samples: 5 windows");
  std::vector<std::pair<double, double>> short_run(series.begin(),
                                                   series.begin() + 250);
  expect(perfbench::steady_tail(short_run).windows == 2,
         "250 samples: 2 windows");
  std::vector<std::pair<double, double>> tiny(series.begin(),
                                              series.begin() + 40);
  const auto t40 = perfbench::steady_tail(tiny);
  expect(t40.windows == 1 && t40.valid && t40.value == 30.0,
         "40 samples: the whole run's p75");
}

void test_ratio_bases() {
  using perfbench::ratio;
  expect(ratio(3, 4) == 0.75, "3 over a base of 4");
  expect(ratio(5, 0) == 0.0, "an empty base gives 0, not inf");
  const double hits = 3, misses = 1;
  expect(ratio(hits, hits + misses) == 0.75,
         "hit ratio's base is hits + misses");
}

void test_due_time_latency() {
  // Five ops due 10 ms apart; the send of op 1 stalls for 60 ms. Every
  // reply arrives the instant its send returns, so all latency beyond the
  // schedule is the generator's own stall.
  const std::vector<double> due = {0.00, 0.01, 0.02, 0.03, 0.04};
  std::vector<perfbench::OpRecord> rec(due.size());
  perfbench::pace(
      due, perfbench::now_s() + 0.005,
      [&](std::size_t i) {
        if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(60));
        rec[i].done_s = perfbench::now_s();
      },
      rec);
  expect(rec[0].lag_ms() < 20.0, "op 0 is sent on time");
  expect(rec[1].latency_ms() >= 55.0, "the stalled op pays its own stall");
  expect(rec[2].lag_ms() >= 40.0 && rec[2].latency_ms() >= 40.0,
         "op 2 is charged from its due time, not its send time");
  expect(rec[4].lag_ms() >= 20.0 && rec[4].latency_ms() >= 20.0,
         "the stall reaches op 4");
  expect(rec[2].done_s - rec[2].sent_s < 0.02,
         "op 2's send-to-reply time hides the stall");
}

void test_poisson() {
  const auto a = perfbench::poisson_arrivals(100.0, 50.0, 7);
  const auto b = perfbench::poisson_arrivals(100.0, 50.0, 7);
  const auto c = perfbench::poisson_arrivals(100.0, 50.0, 8);
  expect(a == b, "poisson arrivals repeat for one seed");
  expect(a != c, "poisson arrivals change with the seed");
  expect(std::fabs(static_cast<double>(a.size()) - 5000.0) < 5 * 71,
         "poisson count within 5 sigma of rate x duration");
  expect(std::is_sorted(a.begin(), a.end()) && a.front() >= 0.0 &&
             a.back() < 50.0,
         "arrivals ascend inside the window");
}

void test_span_self_time() {
  perfbench::SpanLog log;
  const long root = static_cast<long>(log.add("op", 0, -1, 0.000, 0.010));
  log.add("a", 0, root, 0.001, 0.003);
  log.add("b", 0, root, 0.002, 0.005);  // overlaps a
  log.add("c", 0, root, 0.007, 0.008);
  expect(near(log.self_ms("op"), 5.0, 1e-9),
         "self time = duration minus the union of children");
  expect(near(log.total_ms("op"), 10.0, 1e-9) && log.count("op") == 1,
         "span total and count");
}

void test_numerics() {
  std::vector<double> truth = {0.0, 1.0, 2.0, 0.5};
  std::vector<jigsaw::c64> recon;
  for (double t : truth) recon.push_back(jigsaw::c64(0, 3.0) * t);
  expect(perfbench::fitted_nrmse(recon, truth) < 1e-12,
         "fitted NRMSE ignores a global complex scale");
  const auto r = perfbench::rotate({{0.49, 0.49}, {-0.5, 0.0}}, 0.3);
  bool inside = true;
  for (const auto& c : r) {
    for (double v : c) inside = inside && v >= -0.5 && v < 0.5;
  }
  expect(inside, "rotated coordinates stay on the torus");
}

void test_seeds() {
  using namespace perfbench;
  const auto p1 = paper_adjoint_inputs(11), p2 = paper_adjoint_inputs(11),
             p3 = paper_adjoint_inputs(12);
  expect(same_bits(p1.coords, p2.coords) && same_bits(p1.values, p2.values),
         "paper-adjoint: one seed, identical inputs");
  expect(!same_bits(p1.coords, p3.coords) && !same_bits(p1.values, p3.values),
         "paper-adjoint: another seed changes coordinates and values");

  const auto s1 = sense_cg_inputs(11), s2 = sense_cg_inputs(11),
             s3 = sense_cg_inputs(12);
  bool same = same_bits(s1.coords, s2.coords), differ =
      !same_bits(s1.coords, s3.coords);
  for (std::size_t c = 0; c < s1.y.size(); ++c) {
    same = same && same_bits(s1.y[c], s2.y[c]);
    differ = differ && !same_bits(s1.y[c], s3.y[c]);
  }
  expect(same, "sense-cg: one seed, identical inputs");
  expect(differ, "sense-cg: another seed changes every coil's data");

  const auto t1 = stream_serve_inputs(11, 2.0),
             t2 = stream_serve_inputs(11, 2.0),
             t3 = stream_serve_inputs(12, 2.0);
  same = t1.oneshot_due == t2.oneshot_due &&
         t1.oneshot_class == t2.oneshot_class &&
         t1.frame_coords.size() == t2.frame_coords.size();
  for (std::size_t f = 0; same && f < t1.frame_coords.size(); ++f) {
    same = same_bits(t1.frame_coords[f], t2.frame_coords[f]) &&
           same_bits(t1.frame_values[f], t2.frame_values[f]);
  }
  for (std::size_t c = 0; same && c < t1.class_coords.size(); ++c) {
    same = same_bits(t1.class_values[c], t2.class_values[c]);
  }
  expect(same, "stream-serve: one seed, identical inputs and schedule");
  expect(t1.oneshot_due != t3.oneshot_due &&
             !same_bits(t1.frame_values[1], t3.frame_values[1]) &&
             !same_bits(t1.class_coords[0], t3.class_coords[0]),
         "stream-serve: another seed changes schedule, frames and classes");
}

}  // namespace

int main() {
  test_tail_rule();
  test_windowed_tail();
  test_ratio_bases();
  test_due_time_latency();
  test_poisson();
  test_span_self_time();
  test_numerics();
  test_seeds();
  std::printf("perfbench_selftest: %s (%d failed)\n",
              failures == 0 ? "ok" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
