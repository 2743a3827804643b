// Shared pieces of the repository benchmark: run options and results, the
// statistics helpers every workload reports through, seeded input helpers,
// the benchmark's own span log, library-trace and counter readers, and the
// run-context block.
//
// Nothing here is called from the library: the benchmark drives the library
// and the serve tier from outside, through their public headers only.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace perfbench {

using jigsaw::c64;
using jigsaw::Coord;

// --- run options and result -------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  // where the traced run writes its span files
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = every check passed
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  // context lines

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

// --- statistics ---------------------------------------------------------

double median(std::vector<double> v);

/// The tail a sample supports: the highest percentile with at least
/// kTailBeyond samples strictly above it. For n sorted samples that is the
/// value at rank n - kTailBeyond - 1, the (n - kTailBeyond) / n quantile.
inline constexpr std::size_t kTailBeyond = 10;
struct Tail {
  bool valid = false;      // false when n <= kTailBeyond
  double value = 0.0;
  double percentile = 0.0;  // in percent
  std::size_t beyond = 0;   // samples above the reported value
  std::size_t count = 0;    // samples the tail was taken from
  int windows = 1;          // sub-windows it is the median over
};
Tail tail_of(std::vector<double> v);

/// The tail of a timed series split into `windows` equal sub-windows of
/// [t0, t1) by each sample's time: the median over the sub-windows of
/// tail_of() of each. Steadier than one tail over the whole run, which
/// rests on its ten most extreme samples. `count` is the total sample
/// count; `percentile` the median of the sub-windows' percentiles.
Tail windowed_tail(const std::vector<std::pair<double, double>>& at_value,
                   double t0, double t1, int windows);

/// The tail every workload reports: windowed_tail() over sub-windows of at
/// least kTailWindowSamples samples each, at most kTailWindows of them (one
/// window, the whole run, when the run has fewer samples than that).
inline constexpr int kTailWindows = 5;
inline constexpr std::size_t kTailWindowSamples = 100;
Tail steady_tail(const std::vector<std::pair<double, double>>& at_value);

/// "median over K sub-windows of pXX (10 beyond), N samples" for the
/// context line.
std::string describe(const Tail& t);

/// num / base, or 0 when the base is empty (a layer that did no work).
double ratio(double num, double base);

/// One operation of an open-loop run. Latency counts from the time the op
/// was due, so a stalled generator charges its stall to every op it delays.
struct OpRecord {
  double due_s = 0.0;   // scheduled send time
  double sent_s = 0.0;  // when the send call started
  double done_s = -1.0;  // reply received (< 0: never)
  bool ok = false;
  double latency_ms() const { return (done_s - due_s) * 1e3; }
  double lag_ms() const { return (sent_s - due_s) * 1e3; }
};

/// Walk `due` (seconds from `t0`, ascending) on the calling thread: sleep
/// until each op is due, record when its send started, then call
/// `send(i)`. A send that blocks delays the ops behind it; their records
/// keep their original due times.
void pace(const std::vector<double>& due, double t0,
          const std::function<void(std::size_t)>& send,
          std::vector<OpRecord>& records);

/// Poisson arrival times in [0, end) at `rate` per second.
std::vector<double> poisson_arrivals(double rate, double end,
                                     std::uint64_t seed);

/// Closed-loop measurement: one caller runs `op` back to back until
/// `seconds` have passed and at least `min_ops` ops have run. `op` returns
/// whether its output passed the workload's check.
struct ClosedLoop {
  std::vector<double> latency_ms;  // every op, in order
  std::vector<double> start_s;     // when each op started
  double elapsed_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // op threw or its output failed the check
};
ClosedLoop closed_loop(double seconds, std::size_t min_ops,
                       const std::function<bool(std::uint64_t)>& op);

/// The end-to-end metrics of a closed-loop workload. Every op is a one-shot
/// call there, so the oneshot_* metrics repeat latency_*, and with no
/// latency limit an op is on time exactly when it succeeded.
void closed_loop_metrics(Result& r, const ClosedLoop& loop,
                         const std::vector<double>& setup_s, double nrmse);

// --- clocks and numerics -----------------------------------------------

/// Seconds on the steady clock.
double now_s();

/// Relative L2 distance ||a - b|| / ||b||.
double rel_l2(const std::vector<c64>& a, const std::vector<c64>& b);

/// NRMSE of a complex image against a real ground truth after the
/// least-squares complex scalar fit (removes the global scale and phase an
/// adjoint or a CG solve is free to introduce).
double fitted_nrmse(const std::vector<c64>& recon,
                    const std::vector<double>& truth);

/// Rotate coordinates about the k-space center by `angle` and wrap each
/// component back onto the torus [-0.5, 0.5).
std::vector<Coord<2>> rotate(const std::vector<Coord<2>>& coords,
                             double angle);

/// Add complex Gaussian noise of standard deviation `rel` times the RMS of
/// `values`, drawn from `seed`.
void add_noise(std::vector<c64>& values, double rel, std::uint64_t seed);

/// A seed for one named input stream of a workload: distinct streams of
/// one run never share random numbers.
std::uint64_t stream_seed(std::uint64_t seed, const std::string& stream);

/// A number for a context note: six significant digits.
std::string num(double v);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// --- the benchmark's own spans -------------------------------------------

/// In-memory span log. Every span carries the id of the op it belongs to
/// and the index of its parent span (-1 for an op's root). Written out as a
/// chrome trace when the run ends.
class SpanLog {
 public:
  std::size_t begin(const std::string& name, std::uint64_t op,
                    long parent = -1);
  void end(std::size_t span);
  /// Record a span whose interval was measured elsewhere (seconds on the
  /// now_s() clock), e.g. an op that began on one thread and ended on
  /// another.
  std::size_t add(const std::string& name, std::uint64_t op, long parent,
                  double t0, double t1);

  /// Sum of durations of spans named `name`, in ms.
  double total_ms(const std::string& name) const;
  /// Number of spans named `name`.
  std::size_t count(const std::string& name) const;
  /// Sum over spans named `name` of their self time: duration minus the
  /// union of their children's intervals, in ms.
  double self_ms(const std::string& name) const;

  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    long parent = -1;
    double t0 = 0.0;
    double t1 = 0.0;
  };
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog.
class Scoped {
 public:
  Scoped(SpanLog& log, const std::string& name, std::uint64_t op,
         long parent = -1)
      : log_(log), index_(log.begin(name, op, parent)) {}
  ~Scoped() { log_.end(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  long index() const { return static_cast<long>(index_); }

 private:
  SpanLog& log_;
  std::size_t index_;
};

// --- library trace and counters -------------------------------------------

/// Span totals read back from a chrome trace the library's obs tracer wrote
/// (obs::trace_stop_write): name -> durations in ms.
std::map<std::string, std::vector<double>> read_library_trace(
    const std::string& path);

/// Arm the library's tracer, run `fn`, write the library spans to `path`
/// and return them.
std::map<std::string, std::vector<double>> with_library_trace(
    const std::string& path, const std::function<void()>& fn);

double sum_ms(const std::map<std::string, std::vector<double>>& spans,
              const std::string& name);

/// after - before for every counter (counters absent before count from 0).
std::map<std::string, std::uint64_t> counter_delta(
    const jigsaw::obs::Snapshot& before, const jigsaw::obs::Snapshot& after);

/// Sum of the delta counters named "grid.<engine>.<field>" over engines.
double grid_counter(const std::map<std::string, std::uint64_t>& delta,
                    const std::string& field);

double counter(const std::map<std::string, std::uint64_t>& delta,
               const std::string& name);

/// Per-layer metrics every workload derives the same way from one traced
/// phase: library span times, obs counter deltas and plan builds, each per
/// op (`ops` operations ran in the phase).
void core_layer_metrics(
    Result& r, const std::map<std::string, std::vector<double>>& spans,
    const std::map<std::string, std::vector<double>>& setup_spans,
    const std::map<std::string, std::uint64_t>& delta,
    const std::map<std::string, std::uint64_t>& run_delta, double ops);

// --- run context ------------------------------------------------------------

/// nproc, cache sizes, SIMD ISA, obs state and build type as notes.
void add_context(Result& r);

/// Threads the benchmark gives a parallel layer: min(4, nproc).
unsigned bench_threads();

/// Online processors this process may run on.
unsigned nproc();

/// Last-level cache size in bytes (0 when unknown).
std::size_t llc_bytes();

}  // namespace perfbench
