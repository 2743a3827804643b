// paper-adjoint: one caller, closed loop, one NufftPlan<2>::adjoint per op
// at the paper's Image3 geometry (N = 192, M = 262,144 spiral samples in
// acquisition order). No CG, coils, serve tier or plan rebuilds: gridding,
// kernel, FFT and executor changes show here and nowhere else.
#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/nufft.hpp"
#include "fft/plan_cache.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kN = 192;
constexpr std::int64_t kM = 262144;
constexpr double kNoise = 0.01;        // noise std / RMS signal
constexpr int kSetups = 3;             // set-ups per run; setup_s is the median
constexpr std::size_t kMinOps = 21;    // a p50 tail or better
constexpr double kOracleTol = 1e-9;    // rel-L2 against the serial oracle
constexpr double kRepeatTol = 1e-9;    // rel-L2 of every op against op 0
constexpr double kNrmseLimit = 0.45;   // image error against the phantom
constexpr int kScalingOps = 5;         // traced run: ops per thread count

jigsaw::core::GridderOptions options(unsigned threads) {
  jigsaw::core::GridderOptions o;  // library defaults: slice-dice W6 s2 L32 T8
  o.threads = threads;
  return o;
}

}  // namespace

PaperAdjointInputs paper_adjoint_inputs(std::uint64_t seed) {
  using namespace jigsaw;
  PaperAdjointInputs in;
  const double angle =
      2.0 * std::numbers::pi *
      (static_cast<double>(stream_seed(seed, "paper.angle") >> 11) * 0x1.0p-53);
  in.coords = rotate(
      trajectory::make_2d(trajectory::TrajectoryType::Spiral, kM), angle);
  const auto phantom = trajectory::shepp_logan();
  in.values = trajectory::kspace_samples(phantom, in.coords, kN);
  add_noise(in.values, kNoise, stream_seed(seed, "paper.noise"));
  // Density compensation for the Archimedean spiral: sample density falls
  // as 1/|k|, so weight each sample by |k| (floored at one grid cell).
  double mean_w = 0.0;
  std::vector<double> w(in.coords.size());
  for (std::size_t j = 0; j < w.size(); ++j) {
    w[j] = std::max(std::hypot(in.coords[j][0], in.coords[j][1]),
                    0.5 / static_cast<double>(kN));
    mean_w += w[j];
  }
  mean_w /= static_cast<double>(w.size());
  for (std::size_t j = 0; j < w.size(); ++j) in.values[j] *= w[j] / mean_w;
  in.truth = trajectory::rasterize(phantom, kN);
  return in;
}

Result run_paper_adjoint(const RunOptions& opt) {
  using namespace jigsaw;
  Result r;
  const PaperAdjointInputs in = paper_adjoint_inputs(opt.seed);
  const unsigned threads = bench_threads();
  const std::size_t ws = in.coords.size() * (sizeof(Coord<2>) + sizeof(c64)) +
                         static_cast<std::size_t>(4 * kN * kN) * sizeof(c64) +
                         static_cast<std::size_t>(kN * kN) * sizeof(c64);
  r.note("working_set_bytes", std::to_string(ws));
  r.note("working_set_over_llc",
         num(ratio(static_cast<double>(ws),
                              static_cast<double>(llc_bytes()))));
  r.note("geometry", "N=192 M=" + std::to_string(in.coords.size()) +
                         " spiral, slice-dice W6 sigma2 L32 T8, threads=" +
                         std::to_string(threads));

  // Set-up: plan (gridder, LUT, FFT plan, apodization) and the first op.
  // The FFT plan cache is emptied first so every set-up builds its plan.
  std::unique_ptr<core::NufftPlan<2>> plan;
  std::vector<c64> first;
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int s = 0; s < kSetups; ++s) {
      plan.reset();
      fft::FftPlanCache::global().clear();
      const double t0 = now_s();
      plan = std::make_unique<core::NufftPlan<2>>(kN, in.coords,
                                                  options(threads));
      first = plan->adjoint(in.values);
      setup_s.push_back(now_s() - t0);
    }
  };

  // Correctness of the first op: the serial oracle, then the phantom.
  auto check_first = [&] {
    core::GridderOptions oracle_opt = options(1);
    oracle_opt.kind = core::GridderKind::Serial;
    core::NufftPlan<2> oracle(kN, in.coords, oracle_opt);
    const double err = rel_l2(first, oracle.adjoint(in.values));
    r.note("oracle_rel_l2", num(err));
    r.check(err <= kOracleTol, "first op differs from the serial oracle by "
                                   "rel-L2 " + num(err));
  };
  auto op = [&](std::uint64_t) {
    const std::vector<c64> img = plan->adjoint(in.values);
    return rel_l2(img, first) <= kRepeatTol;
  };

  if (!opt.trace) {
    set_up();
    const ClosedLoop loop = closed_loop(opt.seconds, kMinOps, op);
    check_first();
    const double nrmse = fitted_nrmse(first, in.truth);
    r.check(nrmse <= kNrmseLimit, "image NRMSE " + num(nrmse));
    closed_loop_metrics(r, loop, setup_s, nrmse);
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // Traced run: set-up under the library tracer (plan-build spans), an
  // untraced half, then a traced half with the benchmark's spans, library
  // spans and per-op counter deltas.
  const auto run0 = obs::snapshot();
  const auto setup_spans = with_library_trace(
      opt.out_dir + "/lib-setup-paper-adjoint.json", set_up);
  check_first();
  const ClosedLoop plain = closed_loop(opt.seconds / 2, kMinOps, op);
  SpanLog log;
  const auto before = obs::snapshot();
  ClosedLoop traced;
  const auto spans = with_library_trace(
      opt.out_dir + "/lib-paper-adjoint.json", [&] {
        traced = closed_loop(opt.seconds / 2, kMinOps, [&](std::uint64_t id) {
          Scoped root(log, "op", id);
          std::vector<c64> img;
          {
            Scoped s(log, "core.nufft.adjoint", id, root.index());
            img = plan->adjoint(in.values);
          }
          Scoped s(log, "bench.check", id, root.index());
          return rel_l2(img, first) <= kRepeatTol;
        });
      });
  const auto after = obs::snapshot();
  r.attempted += plain.attempted + traced.attempted;
  r.failed += plain.failed + traced.failed;
  log.write(opt.out_dir + "/spans-paper-adjoint.json");

  const double ops = static_cast<double>(traced.attempted);
  core_layer_metrics(r, spans, setup_spans, counter_delta(before, after),
                     counter_delta(run0, after), ops);
  r.metric("bench.op_self_ms", ratio(log.self_ms("op"), ops), "ms");

  // Strong scaling of the same op: 1 thread over bench_threads().
  core::NufftPlan<2> serial_plan(kN, in.coords, options(1));
  std::vector<double> one, many;
  for (int i = 0; i < kScalingOps; ++i) {
    double t0 = now_s();
    serial_plan.adjoint(in.values);
    one.push_back(now_s() - t0);
    t0 = now_s();
    plan->adjoint(in.values);
    many.push_back(now_s() - t0);
  }
  r.metric("common.scaling_1t_over_nt", ratio(median(one), median(many)),
           "ratio");
  r.metric("bench.trace_overhead_ratio",
           ratio(median(traced.latency_ms), median(plain.latency_ms)),
           "ratio");
  return r;
}

}  // namespace perfbench
