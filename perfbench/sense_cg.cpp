// sense-cg: one caller, closed loop, one core::cg_sense per op — 8 birdcage
// coils, N = 128, 96 radial spokes x 256 samples, coil lanes
// min(4, nproc), gridder threads 1, stopped at a fixed relative-residual
// tolerance. Per-coil forward+adjoint Gram applications dominate.
#include <cstring>
#include <numbers>

#include "core/recon.hpp"
#include "core/sense.hpp"
#include "fft/plan_cache.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kN = 128;
constexpr int kSpokes = 96;
constexpr int kSamplesPerSpoke = 256;
constexpr int kCoils = 8;
constexpr double kNoise = 0.01;       // per-coil noise std / RMS signal
constexpr double kTolerance = 5e-3;   // CG stop: relative residual
constexpr int kMaxIterations = 40;    // cap; the tolerance binds first
constexpr int kSetups = 3;
constexpr std::size_t kMinOps = 11;   // the fewest that define a tail
constexpr double kNrmseLimit = 0.25;

jigsaw::core::GridderOptions options() {
  jigsaw::core::GridderOptions o;  // library defaults, one gridder thread
  o.threads = 1;
  return o;
}

bool same_bits(const std::vector<c64>& a, const std::vector<c64>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(c64)) == 0;
}

}  // namespace

SenseCgInputs sense_cg_inputs(std::uint64_t seed) {
  using namespace jigsaw;
  SenseCgInputs in;
  const double angle =
      std::numbers::pi / kSpokes *
      (static_cast<double>(stream_seed(seed, "sense.angle") >> 11) * 0x1.0p-53);
  in.coords = rotate(trajectory::radial_2d(kSpokes, kSamplesPerSpoke), angle);
  const auto phantom = trajectory::shepp_logan();
  in.truth = trajectory::rasterize(phantom, kN);
  std::vector<c64> image(in.truth.begin(), in.truth.end());
  // Acquisition through the serial oracle engine, so the inputs do not
  // depend on the engine under test.
  core::GridderOptions gen = options();
  gen.kind = core::GridderKind::Serial;
  core::NufftPlan<2> plan(kN, in.coords, gen);
  in.y = core::simulate_multicoil(plan, core::make_birdcage_maps(kN, kCoils),
                                  image);
  for (int c = 0; c < kCoils; ++c) {
    add_noise(in.y[static_cast<std::size_t>(c)], kNoise,
              stream_seed(seed, "sense.noise." + std::to_string(c)));
  }
  return in;
}

Result run_sense_cg(const RunOptions& opt) {
  using namespace jigsaw;
  Result r;
  const SenseCgInputs in = sense_cg_inputs(opt.seed);
  const unsigned lanes = std::min<unsigned>(bench_threads(), kCoils);
  const std::size_t m = in.coords.size();
  // Per lane: coordinates, one coil's samples, the oversampled grid; plus
  // the maps, the data and CG's image-sized vectors.
  const std::size_t ws =
      lanes * (m * (sizeof(Coord<2>) + sizeof(c64)) +
               static_cast<std::size_t>(4 * kN * kN) * sizeof(c64)) +
      kCoils * (m + static_cast<std::size_t>(2 * kN * kN)) * sizeof(c64) +
      static_cast<std::size_t>(6 * kN * kN) * sizeof(c64);
  r.note("working_set_bytes", std::to_string(ws));
  r.note("working_set_over_llc",
         num(ratio(static_cast<double>(ws),
                              static_cast<double>(llc_bytes()))));
  r.note("geometry", "N=128 radial 96x256, 8 coils, coil_threads=" +
                         std::to_string(lanes) + ", tol=" +
                         num(kTolerance));

  std::unique_ptr<core::NufftPlan<2>> plan;
  std::unique_ptr<core::CoilMaps> maps;
  std::vector<c64> first;
  core::CgResult first_cg;
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int s = 0; s < kSetups; ++s) {
      plan.reset();
      maps.reset();
      fft::FftPlanCache::global().clear();
      const double t0 = now_s();
      plan = std::make_unique<core::NufftPlan<2>>(kN, in.coords, options());
      maps = std::make_unique<core::CoilMaps>(
          core::make_birdcage_maps(kN, kCoils));
      first = core::cg_sense(*plan, *maps, in.y, kMaxIterations, kTolerance,
                             &first_cg, lanes);
      setup_s.push_back(now_s() - t0);
    }
    r.note("cg_iterations", std::to_string(first_cg.iterations));
    r.note("cg_final_residual", num(first_cg.final_residual));
    r.check(first_cg.final_residual < kTolerance,
            "CG stopped at its iteration cap before the tolerance");
  };
  auto op = [&](std::uint64_t) {
    return same_bits(core::cg_sense(*plan, *maps, in.y, kMaxIterations,
                                    kTolerance, nullptr, lanes),
                     first);
  };
  // The decomposition the traced run times: SenseOperator's right-hand
  // side, then CG driven with its Gram operator.
  auto decomposed = [&](SpanLog* log, std::uint64_t id, long parent) {
    auto span = [&](const char* name, long par) {
      return log != nullptr ? static_cast<long>(log->begin(name, id, par)) : -1;
    };
    auto close = [&](long s) {
      if (log != nullptr) log->end(static_cast<std::size_t>(s));
    };
    long s = span("sense.operator", parent);
    const core::SenseOperator sense(*plan, *maps, lanes);
    close(s);
    s = span("sense.rhs", parent);
    const std::vector<c64> b = sense.adjoint(in.y);
    close(s);
    std::vector<c64> x(b.size(), c64{});
    const long cg = span("core.cg", parent);
    core::conjugate_gradient(
        [&](const std::vector<c64>& v) {
          const long g = span("sense.gram", cg);
          std::vector<c64> out = sense.gram(v);
          close(g);
          return out;
        },
        b, x, kMaxIterations, kTolerance);
    close(cg);
    return x;
  };
  // Output checks beyond the per-op comparison with op 0.
  double one_lane_s = 0.0;
  auto checks = [&] {
    const double t0 = now_s();
    const auto serial = core::cg_sense(*plan, *maps, in.y, kMaxIterations,
                                       kTolerance, nullptr, 1);
    one_lane_s = now_s() - t0;
    r.check(same_bits(serial, first),
            "cg_sense differs between 1 and " + std::to_string(lanes) +
                " coil lanes");
    r.check(same_bits(decomposed(nullptr, 0, -1), first),
            "SenseOperator + conjugate_gradient differs from cg_sense");
  };

  if (!opt.trace) {
    set_up();
    const ClosedLoop loop = closed_loop(opt.seconds, kMinOps, op);
    checks();
    const double nrmse = fitted_nrmse(first, in.truth);
    r.check(nrmse <= kNrmseLimit, "image NRMSE " + num(nrmse));
    closed_loop_metrics(r, loop, setup_s, nrmse);
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  const auto run0 = obs::snapshot();
  const auto setup_spans =
      with_library_trace(opt.out_dir + "/lib-setup-sense-cg.json", set_up);
  checks();
  const ClosedLoop plain = closed_loop(opt.seconds / 2, kMinOps, op);
  SpanLog log;
  const auto before = obs::snapshot();
  ClosedLoop traced;
  const auto spans =
      with_library_trace(opt.out_dir + "/lib-sense-cg.json", [&] {
        traced = closed_loop(opt.seconds / 2, kMinOps, [&](std::uint64_t id) {
          Scoped root(log, "op", id);
          return same_bits(decomposed(&log, id, root.index()), first);
        });
      });
  const auto after = obs::snapshot();
  r.attempted += plain.attempted + traced.attempted;
  r.failed += plain.failed + traced.failed;
  log.write(opt.out_dir + "/spans-sense-cg.json");

  const auto delta = counter_delta(before, after);
  const double ops = static_cast<double>(traced.attempted);
  core_layer_metrics(r, spans, setup_spans, delta, counter_delta(run0, after),
                     ops);
  r.metric("sense.cg_iterations", first_cg.iterations, "count");
  r.metric("sense.rhs_ms", ratio(log.total_ms("sense.rhs"), ops), "ms");
  r.metric("sense.gram_ms",
           ratio(log.total_ms("sense.gram"),
                 static_cast<double>(log.count("sense.gram"))),
           "ms");
  r.metric("sense.operator_ms", ratio(log.total_ms("sense.operator"), ops),
           "ms");
  r.metric("sense.cg_self_ms", ratio(log.self_ms("core.cg"), ops), "ms");
  r.metric("sense.coil_transforms",
           ratio(counter(delta, "sense.coil_transforms"), ops), "count");
  r.metric("bench.op_self_ms", ratio(log.self_ms("op"), ops), "ms");
  r.metric("common.scaling_1t_over_nt",
           ratio(one_lane_s * 1e3, median(plain.latency_ms)), "ratio");
  r.metric("bench.trace_overhead_ratio",
           ratio(median(traced.latency_ms), median(plain.latency_ms)),
           "ratio");
  return r;
}

}  // namespace perfbench
