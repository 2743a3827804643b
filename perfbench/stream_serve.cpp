// stream-serve: open loop against in-process ReconServer workers on
// loopback TCP behind an in-process Router (the bench_stream topology).
// Three traffic classes at fixed rates:
//
//   * one golden-angle streaming session (N = 64, 13/34 sliding window,
//     warm start), one frame due every kFramePeriod;
//   * Poisson one-shot adjoint requests (N = 96, ~8k samples) over four
//     trajectory classes, through the router;
//   * by-reference dataset requests against a JKSD file made at set-up,
//     sent direct to worker 0 (the router does not relay them).
//
// Compute per op is small, so admission, plan pool, batching, protocol,
// router, warm start and dataset handling dominate. Every op is timed from
// the moment it was due. The generator is this thread (sends), one
// receiver thread (polls every connection) and one statsz sampler.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <numbers>
#include <thread>

#include "common/rng.hpp"
#include "core/nufft.hpp"
#include "data/synthetic.hpp"
#include "fft/plan_cache.hpp"
#include "serve/client.hpp"
#include "serve/router.hpp"
#include "serve/server.hpp"
#include "stream/frame_source.hpp"
#include "trajectory/phantom.hpp"
#include "trajectory/trajectory.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace jigsaw;

constexpr int kWorkers = 2;
constexpr int kSetups = 3;
// Streaming session.
constexpr int kFrameN = 64;
constexpr double kFramePeriod = 0.100;   // s; also the frame latency limit
constexpr int kFrameIters = 30;          // CG cap per frame
constexpr double kServeTolerance = 1e-3;  // worker CG tolerance
constexpr double kFrameNrmseLimit = 0.60;
// One-shot adjoints.
constexpr int kOneshotN = 96;
constexpr std::int64_t kOneshotM = 8192;
constexpr double kOneshotRate = 10.0;    // Poisson arrivals per second
constexpr double kOneshotLimitMs = 100.0;
constexpr double kOracleTol = 1e-9;
// Dataset requests.
constexpr double kDatasetPeriod = 2.0;   // s between dataset requests
constexpr double kDatasetLimitMs = 1000.0;
constexpr double kDatasetNrmseLimit = 0.5;
// Noise on every class, relative to the RMS signal.
constexpr double kNoise = 0.01;
// Backlog: over the last fifth of a window the mean worker queue depth and
// the mean number of unanswered ops may exceed the first fifth's by at
// most these many; the generator may fall at most kMaxLagMs behind.
constexpr double kQueueSlack = 4.0;
constexpr double kInFlightSlack = 8.0;
constexpr double kMaxLagMs = 500.0;
constexpr double kDrainTimeout = 15.0;   // s to wait for late replies

const trajectory::TrajectoryType kClasses[] = {
    trajectory::TrajectoryType::Radial, trajectory::TrajectoryType::Spiral,
    trajectory::TrajectoryType::GoldenRadial,
    trajectory::TrajectoryType::Rosette};
constexpr int kNumClasses = 4;

enum class Kind { Frame, Oneshot, Dataset };

double seeded_angle(std::uint64_t seed, const std::string& stream) {
  return 2.0 * std::numbers::pi *
         (static_cast<double>(stream_seed(seed, stream) >> 11) * 0x1.0p-53);
}

// The worker fleet, router and the four generator connections.
struct Fleet {
  std::vector<std::unique_ptr<serve::ReconServer>> workers;
  std::vector<std::string> worker_specs;
  std::unique_ptr<serve::Router> router;
  std::string router_spec;
  std::unique_ptr<serve::ServeClient> frames;     // router, session frames
  std::unique_ptr<serve::ServeClient> oneshot[2];  // router, one-shots
  std::unique_ptr<serve::ServeClient> data;       // worker 0, datasets
  std::uint64_t session = 0;

  ~Fleet() {
    frames.reset();
    oneshot[0].reset();
    oneshot[1].reset();
    data.reset();
    if (router) router->stop();
    for (auto& w : workers) w->stop();
  }
};

struct Op {
  Kind kind = Kind::Frame;
  std::size_t index = 0;  // frame index / one-shot index / dataset index
  OpRecord rec;
  double send_end_s = 0.0;
  double recv_begin_s = 0.0;
  // Frame replies.
  std::uint32_t iterations = 0;
  std::uint32_t flags = 0;
  double nrmse = 0.0;
};

struct Window {
  std::vector<Op> ops;
  // Sampled every 50 ms while sending: admission queue depth summed over
  // the workers (statsz), and ops sent but not yet answered.
  std::vector<double> queue_depth;
  std::vector<double> in_flight;
  double queue_depth_max = 0.0;
  std::vector<std::string> failures;  // output checks that failed
};

serve::ReconRequestWire oneshot_request(const StreamServeInputs& in, int cls,
                                        std::uint64_t tag) {
  serve::ReconRequestWire w;
  w.engine = static_cast<std::uint32_t>(core::GridderKind::SliceDice);
  w.n = kOneshotN;
  w.iters = 0;
  w.coils = 1;
  w.client_tag = tag;
  w.coords = in.class_coords[static_cast<std::size_t>(cls)];
  w.values = in.class_values[static_cast<std::size_t>(cls)];
  return w;
}

serve::OpenSessionWire open_session_request() {
  serve::OpenSessionWire open;
  open.engine = static_cast<std::uint32_t>(core::GridderKind::SliceDice);
  open.n = kFrameN;
  open.iters = kFrameIters;
  open.warm_start = 1;
  return open;
}

// The worker index the router's rendezvous hashing sends `key` to.
int home_worker(std::uint64_t key) {
  int best = 0;
  for (int w = 1; w < kWorkers; ++w) {
    if (serve::Router::rendezvous_score(key, static_cast<std::size_t>(w)) >
        serve::Router::rendezvous_score(key, static_cast<std::size_t>(best))) {
      best = w;
    }
  }
  return best;
}

serve::PushFrameWire frame_push(const StreamServeInputs& in,
                                std::uint64_t session, std::size_t f) {
  serve::PushFrameWire p;
  p.session_id = session;
  p.frame_index = f;
  p.client_tag = f;
  p.coords = in.frame_coords[f];
  p.values = in.frame_values[f];
  return p;
}

serve::DatasetRequestWire dataset_request(const std::string& path,
                                          std::uint64_t tag) {
  serve::DatasetRequestWire d;
  d.engine = static_cast<std::uint32_t>(core::GridderKind::SliceDice);
  d.iters = 0;
  d.dcf = 2;  // Pipe-Menon
  d.client_tag = tag;
  d.path = path;
  return d;
}

// "... mean NRMSE <x>" from a dataset reply message (-1 when absent).
double dataset_nrmse(const std::string& message) {
  const auto at = message.find("mean NRMSE ");
  if (at == std::string::npos) return -1.0;
  return std::strtod(message.c_str() + at + 11, nullptr);
}

bool dataset_clean(const std::string& message) {
  return message.find(" 0 rejected") != std::string::npos;
}

// One statsz number: the first `"key": <n>` after `section` in the body
// (from the top when `section` is empty).
double statsz_field(const std::string& json, const std::string& section,
                    const std::string& key) {
  std::size_t s = 0;
  if (!section.empty()) {
    s = json.find("\"" + section + "\"");
    if (s == std::string::npos) return 0.0;
  }
  const auto k = json.find("\"" + key + "\":", s);
  if (k == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + k + key.size() + 3, nullptr);
}

// Admission queue depth summed over the workers, read through statsz.
double queue_depth(const Fleet& fleet) {
  double depth = 0.0;
  for (const auto& w : fleet.workers) {
    depth += statsz_field(w->engine().statsz_json(), "", "queue_depth");
  }
  return depth;
}

struct ServeTotals {
  double plan_hits = 0, plan_builds = 0, batches = 0, jobs = 0, rejected = 0;
};

ServeTotals serve_totals(const Fleet& fleet) {
  ServeTotals t;
  for (const auto& w : fleet.workers) {
    const std::string j = w->engine().statsz_json();
    t.plan_hits += statsz_field(j, "scheduler", "plan_hits");
    t.plan_builds += statsz_field(j, "scheduler", "plan_builds");
    t.batches += statsz_field(j, "scheduler", "batches");
    t.jobs += statsz_field(j, "requests", "ok") +
              statsz_field(j, "requests", "error") +
              statsz_field(j, "requests", "timeout") +
              statsz_field(j, "requests", "sanitized_partial");
    t.rejected += statsz_field(j, "requests", "rejected") +
                  statsz_field(j, "sessions", "frames_rejected");
  }
  return t;
}

class StreamServe {
 public:
  StreamServe(const RunOptions& opt, Result& r)
      : r_(r), in_(stream_serve_inputs(opt.seed, opt.seconds)) {
    dataset_path_ = opt.out_dir + "/stream-serve-" +
                    std::to_string(opt.seed) + ".jksd";
    data::SyntheticOptions so;
    so.n = 48;
    so.coils = 4;
    so.chunks = 2;
    so.noise = kNoise;
    so.seed = stream_seed(opt.seed, "stream.dataset");
    data::generate_synthetic(dataset_path_, so);
    // Serial-oracle images of every one-shot class.
    core::GridderOptions oracle;
    oracle.kind = core::GridderKind::Serial;
    for (int c = 0; c < kNumClasses; ++c) {
      core::NufftPlan<2> plan(kOneshotN,
                              in_.class_coords[static_cast<std::size_t>(c)],
                              oracle);
      oracle_.push_back(
          plan.adjoint(in_.class_values[static_cast<std::size_t>(c)]));
    }
  }

  // Start the fleet, open the session, and complete the first op of every
  // class. Returns the elapsed seconds.
  double set_up() {
    fleet_.reset();
    fft::FftPlanCache::global().clear();
    const double t0 = now_s();
    auto f = std::make_unique<Fleet>();
    for (int w = 0; w < kWorkers; ++w) {
      serve::ServeConfig config;
      config.listen = "127.0.0.1:0";
      config.cg_tolerance = kServeTolerance;
      f->workers.push_back(std::make_unique<serve::ReconServer>(config));
      f->workers.back()->start();
      f->worker_specs.push_back(
          serve::to_string(f->workers.back()->bound_endpoints().front()));
    }
    serve::RouterConfig rc;
    rc.listen = "127.0.0.1:0";
    rc.workers = f->worker_specs;
    f->router = std::make_unique<serve::Router>(rc);
    f->router->start();
    f->router_spec = serve::to_string(f->router->bound_endpoints().front());
    f->frames = std::make_unique<serve::ServeClient>(f->router_spec);
    f->oneshot[0] = std::make_unique<serve::ServeClient>(f->router_spec);
    f->oneshot[1] = std::make_unique<serve::ServeClient>(f->router_spec);
    f->data = std::make_unique<serve::ServeClient>(f->worker_specs[0]);

    const auto opened = f->frames->open_session(open_session_request());
    r_.check(opened.status == serve::Status::kOk,
             "open_session: " + opened.message);
    f->session = opened.session_id;
    const auto fr = f->frames->push_frame(frame_push(in_, f->session, 0));
    r_.check(fr.status == serve::Status::kOk, "set-up frame: " + fr.message);
    for (int c = 0; c < kNumClasses; ++c) {
      const auto rep = f->oneshot[0]->recon(oneshot_request(in_, c, 0));
      r_.check(rep.status == serve::Status::kOk &&
                   rel_l2(rep.image, oracle_[static_cast<std::size_t>(c)]) <=
                       kOracleTol,
               "set-up one-shot class " + std::to_string(c));
    }
    const auto ds = f->data->recon_dataset(dataset_request(dataset_path_, 0));
    r_.check(ds.status == serve::Status::kOk, "set-up dataset: " + ds.message);
    const double elapsed = now_s() - t0;
    fleet_ = std::move(f);
    return elapsed;
  }

  // Run the schedule's ops due in [from, to) open loop.
  Window run_window(double from, double to) {
    Window win;
    std::vector<double> due;
    // Merge the three classes' schedules in due order.
    std::vector<std::pair<double, std::pair<Kind, std::size_t>>> events;
    for (std::size_t f = 0; f < in_.frame_coords.size(); ++f) {
      const double t = static_cast<double>(f) * kFramePeriod;
      if (f >= 1 && t >= from && t < to) {
        events.push_back({t, {Kind::Frame, f}});
      }
    }
    for (std::size_t i = 0; i < in_.oneshot_due.size(); ++i) {
      const double t = in_.oneshot_due[i];
      if (t >= from && t < to) events.push_back({t, {Kind::Oneshot, i}});
    }
    for (std::size_t i = 0; i < in_.dataset_due.size(); ++i) {
      const double t = in_.dataset_due[i];
      if (t >= from && t < to) events.push_back({t, {Kind::Dataset, i}});
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    win.ops.resize(events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      due.push_back(events[i].first - from);
      win.ops[i].kind = events[i].second.first;
      win.ops[i].index = events[i].second.second;
    }
    std::vector<OpRecord> records(events.size());
    // Reply matching: frame index / one-shot tag / dataset tag -> op.
    std::map<std::size_t, std::size_t> frame_op, oneshot_op, dataset_op;
    for (std::size_t i = 0; i < win.ops.size(); ++i) {
      auto& m = win.ops[i].kind == Kind::Frame     ? frame_op
                : win.ops[i].kind == Kind::Oneshot ? oneshot_op
                                                   : dataset_op;
      m[win.ops[i].index] = i;
    }

    Fleet& fl = *fleet_;
    std::atomic<std::uint64_t> sent{0};
    std::atomic<bool> sending{true};
    std::atomic<std::uint64_t> received{0};
    // One-shot replies outstanding per one-shot connection. The router
    // serves one request per client connection at a time, so a one-shot
    // goes out on the idler connection, as a pooled client would send it.
    std::atomic<int> oneshot_busy[2]{};
    std::mutex fail_mu;
    auto fail = [&](const std::string& what) {
      std::lock_guard<std::mutex> lk(fail_mu);
      if (win.failures.size() < 8) win.failures.push_back(what);
    };

    // Receiver: poll the four connections, match and check each reply.
    std::thread receiver([&] {
      serve::ServeClient* conns[4] = {fl.frames.get(), fl.oneshot[0].get(),
                                      fl.oneshot[1].get(), fl.data.get()};
      pollfd fds[4];
      for (int c = 0; c < 4; ++c) fds[c] = {conns[c]->fd(), POLLIN, 0};
      double give_up = 0.0;
      for (;;) {
        if (!sending.load()) {
          if (received.load() == sent.load()) break;
          if (give_up == 0.0) give_up = now_s() + kDrainTimeout;
          if (now_s() > give_up) break;
        }
        if (::poll(fds, 4, 20) <= 0) continue;
        for (int c = 0; c < 4; ++c) {
          if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          const double t_begin = now_s();
          try {
            if (c == 0) {
              const auto rep = conns[0]->recv_frame_reply();
              const double t = now_s();
              const auto it = frame_op.find(rep.frame_index);
              if (it == frame_op.end()) {
                fail("unexpected frame reply " +
                     std::to_string(rep.frame_index));
                continue;
              }
              Op& op = win.ops[it->second];
              op.recv_begin_s = t_begin;
              op.rec.done_s = t;
              op.iterations = rep.iterations;
              op.flags = rep.flags;
              if (rep.status == serve::Status::kOk) {
                op.nrmse = fitted_nrmse(
                    rep.image, phantom_.image_at(in_.frame_times[op.index],
                                                 kFrameN));
                op.rec.ok = op.nrmse <= kFrameNrmseLimit;
                if (!op.rec.ok) {
                  fail("frame " + std::to_string(op.index) + " NRMSE " +
                       num(op.nrmse));
                }
              }
            } else {
              const auto rep = conns[c]->recv_recon_reply();
              const double t = now_s();
              if (c != 3) oneshot_busy[c - 1].fetch_sub(1);
              auto& m = c == 3 ? dataset_op : oneshot_op;
              const auto it = m.find(rep.client_tag);
              if (it == m.end()) {
                fail("unexpected reply tag " + std::to_string(rep.client_tag));
                continue;
              }
              Op& op = win.ops[it->second];
              op.recv_begin_s = t_begin;
              op.rec.done_s = t;
              if (rep.status != serve::Status::kOk) {
                op.rec.ok = false;
              } else if (c == 3) {
                const double e = dataset_nrmse(rep.message);
                op.rec.ok = e >= 0.0 && e <= kDatasetNrmseLimit &&
                            dataset_clean(rep.message);
                if (!op.rec.ok) fail("dataset reply: " + rep.message);
              } else {
                const int cls = in_.oneshot_class[op.index];
                const double e =
                    rel_l2(rep.image, oracle_[static_cast<std::size_t>(cls)]);
                op.rec.ok = e <= kOracleTol;
                if (!op.rec.ok) {
                  fail("one-shot class " + std::to_string(cls) +
                       " rel-L2 " + num(e));
                }
              }
            }
            received.fetch_add(1);
          } catch (const std::exception& e) {
            fail(std::string("receive: ") + e.what());
            fds[c].fd = -1;  // connection unusable from here on
          }
        }
      }
    });

    std::thread sampler([&] {
      while (sending.load()) {
        const double d = queue_depth(fl);
        win.queue_depth.push_back(d);
        win.queue_depth_max = std::max(win.queue_depth_max, d);
        win.in_flight.push_back(
            static_cast<double>(sent.load() - received.load()));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });

    const double t0 = now_s() + 0.02;
    int rr = 0;
    try {
      pace(due, t0,
           [&](std::size_t i) {
             Op& op = win.ops[i];
             if (op.kind == Kind::Frame) {
               fl.frames->send_push_frame(
                   frame_push(in_, fl.session, op.index));
             } else if (op.kind == Kind::Oneshot) {
               const int a = oneshot_busy[0].load(),
                         b = oneshot_busy[1].load();
               const int k = a == b ? rr++ % 2 : (a < b ? 0 : 1);
               oneshot_busy[k].fetch_add(1);
               fl.oneshot[k]->send_raw(
                   serve::MsgType::kRecon,
                   serve::encode_recon_request(oneshot_request(
                       in_, in_.oneshot_class[op.index], op.index)));
             } else {
               fl.data->send_raw(
                   serve::MsgType::kReconDataset,
                   serve::encode_dataset_request(
                       dataset_request(dataset_path_, op.index)));
             }
             op.send_end_s = now_s();
             sent.fetch_add(1);
           },
           records);
    } catch (const std::exception& e) {
      fail(std::string("send: ") + e.what());
    }
    sending.store(false);
    sampler.join();
    receiver.join();
    for (std::size_t i = 0; i < win.ops.size(); ++i) {
      win.ops[i].rec.due_s = records[i].due_s;
      win.ops[i].rec.sent_s = records[i].sent_s;
    }
    return win;
  }

  // Close the session and stop every tier.
  void tear_down() {
    if (fleet_) {
      serve::CloseSessionWire close;
      close.session_id = fleet_->session;
      const auto closed = fleet_->frames->close_session(close);
      r_.check(closed.status == serve::Status::kOk,
               "close_session: " + closed.message);
    }
    fleet_.reset();
  }

  Fleet& fleet() { return *fleet_; }
  const StreamServeInputs& inputs() const { return in_; }

 private:
  Result& r_;
  const StreamServeInputs in_;
  const stream::DynamicPhantom phantom_;
  std::string dataset_path_;
  std::vector<std::vector<c64>> oracle_;
  std::unique_ptr<Fleet> fleet_;
};

// Per-kind latency and accounting of one window.
struct Summary {
  std::vector<double> frame_ms, oneshot_ms, dataset_ms, lag_ms;
  std::vector<std::pair<double, double>> frame_at, oneshot_at;  // due, ms
  std::uint64_t attempted = 0, failed = 0, on_time = 0;
  double first_due = 0.0, last_done = 0.0;
  double nrmse_sum = 0.0;
  std::uint64_t frames_ok = 0;
};

Summary summarize(const Window& w) {
  Summary s;
  s.first_due = w.ops.empty() ? 0.0 : w.ops.front().rec.due_s;
  for (const Op& op : w.ops) {
    ++s.attempted;
    s.lag_ms.push_back(op.rec.lag_ms());
    const bool answered = op.rec.done_s >= 0.0;
    if (!answered || !op.rec.ok) {
      ++s.failed;
      continue;
    }
    const double lat = op.rec.latency_ms();
    s.last_done = std::max(s.last_done, op.rec.done_s);
    double limit = kDatasetLimitMs;
    if (op.kind == Kind::Frame) {
      s.frame_ms.push_back(lat);
      s.frame_at.push_back({op.rec.due_s, lat});
      s.nrmse_sum += op.nrmse;
      ++s.frames_ok;
      limit = kFramePeriod * 1e3;
    } else if (op.kind == Kind::Oneshot) {
      s.oneshot_ms.push_back(lat);
      s.oneshot_at.push_back({op.rec.due_s, lat});
      limit = kOneshotLimitMs;
    } else {
      s.dataset_ms.push_back(lat);
    }
    if (lat <= limit) ++s.on_time;
  }
  return s;
}

// Mean of the first and of the last fifth of a sampled series.
std::pair<double, double> head_tail(const std::vector<double>& v) {
  const std::size_t k = std::max<std::size_t>(1, v.size() / 5);
  if (v.size() < 2 * k) return {0.0, 0.0};
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    head += v[i];
    tail += v[v.size() - 1 - i];
  }
  return {head / static_cast<double>(k), tail / static_cast<double>(k)};
}

void check_window(Result& r, const Window& w, const std::string& label) {
  for (const auto& f : w.failures) r.check(false, f);
  // A growing queue is a failed run, not a slow one.
  const auto [q0, q1] = head_tail(w.queue_depth);
  const auto [f0, f1] = head_tail(w.in_flight);
  r.note(label + "queue_depth_start_end", num(q0) + " -> " + num(q1));
  r.note(label + "in_flight_start_end", num(f0) + " -> " + num(f1));
  r.check(q1 <= q0 + kQueueSlack, "worker queue grew from " + num(q0) +
                                      " to " + num(q1) + " jobs: backlog");
  r.check(f1 <= f0 + kInFlightSlack, "unanswered ops grew from " + num(f0) +
                                         " to " + num(f1) + ": backlog");
  double lag = 0.0;
  for (const Op& op : w.ops) lag = std::max(lag, op.rec.lag_ms());
  r.check(lag <= kMaxLagMs, "generator fell " + num(lag) +
                                " ms behind its schedule: backlog");
}

}  // namespace

StreamServeInputs stream_serve_inputs(std::uint64_t seed, double seconds) {
  StreamServeInputs in;
  // Frames: the golden-angle stream, rotated by the seed, frame 0 for
  // set-up and one per period after it.
  const int frames = static_cast<int>(std::ceil(seconds / kFramePeriod)) + 2;
  stream::FrameWindow window;
  window.spokes_per_frame = 13;
  window.window_spokes = 34;
  window.samples_per_spoke = kFrameN;
  const stream::FrameSource source(window, frames);
  const stream::DynamicPhantom phantom;
  const double angle = seeded_angle(seed, "stream.angle");
  for (int f = 0; f < frames; ++f) {
    auto coords = rotate(source.frame_coords(f), angle);
    const double t = source.frame_time(f);
    auto values = phantom.kspace_at(coords, t, kFrameN);
    add_noise(values, kNoise,
              stream_seed(seed, "stream.frame." + std::to_string(f)));
    in.frame_coords.push_back(std::move(coords));
    in.frame_values.push_back(std::move(values));
    in.frame_times.push_back(t);
  }
  // One-shot classes. The router shards on geometry (N, M, kernel), so each
  // class drops trailing samples until it shards to the worker that does
  // not host the session: sharing one dispatcher made every class's latency
  // track the other's and amplified host noise past the benchmark's bounds.
  const int session_home = home_worker(serve::Router::session_shard_hash(
      open_session_request()));
  const auto sl = trajectory::shepp_logan();
  for (int c = 0; c < kNumClasses; ++c) {
    auto coords =
        rotate(trajectory::make_2d(kClasses[c], kOneshotM, 42),
               seeded_angle(seed, "stream.class." + std::to_string(c)));
    serve::ReconRequestWire probe;
    probe.n = kOneshotN;
    probe.coords = coords;
    while (home_worker(serve::Router::shard_hash(probe)) == session_home) {
      probe.coords.pop_back();
    }
    coords.resize(probe.coords.size());
    auto values = trajectory::kspace_samples(sl, coords, kOneshotN);
    add_noise(values, kNoise,
              stream_seed(seed, "stream.class.noise." + std::to_string(c)));
    in.class_coords.push_back(std::move(coords));
    in.class_values.push_back(std::move(values));
  }
  // Arrivals over [0, seconds).
  in.oneshot_due = poisson_arrivals(kOneshotRate, seconds,
                                    stream_seed(seed, "stream.arrivals"));
  jigsaw::Rng pick(stream_seed(seed, "stream.classes"));
  for (std::size_t i = 0; i < in.oneshot_due.size(); ++i) {
    in.oneshot_class.push_back(static_cast<int>(pick.below(kNumClasses)));
  }
  for (double t = kDatasetPeriod / 2; t < seconds; t += kDatasetPeriod) {
    in.dataset_due.push_back(t);
  }
  return in;
}

Result run_stream_serve(const RunOptions& opt) {
  Result r;
  StreamServe bench(opt, r);
  const auto& in = bench.inputs();
  // Per worker: resident plans (one-shot classes, the session's frame plan)
  // with their grids and sample sets.
  const std::size_t oneshot_ws =
      kNumClasses * (static_cast<std::size_t>(kOneshotM) * 32 +
                     static_cast<std::size_t>(4 * kOneshotN * kOneshotN) * 16);
  const std::size_t frame_ws =
      in.frame_coords[0].size() * 32 +
      static_cast<std::size_t>(4 * kFrameN * kFrameN) * 16;
  r.note("working_set_bytes", std::to_string(oneshot_ws + frame_ws));
  r.note("working_set_over_llc",
         num(ratio(static_cast<double>(oneshot_ws + frame_ws),
                              static_cast<double>(llc_bytes()))));
  r.note("traffic", "frames every " + num(kFramePeriod * 1e3) +
                        " ms, one-shots " + num(kOneshotRate) +
                        "/s Poisson, datasets every " +
                        num(kDatasetPeriod) + " s, workers=" +
                        std::to_string(kWorkers));

  std::vector<double> setup_s;
  auto set_up = [&] {
    for (int s = 0; s < kSetups; ++s) {
      if (s > 0) bench.tear_down();
      setup_s.push_back(bench.set_up());
    }
  };

  if (!opt.trace) {
    set_up();
    const Window w = bench.run_window(0.0, opt.seconds);
    bench.tear_down();
    check_window(r, w, "");
    const Summary s = summarize(w);
    r.attempted += s.attempted;
    r.failed += s.failed;
    const Tail frame_tail = steady_tail(s.frame_at);
    const Tail oneshot_tail = steady_tail(s.oneshot_at);
    r.check(frame_tail.valid && oneshot_tail.valid,
            "too few ops for a tail percentile");
    r.metric("setup_s", median(setup_s), "s");
    r.metric("latency_p50_ms", median(s.frame_ms), "ms");
    r.metric("latency_tail_ms", frame_tail.value, "ms");
    r.metric("throughput_per_s",
             ratio(static_cast<double>(s.attempted - s.failed),
                   s.last_done - s.first_due),
             "1/s");
    r.metric("on_time_ratio",
             ratio(static_cast<double>(s.on_time),
                   static_cast<double>(s.attempted)),
             "ratio");
    r.metric("ok_ratio",
             ratio(static_cast<double>(s.attempted - s.failed),
                   static_cast<double>(s.attempted)),
             "ratio");
    r.metric("nrmse", ratio(s.nrmse_sum, static_cast<double>(s.frames_ok)),
             "ratio");
    r.metric("oneshot_latency_p50_ms", median(s.oneshot_ms), "ms");
    r.metric("oneshot_latency_tail_ms", oneshot_tail.value, "ms");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    r.note("latency_tail", describe(frame_tail));
    r.note("oneshot_latency_tail", describe(oneshot_tail));
    r.note("generator_lag_max_ms",
           num(*std::max_element(s.lag_ms.begin(), s.lag_ms.end())));
    return r;
  }

  // Traced run: set-up under the library tracer, an untraced half, then a
  // traced half.
  const auto run0 = obs::snapshot();
  const auto setup_spans = with_library_trace(
      opt.out_dir + "/lib-setup-stream-serve.json", set_up);
  const double half = opt.seconds / 2;
  const Window plain = bench.run_window(0.0, half);
  const ServeTotals serve0 = serve_totals(bench.fleet());
  const auto router0 = bench.fleet().router->counts();
  const auto before = obs::snapshot();
  Window traced;
  const auto spans = with_library_trace(
      opt.out_dir + "/lib-stream-serve.json",
      [&] { traced = bench.run_window(half, opt.seconds); });
  const auto after = obs::snapshot();
  const ServeTotals serve1 = serve_totals(bench.fleet());
  const auto router1 = bench.fleet().router->counts();
  check_window(r, plain, "untraced_");
  check_window(r, traced, "traced_");
  const Summary ps = summarize(plain);
  const Summary ts = summarize(traced);
  r.attempted += ps.attempted + ts.attempted;
  r.failed += ps.failed + ts.failed;

  // The benchmark's spans of the traced half, one op id per op.
  SpanLog log;
  for (std::size_t i = 0; i < traced.ops.size(); ++i) {
    const Op& op = traced.ops[i];
    if (op.rec.done_s < 0.0) continue;
    const char* kind = op.kind == Kind::Frame     ? "op.frame"
                       : op.kind == Kind::Oneshot ? "op.oneshot"
                                                  : "op.dataset";
    const long root = static_cast<long>(
        log.add(kind, i, -1, op.rec.due_s, op.rec.done_s));
    log.add("bench.lag", i, root, op.rec.due_s, op.rec.sent_s);
    log.add("serve.client.send", i, root, op.rec.sent_s, op.send_end_s);
    log.add("serve.client.recv", i, root, op.recv_begin_s, op.rec.done_s);
  }
  log.write(opt.out_dir + "/spans-stream-serve.json");

  const auto delta = counter_delta(before, after);
  const double ops = static_cast<double>(ts.attempted);
  core_layer_metrics(r, spans, setup_spans, delta, counter_delta(run0, after),
                     ops);

  double frames = 0, warm = 0, reused = 0, guards = 0, iters = 0;
  double datasets = 0;
  for (const Op& op : traced.ops) {
    if (op.kind == Kind::Dataset) ++datasets;
    if (op.kind != Kind::Frame || op.rec.done_s < 0.0) continue;
    ++frames;
    iters += op.iterations;
    if (op.flags & serve::kFrameGuardFlag) {
      ++guards;
    } else if (op.flags & serve::kFrameWarmFlag) {
      ++warm;
    }
    if (op.flags & serve::kFramePlanReusedFlag) ++reused;
  }
  r.metric("stream.iterations_per_frame", ratio(iters, frames), "count");
  r.metric("stream.warm_ratio", ratio(warm, frames), "ratio");
  r.metric("stream.plan_reuse_ratio", ratio(reused, frames), "ratio");
  r.metric("stream.guard_trips", guards, "count");

  const double hits = serve1.plan_hits - serve0.plan_hits;
  r.metric("serve.plan_hit_ratio",
           ratio(hits, hits + serve1.plan_builds - serve0.plan_builds),
           "ratio");
  // Dataset requests are counted by the worker but never dispatched.
  r.metric("serve.batch_mean_jobs",
           ratio(serve1.jobs - serve0.jobs - datasets,
                 serve1.batches - serve0.batches),
           "count");
  r.metric("serve.queue_depth_max", traced.queue_depth_max, "count");
  r.metric("serve.rejected", serve1.rejected - serve0.rejected, "count");
  r.metric("router.reroutes",
           static_cast<double>(router1.reroutes - router0.reroutes), "count");

  r.metric("data.request_ms", median(ts.dataset_ms), "ms");
  r.metric("data.bytes_read",
           ratio(counter(delta, "data.bytes_read"), datasets), "B");
  r.metric("data.chunks_rejected", counter(delta, "data.chunks_rejected"),
           "count");
  r.metric("bench.generator_lag_p50_ms", median(ps.lag_ms), "ms");
  r.metric("bench.generator_lag_max_ms",
           *std::max_element(ps.lag_ms.begin(), ps.lag_ms.end()), "ms");
  r.metric("bench.trace_overhead_ratio",
           ratio(median(ts.frame_ms), median(ps.frame_ms)), "ratio");

  // Router relay cost: the same one-shot through the router and direct to
  // the worker the router shards it to, sequentially.
  {
    Fleet& fl = bench.fleet();
    const auto req = oneshot_request(in, 0, 0);
    serve::ServeClient direct(fl.worker_specs[static_cast<std::size_t>(
        home_worker(serve::Router::shard_hash(req)))]);
    std::vector<double> via, dir;
    for (int i = 0; i < 15; ++i) {
      double t0 = now_s();
      fl.oneshot[0]->recon(req);
      via.push_back((now_s() - t0) * 1e3);
      t0 = now_s();
      direct.recon(req);
      dir.push_back((now_s() - t0) * 1e3);
    }
    r.metric("router.relay_ms", median(via) - median(dir), "ms");
  }

  // Protocol cost of the workload's own messages, weighted by how many of
  // each the traced half sent.
  {
    double bytes = 0, enc = 0, dec = 0, n = 0;
    auto time_msg = [&](double count, const auto& encode, const auto& decode) {
      std::vector<double> e, d;
      std::size_t size = 0;
      for (int i = 0; i < 9; ++i) {
        double t0 = now_s();
        const auto body = encode();
        e.push_back((now_s() - t0) * 1e6);
        size = body.size();
        t0 = now_s();
        decode(body);
        d.push_back((now_s() - t0) * 1e6);
      }
      bytes += count * static_cast<double>(size);
      enc += count * median(e);
      dec += count * median(d);
      n += count;
    };
    std::vector<double> per_class(kNumClasses, 0.0);
    for (const Op& op : traced.ops) {
      if (op.kind == Kind::Oneshot) ++per_class[in.oneshot_class[op.index]];
    }
    for (int c = 0; c < kNumClasses; ++c) {
      const auto req = oneshot_request(in, c, 1);
      time_msg(
          per_class[static_cast<std::size_t>(c)],
          [&] { return serve::encode_recon_request(req); },
          [](const std::vector<std::uint8_t>& b) {
            return serve::decode_recon_request(b.data(), b.size());
          });
    }
    const auto push = frame_push(in, 1, 1);
    time_msg(
        frames, [&] { return serve::encode_push_frame(push); },
        [](const std::vector<std::uint8_t>& b) {
          return serve::decode_push_frame(b.data(), b.size());
        });
    r.metric("protocol.request_bytes", ratio(bytes, n), "B");
    r.metric("protocol.encode_us", ratio(enc, n), "us");
    r.metric("protocol.decode_us", ratio(dec, n), "us");
  }
  bench.tear_down();
  return r;
}

}  // namespace perfbench
