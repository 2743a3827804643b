// The benchmark's three workloads and their seeded input generators.
//
// Each workload's fixed protocol (sizes, rates, tolerances, limits) is the
// set of constants at the top of its source file; README.md lists them.
// A generator's output depends only on the seed it is given.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {

// --- paper-adjoint ---------------------------------------------------------

struct PaperAdjointInputs {
  std::vector<Coord<2>> coords;  // seed-rotated spiral, acquisition order
  std::vector<c64> values;       // density-weighted phantom k-space + noise
  std::vector<double> truth;     // rasterized phantom, N x N
};
PaperAdjointInputs paper_adjoint_inputs(std::uint64_t seed);
Result run_paper_adjoint(const RunOptions& options);

// --- sense-cg --------------------------------------------------------------

struct SenseCgInputs {
  std::vector<Coord<2>> coords;      // seed-rotated radial
  std::vector<std::vector<c64>> y;   // per-coil k-space + noise
  std::vector<double> truth;         // rasterized phantom, N x N
};
SenseCgInputs sense_cg_inputs(std::uint64_t seed);
Result run_sense_cg(const RunOptions& options);

// --- stream-serve ----------------------------------------------------------

struct StreamServeInputs {
  // Streaming session: one payload per frame, frame f due at f * period.
  std::vector<std::vector<Coord<2>>> frame_coords;
  std::vector<std::vector<c64>> frame_values;
  std::vector<double> frame_times;  // DynamicPhantom instant of each frame
  // One-shot classes: a trajectory and its samples per class.
  std::vector<std::vector<Coord<2>>> class_coords;
  std::vector<std::vector<c64>> class_values;
  // Arrival schedule (seconds from the start of the measured window).
  std::vector<double> oneshot_due;
  std::vector<int> oneshot_class;
  std::vector<double> dataset_due;
};
StreamServeInputs stream_serve_inputs(std::uint64_t seed, double seconds);
Result run_stream_serve(const RunOptions& options);

}  // namespace perfbench
