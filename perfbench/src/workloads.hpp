// The benchmark's four workloads and the run protocol they share.
//
// One invocation runs one workload from one seed and produces a Report:
//   1. set-up samples: build the workload's stack (switch, traffic, fault
//      plan, topology, observers, Simulator) and prepare() it, repeatedly,
//      in short bursts at the start and after every timed sweep or
//      timed instance run;
//   2. a reference pass: every instance's fixed horizon, uninterrupted,
//      checkpointed, with a digest observer and the counting decorators
//      attached, which fixes the digests, the simulated results and the
//      conservation ledger every later run of this seed must reproduce;
//   3. a crash-and-resume run of instance 0: checkpointed past
//      mid-horizon, dropped, restored from the newest checkpoint into a
//      fresh stack and resumed to the horizon; its digest must equal the
//      reference's (the soak does this in every timed run instead, and
//      the sweep, which does not checkpoint, skips it);
//   4. timed passes over every instance, repeated for the requested host
//      seconds, each run checked against its reference;
//   5. traced runs (probe.hpp): one at the end of an untraced invocation,
//      as the transparency check, or alternate passes of a traced
//      invocation, whose spans give the per-layer numbers;
//   6. the first instance's reference at kRecordedSeed, whose values are
//      recorded beside the benchmark, so every run checks them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "probe.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a seed's reference run fixes: every later run of the seed, and
/// every later build of the program, must reproduce it exactly.
struct Summary {
  /// Delivery-stream digest; the sweep has none (its fingerprint covers
  /// every cell's results).
  std::optional<std::uint64_t> digest;
  std::uint64_t fingerprint = 0;  ///< hash of the simulated results
  double delay = 0.0;             ///< sim_delay_slots
  double throughput = 0.0;        ///< sim_throughput
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoint files (created; emptied after).
  std::filesystem::path work_dir;
  /// Where a traced run writes its per-slot span rows (empty = nowhere).
  std::filesystem::path spans_path;
};

struct Report {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Layers only some workloads run (zero on the others).
  std::vector<Metric> layer_detail;
  /// Sample counts and shape of the run, for the manifest.
  std::vector<Metric> samples;
  Summary summary;
  /// The first instance's reference Summary at kRecordedSeed, computed
  /// by every run so that every run checks the recorded values.
  Summary recorded;

  /// Count one operation; a false `ok` records `what` as a failure.
  void check(bool ok, const std::string& what);
};

/// The seed whose reference Summary is recorded (expected.json).
inline constexpr std::uint64_t kRecordedSeed = 1;
/// Every kSamplePeriod-th slot of a traced run is timed.
inline constexpr SlotTime kSamplePeriod = 16;

std::vector<std::string> workload_names();

/// Runs one workload.  Throws std::invalid_argument for an unknown name.
Report run_workload(const Options& options);

/// Short-horizon equivalence check of the probed stacks: for every
/// workload shape, a plain run and a probed run (sampling every slot)
/// must give identical digests and results.  Checkpoints go under
/// `work_dir`, which is removed afterwards.  Returns failure messages.
std::vector<std::string> check_decorator_transparency(
    const std::filesystem::path& work_dir);

}  // namespace perfbench
