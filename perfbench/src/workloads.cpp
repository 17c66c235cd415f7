#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "analysis/auditor.hpp"
#include "core/fifoms.hpp"
#include "net/net_experiment.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "sim/voq_switch.hpp"
#include "snapshot/observers.hpp"
#include "snapshot/snapshot.hpp"
#include "snapshot/snapshot_io.hpp"
#include "soak_scenarios.hpp"
#include "stats.hpp"
#include "traffic/bernoulli.hpp"
#include "traffic/priority.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using fifoms::FifomsScheduler;
using fifoms::MatchingAuditor;
using fifoms::PointSummary;
using fifoms::SimConfig;
using fifoms::SimResult;
using fifoms::Simulator;
using fifoms::SlotObserver;
using fifoms::SwitchFactory;
using fifoms::SwitchModel;
using fifoms::TrafficModel;
using fifoms::VoqScheduler;
using fifoms::VoqSwitch;

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

namespace {

// Multicast Bernoulli traffic, b = 0.2: each output joins a packet's
// destination set with probability b (the paper's Fig. 4 family).
constexpr double kFanoutB = 0.2;
constexpr int kSweepPorts = 16;
constexpr SlotTime kSweepSlots = 20'000;
constexpr int kSweepReplications = 2;
const std::vector<double> kSweepLoads = {0.5, 0.7, 0.9};
const char* const kSoakScenario = "fault-storm/burst-0.8";

/// What a workload runs: one of the three single-run stacks, or the
/// sweep (which has no Spec: run_sweep builds its own cells).
enum class Shape { kRadix, kSoak, kClos, kSweep };

struct Spec {
  Shape shape;
  int ports;
  double load;
  SlotTime horizon;
  SlotTime block;       ///< slots per timing block
  SlotTime ckpt_every;  ///< checkpoint cadence of checkpointed runs
  double warmup_fraction;
  /// Independent instances (seeds derived from the run seed) per pass.
  int instances;
};

// Horizons are fixed so every simulated statistic repeats exactly for a
// seed; the host-time budget is filled by repeating whole passes.
const Spec kRadix256{Shape::kRadix, 256, 0.8, 16'000, 250, 500, 0.5, 1};
// The kill-test's checkpoint cadence (250 slots) and fifoms_soak's
// warm-up fraction.  A storm's severity, and with it the delay and the
// auditor's work per slot, varies widely and with a heavy tail from seed
// to seed, so one pass runs eighty short storms: with a few long ones,
// speed and delay would be properties of the seed (over ten seeds the
// delay's interquartile range was 10-13% of its median with 4-16 storms
// and 3-11% with 40).
const Spec kSoak16{Shape::kSoak, 16, 0.8, 1'000, 500, 250, 0.25, 80};
const Spec kClos64{Shape::kClos, 64, 0.8, 20'000, 500, 250, 0.5, 2};
// The fabric's default inter-stage buffers (32 cells) never fill at load
// 0.8, so backpressure would never pause a wire; with 4 cells it pauses
// about 8 wires per slot and the fabric stays stable.
constexpr std::size_t kClosLinkBuffer = 4;

std::uint64_t instance_seed(const Spec& spec, std::uint64_t seed, int i) {
  if (spec.instances == 1) return seed;
  return fifoms::derive_seed(seed, 0x70617373 /* "pass" */,
                             static_cast<std::uint64_t>(i));
}

std::uint64_t fnv(std::uint64_t acc, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    acc ^= (word >> (8 * byte)) & 0xffU;
    acc *= 0x100000001b3ULL;
  }
  return acc;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t result_fingerprint(const SimResult& r) {
  std::uint64_t acc = kFnvBasis;
  for (std::uint64_t word :
       {static_cast<std::uint64_t>(r.total_slots), r.packets_offered,
        r.packets_delivered, r.packets_dropped, r.packets_suppressed,
        r.copies_offered, r.copies_delivered, r.copies_purged,
        r.fault_events_applied, static_cast<std::uint64_t>(r.in_flight_at_end),
        static_cast<std::uint64_t>(r.queue_max), r.output_delay.count(),
        bits(r.output_delay.mean()), bits(r.input_delay.mean()),
        bits(r.output_delay_p99), bits(r.queue_mean.mean()),
        bits(r.rounds_all.mean()), bits(r.throughput),
        static_cast<std::uint64_t>(r.unstable)})
    acc = fnv(acc, word);
  return acc;
}

std::uint64_t sweep_fingerprint(const std::vector<PointSummary>& points) {
  std::uint64_t acc = kFnvBasis;
  for (const PointSummary& p : points) {
    for (char c : p.algorithm) acc = fnv(acc, static_cast<unsigned char>(c));
    for (std::uint64_t word :
         {bits(p.load), static_cast<std::uint64_t>(p.replications),
          static_cast<std::uint64_t>(p.unstable_count),
          static_cast<std::uint64_t>(p.failed_count),
          static_cast<std::uint64_t>(p.truncated_count), bits(p.input_delay),
          bits(p.output_delay), bits(p.output_delay_p99), bits(p.queue_mean),
          bits(p.queue_max), bits(p.rounds_busy), bits(p.rounds_all),
          bits(p.throughput)})
      acc = fnv(acc, word);
  }
  return acc;
}

std::unique_ptr<TrafficModel> bernoulli(int ports, double load) {
  return std::make_unique<fifoms::BernoulliTraffic>(
      ports, fifoms::BernoulliTraffic::p_for_load(load, kFanoutB, ports),
      kFanoutB);
}

std::unique_ptr<VoqScheduler> fifoms_scheduler(
    const std::shared_ptr<Probe>& probe) {
  std::unique_ptr<VoqScheduler> scheduler = std::make_unique<FifomsScheduler>();
  if (probe == nullptr) return scheduler;
  return std::make_unique<ProbedScheduler>(std::move(scheduler), probe);
}

// ---------------------------------------------------------------------------
// Single-run stacks

/// Everything one simulated run owns.  Members are destroyed in reverse:
/// the Simulator first (it detaches the fault plan from the switch).
struct Stack {
  std::shared_ptr<Probe> probe;
  std::unique_ptr<fifoms::fault::FaultPlan> plan;
  std::unique_ptr<TrafficModel> traffic;
  std::unique_ptr<SwitchModel> sw;
  const SwitchModel* real = nullptr;  ///< the undecorated switch
  std::unique_ptr<MatchingAuditor> auditor;
  std::unique_ptr<fifoms::snapshot::TraceRingObserver> trace_ring;
  std::unique_ptr<fifoms::snapshot::DigestObserver> digest;
  std::vector<std::unique_ptr<ProbedObserver>> links;
  std::unique_ptr<Simulator> sim;
};

/// Builds the workload's stack.  With a probe every layer seam is
/// decorated; `with_digest` adds a DigestObserver where the workload has
/// none of its own (the soak stack always carries one).
std::unique_ptr<Stack> build_stack(const Spec& spec, std::uint64_t seed,
                                   std::shared_ptr<Probe> probe,
                                   bool with_digest) {
  auto s = std::make_unique<Stack>();
  s->probe = probe;
  switch (spec.shape) {
    case Shape::kRadix:
      s->traffic = bernoulli(spec.ports, spec.load);
      s->sw = std::make_unique<VoqSwitch>(spec.ports, fifoms_scheduler(probe));
      break;
    case Shape::kSoak: {
      fifoms::soak::SoakSetup setup = fifoms::soak::make_soak_setup(
          kSoakScenario, fifoms::StrandedCellPolicy::kPurge, spec.ports,
          spec.horizon, seed);
      s->plan = std::make_unique<fifoms::fault::FaultPlan>(std::move(setup.plan));
      s->traffic = std::move(setup.traffic);
      if (probe == nullptr) {
        s->sw = std::move(setup.sw);
      } else {
        // The scenario's switch, rebuilt around a probed scheduler.
        VoqSwitch::Options options;
        options.stranded_policy = fifoms::StrandedCellPolicy::kPurge;
        s->sw = std::make_unique<VoqSwitch>(spec.ports, fifoms_scheduler(probe),
                                            options);
      }
      break;
    }
    case Shape::kClos: {
      s->traffic = bernoulli(spec.ports, spec.load);
      fifoms::net::NetworkFabric::Options net_options;
      net_options.link_buffer_capacity = kClosLinkBuffer;
      if (probe == nullptr) {
        s->sw = fifoms::net::make_clos3_fifoms(net_options).make(spec.ports);
      } else {
        // make_clos3_fifoms() with the element schedulers probed.
        s->sw = fifoms::net::make_net(
                    "Clos3-FIFOMS",
                    [](int ports) {
                      return fifoms::net::Topology::clos3(
                          fifoms::net::clos3_radix_for_ports(ports));
                    },
                    [probe] { return fifoms_scheduler(probe); }, net_options)
                    .make(spec.ports);
      }
      break;
    }
    case Shape::kSweep:
      throw std::invalid_argument("the sweep has no single-run stack");
  }
  s->real = s->sw.get();
  if (probe != nullptr) {
    s->sw = std::make_unique<ProbedSwitch>(std::move(s->sw), probe);
    s->traffic = std::make_unique<ProbedTraffic>(std::move(s->traffic), probe);
  }

  // Observer chain, outermost first: digest -> trace ring -> auditor.
  const auto link = [&](SlotObserver& observer, int index) -> SlotObserver* {
    if (probe == nullptr) return &observer;
    s->links.push_back(
        std::make_unique<ProbedObserver>(observer, *s->real, index, probe));
    return s->links.back().get();
  };
  SlotObserver* head = nullptr;
  if (spec.shape == Shape::kSoak) {
    s->auditor = std::make_unique<MatchingAuditor>();
    SlotObserver* audit = link(*s->auditor, 2);
    s->trace_ring =
        std::make_unique<fifoms::snapshot::TraceRingObserver>(256, audit);
    SlotObserver* ring = link(*s->trace_ring, 1);
    s->digest = std::make_unique<fifoms::snapshot::DigestObserver>(ring);
    head = link(*s->digest, 0);
  } else if (with_digest) {
    s->digest = std::make_unique<fifoms::snapshot::DigestObserver>();
    head = link(*s->digest, 0);
  }

  SimConfig config;
  config.total_slots = spec.horizon;
  config.warmup_fraction = spec.warmup_fraction;
  config.seed = seed;
  config.fault_plan = s->plan.get();
  s->sim = std::make_unique<Simulator>(*s->sw, *s->traffic, config);
  s->sim->set_observer(head);
  return s;
}

struct CkptSamples {
  std::vector<double> encode_ms;
  std::vector<double> write_ms;
  std::vector<double> pause_ms;
  std::vector<double> load_ms;
  std::vector<double> decode_ms;
  std::vector<double> restore_ms;
  std::vector<double> bytes;
};

double ms_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) / 1e6;
}

/// Steps a stack, optionally checkpointing, timing fixed-size blocks and
/// probing sampled slots.
///
/// A block is timed from the host time its first slot began to the time
/// its last slot ended, and a block stays open across stacks: when a run
/// crashes and resumes, the block that was open at the crash also holds
/// the teardown, the fresh stack, the restore and the replayed slots.
class Stepper {
 public:
  Stepper(Report& report, CkptSamples* ckpt, std::vector<double>* blocks,
          SlotTime block)
      : report_(report), ckpt_(ckpt), blocks_(blocks), block_(block) {}

  /// Steps until slot `until` or the end of the run.  A block opens only
  /// on a multiple of the block size.
  void advance(Stack& s, SlotTime until,
               fifoms::snapshot::CheckpointStore* store, SlotTime every) {
    Simulator& sim = *s.sim;
    if (blocks_ != nullptr && block_start_ < 0 && sim.now() % block_ == 0)
      block_start_ = clock_ns();
    while (!sim.done() && sim.now() < until) {
      if (s.probe != nullptr) {
        s.probe->begin_slot(sim.now());
        if (s.probe->sampled()) {
          const std::int64_t start = clock_ns();
          sim.step();
          s.probe->end_slot(clock_ns() - start);
        } else {
          sim.step();
        }
      } else {
        sim.step();
      }
      const SlotTime next = sim.now();
      if (store != nullptr && next % every == 0)
        save(sim, *store, static_cast<std::uint64_t>(next));
      if (blocks_ != nullptr && next % block_ == 0) {
        const std::int64_t now_ns = clock_ns();
        if (block_start_ >= 0)
          blocks_->push_back(ms_between(block_start_, now_ns));
        block_start_ = sim.done() ? -1 : now_ns;
      }
    }
  }

  /// Restores the newest checkpoint of `store` into `s`.
  bool restore(Stack& s, fifoms::snapshot::CheckpointStore& store) {
    const std::int64_t start = clock_ns();
    std::optional<fifoms::snapshot::LoadedCheckpoint> loaded =
        store.load_latest();
    const std::int64_t loaded_at = clock_ns();
    if (!loaded) {
      report_.check(false, "restore: no valid checkpoint on disk");
      return false;
    }
    fifoms::snapshot::Reader reader(loaded->payload);
    s.sim->load_state(reader);
    reader.expect_end();
    const std::int64_t end = clock_ns();
    if (ckpt_ != nullptr) {
      ckpt_->load_ms.push_back(ms_between(start, loaded_at));
      ckpt_->decode_ms.push_back(ms_between(loaded_at, end));
      ckpt_->restore_ms.push_back(ms_between(start, end));
    }
    report_.check(loaded->rejected.empty(),
                  "restore: newer checkpoints were rejected");
    return true;
  }

  /// One checkpoint: save_state plus CheckpointStore::save (framing,
  /// fsync, rename and pruning) -- the stall a checkpointing run sees.
  void save(Simulator& sim, fifoms::snapshot::CheckpointStore& store,
            std::uint64_t epoch) {
    const std::int64_t start = clock_ns();
    fifoms::snapshot::Writer writer;
    sim.save_state(writer);
    const std::int64_t encoded = clock_ns();
    store.save(epoch, writer.bytes());
    const std::int64_t end = clock_ns();
    report_.check(true, "checkpoint save");
    if (ckpt_ == nullptr) return;
    ckpt_->encode_ms.push_back(ms_between(start, encoded));
    ckpt_->write_ms.push_back(ms_between(encoded, end));
    ckpt_->pause_ms.push_back(ms_between(start, end));
    ckpt_->bytes.push_back(static_cast<double>(writer.size()));
  }

 private:
  Report& report_;
  CkptSamples* ckpt_;
  std::vector<double>* blocks_;
  SlotTime block_;
  std::int64_t block_start_ = -1;  ///< host time the open block began
};

struct RunOutcome {
  bool completed = false;
  SimResult result;
  std::uint64_t digest = 0;
};

fifoms::snapshot::CheckpointStore open_store(const fs::path& dir,
                                             const Stack& s) {
  return fifoms::snapshot::CheckpointStore(dir, "run",
                                           s.sim->state_fingerprint(), 2);
}

/// One uninterrupted run of the horizon, without checkpoints.
RunOutcome straight_run(const Spec& spec, std::uint64_t seed,
                        std::shared_ptr<Probe> probe, bool with_digest,
                        Stepper& stepper) {
  auto s = build_stack(spec, seed, std::move(probe), with_digest);
  s->sim->prepare();
  stepper.advance(*s, spec.horizon, nullptr, 0);
  RunOutcome out;
  out.completed = true;
  out.result = s->sim->finalize();
  if (s->digest != nullptr) out.digest = s->digest->digest();
  return out;
}

/// Checkpointed run that "crashes" mid-epoch past half the horizon,
/// restores the newest checkpoint into a fresh stack and resumes to the
/// horizon.
RunOutcome resumed_run(const Spec& spec, std::uint64_t seed,
                       const std::shared_ptr<Probe>& probe,
                       const fs::path& dir, Stepper& stepper) {
  fs::remove_all(dir);
  const SlotTime crash_at = spec.horizon / 2 + spec.ckpt_every / 2;
  {
    auto first = build_stack(spec, seed, probe, true);
    first->sim->prepare();
    auto store = open_store(dir, *first);
    stepper.advance(*first, crash_at, &store, spec.ckpt_every);
  }
  RunOutcome out;
  auto second = build_stack(spec, seed, probe, true);
  auto store = open_store(dir, *second);
  if (!stepper.restore(*second, store)) return out;
  stepper.advance(*second, spec.horizon, &store, spec.ckpt_every);
  out.completed = true;
  out.result = second->sim->finalize();
  out.digest = second->digest->digest();
  return out;
}

/// What the reference pass fixed: per instance, the digest and result
/// every later run must reproduce; summed over instances, the counts the
/// traced report needs.
struct Reference {
  std::vector<std::uint64_t> digests;
  std::vector<std::uint64_t> fingerprints;
  SlotTime slots = 0;
  double delay = 0;       ///< mean over instances
  double throughput = 0;  ///< mean over instances
  std::uint64_t fault_events = 0;
  Ledger counts;
  std::uint64_t slots_audited = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t pauses = 0;
  double ckpt_bytes = 0;  ///< mean checkpoint payload of the reference
};

/// Reference pass: the first `instances` instances straight through,
/// checkpointed, with a digest observer and the counting decorators
/// attached.
Reference reference_pass(const Spec& spec, std::uint64_t seed, int instances,
                         const Options& options, Report& report,
                         CkptSamples& ckpt) {
  Reference ref;
  Stepper stepper(report, &ckpt, nullptr, spec.block);
  const std::size_t first_checkpoint = ckpt.bytes.size();
  for (int i = 0; i < instances; ++i) {
    auto probe = std::make_shared<Probe>(0);
    auto s = build_stack(spec, instance_seed(spec, seed, i), probe, true);
    s->sim->prepare();
    const fs::path dir = options.work_dir / "reference";
    fs::remove_all(dir);
    auto store = open_store(dir, *s);
    stepper.advance(*s, spec.horizon, &store, spec.ckpt_every);
    const SimResult r = s->sim->finalize();
    ref.digests.push_back(s->digest->digest());
    ref.fingerprints.push_back(result_fingerprint(r));
    ref.slots += r.total_slots;
    ref.delay += r.output_delay.mean() / instances;
    ref.throughput += r.throughput / instances;
    ref.fault_events += r.fault_events_applied;
    if (s->auditor != nullptr) ref.slots_audited += s->auditor->slots_audited();
    if (const auto* net =
            dynamic_cast<const fifoms::net::NetworkFabric*>(s->real)) {
      ref.forwarded += net->forwarded_cells();
      ref.pauses += net->pauses_applied();
    }
    s.reset();  // the switch checks conservation as it is torn down
    const Ledger& counts = probe->ledger();
    report.check(counts.conservation_failures == 0,
                 "reference: copies offered != delivered + purged + queued");
    report.check(counts.copies_injected == r.copies_offered &&
                     counts.copies_delivered == r.copies_delivered &&
                     counts.copies_purged == r.copies_purged,
                 "reference: switch-side copy counts disagree with metrics");
    report.check(r.total_slots == spec.horizon && !r.unstable,
                 "reference: run ended before its horizon");
    ref.counts.merge(counts);
  }
  // Only the reference's checkpoints give snapshot.bytes: a resumed
  // run's set of checkpoints depends on where it crashed.
  double bytes = 0;
  for (std::size_t k = first_checkpoint; k < ckpt.bytes.size(); ++k)
    bytes += ckpt.bytes[k];
  const std::size_t saved = ckpt.bytes.size() - first_checkpoint;
  if (saved > 0) ref.ckpt_bytes = bytes / static_cast<double>(saved);
  return ref;
}

std::uint64_t fold(const std::vector<std::uint64_t>& words) {
  std::uint64_t acc = kFnvBasis;
  for (std::uint64_t w : words) acc = fnv(acc, w);
  return acc;
}

Summary summarize(const Reference& ref) {
  return Summary{fold(ref.digests), fold(ref.fingerprints), ref.delay,
                 ref.throughput};
}

/// A resumed run of instance 0 must reproduce the reference digest.
void resume_check(const Spec& spec, std::uint64_t seed, const Options& options,
                  Report& report, const Reference& ref) {
  Stepper stepper(report, nullptr, nullptr, spec.block);
  auto probe = std::make_shared<Probe>(0);
  const RunOutcome out =
      resumed_run(spec, instance_seed(spec, seed, 0), probe,
                  options.work_dir / "resume", stepper);
  report.check(out.completed && out.digest == ref.digests[0] &&
                   result_fingerprint(out.result) == ref.fingerprints[0],
               "resumed run differs from the uninterrupted run");
  report.check(probe->ledger().conservation_failures == 0,
               "resumed run: copies offered != delivered + purged + queued");
}

std::int64_t deadline_after(double seconds) {
  return clock_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// Host time of one set-up (`build_once`), sampled in many short bursts
/// spread evenly over the run, so that the median spans the whole run: on
/// a shared host one burst's median can differ from the next one's by a
/// factor of two.
class SetupSampler {
 public:
  /// Each burst samples for at least `burst_ms` milliseconds, and at
  /// least three times.
  SetupSampler(std::function<void()> build_once, double burst_ms)
      : build_once_(std::move(build_once)), burst_ms_(burst_ms) {}

  void take() {
    const std::int64_t begin = clock_ns();
    for (int n = 0;
         n < 3 || static_cast<double>(clock_ns() - begin) < burst_ms_ * 1e6;
         ++n) {
      const std::int64_t start = clock_ns();
      build_once_();
      seconds_.push_back(static_cast<double>(clock_ns() - start) / 1e9);
    }
  }

  double median_s() const { return median(seconds_); }
  std::size_t samples() const { return seconds_.size(); }

 private:
  std::function<void()> build_once_;
  double burst_ms_;
  std::vector<double> seconds_;
};

/// Set-up sampling time per timed pass: one burst before the passes and
/// one after each pass (the sweep) or each instance of a pass.
constexpr double kSetupMsPerPass = 10;

/// Peak resident memory of this process image.  getrusage's ru_maxrss
/// is not used: Linux carries it across exec from the parent process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------------
// Per-layer ledger

struct LayerTimes {
  double step = 0, arrival = 0, inject = 0, schedule = 0, switch_self = 0,
         baseline = 0, sim_self = 0, probe = 0;
  std::array<double, kMaxObserverLinks> observer_self{};
};

/// Host ns per sampled slot of each layer's self time.  Every timed
/// call's span holds one clock read beyond the call itself (removed) and
/// adds two reads to its parent (moved to `probe`).
LayerTimes layer_times(const Ledger& ledger, double clock) {
  LayerTimes t;
  if (ledger.sampled_slots == 0) return t;
  const SlotRow& r = ledger.total;
  const auto incl = [clock](const Span& s) {
    return static_cast<double>(s.ns) - clock * static_cast<double>(s.calls);
  };
  const auto cost = [clock, &incl](const Span& s) {  // as seen by a parent
    return incl(s) + 2.0 * clock * static_cast<double>(s.calls);
  };
  const double n = static_cast<double>(ledger.sampled_slots);
  double probe_reads = static_cast<double>(
      r.arrival.calls + r.inject.calls + r.switch_step.calls +
      r.schedule.calls + r.baseline_step.calls);
  t.step = incl(r.step) / n;
  t.arrival = incl(r.arrival) / n;
  t.inject = incl(r.inject) / n;
  t.schedule = incl(r.schedule) / n;
  t.baseline = incl(r.baseline_step) / n;
  t.switch_self = (incl(r.switch_step) - cost(r.schedule)) / n;
  for (int k = 0; k < kMaxObserverLinks; ++k) {
    const auto link = static_cast<std::size_t>(k);
    double value = incl(r.observer[link]);
    if (k + 1 < kMaxObserverLinks) value -= cost(r.observer[link + 1]);
    t.observer_self[link] = value / n;
    probe_reads += static_cast<double>(r.observer[link].calls);
  }
  t.sim_self = (incl(r.step) - cost(r.arrival) - cost(r.inject) -
                cost(r.switch_step) - cost(r.baseline_step) -
                cost(r.observer[0])) /
               n;
  t.probe = 2.0 * clock * probe_reads / n;
  return t;
}

void write_spans(const fs::path& path, const Ledger& ledger) {
  std::ofstream out(path);
  out << "slot,step_ns,arrival_ns,arrival_calls,inject_ns,inject_calls,"
         "switch_step_ns,schedule_ns,schedule_calls,baseline_step_ns";
  for (int k = 0; k < kMaxObserverLinks; ++k) out << ",observer" << k << "_ns";
  out << "\n";
  for (const SlotRow& r : ledger.rows) {
    out << r.slot << ',' << r.step.ns << ',' << r.arrival.ns << ','
        << r.arrival.calls << ',' << r.inject.ns << ',' << r.inject.calls
        << ',' << r.switch_step.ns << ',' << r.schedule.ns << ','
        << r.schedule.calls << ',' << r.baseline_step.ns;
    for (const Span& s : r.observer) out << ',' << s.ns;
    out << "\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path.string());
}

struct Timing {
  /// Slots per host second of each timed pass.  A pass is a fixed amount
  /// of work for a seed, so its rate does not depend on which blocks of
  /// a wide block-time distribution a run happens to sample.
  std::vector<double> untraced_rate;
  std::vector<double> traced_rate;
  std::vector<double> tail_blocks;  ///< ms per block (tail samples)
  Ledger traced;                    ///< every traced run, merged
  CkptSamples ckpt;
  double setup_s = 0;
};

/// The per-layer ledger.  `per_layer` holds the layers every workload
/// runs, so none of them is a constant zero; `layer_detail` holds the
/// layers only some workloads run, zero elsewhere.  On clos64 the
/// scheduler is the elements' (the fabric's element schedule) and
/// transmit is the fabric step minus the element schedules (its relay,
/// backpressure and element transmit); layer_detail repeats the two
/// under their net.* names.
void report_layers(Report& report, const Timing& timing, const Reference& ref,
                   Shape shape, double threads) {
  const bool soak = shape == Shape::kSoak;
  const bool net = shape == Shape::kClos;
  const double clock = calibrate_clock_ns();
  const LayerTimes t = layer_times(timing.traced, clock);
  const Ledger& c = ref.counts;
  const double calls =
      static_cast<double>(std::max<std::uint64_t>(c.schedule_calls, 1));
  const double rounds =
      static_cast<double>(std::max<std::uint64_t>(c.rounds, 1));
  const double slots = static_cast<double>(ref.slots);
  const double untraced = median(timing.untraced_rate);
  const double traced = median(timing.traced_rate);
  double attributed = t.arrival + t.inject + t.schedule + t.switch_self +
                      t.baseline + t.sim_self;
  for (double v : t.observer_self) attributed += v;
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  report.per_layer = {
      {"traffic.arrival_ns", t.arrival, "ns"},
      {"fabric.inject_ns", t.inject, "ns"},
      {"fabric.copies_injected", static_cast<double>(c.copies_injected),
       "count"},
      {"core.schedule_ns", t.schedule, "ns"},
      {"core.rounds_per_slot", static_cast<double>(c.rounds) / calls, "count"},
      {"core.copies_per_round", static_cast<double>(c.scheduled_pairs) / rounds,
       "count"},
      {"fabric.transmit_ns", t.switch_self, "ns"},
      {"sim.self_ns", t.sim_self, "ns"},
      {"trace.step_ns", t.step, "ns"},
      {"trace.probe_ns", t.probe, "ns"},
      {"trace.unattributed_ns", 1e9 * threads / untraced - attributed, "ns"},
      {"trace.untraced_slots_per_s", untraced, "1/s"},
      {"trace.traced_slots_per_s", traced, "1/s"},
      {"trace.overhead_frac", untraced / traced - 1.0, "ratio"},
  };
  report.layer_detail = {
      {"sched.baseline_step_ns", t.baseline, "ns"},
      {"analysis.auditor_ns", soak ? t.observer_self[2] : 0.0, "ns"},
      {"analysis.slots_audited", static_cast<double>(ref.slots_audited),
       "count"},
      {"snapshot.trace_ring_ns", soak ? t.observer_self[1] : 0.0, "ns"},
      {"snapshot.digest_ns", soak ? t.observer_self[0] : 0.0, "ns"},
      {"snapshot.ckpt_pause_ms_p50", soak ? med(timing.ckpt.pause_ms) : 0.0,
       "ms"},
      {"snapshot.restore_ms", soak ? med(timing.ckpt.restore_ms) : 0.0, "ms"},
      {"snapshot.encode_ms", soak ? med(timing.ckpt.encode_ms) : 0.0, "ms"},
      {"snapshot.write_ms", soak ? med(timing.ckpt.write_ms) : 0.0, "ms"},
      {"snapshot.bytes", soak ? ref.ckpt_bytes : 0.0, "count"},
      {"snapshot.load_ms", soak ? med(timing.ckpt.load_ms) : 0.0, "ms"},
      {"snapshot.decode_ms", soak ? med(timing.ckpt.decode_ms) : 0.0, "ms"},
      {"fault.events_applied", static_cast<double>(ref.fault_events), "count"},
      {"net.step_self_ns", net ? t.switch_self : 0.0, "ns"},
      {"net.element_schedule_ns", net ? t.schedule : 0.0, "ns"},
      {"net.forwarded_per_slot", static_cast<double>(ref.forwarded) / slots,
       "count"},
      {"net.pauses_per_slot", static_cast<double>(ref.pauses) / slots, "count"},
  };
  report.samples.insert(
      report.samples.end(),
      {{"trace_clock_ns", clock, "ns"},
       {"trace_sample_period", static_cast<double>(kSamplePeriod), "count"},
       {"trace_sampled_slots",
        static_cast<double>(timing.traced.sampled_slots), "count"}});
}

void report_end_to_end(Report& report, const Timing& timing) {
  const GroupedTail block_tail = grouped_tail(timing.tail_blocks);
  report.end_to_end = {
      {"slots_per_s", median(timing.untraced_rate), "1/s"},
      {"block_ms_tail", block_tail.tail.value, "ms"},
      {"setup_s", timing.setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_delay_slots", report.summary.delay, "slots"},
      {"sim_throughput", report.summary.throughput, "1/slot"},
  };
  report.samples.insert(
      report.samples.end(),
      {{"rate_samples", static_cast<double>(timing.untraced_rate.size()),
        "count"},
       {"tail_samples", static_cast<double>(block_tail.tail.samples),
        "count"},
       {"tail_groups", static_cast<double>(block_tail.groups), "count"},
       {"tail_percentile", block_tail.tail.percentile, "%"},
       {"ckpt_pause_samples", static_cast<double>(timing.ckpt.pause_ms.size()),
        "count"},
       {"restore_samples", static_cast<double>(timing.ckpt.restore_ms.size()),
        "count"}});
}

// ---------------------------------------------------------------------------
// Single-run workloads

Report run_single(const Spec& spec, const Options& options) {
  Report report;
  report.workload = options.workload;
  Timing timing;
  const bool soak = spec.shape == Shape::kSoak;

  SetupSampler setup(
      [&] {
        build_stack(spec, instance_seed(spec, options.seed, 0), nullptr, false)
            ->sim->prepare();
      },
      kSetupMsPerPass / spec.instances);
  setup.take();

  const Reference ref = reference_pass(spec, options.seed, spec.instances,
                                       options, report, timing.ckpt);
  report.summary = summarize(ref);
  // The soak's timed runs are crash-and-resume runs already.
  if (!soak) resume_check(spec, options.seed, options, report, ref);

  // Timed runs: the workload as users run it.  The soak checkpoints every
  // run, crashes it and resumes it; the others run straight through.
  const auto timed_run = [&](int i, std::shared_ptr<Probe> probe,
                             std::vector<double>* blocks) {
    Stepper stepper(report, soak ? &timing.ckpt : nullptr, blocks, spec.block);
    const std::uint64_t seed = instance_seed(spec, options.seed, i);
    const RunOutcome out =
        soak ? resumed_run(spec, seed, probe, options.work_dir / "timed",
                           stepper)
             : straight_run(spec, seed, probe, false, stepper);
    const auto at = static_cast<std::size_t>(i);
    const bool traced = probe != nullptr;
    report.check(out.completed &&
                     result_fingerprint(out.result) == ref.fingerprints[at] &&
                     (!soak || out.digest == ref.digests[at]),
                 traced ? "traced run differs from the untraced run"
                        : "repeated run differs from the reference run");
    if (traced) {
      report.check(probe->ledger().conservation_failures == 0,
                   "traced run: copies offered != delivered + purged + queued");
      timing.traced.merge(probe->ledger());
    }
  };

  // Whole passes only, so every run weighs every instance alike; a traced
  // invocation alternates untraced and traced passes.
  const std::int64_t deadline = deadline_after(options.seconds);
  for (int pass = 0;; ++pass) {
    if (pass >= (options.trace ? 2 : 1) && clock_ns() > deadline) break;
    const bool traced = options.trace && pass % 2 == 1;
    std::vector<double> blocks;
    for (int i = 0; i < spec.instances; ++i) {
      std::shared_ptr<Probe> probe;
      if (traced) probe = std::make_shared<Probe>(kSamplePeriod);
      timed_run(i, probe, &blocks);
      setup.take();
    }
    double pass_ms = 0;
    for (double ms : blocks) pass_ms += ms;
    (traced ? timing.traced_rate : timing.untraced_rate)
        .push_back(static_cast<double>(blocks.size() * spec.block) /
                   (pass_ms / 1e3));
    if (!traced)
      timing.tail_blocks.insert(timing.tail_blocks.end(), blocks.begin(),
                                blocks.end());
  }
  // The transparency check: a traced run must reproduce the reference.
  if (!options.trace)
    timed_run(0, std::make_shared<Probe>(kSamplePeriod), nullptr);

  timing.setup_s = setup.median_s();
  report.samples.push_back(
      {"setup_samples", static_cast<double>(setup.samples()), "count"});
  report_end_to_end(report, timing);
  if (options.trace) {
    report_layers(report, timing, ref, spec.shape, 1.0);
    report.layer_detail.push_back({"experiment.busy_frac", 0.0, "ratio"});
    report.layer_detail.push_back({"experiment.cell_s_max", 0.0, "s"});
    if (!options.spans_path.empty())
      write_spans(options.spans_path, timing.traced);
  }
  CkptSamples unused;
  report.recorded = summarize(
      reference_pass(spec, kRecordedSeed, 1, options, report, unused));
  fs::remove_all(options.work_dir);
  return report;
}

// ---------------------------------------------------------------------------
// The sweep

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

fifoms::SweepConfig sweep_config(std::uint64_t seed, int threads) {
  fifoms::SweepConfig config;
  config.num_ports = kSweepPorts;
  config.loads = kSweepLoads;
  config.slots = kSweepSlots;
  config.warmup_fraction = 0.5;
  config.replications = kSweepReplications;
  config.master_seed = seed;
  config.threads = threads;
  return config;
}

fifoms::TrafficFactory sweep_traffic() {
  return [](double load) { return bernoulli(kSweepPorts, load); };
}

// run_sweep builds a cell's switch and then its traffic model on the same
// worker thread; the switch factory leaves the cell's probe here for the
// traffic factory to pick up.
thread_local std::shared_ptr<Probe> t_cell_probe;

/// standard_lineup() with every cell probed.  FIFOMS is rebuilt around a
/// probed scheduler (make_fifoms() with default options); the baselines'
/// whole step is charged to sched.baseline_step.
std::vector<SwitchFactory> probed_lineup(SlotTime period, Ledger* sink,
                                         std::mutex* mutex) {
  std::vector<SwitchFactory> lineup;
  for (const SwitchFactory& base : fifoms::standard_lineup()) {
    const bool is_fifoms = base.label == "FIFOMS";
    auto make = base.make;
    lineup.push_back(SwitchFactory{
        base.label, [=](int ports) -> std::unique_ptr<SwitchModel> {
          auto probe = std::make_shared<Probe>(period);
          probe->set_sink(sink, mutex);
          t_cell_probe = probe;
          std::unique_ptr<SwitchModel> inner =
              is_fifoms ? std::make_unique<VoqSwitch>(ports,
                                                      fifoms_scheduler(probe))
                        : make(ports);
          return std::make_unique<ProbedSwitch>(std::move(inner), probe,
                                                !is_fifoms);
        }});
  }
  return lineup;
}

fifoms::TrafficFactory probed_sweep_traffic() {
  return [](double load) -> std::unique_ptr<TrafficModel> {
    std::shared_ptr<Probe> probe = std::move(t_cell_probe);
    return std::make_unique<ProbedTraffic>(bernoulli(kSweepPorts, load), probe,
                                           true);
  };
}

/// Per-cell host time of an unprobed sweep, from the cell_probe hook: a
/// worker's cell ends where its next one starts.  A worker's last cell
/// has no such mark and is left out.
class CellClock {
 public:
  void start_cell() {
    const std::int64_t now = clock_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    auto [it, fresh] = open_.try_emplace(std::this_thread::get_id(), now);
    if (!fresh) {
      cell_ms_.push_back(ms_between(it->second, now));
      it->second = now;
    }
  }
  std::vector<double> cell_ms() const { return cell_ms_; }

 private:
  std::mutex mutex_;
  std::map<std::thread::id, std::int64_t> open_;
  std::vector<double> cell_ms_;
};

struct SweepRun {
  std::vector<PointSummary> points;
  double ms = 0;
  std::vector<double> cell_ms;
  Ledger ledger;
};

SweepRun sweep_once(fifoms::SweepConfig config, bool probed, SlotTime period,
                    Report& report) {
  SweepRun run;
  std::mutex mutex;
  CellClock cells;
  std::vector<fifoms::CellOutcome> outcomes;
  const std::int64_t start = clock_ns();
  if (probed) {
    run.points = fifoms::run_sweep(
        config, probed_lineup(period, &run.ledger, &mutex),
        probed_sweep_traffic(), &outcomes);
  } else {
    config.cell_probe = [&cells](std::size_t, int) { cells.start_cell(); };
    run.points = fifoms::run_sweep(config, fifoms::standard_lineup(),
                                   sweep_traffic(), &outcomes);
  }
  run.ms = ms_between(start, clock_ns());
  run.cell_ms = cells.cell_ms();
  for (const fifoms::CellOutcome& cell : outcomes)
    report.check(!cell.failed && !cell.truncated,
                 "sweep cell failed: " + cell.error);
  return run;
}

struct SweepReference {
  Summary summary;  ///< no digest: the fingerprint covers every cell
  Ledger ledger;    ///< the probed reference sweep's counts
};

/// The reference sweep, probed for its conservation ledger and sampling
/// nothing.
SweepReference sweep_reference(std::uint64_t seed, int threads,
                               Report& report) {
  SweepReference ref;
  const SweepRun sweep =
      sweep_once(sweep_config(seed, threads), true, 0, report);
  report.check(sweep.ledger.conservation_failures == 0,
               "reference sweep: copies offered != delivered + purged + queued");
  ref.ledger = sweep.ledger;
  int fifoms_points = 0;
  for (const PointSummary& p : sweep.points) {
    if (p.algorithm != "FIFOMS") continue;
    ref.summary.delay += p.output_delay;
    ref.summary.throughput += p.throughput;
    ++fifoms_points;
  }
  ref.summary.delay /= fifoms_points;
  ref.summary.throughput /= fifoms_points;
  ref.summary.fingerprint = sweep_fingerprint(sweep.points);
  return ref;
}

Report run_sweep_workload(const Options& options) {
  Report report;
  report.workload = options.workload;
  Timing timing;
  // Threads never exceed the CPUs this process may run on.
  const int threads = usable_cpus();
  report.samples.push_back({"threads", static_cast<double>(threads), "count"});
  const fifoms::SweepConfig config = sweep_config(options.seed, threads);
  const std::size_t lineup_size = fifoms::standard_lineup().size();
  const double grid_slots =
      static_cast<double>(config.slots) *
      static_cast<double>(kSweepLoads.size() * lineup_size) *
      config.replications;

  // Set-up: every cell's switch, traffic model and prepared Simulator.
  SetupSampler setup([&] {
        const std::vector<SwitchFactory> lineup = fifoms::standard_lineup();
        const fifoms::TrafficFactory traffic = sweep_traffic();
        for (const SwitchFactory& factory : lineup)
          for (std::size_t l = 0; l < config.loads.size(); ++l)
            for (int rep = 0; rep < config.replications; ++rep) {
              auto sw = factory.make(config.num_ports);
              auto model = traffic(config.loads[l]);
              SimConfig sim_config;
              sim_config.total_slots = config.slots;
              sim_config.seed = fifoms::derive_seed(
                  config.master_seed, l, static_cast<std::uint64_t>(rep));
              Simulator sim(*sw, *model, sim_config);
              sim.prepare();
            }
  }, kSetupMsPerPass);
  setup.take();

  const SweepReference ref = sweep_reference(options.seed, threads, report);
  report.summary = ref.summary;

  const std::int64_t deadline = deadline_after(options.seconds);
  double traced_wall_s = 0;
  for (int rep = 0;; ++rep) {
    if (rep >= (options.trace ? 2 : 1) && clock_ns() > deadline) break;
    const bool traced = options.trace && rep % 2 == 1;
    SweepRun run = sweep_once(config, traced, kSamplePeriod, report);
    report.check(sweep_fingerprint(run.points) == ref.summary.fingerprint,
                 traced ? "traced sweep differs from the untraced sweep"
                        : "repeated sweep differs from the reference sweep");
    (traced ? timing.traced_rate : timing.untraced_rate)
        .push_back(grid_slots / (run.ms / 1e3));
    if (traced) traced_wall_s += run.ms / 1e3;
    setup.take();
    timing.tail_blocks.insert(timing.tail_blocks.end(), run.cell_ms.begin(),
                              run.cell_ms.end());
    if (traced) {
      report.check(run.ledger.conservation_failures == 0,
                   "traced sweep: copies offered != delivered + purged + "
                   "queued");
      timing.traced.merge(run.ledger);
    }
  }
  if (!options.trace) {
    const SweepRun run =
        sweep_once(config, true, kSamplePeriod, report);
    report.check(sweep_fingerprint(run.points) == ref.summary.fingerprint,
                 "traced sweep differs from the untraced sweep");
  }

  timing.setup_s = setup.median_s();
  report.samples.push_back(
      {"setup_samples", static_cast<double>(setup.samples()), "count"});
  report_end_to_end(report, timing);
  if (options.trace) {
    Reference counts;
    counts.slots = static_cast<SlotTime>(grid_slots);
    counts.counts = ref.ledger;
    report_layers(report, timing, counts, Shape::kSweep,
                  static_cast<double>(threads));
    report.layer_detail.push_back(
        {"experiment.busy_frac",
         timing.traced.cell_ns_sum / 1e9 / (threads * traced_wall_s),
         "ratio"});
    report.layer_detail.push_back(
        {"experiment.cell_s_max", timing.traced.cell_ns_max / 1e9, "s"});
    if (!options.spans_path.empty())
      write_spans(options.spans_path, timing.traced);
  }
  report.recorded = sweep_reference(kRecordedSeed, threads, report).summary;
  fs::remove_all(options.work_dir);
  return report;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"paper16-sweep", "radix256", "soak16-storm", "clos64"};
}

Report run_workload(const Options& options) {
  if (options.workload == "paper16-sweep") return run_sweep_workload(options);
  if (options.workload == "radix256") return run_single(kRadix256, options);
  if (options.workload == "soak16-storm") return run_single(kSoak16, options);
  if (options.workload == "clos64") return run_single(kClos64, options);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

std::vector<std::string> check_decorator_transparency(
    const fs::path& work_dir) {
  std::vector<std::string> failures;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  Report report;  // collects the runs' own checks (checkpoint saves, ...)
  Stepper stepper(report, nullptr, nullptr, 50);

  // Every workload shape on a short horizon, sampling every slot.
  const std::vector<std::pair<std::string, Spec>> shapes = {
      {"radix", {Shape::kRadix, 32, 0.8, 600, 50, 100, 0.5, 1}},
      {"soak", {Shape::kSoak, 16, 0.8, 1'000, 50, 250, 0.25, 1}},
      {"clos", {Shape::kClos, 16, 0.8, 800, 50, 200, 0.5, 1}},
  };
  for (const auto& [label, spec] : shapes) {
    for (std::uint64_t seed : {1u, 2u}) {
      const RunOutcome plain = straight_run(spec, seed, nullptr, true, stepper);
      const RunOutcome probed =
          straight_run(spec, seed, std::make_shared<Probe>(1), true, stepper);
      expect(plain.digest == probed.digest &&
                 result_fingerprint(plain.result) ==
                     result_fingerprint(probed.result),
             label + ": probed run differs from the plain run");
      // Checkpoints cross the decorators too: a probed stack resumed from
      // its own checkpoint must land on the plain run's digest.
      const RunOutcome resumed =
          resumed_run(spec, seed, std::make_shared<Probe>(1),
                      work_dir / "transparency", stepper);
      expect(resumed.completed && resumed.digest == plain.digest,
             label + ": probed resumed run differs from the plain run");
    }
  }

  // Multi-class traffic into finite buffers: last_priority() and
  // dropped_packets() must cross the decorators.
  const auto qos_run = [&](bool probed) {
    Stack s;
    if (probed) s.probe = std::make_shared<Probe>(1);
    s.traffic = std::make_unique<fifoms::PriorityTraffic>(
        bernoulli(8, 0.95), std::vector<double>{0.5, 0.5});
    VoqSwitch::Options options;
    options.input_capacity = 3;
    options.num_classes = 2;
    s.sw = std::make_unique<VoqSwitch>(8, fifoms_scheduler(s.probe), options);
    s.real = s.sw.get();
    s.digest = std::make_unique<fifoms::snapshot::DigestObserver>();
    SlotObserver* head = s.digest.get();
    if (probed) {
      s.sw = std::make_unique<ProbedSwitch>(std::move(s.sw), s.probe);
      s.traffic =
          std::make_unique<ProbedTraffic>(std::move(s.traffic), s.probe);
      s.links.push_back(
          std::make_unique<ProbedObserver>(*s.digest, *s.real, 0, s.probe));
      head = s.links.back().get();
    }
    SimConfig config;
    config.total_slots = 1'500;
    config.seed = 5;
    s.sim = std::make_unique<Simulator>(*s.sw, *s.traffic, config);
    s.sim->set_observer(head);
    s.sim->prepare();
    stepper.advance(s, config.total_slots, nullptr, 0);
    const SimResult r = s.sim->finalize();
    return std::make_tuple(s.digest->digest(), result_fingerprint(r),
                           r.packets_dropped, r.class_output_delays.size());
  };
  const auto plain_qos = qos_run(false);
  expect(std::get<2>(plain_qos) > 0 && std::get<3>(plain_qos) == 2,
         "qos: the run must drop packets and see two classes");
  expect(plain_qos == qos_run(true),
         "qos: probed run differs from the plain run");

  // The sweep: every cell of the lineup probed, on two threads.
  fifoms::SweepConfig config = sweep_config(3, 2);
  config.slots = 600;
  config.replications = 1;
  const SweepRun plain = sweep_once(config, false, 1, report);
  const SweepRun probed = sweep_once(config, true, 1, report);
  expect(sweep_fingerprint(plain.points) == sweep_fingerprint(probed.points),
         "sweep: probed sweep differs from the plain sweep");
  expect(probed.ledger.conservation_failures == 0,
         "sweep: copies offered != delivered + purged + queued");
  expect(probed.ledger.cells == 12, "sweep: every cell must report");

  for (const std::string& failure : report.failures)
    failures.push_back("run check: " + failure);
  fs::remove_all(work_dir);
  return failures;
}

}  // namespace perfbench
