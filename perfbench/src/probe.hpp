// Timing decorators for the public layer seams of the simulator.
//
// A probed stack wraps the traffic model, the switch model, the VOQ
// scheduler and every link of the observer chain in a decorator that
// forwards each virtual call unchanged and, on sampled slots only, reads
// the clock around it.  Unsampled slots pay one extra virtual hop and a
// flag test per call; sampled slots pay two clock reads per call.  The
// decorators also keep exact work counts on every slot (copies injected
// and delivered, scheduler rounds), which repeat exactly for a seed.
//
// Spans are aggregated per slot (one SlotRow per sampled slot, children
// summed by layer), kept in memory and written out when the run ends.
// A layer's self time is its inclusive time minus its timed children;
// each timed call adds about two clock reads to its parent, and that
// probe cost is reported on its own instead of being charged to a layer.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sched/voq_scheduler.hpp"
#include "sim/observer.hpp"
#include "sim/switch_model.hpp"
#include "traffic/traffic_model.hpp"

namespace perfbench {

using fifoms::PortId;
using fifoms::SlotTime;

inline std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median cost of one clock_ns() read, from back-to-back reads.
double calibrate_clock_ns();

inline constexpr int kMaxObserverLinks = 4;

struct Span {
  std::int64_t ns = 0;  ///< raw sum of (end - start) over the calls
  std::uint64_t calls = 0;

  void add(std::int64_t duration) {
    ns += duration;
    ++calls;
  }
  void merge(const Span& other) {
    ns += other.ns;
    calls += other.calls;
  }
};

/// The spans of one sampled slot, children summed by layer.
struct SlotRow {
  SlotTime slot = 0;
  Span step;           ///< Simulator::step (or slot mark to slot mark)
  Span arrival;        ///< TrafficModel::arrival
  Span inject;         ///< SwitchModel::inject
  Span switch_step;    ///< SwitchModel::step of a FIFOMS VoqSwitch or fabric
  Span baseline_step;  ///< SwitchModel::step of any other model
  Span schedule;       ///< VoqScheduler::schedule (inside switch_step)
  std::array<Span, kMaxObserverLinks> observer{};  ///< inclusive, per link

  void merge(const SlotRow& other);
};

/// Everything one probed run recorded.
struct Ledger {
  std::uint64_t sampled_slots = 0;
  SlotRow total;  ///< sum over committed sampled slots
  std::vector<SlotRow> rows;  ///< first kMaxRows sampled slots, in order

  // Exact counts over every slot.
  std::uint64_t slots = 0;
  std::uint64_t packets_injected = 0;
  std::uint64_t copies_injected = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t copies_purged = 0;
  std::uint64_t schedule_calls = 0;
  std::uint64_t rounds = 0;
  std::uint64_t scheduled_pairs = 0;
  /// Conservation failures found when a probed switch was torn down.
  std::uint64_t conservation_failures = 0;

  // Lifetimes of the probes merged in through a sink (sweep cells).
  std::uint64_t cells = 0;
  double cell_ns_sum = 0;
  double cell_ns_max = 0;

  static constexpr std::size_t kMaxRows = 20'000;

  void merge(const Ledger& other);
};

/// Sampling state shared by the decorators of one probed stack.  Not
/// thread-safe: one Probe per simulated run.
class Probe {
 public:
  /// Every `sample_period`-th slot is timed; 0 times no slot.
  explicit Probe(SlotTime sample_period)
      : period_(sample_period), created_ns_(clock_ns()) {}
  /// Merges the ledger, and this probe's lifetime as one cell, into the
  /// sink, if one is set.
  ~Probe();

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// On destruction, merge this probe's ledger into `sink` under `mutex`:
  /// how the cells of a threaded sweep report.  Both must outlive it.
  void set_sink(Ledger* sink, std::mutex* mutex) {
    sink_ = sink;
    sink_mutex_ = mutex;
  }

  bool sampled() const { return sampled_; }
  SlotRow& row() { return row_; }
  Ledger& ledger() { return ledger_; }

  /// Runs the benchmark steps itself: bracket each Simulator::step call.
  void begin_slot(SlotTime now);
  void end_slot(std::int64_t step_ns);

  /// Runs the benchmark does not step itself (run_sweep): a slot's span
  /// runs from its first arrival() call to the next slot's.  The last
  /// sampled slot of a run has no closing mark and is dropped.
  void mark_slot(SlotTime now);

 private:
  SlotTime period_;
  std::int64_t created_ns_;
  bool sampled_ = false;
  bool open_ = false;  // mark mode: a sampled slot awaits its closing mark
  std::int64_t slot_start_ = 0;
  SlotRow row_;
  Ledger ledger_;
  Ledger* sink_ = nullptr;
  std::mutex* sink_mutex_ = nullptr;
};

class ProbedTraffic final : public fifoms::TrafficModel {
 public:
  /// `marks_slots`: infer slot boundaries from arrival(input 0).
  ProbedTraffic(std::unique_ptr<fifoms::TrafficModel> inner,
                std::shared_ptr<Probe> probe, bool marks_slots = false);

  std::string_view name() const override { return inner_->name(); }
  void reset(fifoms::Rng& rng) override { inner_->reset(rng); }
  fifoms::PortSet arrival(PortId input, SlotTime now,
                          fifoms::Rng& rng) override;
  double offered_load() const override { return inner_->offered_load(); }
  int last_priority() const override { return inner_->last_priority(); }
  void save_state(fifoms::snapshot::Writer& out) const override {
    inner_->save_state(out);
  }
  void load_state(fifoms::snapshot::Reader& in) override {
    inner_->load_state(in);
  }

 private:
  std::unique_ptr<fifoms::TrafficModel> inner_;
  std::shared_ptr<Probe> probe_;
  bool marks_slots_;
};

class ProbedScheduler final : public fifoms::VoqScheduler {
 public:
  ProbedScheduler(std::unique_ptr<fifoms::VoqScheduler> inner,
                  std::shared_ptr<Probe> probe);

  std::string_view name() const override { return inner_->name(); }
  void reset(int num_inputs, int num_outputs) override {
    inner_->reset(num_inputs, num_outputs);
  }
  using fifoms::VoqScheduler::schedule;
  void schedule(std::span<const fifoms::McVoqInput> inputs, SlotTime now,
                fifoms::SlotMatching& matching, fifoms::Rng& rng,
                const fifoms::ScheduleConstraints& constraints) override;
  void save_state(fifoms::snapshot::Writer& out) const override {
    inner_->save_state(out);
  }
  void load_state(fifoms::snapshot::Reader& in) override {
    inner_->load_state(in);
  }

 private:
  std::unique_ptr<fifoms::VoqScheduler> inner_;
  std::shared_ptr<Probe> probe_;
};

class ProbedSwitch final : public fifoms::SwitchModel {
 public:
  /// `baseline`: charge step() to baseline_step (a model whose scheduler
  /// is not probed) instead of switch_step.
  ProbedSwitch(std::unique_ptr<fifoms::SwitchModel> inner,
               std::shared_ptr<Probe> probe, bool baseline = false);
  /// Records a conservation failure (see check_conservation) in the
  /// ledger.
  ~ProbedSwitch() override;

  ProbedSwitch(const ProbedSwitch&) = delete;
  ProbedSwitch& operator=(const ProbedSwitch&) = delete;

  std::string_view name() const override { return inner_->name(); }
  int num_inputs() const override { return inner_->num_inputs(); }
  int num_outputs() const override { return inner_->num_outputs(); }
  bool inject(const fifoms::Packet& packet) override;
  std::uint64_t dropped_packets() const override {
    return inner_->dropped_packets();
  }
  void step(SlotTime now, fifoms::Rng& rng,
            fifoms::SlotResult& result) override;
  std::size_t occupancy(PortId port) const override {
    return inner_->occupancy(port);
  }
  int occupancy_ports() const override { return inner_->occupancy_ports(); }
  std::size_t total_buffered() const override {
    return inner_->total_buffered();
  }
  void clear() override;
  void set_fault_state(const fifoms::fault::FaultState* faults) override {
    inner_->set_fault_state(faults);
  }
  void save_state(fifoms::snapshot::Writer& out) const override;
  void load_state(fifoms::snapshot::Reader& in) override;

 private:
  /// Copies offered through this decorator must equal copies delivered
  /// plus purged plus the copies still queued in the model, counted from
  /// its queue structure.  Returns false on a mismatch.
  bool check_conservation() const;

  std::unique_ptr<fifoms::SwitchModel> inner_;
  std::shared_ptr<Probe> probe_;
  bool baseline_;
  // Conservation ledger of this model instance; load_state re-bases it.
  std::uint64_t offered_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t purged_ = 0;
};

class ProbedObserver final : public fifoms::SlotObserver {
 public:
  /// Forwards to `inner` (not owned) with `real` in place of the switch
  /// the simulator passes, so observers that inspect the concrete model
  /// type (the auditor) see the undecorated switch.  `link` is this
  /// observer's position in the chain, outermost 0.
  ProbedObserver(fifoms::SlotObserver& inner, const fifoms::SwitchModel& real,
                 int link, std::shared_ptr<Probe> probe);

  void on_inject(const fifoms::SwitchModel& sw,
                 const fifoms::Packet& packet) override;
  void on_fault_event(SlotTime now, const fifoms::SwitchModel& sw,
                      const fifoms::fault::FaultEvent& event) override;
  void on_slot(SlotTime now, const fifoms::SwitchModel& sw,
               const fifoms::SlotResult& result) override;
  void save_state(fifoms::snapshot::Writer& out) const override {
    inner_.save_state(out);
  }
  void load_state(fifoms::snapshot::Reader& in) override {
    inner_.load_state(in);
  }

 private:
  fifoms::SlotObserver& inner_;
  const fifoms::SwitchModel& real_;
  int link_;
  std::shared_ptr<Probe> probe_;
};

/// Copies still queued in `sw`, counted from its queue structure (VOQ
/// address cells, FIFO residues, output queues, fabric flights).
/// Returns -1 for a model type it cannot inspect.
std::int64_t queued_copies(const fifoms::SwitchModel& sw);

}  // namespace perfbench
