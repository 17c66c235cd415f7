#include "probe.hpp"

#include <algorithm>

#include "net/network_fabric.hpp"
#include "sim/oq_switch.hpp"
#include "sim/single_fifo_switch.hpp"
#include "sim/voq_switch.hpp"

namespace perfbench {

double calibrate_clock_ns() {
  constexpr int kReads = 1000;
  std::vector<double> per_read;
  for (int round = 0; round < 21; ++round) {
    const std::int64_t start = clock_ns();
    std::int64_t last = start;
    for (int i = 0; i < kReads; ++i) last = clock_ns();
    per_read.push_back(static_cast<double>(last - start) / kReads);
  }
  std::sort(per_read.begin(), per_read.end());
  return per_read[per_read.size() / 2];
}

void SlotRow::merge(const SlotRow& other) {
  step.merge(other.step);
  arrival.merge(other.arrival);
  inject.merge(other.inject);
  switch_step.merge(other.switch_step);
  baseline_step.merge(other.baseline_step);
  schedule.merge(other.schedule);
  for (int k = 0; k < kMaxObserverLinks; ++k)
    observer[static_cast<std::size_t>(k)].merge(
        other.observer[static_cast<std::size_t>(k)]);
}

void Ledger::merge(const Ledger& other) {
  sampled_slots += other.sampled_slots;
  total.merge(other.total);
  for (const SlotRow& row : other.rows) {
    if (rows.size() >= kMaxRows) break;
    rows.push_back(row);
  }
  slots += other.slots;
  packets_injected += other.packets_injected;
  copies_injected += other.copies_injected;
  copies_delivered += other.copies_delivered;
  copies_purged += other.copies_purged;
  schedule_calls += other.schedule_calls;
  rounds += other.rounds;
  scheduled_pairs += other.scheduled_pairs;
  conservation_failures += other.conservation_failures;
  cells += other.cells;
  cell_ns_sum += other.cell_ns_sum;
  cell_ns_max = std::max(cell_ns_max, other.cell_ns_max);
}

Probe::~Probe() {
  if (sink_ == nullptr) return;
  const auto lifetime = static_cast<double>(clock_ns() - created_ns_);
  ledger_.cells += 1;
  ledger_.cell_ns_sum += lifetime;
  ledger_.cell_ns_max = std::max(ledger_.cell_ns_max, lifetime);
  const std::lock_guard<std::mutex> lock(*sink_mutex_);
  sink_->merge(ledger_);
}

void Probe::begin_slot(SlotTime now) {
  sampled_ = period_ > 0 && now % period_ == 0;
  if (sampled_) {
    row_ = SlotRow{};
    row_.slot = now;
  }
}

void Probe::end_slot(std::int64_t step_ns) {
  if (!sampled_) return;
  row_.step.add(step_ns);
  ++ledger_.sampled_slots;
  ledger_.total.merge(row_);
  if (ledger_.rows.size() < Ledger::kMaxRows) ledger_.rows.push_back(row_);
  sampled_ = false;
}

void Probe::mark_slot(SlotTime now) {
  const bool next_sampled = period_ > 0 && now % period_ == 0;
  if (!open_ && !next_sampled) return;
  const std::int64_t t = clock_ns();
  if (open_) {
    end_slot(t - slot_start_);
    open_ = false;
  }
  begin_slot(now);
  if (sampled_) {
    slot_start_ = t;
    open_ = true;
  }
}

ProbedTraffic::ProbedTraffic(std::unique_ptr<fifoms::TrafficModel> inner,
                             std::shared_ptr<Probe> probe, bool marks_slots)
    : fifoms::TrafficModel(inner->num_ports()),
      inner_(std::move(inner)),
      probe_(std::move(probe)),
      marks_slots_(marks_slots) {}

fifoms::PortSet ProbedTraffic::arrival(PortId input, SlotTime now,
                                       fifoms::Rng& rng) {
  if (marks_slots_ && input == 0) probe_->mark_slot(now);
  if (!probe_->sampled()) return inner_->arrival(input, now, rng);
  const std::int64_t start = clock_ns();
  fifoms::PortSet destinations = inner_->arrival(input, now, rng);
  probe_->row().arrival.add(clock_ns() - start);
  return destinations;
}

ProbedScheduler::ProbedScheduler(std::unique_ptr<fifoms::VoqScheduler> inner,
                                 std::shared_ptr<Probe> probe)
    : inner_(std::move(inner)), probe_(std::move(probe)) {}

void ProbedScheduler::schedule(std::span<const fifoms::McVoqInput> inputs,
                               SlotTime now, fifoms::SlotMatching& matching,
                               fifoms::Rng& rng,
                               const fifoms::ScheduleConstraints& constraints) {
  if (probe_->sampled()) {
    const std::int64_t start = clock_ns();
    inner_->schedule(inputs, now, matching, rng, constraints);
    probe_->row().schedule.add(clock_ns() - start);
  } else {
    inner_->schedule(inputs, now, matching, rng, constraints);
  }
  Ledger& ledger = probe_->ledger();
  ++ledger.schedule_calls;
  ledger.rounds += static_cast<std::uint64_t>(matching.rounds);
  ledger.scheduled_pairs += static_cast<std::uint64_t>(matching.matched_pairs());
}

ProbedSwitch::ProbedSwitch(std::unique_ptr<fifoms::SwitchModel> inner,
                           std::shared_ptr<Probe> probe, bool baseline)
    : inner_(std::move(inner)), probe_(std::move(probe)), baseline_(baseline) {}

ProbedSwitch::~ProbedSwitch() {
  if (!check_conservation()) ++probe_->ledger().conservation_failures;
}

bool ProbedSwitch::inject(const fifoms::Packet& packet) {
  bool accepted = false;
  if (probe_->sampled()) {
    const std::int64_t start = clock_ns();
    accepted = inner_->inject(packet);
    probe_->row().inject.add(clock_ns() - start);
  } else {
    accepted = inner_->inject(packet);
  }
  if (accepted) {
    const auto copies = static_cast<std::uint64_t>(packet.fanout());
    offered_ += copies;
    Ledger& ledger = probe_->ledger();
    ++ledger.packets_injected;
    ledger.copies_injected += copies;
  }
  return accepted;
}

void ProbedSwitch::step(SlotTime now, fifoms::Rng& rng,
                        fifoms::SlotResult& result) {
  const std::size_t delivered_before = result.deliveries.size();
  const std::size_t purged_before = result.purged.size();
  if (probe_->sampled()) {
    const std::int64_t start = clock_ns();
    inner_->step(now, rng, result);
    const std::int64_t duration = clock_ns() - start;
    (baseline_ ? probe_->row().baseline_step : probe_->row().switch_step)
        .add(duration);
  } else {
    inner_->step(now, rng, result);
  }
  const auto delivered =
      static_cast<std::uint64_t>(result.deliveries.size() - delivered_before);
  const auto purged =
      static_cast<std::uint64_t>(result.purged.size() - purged_before);
  delivered_ += delivered;
  purged_ += purged;
  Ledger& ledger = probe_->ledger();
  ++ledger.slots;
  ledger.copies_delivered += delivered;
  ledger.copies_purged += purged;
}

void ProbedSwitch::clear() {
  inner_->clear();
  offered_ = delivered_ = purged_ = 0;
}

void ProbedSwitch::save_state(fifoms::snapshot::Writer& out) const {
  inner_->save_state(out);
}

void ProbedSwitch::load_state(fifoms::snapshot::Reader& in) {
  inner_->load_state(in);
  // A restored model starts with the checkpoint's queued copies on its
  // books; everything after is counted as it happens.
  const std::int64_t queued = queued_copies(*inner_);
  offered_ = queued < 0 ? 0 : static_cast<std::uint64_t>(queued);
  delivered_ = purged_ = 0;
}

bool ProbedSwitch::check_conservation() const {
  const std::int64_t queued = queued_copies(*inner_);
  return queued >= 0 &&
         offered_ == delivered_ + purged_ + static_cast<std::uint64_t>(queued);
}

ProbedObserver::ProbedObserver(fifoms::SlotObserver& inner,
                               const fifoms::SwitchModel& real, int link,
                               std::shared_ptr<Probe> probe)
    : inner_(inner), real_(real), link_(link), probe_(std::move(probe)) {}

void ProbedObserver::on_inject(const fifoms::SwitchModel&,
                               const fifoms::Packet& packet) {
  if (!probe_->sampled()) return inner_.on_inject(real_, packet);
  const std::int64_t start = clock_ns();
  inner_.on_inject(real_, packet);
  probe_->row().observer[static_cast<std::size_t>(link_)].add(clock_ns() -
                                                              start);
}

void ProbedObserver::on_fault_event(SlotTime now, const fifoms::SwitchModel&,
                                    const fifoms::fault::FaultEvent& event) {
  if (!probe_->sampled()) return inner_.on_fault_event(now, real_, event);
  const std::int64_t start = clock_ns();
  inner_.on_fault_event(now, real_, event);
  probe_->row().observer[static_cast<std::size_t>(link_)].add(clock_ns() -
                                                              start);
}

void ProbedObserver::on_slot(SlotTime now, const fifoms::SwitchModel&,
                             const fifoms::SlotResult& result) {
  if (!probe_->sampled()) return inner_.on_slot(now, real_, result);
  const std::int64_t start = clock_ns();
  inner_.on_slot(now, real_, result);
  probe_->row().observer[static_cast<std::size_t>(link_)].add(clock_ns() -
                                                              start);
}

std::int64_t queued_copies(const fifoms::SwitchModel& sw) {
  std::int64_t copies = 0;
  if (const auto* voq = dynamic_cast<const fifoms::VoqSwitch*>(&sw)) {
    for (PortId port = 0; port < voq->num_inputs(); ++port)
      copies += static_cast<std::int64_t>(voq->input(port).address_cell_count());
    return copies;
  }
  if (const auto* fifo = dynamic_cast<const fifoms::SingleFifoSwitch*>(&sw)) {
    for (PortId port = 0; port < fifo->num_inputs(); ++port)
      for (const fifoms::FifoCell& cell : fifo->input(port).cells())
        copies += cell.remaining.count();
    return copies;
  }
  if (const auto* oq = dynamic_cast<const fifoms::OqSwitch*>(&sw)) {
    for (PortId port = 0; port < oq->num_outputs(); ++port)
      copies += static_cast<std::int64_t>(oq->occupancy(port));
    return copies;
  }
  if (const auto* net = dynamic_cast<const fifoms::net::NetworkFabric*>(&sw))
    return static_cast<std::int64_t>(net->queued_external_copies());
  return -1;
}

}  // namespace perfbench
