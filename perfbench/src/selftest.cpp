// Self-tests of the benchmark's own machinery: the tail-percentile rule
// and the transparency of the timing decorators.  A decorator that
// misses a forward silently changes results, so every virtual of
// TrafficModel, SwitchModel, VoqScheduler and SlotObserver is called
// through its decorator against a spy, and every workload shape is run
// plain and probed on a short horizon with the digests compared.
//
// Exit status 0 when every check passed, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "probe.hpp"
#include "snapshot/snapshot.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using fifoms::Packet;
using fifoms::PortSet;
using fifoms::Rng;
using fifoms::SlotResult;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

// ---- tail rule -------------------------------------------------------------

void test_tail_rule() {
  for (std::size_t n : {11u, 12u, 50u, 101u, 1000u, 4321u}) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
    std::shuffle(values.begin(), values.end(), std::mt19937(7));
    const Tail t = tail(values);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(values.begin(), values.end(),
                      [&](double v) { return v > t.value; }));
    expect(beyond == kTailBeyond,
           "tail of " + std::to_string(n) + " samples has " +
               std::to_string(beyond) + " beyond it, want 10");
    expect(t.samples == n, "tail reports its sample count");
    const double want =
        100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
    expect(t.percentile == want, "tail percentile of " + std::to_string(n));
  }
  bool threw = false;
  try {
    (void)tail(std::vector<double>(10, 1.0));
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "tail of 10 samples must refuse: no rank has 10 beyond it");

  // Grouped: 3 full groups of 160 ramps plus a remainder that joins them;
  // one huge stall lands in one group and moves no group's median.
  std::vector<double> run;
  for (int g = 0; g < 3; ++g)
    for (std::size_t i = 0; i < kTailGroup + 20; ++i)
      run.push_back(static_cast<double>(i + 1));
  run[5] = 1e9;
  const GroupedTail grouped = grouped_tail(run);
  expect(grouped.groups == 3 && grouped.tail.samples == kTailGroup + 20,
         "grouped tail: three groups of 180 blocks");
  expect(grouped.tail.value == static_cast<double>(kTailGroup + 20 - 10),
         "grouped tail: the median of the groups' tails ignores one stall");
  expect(grouped_tail(std::vector<double>(kTailGroup - 1, 2.0)).groups == 1,
         "grouped tail: fewer blocks than a group make one group");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median of odd and even samples");
}

// ---- forwarding against spies ------------------------------------------------

/// Per-virtual call counts of a spy.
struct Calls {
  std::vector<std::string> seen;
  bool saw(const std::string& name) const {
    return std::find(seen.begin(), seen.end(), name) != seen.end();
  }
};

class SpyTraffic final : public fifoms::TrafficModel {
 public:
  explicit SpyTraffic(Calls& calls) : TrafficModel(4), calls_(calls) {}
  std::string_view name() const override {
    calls_.seen.push_back("name");
    return "spy-traffic";
  }
  void reset(Rng&) override { calls_.seen.push_back("reset"); }
  PortSet arrival(PortId, SlotTime, Rng&) override {
    calls_.seen.push_back("arrival");
    PortSet out;
    out.insert(2);
    return out;
  }
  double offered_load() const override {
    calls_.seen.push_back("offered_load");
    return 0.375;
  }
  int last_priority() const override {
    calls_.seen.push_back("last_priority");
    return 3;
  }
  void save_state(fifoms::snapshot::Writer& out) const override {
    calls_.seen.push_back("save_state");
    out.u64(11);
  }
  void load_state(fifoms::snapshot::Reader& in) override {
    calls_.seen.push_back("load_state");
    (void)in.u64();
  }

 private:
  Calls& calls_;
};

class SpySwitch final : public fifoms::SwitchModel {
 public:
  explicit SpySwitch(Calls& calls) : calls_(calls) {}
  std::string_view name() const override {
    calls_.seen.push_back("name");
    return "spy-switch";
  }
  int num_inputs() const override {
    calls_.seen.push_back("num_inputs");
    return 4;
  }
  int num_outputs() const override {
    calls_.seen.push_back("num_outputs");
    return 5;
  }
  bool inject(const Packet&) override {
    calls_.seen.push_back("inject");
    return false;
  }
  std::uint64_t dropped_packets() const override {
    calls_.seen.push_back("dropped_packets");
    return 17;
  }
  void step(SlotTime, Rng&, SlotResult& result) override {
    calls_.seen.push_back("step");
    result.rounds = 9;
  }
  std::size_t occupancy(PortId port) const override {
    calls_.seen.push_back("occupancy");
    return static_cast<std::size_t>(port) + 100;
  }
  int occupancy_ports() const override {
    calls_.seen.push_back("occupancy_ports");
    return 6;
  }
  std::size_t total_buffered() const override {
    calls_.seen.push_back("total_buffered");
    return 23;
  }
  void clear() override { calls_.seen.push_back("clear"); }
  void set_fault_state(const fifoms::fault::FaultState* faults) override {
    calls_.seen.push_back(faults == nullptr ? "set_fault_state(null)"
                                            : "set_fault_state");
  }
  void save_state(fifoms::snapshot::Writer& out) const override {
    calls_.seen.push_back("save_state");
    out.u64(12);
  }
  void load_state(fifoms::snapshot::Reader& in) override {
    calls_.seen.push_back("load_state");
    (void)in.u64();
  }

 private:
  Calls& calls_;
};

class SpyScheduler final : public fifoms::VoqScheduler {
 public:
  explicit SpyScheduler(Calls& calls) : calls_(calls) {}
  std::string_view name() const override {
    calls_.seen.push_back("name");
    return "spy-scheduler";
  }
  void reset(int, int) override { calls_.seen.push_back("reset"); }
  using fifoms::VoqScheduler::schedule;
  void schedule(std::span<const fifoms::McVoqInput>, SlotTime,
                fifoms::SlotMatching& matching, Rng&,
                const fifoms::ScheduleConstraints& constraints) override {
    calls_.seen.push_back(constraints.failed_outputs.contains(1)
                              ? "schedule(constrained)"
                              : "schedule");
    matching.rounds = 4;
  }
  void save_state(fifoms::snapshot::Writer& out) const override {
    calls_.seen.push_back("save_state");
    out.u64(13);
  }
  void load_state(fifoms::snapshot::Reader& in) override {
    calls_.seen.push_back("load_state");
    (void)in.u64();
  }

 private:
  Calls& calls_;
};

class SpyObserver final : public fifoms::SlotObserver {
 public:
  SpyObserver(Calls& calls, const fifoms::SwitchModel& real)
      : calls_(calls), real_(real) {}
  void on_inject(const fifoms::SwitchModel& sw, const Packet&) override {
    calls_.seen.push_back(&sw == &real_ ? "on_inject" : "on_inject(wrapped)");
  }
  void on_fault_event(SlotTime, const fifoms::SwitchModel& sw,
                      const fifoms::fault::FaultEvent&) override {
    calls_.seen.push_back(&sw == &real_ ? "on_fault_event"
                                        : "on_fault_event(wrapped)");
  }
  void on_slot(SlotTime, const fifoms::SwitchModel& sw,
               const SlotResult&) override {
    calls_.seen.push_back(&sw == &real_ ? "on_slot" : "on_slot(wrapped)");
  }
  void save_state(fifoms::snapshot::Writer& out) const override {
    calls_.seen.push_back("save_state");
    out.u64(14);
  }
  void load_state(fifoms::snapshot::Reader& in) override {
    calls_.seen.push_back("load_state");
    (void)in.u64();
  }

 private:
  Calls& calls_;
  const fifoms::SwitchModel& real_;
};

void expect_saw(const Calls& calls, const std::string& layer,
                const std::vector<std::string>& names) {
  for (const std::string& name : names)
    expect(calls.saw(name), layer + " decorator does not forward " + name);
}

/// Round-trips `save` through a Writer into `load` and checks the bytes.
template <typename Saver, typename Loader>
void round_trip(const Saver& save, Loader& load, std::uint64_t marker,
                const std::string& layer) {
  fifoms::snapshot::Writer writer;
  save.save_state(writer);
  fifoms::snapshot::Reader probe_reader(writer.bytes());
  expect(writer.size() == 8 && probe_reader.u64() == marker,
         layer + " save_state bytes are not the inner model's");
  fifoms::snapshot::Reader reader(writer.bytes());
  load.load_state(reader);
}

void test_forwarding(bool sampled) {
  const std::string mode = sampled ? " (sampled slot)" : " (unsampled slot)";
  auto probe = std::make_shared<Probe>(sampled ? 1 : 1'000'000);
  probe->begin_slot(sampled ? 0 : 1);
  Rng rng(1);

  Calls traffic_calls;
  ProbedTraffic traffic(std::make_unique<SpyTraffic>(traffic_calls), probe);
  fifoms::TrafficModel& t = traffic;
  expect(t.name() == "spy-traffic", "traffic name" + mode);
  t.reset(rng);
  expect(t.arrival(0, 0, rng).contains(2), "traffic arrival" + mode);
  expect(t.offered_load() == 0.375, "traffic offered_load" + mode);
  expect(t.last_priority() == 3, "traffic last_priority" + mode);
  expect(t.num_ports() == 4, "traffic num_ports" + mode);
  round_trip(t, t, 11, "traffic");
  expect_saw(traffic_calls, "TrafficModel" + mode,
             {"name", "reset", "arrival", "offered_load", "last_priority",
              "save_state", "load_state"});

  Calls switch_calls;
  auto spy_switch = std::make_unique<SpySwitch>(switch_calls);
  {
    ProbedSwitch probed(std::move(spy_switch), probe);
    fifoms::SwitchModel& sw = probed;
    expect(sw.name() == "spy-switch", "switch name" + mode);
    expect(sw.num_inputs() == 4 && sw.num_outputs() == 5,
           "switch port counts" + mode);
    Packet packet;
    packet.input = 0;
    packet.destinations.insert(1);
    expect(!sw.inject(packet), "switch inject result" + mode);
    expect(sw.dropped_packets() == 17, "switch dropped_packets" + mode);
    SlotResult result;
    sw.step(0, rng, result);
    expect(result.rounds == 9, "switch step result" + mode);
    expect(sw.occupancy(2) == 102, "switch occupancy" + mode);
    expect(sw.occupancy_ports() == 6, "switch occupancy_ports" + mode);
    expect(sw.total_buffered() == 23, "switch total_buffered" + mode);
    sw.clear();
    const fifoms::fault::FaultPlan plan;
    const fifoms::fault::FaultState state(plan);
    sw.set_fault_state(&state);
    sw.set_fault_state(nullptr);
    round_trip(sw, sw, 12, "switch");
  }
  expect_saw(switch_calls, "SwitchModel" + mode,
             {"name", "num_inputs", "num_outputs", "inject", "dropped_packets",
              "step", "occupancy", "occupancy_ports", "total_buffered",
              "clear", "set_fault_state", "set_fault_state(null)",
              "save_state", "load_state"});

  Calls scheduler_calls;
  ProbedScheduler scheduler(std::make_unique<SpyScheduler>(scheduler_calls),
                            probe);
  fifoms::VoqScheduler& s = scheduler;
  expect(s.name() == "spy-scheduler", "scheduler name" + mode);
  s.reset(4, 4);
  fifoms::SlotMatching matching(4, 4);
  s.schedule({}, 0, matching, rng);
  expect(matching.rounds == 4, "scheduler rounds" + mode);
  fifoms::ScheduleConstraints constraints;
  constraints.failed_outputs.insert(1);
  s.schedule({}, 0, matching, rng, constraints);
  round_trip(s, s, 13, "scheduler");
  expect_saw(scheduler_calls, "VoqScheduler" + mode,
             {"name", "reset", "schedule", "schedule(constrained)",
              "save_state", "load_state"});

  Calls observer_calls;
  Calls real_calls;
  SpySwitch real(real_calls);
  SpySwitch wrapper(real_calls);
  SpyObserver spy(observer_calls, real);
  ProbedObserver observer(spy, real, 0, probe);
  fifoms::SlotObserver& o = observer;
  o.on_inject(wrapper, Packet{});
  o.on_fault_event(0, wrapper, fifoms::fault::FaultEvent{});
  o.on_slot(0, wrapper, SlotResult{});
  round_trip(o, o, 14, "observer");
  expect_saw(observer_calls, "SlotObserver" + mode,
             {"on_inject", "on_fault_event", "on_slot", "save_state",
              "load_state"});
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest WORK_DIR\n");
    return 2;
  }
  try {
    test_tail_rule();
    test_forwarding(true);
    test_forwarding(false);
    for (const std::string& failure : check_decorator_transparency(argv[1]))
      expect(false, failure);
  } catch (const std::exception& e) {
    expect(false, std::string("exception: ") + e.what());
  }
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return 0;
}
