// Simulation driver: owns the clock and the event queue, and provides
// periodic-task plumbing (ticks, scheduler quanta).
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <functional>

#include "src/common/time_types.h"
#include "src/obs/counters.h"
#include "src/sim/event_queue.h"

namespace pdpa {

class Simulation {
 public:
  // `registry` is the per-run observability registry (borrowed); null means
  // the process-wide Registry::Default(). Every component of one simulated
  // stack resolves its instruments through registry(), which is what lets
  // the sweep engine run simulations concurrently with isolated counters.
  explicit Simulation(Registry* registry = nullptr);
  // Retires this simulation's clock from the log-line time prefix.
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }
  EventQueue& events() { return events_; }
  Registry& registry() const { return *registry_; }

  // Schedules a one-shot callback `delay` from now.
  EventId After(SimDuration delay, EventCallback callback);

  // Schedules `callback(now)` every `period` starting at `start`. The task
  // keeps rescheduling itself until Stop() is called or the run ends.
  // Returns a handle usable with StopPeriodic.
  int SchedulePeriodic(SimTime start, SimDuration period, std::function<void(SimTime)> callback);
  void StopPeriodic(int handle);

  // Like StopPeriodic, but also cancels the task's pending chain event so no
  // dead event lingers in the queue. A fully cancelled periodic leaves the
  // queue state exactly as if the task had never rescheduled — required by
  // the cluster engine, which parks idle node simulations and asserts their
  // queues empty before warping the clock with AdvanceTo.
  void CancelPeriodic(int handle);

  // Runs events until the queue is empty, RequestStop() is called, or the
  // next event lies beyond `until`. Returns the final simulation time.
  //
  // Contract: now() advances to exactly `until` only when the queue drained
  // completely. When the loop stops because the next pending event is later
  // than `until`, or because RequestStop() fired, now() stays at the time of
  // the last dispatched event — which may be strictly less than `until`. In
  // particular a periodic task with period P leaves now() at its last firing
  // <= until (the next instance straddles the horizon and stays queued), so
  // callers must not assume now() == until while events remain pending.
  SimTime RunUntil(SimTime until);

  // Runs until the queue drains completely.
  SimTime RunToCompletion();

  // Dispatches exactly the next pending event (the queue must be non-empty),
  // advancing now() to its time first. The cluster event loop uses this to
  // interleave many node simulations one event at a time in a global
  // (time, node) order.
  void Step();

  // Warps the clock forward to `t` without dispatching anything. Requires
  // t >= now() and that no pending event would be skipped (queue empty or
  // next event at or after `t`). Used to wake parked node simulations at a
  // job-arrival time and to catch a lagging node clock up to a cluster
  // placement instant.
  void AdvanceTo(SimTime t);

  // Requests that the run loop stop after the current event.
  void RequestStop() { stop_requested_ = true; }

  // Shared-prefix forking support. Snapshot() reads the clock of a quiesced
  // simulation; Restore() stamps that clock onto a *fresh* simulation whose
  // components will be reconstructed from their own resume state. Restore
  // deliberately requires an empty event queue: closures cannot be copied
  // across simulations, so components re-schedule themselves after the clock
  // is restored (QueuingSystem::Start, ResourceManager::StartResumed).
  SimTime Snapshot() const { return now_; }
  void Restore(SimTime now);

 private:
  struct PeriodicTask {
    SimDuration period = 0;
    std::function<void(SimTime)> callback;
    bool active = false;
    // The queued chain event for the next firing, so CancelPeriodic can
    // remove it instead of leaving a dead no-op event in the queue. Zero is
    // never a minted EventId (generations start at 1).
    EventId pending = 0;
  };

  void FirePeriodic(int handle, SimTime when);

  SimTime now_ = 0;
  EventQueue events_;
  std::vector<PeriodicTask> periodic_;
  bool stop_requested_ = false;

  Registry* registry_;
  Counter* events_dispatched_;
  Counter* periodic_fires_;
};

}  // namespace pdpa

#endif  // SRC_SIM_SIMULATION_H_
