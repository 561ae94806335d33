#include "src/cluster/cluster.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>
#include <set>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/sim/simulation.h"

namespace pdpa {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kMostFreeCpus:
      return "most-free";
    case PlacementPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "?";
}

const char* PlacementPolicyShortName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "rr";
    case PlacementPolicy::kMostFreeCpus:
      return "mf";
    case PlacementPolicy::kLeastLoaded:
      return "ll";
  }
  return "?";
}

bool ParsePlacementPolicy(std::string_view text, PlacementPolicy* out) {
  if (text == "round-robin" || text == "rr") {
    *out = PlacementPolicy::kRoundRobin;
    return true;
  }
  if (text == "most-free" || text == "mf") {
    *out = PlacementPolicy::kMostFreeCpus;
    return true;
  }
  if (text == "least-loaded" || text == "ll") {
    *out = PlacementPolicy::kLeastLoaded;
    return true;
  }
  return false;
}

namespace {

constexpr SimTime kNever = std::numeric_limits<SimTime>::max();

// One SMP node: a private Simulation plus its NANOS RM and flight-recorder
// sinks. The "visible activity" flags accumulate the node-local facts the
// controller must observe (completions and admission flips) until the
// controller drains them.
struct Node {
  int index = 0;
  Registry registry;
  Simulation sim{&registry};
  std::unique_ptr<ResourceManager> rm;

  std::ostringstream events_sink;
  std::unique_ptr<EventLog> event_log;            // null unless capturing
  std::unique_ptr<TimeSeriesSampler> timeseries;  // null unless capturing

  // Completions since the controller last drained this node, in callback
  // order, as *local* job ids (dense per node, so the RM's JobId-indexed
  // tables stay small no matter how many global jobs the cluster runs).
  std::vector<JobId> finished_local;
  // Controller's last synced view of rm->CanStartJob(), and whether any
  // flip (in either direction) happened since — a flip-and-back still
  // stops the event loop, and the controller deterministically re-syncs to
  // the (unchanged) final value.
  bool admit_shadow = false;
  bool admit_changed = false;
  bool in_visible_list = false;

  // rm->Start() active. A started node with zero jobs is parked again at
  // the completion batch that emptied it, which keeps idle node event
  // queues empty — the engine's termination argument (and AdvanceTo's
  // no-skipped-events contract) depends on that.
  bool started = false;

  // Local id -> workload entry / start time.
  std::vector<const JobSpec*> local_spec;
  std::vector<SimTime> local_start;

  // Key of this node's freshest heap entry; kNever when none. Heap entries
  // are invalidated lazily: an entry is live iff its key still equals
  // queued_at.
  SimTime queued_at = kNever;

  SimTime NextEventTime() { return sim.events().empty() ? kNever : sim.events().NextTime(); }
  bool HasVisible() const { return !finished_local.empty() || admit_changed; }
};

struct HeapEntry {
  SimTime t = 0;
  Node* node = nullptr;
};

struct HeapEntryAfter {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.t != b.t) {
      return a.t > b.t;
    }
    return a.node->index > b.node->index;
  }
};

// The cluster controller and its node event loop. Each controller cycle
// picks a barrier (the next arrival, or the cutoff while no node admits),
// then steps the nodes one event at a time in global (time, node) order up
// to it, stopping right after the first timestamp C at which some node
// surfaced a completion or an admission flip. The controller drains that
// batch at C — completions first, then placements, then parking — in
// canonical node order; with nothing visible it handles the arrival at the
// barrier instead.
class ClusterEngine {
 public:
  ClusterEngine(const std::vector<JobSpec>& workload, const ClusterOptions& options, bool batch)
      : workload_(workload), options_(options), batch_(batch) {
    PDPA_CHECK_GE(options.num_nodes, 1);
    PDPA_CHECK_GE(options.cpus_per_node, 1);
    PDPA_CHECK(options.make_policy != nullptr) << "ClusterOptions::make_policy is required";
    for (std::size_t i = 1; i < workload.size(); ++i) {
      PDPA_CHECK_GE(workload[i].submit, workload[i - 1].submit)
          << "cluster workload must be submit-sorted";
    }
    profiler_ = options.profiler;
    profile_source_ = options.profile_source
                          ? options.profile_source
                          : [](AppClass app_class) -> const AppProfile& {
                              return CachedProfile(app_class);
                            };

    arrivals_ = controller_registry_.counter("cluster.arrivals");
    arrival_batches_ = controller_registry_.counter("cluster.arrival_batches");
    batched_arrivals_ = controller_registry_.counter("cluster.batched_arrivals");
    placements_ = controller_registry_.counter("cluster.placements");
    completions_ = controller_registry_.counter("cluster.completions");
    completion_batches_ = controller_registry_.counter("cluster.completion_batches");
    parks_ = controller_registry_.counter("cluster.parks");
    wakes_ = controller_registry_.counter("cluster.wakes");
    if (options.capture_events) {
      controller_log_ = std::make_unique<EventLog>(&controller_sink_);
    }

    Rng rng(options.seed);
    ResourceManager::Params rm_params = options.rm_params;
    rm_params.num_cpus = options.cpus_per_node;
    nodes_.reserve(static_cast<std::size_t>(options.num_nodes));
    for (int k = 0; k < options.num_nodes; ++k) {
      auto node = std::make_unique<Node>();
      Node* raw = node.get();
      raw->index = k;
      raw->rm = std::make_unique<ResourceManager>(rm_params, options.make_policy(), &raw->sim,
                                                  /*trace=*/nullptr, rng.Fork());
      if (options.capture_events) {
        raw->event_log = std::make_unique<EventLog>(&raw->events_sink);
        raw->event_log->set_node_tag(k);
        raw->rm->set_event_log(raw->event_log.get());
        raw->rm->policy().set_event_log(raw->event_log.get());
      }
      if (options.capture_timeseries) {
        raw->timeseries = std::make_unique<TimeSeriesSampler>();
        raw->rm->set_timeseries(raw->timeseries.get());
      }
      if (profiler_ != nullptr) {
        raw->rm->set_profiler(profiler_);
        raw->sim.events().set_profiler(profiler_);
        if (raw->event_log != nullptr) {
          raw->event_log->set_profiler(profiler_);
        }
      }
      raw->rm->set_job_finish_callback(
          [raw](JobId local, SimTime) { raw->finished_local.push_back(local); });
      raw->rm->set_state_change_callback([raw](SimTime) {
        const bool admit = raw->rm->CanStartJob();
        if (admit != raw->admit_shadow) {
          raw->admit_shadow = admit;
          raw->admit_changed = true;
        }
      });
      raw->admit_shadow = raw->rm->CanStartJob();
      if (raw->admit_shadow) {
        admitting_.insert(k);
      }
      nodes_.push_back(std::move(node));
    }
  }

  ClusterResult Run() {
    const int total = static_cast<int>(workload_.size());
    const SimTime cutoff = options_.max_sim_time > 0 ? options_.max_sim_time : kNever;
    while (completed_ < total) {
      const SimTime arrival_t = arrival_ix_ < total
                                    ? workload_[static_cast<std::size_t>(arrival_ix_)].submit
                                    : kNever;
      // Epoch selection. While no node admits, an arrival is a pure queue
      // push that reads no node state, so the barrier jumps straight to the
      // cutoff and pending arrivals are folded into the completion batches
      // they precede. Otherwise the next arrival re-barriers exactly as in
      // the reference protocol; arrival batching then happens inside
      // HandleArrivals' safe window.
      const bool pure_enqueue = batch_ && admitting_.empty();
      const SimTime barrier = pure_enqueue ? cutoff : std::min(arrival_t, cutoff);

      SimTime visible = kNever;
      {
        ProfScope wait_scope(profiler_, SpanId::kClusterBarrierWait);
        visible = AdvanceNodes(barrier);
      }
      if (visible != kNever) {
        if (batch_) {
          EnqueueArrivalsBefore(visible);
        }
        ProfScope drain_scope(profiler_, SpanId::kClusterDrain);
        HandleVisibleBatch(visible);
        continue;
      }
      // Every node has run its events at or before the barrier.
      if (arrival_t != kNever && arrival_t <= cutoff) {
        HandleArrivals(arrival_t, cutoff);
        continue;
      }
      // No arrival at or before the cutoff is left. With an unbounded
      // cutoff this is the reference protocol's stuck condition (arrivals
      // were all enqueued above, so the queue size diagnostic matches).
      PDPA_CHECK(cutoff != kNever)
          << "cluster stuck: " << queue_.size() << " queued jobs, no arrivals, no running work";
      end_time_ = cutoff;
      break;
    }
    return Finalize(total);
  }

 private:
  // (Re)queues `node` in the heap if its next event time moved.
  void PushNode(Node& node) {
    const SimTime t = node.NextEventTime();
    if (t == kNever) {
      node.queued_at = kNever;
      return;
    }
    if (node.queued_at == t) {
      return;
    }
    node.queued_at = t;
    heap_.push(HeapEntry{t, &node});
  }

  // Prunes stale entries and returns the next live event time.
  SimTime ValidTop() {
    while (!heap_.empty() && heap_.top().t != heap_.top().node->queued_at) {
      heap_.pop();
    }
    return heap_.empty() ? kNever : heap_.top().t;
  }

  // Advances the nodes one event at a time in (time, node) order until the
  // next event would cross the barrier (returns kNever) or lies beyond the
  // first visible activity (returns its time C — same-timestamp events run
  // first, so everything at or before C has run and visible_nodes_ holds
  // every node with activity at C).
  SimTime AdvanceNodes(SimTime barrier) {
    SimTime visible_time = kNever;
    for (;;) {
      const SimTime next_t = ValidTop();
      if (visible_time != kNever && next_t > visible_time) {
        return visible_time;
      }
      // kNever (drained heap) stops even against a kNever barrier.
      if (next_t == kNever || next_t > barrier) {
        return kNever;
      }
      Node* node = heap_.top().node;
      heap_.pop();
      node->queued_at = kNever;
      node->sim.Step();
      if (!node->in_visible_list && node->HasVisible()) {
        node->in_visible_list = true;
        visible_nodes_.push_back(node);
        if (visible_time == kNever) {
          visible_time = next_t;
        }
      }
      PushNode(*node);
    }
  }

  // While no node admits, an arrival strictly before the completion batch
  // at `t` is a pure queue push that reads no node state, logged and
  // counted exactly as its own barrier cycle would have done (submits
  // before t precede finishes at t; arrivals at t itself wait until after
  // the batch, matching the reference finish-before-submit tie order).
  void EnqueueArrivalsBefore(SimTime t) {
    const int total = static_cast<int>(workload_.size());
    if (arrival_ix_ >= total || workload_[static_cast<std::size_t>(arrival_ix_)].submit >= t) {
      return;
    }
    arrival_batches_->Increment();
    while (arrival_ix_ < total && workload_[static_cast<std::size_t>(arrival_ix_)].submit < t) {
      const JobSpec& spec = workload_[static_cast<std::size_t>(arrival_ix_)];
      ++arrival_ix_;
      arrivals_->Increment();
      batched_arrivals_->Increment();
      if (controller_log_ != nullptr) {
        controller_log_->JobSubmit(spec.submit, spec.id, AppClassName(spec.app_class),
                                   spec.request, spec.rigid);
      }
      queue_.push_back(&spec);
    }
  }

  // Drains every node with visible activity at `t`: records completions,
  // syncs admission, places queued jobs, parks emptied nodes — all in
  // canonical (time, node-index) order.
  void HandleVisibleBatch(SimTime t) {
    completion_batches_->Increment();
    std::sort(visible_nodes_.begin(), visible_nodes_.end(),
              [](const Node* a, const Node* b) { return a->index < b->index; });

    for (Node* node : visible_nodes_) {
      node->in_visible_list = false;
      if (!node->finished_local.empty()) {
        end_time_ = t;
      }
      for (const JobId local : node->finished_local) {
        const JobSpec& spec = *node->local_spec[static_cast<std::size_t>(local)];
        JobOutcome outcome;
        outcome.id = spec.id;
        outcome.app_class = spec.app_class;
        outcome.request = spec.request;
        outcome.submit = spec.submit;
        outcome.start = node->local_start[static_cast<std::size_t>(local)];
        outcome.finish = t;
        outcomes_.push_back(outcome);
        outcome_nodes_.push_back(node->index);
        ++completed_;
        completions_->Increment();
        if (controller_log_ != nullptr) {
          controller_log_->JobFinish(t, spec.id, spec.submit, outcome.start);
        }
      }
      node->finished_local.clear();
      node->admit_changed = false;
      SetAdmitting(node->index, node->admit_shadow);
    }

    TryStartJobs(t);
    for (Node* node : visible_nodes_) {
      MaybePark(*node);
    }
    visible_nodes_.clear();
  }

  // Every node has run its events at or before the barrier and the arrival
  // at t is due: enqueue every arrival at t (workload order), place, and —
  // with batching on — keep consuming later arrival groups while each
  // strictly precedes the earliest pending node event E (recomputed after
  // every group's placements). Inside the window no node can produce any
  // event, so the controller state each rr/mf/ll decision reads is exactly
  // the state the one-arrival-per-barrier protocol would read at that
  // group's own barrier cycle — placements are byte-identical.
  void HandleArrivals(SimTime t, SimTime cutoff) {
    arrival_batches_->Increment();
    const int total = static_cast<int>(workload_.size());
    bool first_group = true;
    for (;;) {
      while (arrival_ix_ < total &&
             workload_[static_cast<std::size_t>(arrival_ix_)].submit == t) {
        const JobSpec& spec = workload_[static_cast<std::size_t>(arrival_ix_)];
        ++arrival_ix_;
        arrivals_->Increment();
        if (!first_group) {
          batched_arrivals_->Increment();
        }
        if (controller_log_ != nullptr) {
          controller_log_->JobSubmit(t, spec.id, AppClassName(spec.app_class), spec.request,
                                     spec.rigid);
        }
        queue_.push_back(&spec);
      }
      TryStartJobs(t);
      if (!batch_ || arrival_ix_ >= total) {
        return;
      }
      first_group = false;
      const SimTime next_t = workload_[static_cast<std::size_t>(arrival_ix_)].submit;
      if (next_t > cutoff || next_t >= ValidTop()) {
        return;
      }
      t = next_t;
    }
  }

  void TryStartJobs(SimTime now) {
    while (!queue_.empty()) {
      const int k = ChooseNode();
      if (k < 0) {
        return;
      }
      const JobSpec* spec = queue_.front();
      queue_.pop_front();
      PlaceJob(*spec, k, now);
    }
  }

  // Picks the node for the head job from the admitting set (kept exact at
  // every decision point), ties always to the lowest index.
  int ChooseNode() {
    if (admitting_.empty()) {
      return -1;
    }
    switch (options_.placement) {
      case PlacementPolicy::kRoundRobin: {
        auto it = admitting_.lower_bound(rr_next_);
        if (it == admitting_.end()) {
          it = admitting_.begin();
        }
        const int k = *it;
        rr_next_ = (k + 1) % options_.num_nodes;
        return k;
      }
      case PlacementPolicy::kMostFreeCpus: {
        int best = -1;
        int best_free = -1;
        for (const int k : admitting_) {
          const int free = nodes_[static_cast<std::size_t>(k)]->rm->machine().FreeCpus();
          if (free > best_free) {
            best_free = free;
            best = k;
            if (free == options_.cpus_per_node) {
              break;  // an empty node cannot be beaten
            }
          }
        }
        return best;
      }
      case PlacementPolicy::kLeastLoaded: {
        int best = -1;
        int best_running = 0;
        for (const int k : admitting_) {
          const int running = nodes_[static_cast<std::size_t>(k)]->rm->running_jobs();
          if (best < 0 || running < best_running) {
            best_running = running;
            best = k;
            if (running == 0) {
              break;
            }
          }
        }
        return best;
      }
    }
    return -1;
  }

  void PlaceJob(const JobSpec& spec, int k, SimTime now) {
    ProfScope place_scope(profiler_, SpanId::kClusterPlace);
    Node& node = *nodes_[static_cast<std::size_t>(k)];
    if (!node.started) {
      WakeNode(node, now);
    } else if (node.sim.now() < now) {
      // Idle-but-started node lagging the controller clock; nothing can be
      // pending before `now` (every event at or before the handled time has
      // run), so the warp is safe.
      node.sim.AdvanceTo(now);
    }
    const JobId local = static_cast<JobId>(node.local_spec.size());
    node.local_spec.push_back(&spec);
    node.local_start.push_back(now);
    node.rm->StartJob(local, profile_source_(spec.app_class), spec.request, now, spec.rigid);
    placements_->Increment();
    max_node_running_ = std::max(max_node_running_, node.rm->running_jobs());
    if (controller_log_ != nullptr) {
      place_scratch_.clear();
      JsonObjectWriter writer(&place_scratch_);
      writer.Field("type", "place");
      writer.Field("t_us", static_cast<long long>(now));
      writer.Field("job", static_cast<long long>(spec.id));
      writer.Field("node", k);
      writer.Field("local", static_cast<long long>(local));
      writer.Finish();
      controller_log_->Emit(place_scratch_);
    }
    node.admit_shadow = node.rm->CanStartJob();
    node.admit_changed = false;
    SetAdmitting(k, node.admit_shadow);
    PushNode(node);
  }

  void WakeNode(Node& node, SimTime t) {
    PDPA_CHECK(node.sim.events().empty()) << "parked node " << node.index << " has events";
    node.sim.AdvanceTo(t);
    node.rm->Start();
    node.started = true;
    wakes_->Increment();
  }

  void MaybePark(Node& node) {
    if (!node.started || node.rm->running_jobs() != 0) {
      return;
    }
    node.rm->Stop();
    PDPA_CHECK(node.sim.events().empty())
        << "node " << node.index << " still has events after Stop()";
    node.started = false;
    node.queued_at = kNever;
    parks_->Increment();
  }

  void SetAdmitting(int k, bool admit) {
    if (admit) {
      admitting_.insert(k);
    } else {
      admitting_.erase(k);
    }
  }

  ClusterResult Finalize(int total) {
    // Cutoff path: nodes may still be running jobs. Advance each to the
    // cutoff (its remaining events are all beyond it) and flush.
    for (auto& node_ptr : nodes_) {
      Node& node = *node_ptr;
      if (!node.started) {
        continue;
      }
      if (node.sim.now() < end_time_) {
        node.sim.AdvanceTo(end_time_);
      }
      node.rm->Stop();
      node.started = false;
    }
    if (controller_log_ != nullptr) {
      controller_log_->RunEnd(end_time_, total, completed_ == total);
    }

    ClusterResult result;
    result.outcomes = std::move(outcomes_);
    result.outcome_nodes = std::move(outcome_nodes_);
    result.completed = completed_ == total;
    result.end_time = end_time_;
    result.max_node_running = max_node_running_;
    for (auto& node_ptr : nodes_) {
      Node& node = *node_ptr;
      result.total_reallocations += node.rm->total_reallocations();
      for (const auto& [local, integral] : node.rm->alloc_integral_us()) {
        result.alloc_integral_us[node.local_spec[static_cast<std::size_t>(local)]->id] +=
            integral;
      }
    }
    if (options_.capture_events) {
      controller_log_->Flush();
      std::vector<std::string> streams;
      streams.reserve(nodes_.size() + 1);
      streams.push_back(controller_sink_.str());
      for (auto& node_ptr : nodes_) {
        node_ptr->event_log->Flush();
        streams.push_back(node_ptr->events_sink.str());
      }
      result.events_jsonl = MergeEventStreams(streams);
    }
    if (options_.capture_timeseries) {
      std::vector<const TimeSeriesSampler*> samplers;
      samplers.reserve(nodes_.size());
      for (auto& node_ptr : nodes_) {
        samplers.push_back(node_ptr->timeseries.get());
      }
      std::ostringstream csv;
      WriteClusterTimeSeriesCsv(samplers, csv);
      result.timeseries_csv = csv.str();
    }
    std::vector<RegistrySnapshot> parts;
    parts.reserve(nodes_.size() + 1);
    parts.push_back(controller_registry_.Snapshot());
    for (auto& node_ptr : nodes_) {
      parts.push_back(node_ptr->registry.Snapshot());
    }
    std::vector<const RegistrySnapshot*> part_ptrs;
    part_ptrs.reserve(parts.size());
    for (const RegistrySnapshot& part : parts) {
      part_ptrs.push_back(&part);
    }
    result.counters = MergeRegistrySnapshots(part_ptrs);
    return result;
  }

  const std::vector<JobSpec>& workload_;
  const ClusterOptions& options_;
  // Epoch batching enabled; off, one barrier per arrival, in reference
  // mode (rm_params.reference) and under RunClusterPerArrival.
  const bool batch_;
  // Profiler shared by the controller and the node stacks; null when
  // profiling is off.
  Profiler* profiler_ = nullptr;
  std::function<const AppProfile&(AppClass)> profile_source_;

  Registry controller_registry_;
  Counter* arrivals_ = nullptr;
  Counter* arrival_batches_ = nullptr;
  Counter* batched_arrivals_ = nullptr;
  Counter* placements_ = nullptr;
  Counter* completions_ = nullptr;
  Counter* completion_batches_ = nullptr;
  Counter* parks_ = nullptr;
  Counter* wakes_ = nullptr;
  std::ostringstream controller_sink_;
  std::unique_ptr<EventLog> controller_log_;
  std::string place_scratch_;

  std::vector<std::unique_ptr<Node>> nodes_;
  // Lazy (time, node) min-heap over every node's next event.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapEntryAfter> heap_;
  // Nodes with undrained visible activity at the current batch time.
  std::vector<Node*> visible_nodes_;

  // Controller scheduling state.
  std::set<int> admitting_;
  std::deque<const JobSpec*> queue_;
  int rr_next_ = 0;
  int arrival_ix_ = 0;
  int completed_ = 0;
  SimTime end_time_ = 0;
  int max_node_running_ = 0;
  std::vector<JobOutcome> outcomes_;
  std::vector<int> outcome_nodes_;
};

}  // namespace

ClusterResult RunCluster(const std::vector<JobSpec>& workload, const ClusterOptions& options) {
  ClusterEngine engine(workload, options, /*batch=*/!options.rm_params.reference);
  return engine.Run();
}

ClusterResult RunClusterPerArrival(const std::vector<JobSpec>& workload,
                                   const ClusterOptions& options) {
  ClusterEngine engine(workload, options, /*batch=*/false);
  return engine.Run();
}

}  // namespace pdpa
