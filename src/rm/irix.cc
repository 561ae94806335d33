#include "src/rm/irix.h"

#include <algorithm>
#include <numeric>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

IrixTimeShare::IrixTimeShare(Params params, Rng rng) : params_(params), rng_(rng) {
  PDPA_CHECK_GE(params.fixed_ml, 1);
  PDPA_CHECK_GE(params.migration_cost, 0.0);
  PDPA_CHECK_LE(params.migration_cost, 1.0);
  BindInstruments(Registry::Default());
}

void IrixTimeShare::BindInstruments(Registry& registry) {
  dispatch_ticks_ = registry.counter("policy.irix.dispatch_ticks");
}

AllocationPlan IrixTimeShare::OnJobStart(const PolicyContext& ctx, JobId job) {
  for (const PolicyJobInfo& info : ctx.jobs) {
    if (info.id == job) {
      // The SGI-MP library spawns OMP_NUM_THREADS kernel threads up front.
      for (int i = 0; i < info.request; ++i) {
        threads_.push_back(Thread{job, -1, false, 0.0});
      }
      OnThreadsChanged();
      break;
    }
  }
  return AllocationPlan{};
}

AllocationPlan IrixTimeShare::OnJobFinish(const PolicyContext& ctx, JobId job) {
  (void)ctx;
  if (std::erase_if(threads_, [job](const Thread& t) { return t.job == job; }) > 0) {
    OnThreadsChanged();
  }
  return AllocationPlan{};
}

void IrixTimeShare::OnThreadsChanged() {
  job_ids_.clear();
  for (const Thread& t : threads_) {
    job_ids_.push_back(t.job);
  }
  std::sort(job_ids_.begin(), job_ids_.end());
  job_ids_.erase(std::unique(job_ids_.begin(), job_ids_.end()), job_ids_.end());
  for (Thread& t : threads_) {
    t.job_index = static_cast<int>(std::lower_bound(job_ids_.begin(), job_ids_.end(), t.job) -
                                   job_ids_.begin());
  }
  order_.resize(threads_.size());
  std::iota(order_.begin(), order_.end(), 0);
  order_stale_ = true;
}

bool IrixTimeShare::ShouldAdmit(const PolicyContext& ctx) const {
  return static_cast<int>(ctx.jobs.size()) < params_.fixed_ml;
}

int IrixTimeShare::ThreadCountOf(JobId job) const {
  int count = 0;
  for (const Thread& t : threads_) {
    if (t.job == job) {
      ++count;
    }
  }
  return count;
}

void IrixTimeShare::AdjustThreadCounts(const PolicyContext& ctx, int ncpus) {
  if (ctx.jobs.empty()) {
    return;
  }
  // Fair share per running application (the SGI-MP heuristic reacts to the
  // load average; the effect is a slow drift of each team toward ncpus/ml).
  const int fair = std::max(1, ncpus / static_cast<int>(ctx.jobs.size()));
  bool changed = false;
  for (const PolicyJobInfo& info : ctx.jobs) {
    const std::size_t threads_before = threads_.size();
    const int have = ThreadCountOf(info.id);
    const int floor_threads =
        std::max(1, static_cast<int>(info.request * params_.omp_min_fraction));
    const int want = std::min(info.request, std::max(fair, floor_threads));
    if (have > want) {
      // Retire the hungriest surplus threads (they are spinning anyway).
      int to_remove = std::min(params_.omp_adjust_step, have - want);
      for (auto it = threads_.rbegin(); it != threads_.rend() && to_remove > 0;) {
        if (it->job == info.id) {
          it = decltype(it)(threads_.erase(std::next(it).base()));
          --to_remove;
        } else {
          ++it;
        }
      }
    } else if (have < want) {
      for (int i = 0; i < std::min(params_.omp_adjust_step, want - have); ++i) {
        threads_.push_back(Thread{info.id, -1, false, 0.0});
      }
    }
    changed = changed || threads_.size() != threads_before;
  }
  if (changed) {
    OnThreadsChanged();
  }
}

std::map<JobId, TimeShare> IrixTimeShare::TimeShareTick(Machine& machine,
                                                        const PolicyContext& ctx, SimDuration dt,
                                                        std::vector<CpuHandoff>* handoffs) {
  dispatch_ticks_->Increment();
  std::map<JobId, TimeShare> shares;
  for (const PolicyJobInfo& info : ctx.jobs) {
    shares[info.id] = TimeShare{0.0, 1.0};
  }
  const int ncpus = machine.num_cpus();
  clock_ += dt;
  if (params_.omp_dynamic && clock_ >= next_adjust_) {
    AdjustThreadCounts(ctx, ncpus);
    next_adjust_ = clock_ + params_.omp_adjust_period;
  }
  const int nthreads = static_cast<int>(threads_.size());
  if (nthreads == 0) {
    // No runnable threads: every CPU goes idle.
    for (int c = 0; c < ncpus; ++c) {
      const JobId prev_owner = machine.OwnerOf(c);
      if (prev_owner != kIdleJob) {
        machine.SetOwner(c, kIdleJob);
        if (handoffs != nullptr) {
          handoffs->push_back(CpuHandoff{c, prev_owner, kIdleJob});
        }
      }
    }
    return shares;
  }

  // Dispatch order: lowest effective vruntime first, where a thread that ran
  // last tick gets an affinity/timeslice bonus. This is a coarse model of
  // IRIX's priority aging with affinity. Equal keys go in thread-index order.
  const double bonus_s = TimeToSeconds(params_.affinity_bonus);
  keys_.resize(threads_.size());
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    const Thread& t = threads_[i];
    keys_[i] = t.vruntime_s - (t.running ? bonus_s : 0.0);
  }
  const auto before = [this](int a, int b) {
    const double ka = keys_[static_cast<std::size_t>(a)];
    const double kb = keys_[static_cast<std::size_t>(b)];
    return ka < kb || (ka == kb && a < b);
  };
  if (order_stale_) {
    std::sort(order_.begin(), order_.end(), before);
    order_stale_ = false;
  } else {
    for (std::size_t i = 1; i < order_.size(); ++i) {
      const int moving = order_[i];
      std::size_t j = i;
      for (; j > 0 && before(moving, order_[j - 1]); --j) {
        order_[j] = order_[j - 1];
      }
      order_[j] = moving;
    }
  }

  const int to_run = std::min(ncpus, nthreads);
  cpu_taken_.assign(static_cast<std::size_t>(ncpus), 0);
  cpu_assigned_.assign(static_cast<std::size_t>(ncpus), 0);
  running_by_job_.assign(job_ids_.size(), 0);
  migrations_by_job_.assign(job_ids_.size(), 0);
  const auto thread_at = [this](int rank) -> Thread& {
    return threads_[static_cast<std::size_t>(order_[static_cast<std::size_t>(rank)])];
  };

  // Pass 1: selected threads reclaim their previous CPU when possible.
  for (int i = 0; i < to_run; ++i) {
    const Thread& t = thread_at(i);
    if (t.last_cpu >= 0 && t.last_cpu < ncpus) {
      cpu_taken_[static_cast<std::size_t>(t.last_cpu)] = 1;
    }
  }
  // Pass 2: place every selected thread; the ones whose CPU was claimed by
  // someone else (or who never ran) take the lowest free CPU and migrate.
  // CPUs only ever become assigned during this pass, so the lowest CPU that
  // is neither reclaimed nor assigned, and the lowest unassigned one, only
  // move up: two forward cursors find them.
  const double dt_s = TimeToSeconds(dt);
  int free_cursor = 0;
  int steal_cursor = 0;
  for (int i = 0; i < to_run; ++i) {
    Thread& t = thread_at(i);
    int cpu = -1;
    if (t.last_cpu >= 0 && t.last_cpu < ncpus &&
        cpu_assigned_[static_cast<std::size_t>(t.last_cpu)] == 0 &&
        cpu_taken_[static_cast<std::size_t>(t.last_cpu)] != 0) {
      cpu = t.last_cpu;
    } else {
      while (free_cursor < ncpus && (cpu_taken_[static_cast<std::size_t>(free_cursor)] != 0 ||
                                     cpu_assigned_[static_cast<std::size_t>(free_cursor)] != 0)) {
        ++free_cursor;
      }
      if (free_cursor < ncpus) {
        cpu = free_cursor;
      } else {
        // All non-reclaimed CPUs exhausted: steal any unassigned CPU.
        while (steal_cursor < ncpus && cpu_assigned_[static_cast<std::size_t>(steal_cursor)] != 0) {
          ++steal_cursor;
        }
        if (steal_cursor < ncpus) {
          cpu = steal_cursor;
        }
      }
      if (cpu >= 0 && t.last_cpu >= 0 && cpu != t.last_cpu) {
        ++migrations_by_job_[static_cast<std::size_t>(t.job_index)];
        ++total_thread_migrations_;
      }
    }
    PDPA_CHECK_GE(cpu, 0);
    cpu_assigned_[static_cast<std::size_t>(cpu)] = 1;
    const JobId prev_owner = machine.OwnerOf(cpu);
    if (prev_owner != t.job) {
      machine.SetOwner(cpu, t.job);
      if (handoffs != nullptr) {
        handoffs->push_back(CpuHandoff{cpu, prev_owner, t.job});
      }
    }
    t.last_cpu = cpu;
    t.running = true;
    // Work imbalance jitter desynchronizes dispatch epochs and sustains the
    // migration churn observed on the real machine.
    t.vruntime_s +=
        dt_s * (1.0 + rng_.Uniform(-params_.vruntime_jitter, params_.vruntime_jitter));
    ++running_by_job_[static_cast<std::size_t>(t.job_index)];
  }
  // Threads beyond the CPU count wait this tick.
  for (int i = to_run; i < nthreads; ++i) {
    thread_at(i).running = false;
  }
  // Idle CPUs (fewer threads than CPUs) release their owner.
  for (int c = 0; c < ncpus; ++c) {
    if (cpu_assigned_[static_cast<std::size_t>(c)] == 0 && machine.OwnerOf(c) != kIdleJob) {
      const JobId prev_owner = machine.OwnerOf(c);
      machine.SetOwner(c, kIdleJob);
      if (handoffs != nullptr) {
        handoffs->push_back(CpuHandoff{c, prev_owner, kIdleJob});
      }
    }
  }

  const double overcommit =
      static_cast<double>(nthreads) / static_cast<double>(ncpus);
  const double contention =
      1.0 / (1.0 + params_.overcommit_penalty * std::max(0.0, overcommit - 1.0));
  for (auto& [job, share] : shares) {
    const auto it = std::lower_bound(job_ids_.begin(), job_ids_.end(), job);
    const bool has_threads = it != job_ids_.end() && *it == job;
    const std::size_t k = static_cast<std::size_t>(it - job_ids_.begin());
    const int running = has_threads ? running_by_job_[k] : 0;
    share.effective_procs = static_cast<double>(running);
    double overhead = contention;
    if (running > 0) {
      const int migs = migrations_by_job_[k];
      overhead *= std::max(0.1, 1.0 - params_.migration_cost * static_cast<double>(migs) /
                                          static_cast<double>(running));
    }
    share.overhead = overhead;
  }
  return shares;
}

}  // namespace pdpa
