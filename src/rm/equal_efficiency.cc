#include "src/rm/equal_efficiency.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/obs/counters.h"

namespace pdpa {

EqualEfficiency::EqualEfficiency() : EqualEfficiency(Params{}) {}

EqualEfficiency::EqualEfficiency(Params params) : params_(params) {
  PDPA_CHECK_GE(params.fixed_ml, 1);
  PDPA_CHECK_GE(params.history, 2);
  BindInstruments(Registry::Default());
}

void EqualEfficiency::BindInstruments(Registry& registry) {
  reallocations_ = registry.counter("policy.equal_eff.reallocations");
}

AllocationPlan EqualEfficiency::OnJobStart(const PolicyContext& ctx, JobId job) {
  models_[job] = JobModel{};
  memo_jobs_.clear();
  return Reallocate(ctx);
}

AllocationPlan EqualEfficiency::OnJobFinish(const PolicyContext& ctx, JobId job) {
  models_.erase(job);
  memo_jobs_.clear();
  return Reallocate(ctx);
}

AllocationPlan EqualEfficiency::OnReport(const PolicyContext& ctx, const PerfReport& report) {
  JobModel& model = models_[report.job];
  model.samples.push_back(Sample{report.procs, report.speedup});
  if (static_cast<int>(model.samples.size()) > params_.history) {
    model.samples.erase(model.samples.begin());
  }
  memo_jobs_.clear();
  // Reallocating on every report is what makes Equal_efficiency "too
  // sensitive to small changes in the efficiency measurements" (Sec. 5.1).
  return Reallocate(ctx);
}

AllocationPlan EqualEfficiency::OnQuantum(const PolicyContext& ctx) { return Reallocate(ctx); }

bool EqualEfficiency::ShouldAdmit(const PolicyContext& ctx) const {
  return static_cast<int>(ctx.jobs.size()) < params_.fixed_ml;
}

double EqualEfficiency::ExtrapolatedSpeedup(JobId job, double p) const {
  if (p <= 0.0) {
    return 0.0;
  }
  return FitOf(job).SpeedupAt(p);
}

EqualEfficiency::Fit EqualEfficiency::FitOf(JobId job) const {
  const auto it = models_.find(job);
  if (it == models_.end() || it->second.samples.empty()) {
    // No knowledge: optimistically assume linear speedup (this is what makes
    // the policy hand 30 processors to a brand-new job).
    return Fit{};
  }
  const std::vector<Sample>& samples = it->second.samples;
  const Sample& latest = samples.back();
  double alpha = params_.default_alpha;
  // Fit the exponent through the two most recent samples at distinct
  // processor counts: S(p) = S1 * (p / p1)^alpha.
  for (auto rit = samples.rbegin() + 1; rit != samples.rend(); ++rit) {
    if (rit->procs != latest.procs && rit->procs > 0 && rit->speedup > 0.0) {
      const double num = std::log(latest.speedup / rit->speedup);
      const double den = std::log(static_cast<double>(latest.procs) / rit->procs);
      if (std::abs(den) > 1e-9) {
        alpha = std::clamp(num / den, params_.min_alpha, params_.max_alpha);
      }
      break;
    }
  }
  return Fit{false, latest.speedup, static_cast<double>(latest.procs), alpha};
}

AllocationPlan EqualEfficiency::Reallocate(const PolicyContext& ctx) {
  if (ctx.jobs.empty()) {
    return AllocationPlan{};
  }
  reallocations_->Increment();
  const auto same_job = [](const std::pair<JobId, int>& memo, const PolicyJobInfo& job) {
    return memo.first == job.id && memo.second == job.request;
  };
  // A cleared key never matches: ctx.jobs is not empty here.
  if (memo_cpus_ != ctx.total_cpus ||
      !std::equal(memo_jobs_.begin(), memo_jobs_.end(), ctx.jobs.begin(), ctx.jobs.end(),
                  same_job)) {
    memo_plan_ = ComputePlan(ctx);
    memo_cpus_ = ctx.total_cpus;
    memo_jobs_.clear();
    for (const PolicyJobInfo& job : ctx.jobs) {
      memo_jobs_.emplace_back(job.id, job.request);
    }
  }
  return memo_plan_;
}

AllocationPlan EqualEfficiency::ComputePlan(const PolicyContext& ctx) const {
  // Everyone gets one processor (run-to-completion floor), then processors
  // go one at a time to the job whose *extrapolated* efficiency at its next
  // allocation is highest. Only the winner's next efficiency changes in a
  // round, so each job is fitted once and re-evaluated only when it wins.
  AllocationPlan plan;
  int remaining = ctx.total_cpus;
  for (const PolicyJobInfo& job : ctx.jobs) {
    plan[job.id] = 1;
    --remaining;
  }
  if (remaining < 0) {
    // More jobs than processors cannot happen with the paper's MLs.
    return plan;
  }
  struct Candidate {
    Fit fit;
    int next = 2;
    int request = 0;
    double eff = 0.0;  // extrapolated efficiency at `next`
  };
  std::vector<Candidate> candidates;
  candidates.reserve(ctx.jobs.size());
  const auto evaluate = [](Candidate& c) {
    c.eff = c.fit.SpeedupAt(c.next) / c.next;
  };
  for (const PolicyJobInfo& job : ctx.jobs) {
    Candidate& c = candidates.emplace_back(Candidate{FitOf(job.id), 2, job.request, 0.0});
    evaluate(c);
  }
  while (remaining > 0) {
    double best_eff = -1.0;
    std::size_t best = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const Candidate& c = candidates[i];
      if (c.next <= c.request && c.eff > best_eff) {
        best_eff = c.eff;
        best = i;
      }
    }
    if (best == candidates.size()) {
      break;  // Every job is at its request.
    }
    ++plan[ctx.jobs[best].id];
    ++candidates[best].next;
    evaluate(candidates[best]);
    --remaining;
  }
  return plan;
}

}  // namespace pdpa
