// Equal_efficiency (Nguyen, Zahorjan, Vaswani): allocate processors using
// runtime-measured efficiencies, extrapolated to unmeasured allocations, so
// the most efficient applications receive the most processors and marginal
// efficiency is equalized.
//
// The paper (Sec. 5.1) observes two weaknesses that this implementation
// reproduces faithfully: the extrapolation is very sensitive to measurement
// noise (high allocation variance, costly reallocations), and there is no
// target efficiency bounding the allocation of poorly scaling applications.
#ifndef SRC_RM_EQUAL_EFFICIENCY_H_
#define SRC_RM_EQUAL_EFFICIENCY_H_

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "src/rm/policy.h"

namespace pdpa {

class EqualEfficiency : public SchedulingPolicy {
 public:
  struct Params {
    int fixed_ml = 4;
    // Exponent assumed for jobs with a single measurement: S(p) ~ p^alpha.
    double default_alpha = 0.85;
    // Clamp for the fitted exponent.
    double min_alpha = 0.0;
    double max_alpha = 1.3;
    // Number of recent measurements kept per job.
    int history = 8;
  };

  EqualEfficiency();
  explicit EqualEfficiency(Params params);

  std::string name() const override { return "Equal_efficiency"; }

  AllocationPlan OnJobStart(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnJobFinish(const PolicyContext& ctx, JobId job) override;
  AllocationPlan OnReport(const PolicyContext& ctx, const PerfReport& report) override;
  AllocationPlan OnQuantum(const PolicyContext& ctx) override;
  bool ShouldAdmit(const PolicyContext& ctx) const override;

  // Extrapolated speedup for a job at allocation p; exposed for tests.
  double ExtrapolatedSpeedup(JobId job, double p) const;

 protected:
  void BindInstruments(Registry& registry) override;

 private:
  struct Sample {
    int procs = 0;
    double speedup = 1.0;
  };
  struct JobModel {
    std::vector<Sample> samples;  // most recent last
  };
  // A job's speedup model S(p) = s1 * (p / p1)^alpha, fitted at its latest
  // sample; `linear` (no samples yet) means S(p) = p.
  struct Fit {
    bool linear = true;
    double s1 = 0.0;
    double p1 = 0.0;
    double alpha = 0.0;
    double SpeedupAt(double p) const { return linear ? p : s1 * std::pow(p / p1, alpha); }
  };

  Fit FitOf(JobId job) const;
  // The plan is a function of the models and of the context's capacity and
  // (job, request) list only, so it is memoised under that key: models_
  // changes clear the key, and a context other than the memoised one
  // recomputes the plan.
  AllocationPlan Reallocate(const PolicyContext& ctx);
  AllocationPlan ComputePlan(const PolicyContext& ctx) const;

  Params params_;
  std::map<JobId, JobModel> models_;
  int memo_cpus_ = 0;
  std::vector<std::pair<JobId, int>> memo_jobs_;
  AllocationPlan memo_plan_;
  Counter* reallocations_ = nullptr;
};

}  // namespace pdpa

#endif  // SRC_RM_EQUAL_EFFICIENCY_H_
