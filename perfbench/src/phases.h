#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

// The three phases every workload runs — batch calls, a stream update
// loop, and the two serve passes — each split into a set-up (counted in
// setup_s) and measured rounds of a given time budget.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/dbscan_types.h"
#include "geom/dataset.h"
#include "obs/metrics.h"
#include "serve/session_manager.h"
#include "shard/sharded_dbscan.h"
#include "stream/dynamic_clusterer.h"

namespace perfbench {

// What a phase needs besides its own state.
struct Context {
  const Workload& w;
  uint64_t seed;
  bool traced;
  // Test hook: flip one label of every ApproxDbscan output under test.
  bool corrupt;
  Ledger* ledger;
  SpanLog* spans;
  Report* report;  // end-to-end metrics
  Report* layers;  // per-layer metrics (traced pass)

  adbscan::DbscanParams Params(int threads) const {
    return {w.eps, w.min_pts, threads};
  }
  // "<workload>/<part>/<index>", the request id of a span.
  std::string Request(const char* part, size_t index) const;
};

// Work counters of the traced batch pass, copied on each call's first
// traced call: the 1-thread calls' counters are deterministic, so one
// sample is exact.
struct LayerCounts {
  adbscan::obs::MetricsSnapshot approx_t1, exact_t1, sampled;
  adbscan::ShardedRunStats shard;
  double cells = 0, csr_bytes = 0, neighbor_pairs = 0, core_points = 0,
         core_cells = 0;
};

// Wall and process-CPU times of every call of one path.
struct CallTimes {
  Samples wall_ms, cpu_ms;
};

// One schedulable batch call; run(i) makes its i-th call.
struct BatchCall {
  std::function<void(size_t)> run;
  size_t calls = 0;
  double spent_ms = 0.0;
};

struct BatchState {
  adbscan::Dataset data;
  // Warm-up outputs, the references every timed call is checked against.
  adbscan::Clustering approx;
  adbscan::Clustering exact;
  adbscan::Clustering exact_scaled;  // exact at eps * (1 + rho)
  adbscan::Clustering sampled;
  // Filled by the phase's rounds.
  std::vector<BatchCall> calls;
  CallTimes approx_times, approx_t1_times, exact_times, sampled_times,
      sharded_times;
  Samples approx_untraced_ms, pool_util;
  LayerCounts counts;
  explicit BatchState(adbscan::Dataset d) : data(std::move(d)) {}
};

struct StreamState {
  adbscan::Dataset pool;
  std::unique_ptr<Churn> churn;
  std::unique_ptr<adbscan::DynamicClusterer> clusterer;
  double bootstrap_s = 0.0;
  // Filled by the phase's rounds.
  CallTimes update_times;
  Samples scratch_ms;
  size_t batches = 0;
  std::map<std::string, double> counters;
  explicit StreamState(adbscan::Dataset p) : pool(std::move(p)) {}
};

struct ServeState {
  std::vector<adbscan::Dataset> pools;  // one per session
  std::vector<std::unique_ptr<Churn>> churns;
  std::vector<uint64_t> sessions;
  std::unique_ptr<adbscan::serve::SessionManager> manager;
  // Filled by the phase's rounds.
  double capacity_ops = 0.0, capacity_ms = 0.0, capacity_cpu_ms = 0.0;
  Samples capacity_ingest_us, visible_ms, request_cpu_ms, late_ms, ingest_us,
      flush_ms, read_us;
};

// Runs fn with the metrics registry reset and enabled when `on`, and
// returns what it recorded. The registry is process-global, so the reset
// isolates fn's counts.
template <class Fn>
adbscan::obs::MetricsSnapshot WithRegistry(bool on, Fn&& fn) {
  if (!on) {
    fn();
    return {};
  }
  auto& registry = adbscan::obs::MetricsRegistry::Global();
  registry.Reset();
  adbscan::obs::MetricsRegistry::SetEnabled(true);
  fn();
  adbscan::obs::MetricsRegistry::SetEnabled(false);
  return registry.Snapshot();
}

// A registry counter's value, 0 when it was never registered.
double Counter(const adbscan::obs::MetricsSnapshot& s, const std::string& name);

std::unique_ptr<BatchState> SetupBatch(const Context& ctx);
std::unique_ptr<StreamState> SetupStream(const Context& ctx);
std::unique_ptr<ServeState> SetupServe(const Context& ctx);

// Output checks of the set-up references (sandwich, sampled ARI).
void CheckBatchReferences(const Context& ctx, const BatchState& state);

// A run is a few rounds of batch, stream and serve, so a slow spell of the
// machine lands on every metric's samples instead of on one phase. Each
// Run* call is one round with the given time budget; the Finish* calls
// check the final state and report. The traced pass runs one round, since
// its registry snapshots span a whole phase.
void RunBatch(const Context& ctx, BatchState& state, double budget_ms,
              size_t min_calls);
void FinishBatch(const Context& ctx, BatchState& state);
void RunStream(const Context& ctx, StreamState& state, double budget_ms,
               size_t min_batches);
void FinishStream(const Context& ctx, StreamState& state);
// Each round runs a closed-loop capacity pass for a third of the budget and
// an open-loop pass for the rest.
void RunServe(const Context& ctx, ServeState& state, double budget_ms,
              size_t min_requests);
// Checks every session, then shuts the manager down.
void FinishServe(const Context& ctx, ServeState& state);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
