// Batch phase: every batch entry point is called on the same dataset, each
// output checked bit for bit against its set-up reference. The traced pass
// also replays the grid pipeline's public steps to time the grid and core
// layers from outside, and copies the work counters of the 1-thread calls
// from the metrics registry.

#include <functional>
#include <optional>

#include "core/approx_dbscan.h"
#include "core/border.h"
#include "core/core_labeling.h"
#include "core/exact_grid.h"
#include "eval/compare.h"
#include "grid/grid.h"
#include "obs/metrics.h"
#include "phases.h"
#include "sample/assign.h"
#include "sample/sampled_dbscan.h"
#include "sample/sampler.h"
#include "shard/sharded_dbscan.h"

namespace perfbench {
namespace {

using adbscan::Clustering;
using adbscan::obs::MetricsSnapshot;

constexpr int kShards = 4;
constexpr double kSampleRate = 0.1;
// fig_sampling's quality floor for the sampled tier.
constexpr double kMinSampledAri = 0.9;

adbscan::SampledDbscanOptions SampleOptions(const Context& ctx) {
  return {kSampleRate, adbscan::SampleStrategy::kUniform,
          adbscan::DeriveSeed(ctx.seed, 3)};
}

double DistEvals(const MetricsSnapshot& s) {
  double total = 0.0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("dist_evals.", 0) == 0) total += static_cast<double>(value);
  }
  return total;
}

// The primary labels of `ref`'s core points (noise elsewhere): what the
// pipeline hands its border step.
std::vector<int32_t> CoreLabels(const Clustering& ref) {
  std::vector<int32_t> out(ref.label.size(), adbscan::kNoise);
  for (size_t i = 0; i < out.size(); ++i) {
    if (ref.is_core[i]) out[i] = ref.label[i];
  }
  return out;
}

// A clustering preset the way the pipeline presets it before its border
// step: core labels, core flags, no extra memberships.
Clustering PresetForBorder(const Clustering& ref,
                           const std::vector<int32_t>& core_label) {
  Clustering out;
  out.num_clusters = ref.num_clusters;
  out.label = core_label;
  out.is_core = ref.is_core;
  return out;
}

// Replays Grid -> WarmNeighborCache -> LabelCorePoints ->
// BuildCoreCellIndex -> AssignBorderPoints at workload threads, fed with
// the pipeline's own core labels, then the sampled tier's DrawSample ->
// LabelCorePointsAmong -> AssignToNearestCore on the same grid. Each
// replay must reproduce its pipeline's output.
void ReplaySteps(const Context& ctx, const BatchState& state, size_t rep,
                 LayerCounts* counts) {
  const adbscan::Dataset& data = state.data;
  const adbscan::DbscanParams params = ctx.Params(kThreads);
  const double eps = ctx.w.eps;

  const std::vector<int32_t> core_label = CoreLabels(state.approx);
  Clustering border = PresetForBorder(state.approx, core_label);
  std::optional<adbscan::Grid> grid;
  std::optional<adbscan::CoreCellIndex> cci;
  std::vector<char> is_core;
  {
    const std::string req = ctx.Request("replay-grid", rep);
    SpanLog::Scope replay(ctx.spans, "replay", req);
    {
      SpanLog::Scope s(ctx.spans, "grid.build", req);
      grid.emplace(data, adbscan::Grid::SideFor(eps, data.dim()), kThreads);
    }
    {
      SpanLog::Scope s(ctx.spans, "grid.neighbors", req);
      grid->WarmNeighborCache(eps, kThreads);
    }
    {
      SpanLog::Scope s(ctx.spans, "core.label", req);
      is_core = adbscan::LabelCorePoints(data, *grid, params);
    }
    {
      SpanLog::Scope s(ctx.spans, "core.cci", req);
      cci.emplace(adbscan::BuildCoreCellIndex(*grid, is_core));
    }
    {
      SpanLog::Scope s(ctx.spans, "core.border", req);
      adbscan::AssignBorderPoints(data, *grid, *cci, is_core, core_label, eps,
                                  &border, kThreads);
    }
  }
  ctx.ledger->Op(is_core == state.approx.is_core &&
                     SameOutput(border, state.approx),
                 "replayed grid/core steps reproduce ApproxDbscan");
  if (rep == 0) {
    counts->cells = static_cast<double>(grid->NumCells());
    counts->csr_bytes = static_cast<double>(grid->CsrBytes());
    for (uint32_t ci = 0; ci < grid->NumCells(); ++ci) {
      counts->neighbor_pairs +=
          static_cast<double>(grid->EpsNeighbors(ci, eps).size());
    }
    counts->core_points = static_cast<double>(state.approx.NumCorePoints());
    counts->core_cells = static_cast<double>(cci->size());
  }

  const adbscan::SampledDbscanOptions so = SampleOptions(ctx);
  const std::vector<int32_t> sampled_core_label = CoreLabels(state.sampled);
  Clustering assigned = PresetForBorder(state.sampled, sampled_core_label);
  std::vector<char> sampled_core;
  {
    const std::string req = ctx.Request("replay-sampled", rep);
    SpanLog::Scope replay(ctx.spans, "replay", req);
    std::vector<uint32_t> sample;
    {
      SpanLog::Scope s(ctx.spans, "sample.draw", req);
      sample = adbscan::DrawSample(data, so.sample_rate, so.strategy, so.seed,
                                   kThreads);
    }
    {
      SpanLog::Scope s(ctx.spans, "sample.label", req);
      sampled_core =
          adbscan::LabelCorePointsAmong(data, *grid, params, sample);
    }
    std::optional<adbscan::CoreCellIndex> sampled_cci;
    {
      SpanLog::Scope s(ctx.spans, "sample.cci", req);
      sampled_cci.emplace(adbscan::BuildCoreCellIndex(*grid, sampled_core));
    }
    {
      SpanLog::Scope s(ctx.spans, "sample.assign", req);
      adbscan::AssignToNearestCore(data, *grid, *sampled_cci, sampled_core,
                                   sampled_core_label, eps, kThreads,
                                   &assigned);
    }
  }
  std::sort(assigned.extra_memberships.begin(),
            assigned.extra_memberships.end());
  ctx.ledger->Op(sampled_core == state.sampled.is_core &&
                     SameOutput(assigned, state.sampled),
                 "replayed sampled steps reproduce SampledDbscan");
}

void ReportLayers(const Context& ctx, const BatchState& st) {
  const LayerCounts& c = st.counts;
  const Samples& approx = st.approx_times.wall_ms;
  const Samples& exact = st.exact_times.wall_ms;
  Report& r = *ctx.layers;
  const SpanLog& spans = *ctx.spans;
  double replayed = 0.0;
  for (const char* step : {"grid.build", "grid.neighbors", "core.label",
                           "core.cci", "core.border"}) {
    replayed += spans.Durations(step).Median();
  }
  r.SetMedian("grid.build_ms", spans.Durations("grid.build"), "ms");
  r.SetMedian("grid.neighbors_ms", spans.Durations("grid.neighbors"), "ms");
  r.Set("grid.cells", c.cells, "count");
  r.Set("grid.csr_bytes", c.csr_bytes, "bytes");
  r.Set("grid.neighbor_pairs", c.neighbor_pairs, "count");
  r.SetMedian("core.label_ms", spans.Durations("core.label"), "ms");
  r.Set("core.core_points", c.core_points, "count");
  r.SetMedian("core.cci_ms", spans.Durations("core.cci"), "ms");
  r.Set("core.core_cells", c.core_cells, "count");
  r.SetMedian("core.border_ms", spans.Durations("core.border"), "ms");
  r.Set("core.approx_edges_ms", approx.Median() - replayed, "ms");
  r.Note("core.approx_edges_ms", "derived: approx - replayed steps");
  r.Set("core.exact_edges_ms", exact.Median() - replayed, "ms");
  r.Note("core.exact_edges_ms", "derived: exact - replayed steps");

  const MetricsSnapshot& a1 = c.approx_t1;
  const MetricsSnapshot& e1 = c.exact_t1;
  for (const char* name :
       {"graph.candidate_pairs", "graph.edge_tests", "graph.edges",
        "rangecount.structures", "rangecount.probes",
        "rangecount.nodes_visited", "dist_evals.core_labeling",
        "dist_evals.border", "unionfind.finds", "unionfind.unions"}) {
    r.Set(name, Counter(a1, name), "count");
  }
  const double tests = Counter(a1, "graph.edge_tests");
  r.Set("core.edge_hit_frac",
        tests > 0 ? Counter(a1, "graph.edges") / tests : 0.0, "ratio");
  for (const char* name : {"exact.edge_bcp_tests", "bcp.pair_tests",
                           "bcp.tree_probes", "dist_evals.bcp"}) {
    r.Set(name, Counter(e1, name), "count");
  }
  r.Set("geom.bytes_computed",
        (DistEvals(a1) + DistEvals(e1)) * ctx.w.dim * sizeof(double),
        "bytes");
  r.Note("geom.bytes_computed", "computed, approx_t1 + exact_t1");

  r.Set("util.pool_utilization", st.pool_util.Mean(), "ratio");
  r.Set("util.parallel_eff",
        st.approx_t1_times.wall_ms.Median() / (kThreads * approx.Median()),
        "ratio");
  r.SetMedian("util.approx_wall_ms", approx, "ms");

  r.SetMedian("sample.draw_ms", spans.Durations("sample.draw"), "ms");
  r.SetMedian("sample.label_ms", spans.Durations("sample.label"), "ms");
  r.SetMedian("sample.assign_ms", spans.Durations("sample.assign"), "ms");
  for (const char* name : {"sample.size", "sample.cores",
                           "sample.assign_queries", "sample.assigned"}) {
    r.Set(name, Counter(c.sampled, name), "count");
  }

  r.Set("shard.max_resident_points",
        static_cast<double>(c.shard.max_resident_points), "count");
  r.Set("shard.halo_points", static_cast<double>(c.shard.halo_points),
        "count");
  r.Set("shard.cross_candidates",
        static_cast<double>(c.shard.cross_candidates), "count");
  r.Set("shard.cross_edges", static_cast<double>(c.shard.cross_edges),
        "count");
  r.Set("shard.overhead_x", st.sharded_times.wall_ms.Median() / approx.Median(),
        "ratio");

  r.Set("bench.trace_overhead_frac",
        approx.Median() / st.approx_untraced_ms.Median() - 1.0, "ratio");
  r.Set("bench.replay_self_frac", spans.SelfShare("replay"), "ratio");
}

// Times one call (inside its span), records its wall and CPU times, and
// checks its output against `want`. With `counted`, the call runs with the
// registry reset and enabled, and *counted receives what it recorded.
void Timed(const Context& ctx, const char* name, size_t i, CallTimes* times,
           MetricsSnapshot* counted, const Clustering& want,
           const std::function<Clustering()>& call) {
  Clustering got;
  MetricsSnapshot snap = WithRegistry(counted != nullptr, [&] {
    SpanLog::Scope span(ctx.spans, name, ctx.Request(name, i));
    const double cpu0 = CpuMsNow();
    const Clock::time_point t0 = Clock::now();
    got = call();
    times->wall_ms.Add(MsSince(t0));
    times->cpu_ms.Add(CpuMsNow() - cpu0);
  });
  ctx.ledger->Op(true, name);
  ctx.ledger->Op(SameOutput(got, want),
                 std::string(name) + " output equals its reference");
  if (counted != nullptr) *counted = std::move(snap);
}

Clustering ApproxCall(const Context& ctx, const BatchState& state) {
  Clustering c = adbscan::ApproxDbscan(state.data, ctx.Params(kThreads),
                                       ctx.w.rho);
  if (ctx.corrupt) {
    c.label[0] = c.label[0] == adbscan::kNoise ? 0 : adbscan::kNoise;
  }
  return c;
}

std::vector<BatchCall> MakeCalls(const Context& ctx, BatchState& st) {
  const adbscan::Dataset& data = st.data;
  const adbscan::DbscanParams params = ctx.Params(kThreads);
  const adbscan::DbscanParams serial = ctx.Params(1);
  const double rho = ctx.w.rho;
  LayerCounts& counts = st.counts;
  std::vector<BatchCall> calls;
  calls.push_back({[&ctx, &st](size_t i) {
    MetricsSnapshot util;
    Timed(ctx, "approx", i, &st.approx_times, ctx.traced ? &util : nullptr,
          st.approx, [&] { return ApproxCall(ctx, st); });
    const auto it = util.distributions.find("pool.region_utilization");
    if (it != util.distributions.end() && it->second.count > 0) {
      st.pool_util.Add(it->second.sum / it->second.count);
    }
  }});
  calls.push_back({[&ctx, &st, &data, &counts, serial, rho](size_t i) {
    Timed(ctx, "approx_t1", i, &st.approx_t1_times,
          ctx.traced && i == 0 ? &counts.approx_t1 : nullptr, st.approx,
          [&] { return adbscan::ApproxDbscan(data, serial, rho); });
  }});
  calls.push_back({[&ctx, &st, &data, params](size_t i) {
    Timed(ctx, "exact", i, &st.exact_times, nullptr, st.exact,
          [&] { return adbscan::ExactGridDbscan(data, params); });
  }});
  calls.push_back({[&ctx, &st, &data, &counts, params](size_t i) {
    Timed(ctx, "sampled", i, &st.sampled_times,
          ctx.traced && i == 0 ? &counts.sampled : nullptr, st.sampled, [&] {
            return adbscan::SampledDbscan(data, params, SampleOptions(ctx));
          });
  }});
  calls.push_back({[&ctx, &st, &data, &counts, params, rho](size_t i) {
    Timed(ctx, "sharded", i, &st.sharded_times, nullptr, st.approx, [&] {
      return adbscan::ShardedApproxDbscan(data, params, rho, kShards, {},
                                          i == 0 ? &counts.shard : nullptr);
    });
  }});
  if (!ctx.traced) return calls;
  // The same approx call with tracing and counting off: the base of
  // bench.trace_overhead_frac.
  calls.push_back({[&ctx, &st](size_t) {
    const Clock::time_point t0 = Clock::now();
    const Clustering plain = ApproxCall(ctx, st);
    st.approx_untraced_ms.Add(MsSince(t0));
    ctx.ledger->Op(true, "approx");
    ctx.ledger->Op(SameOutput(plain, st.approx),
                   "approx output equals its reference");
  }});
  calls.push_back({[&ctx, &st, &data, &counts, serial](size_t i) {
    if (i == 0) {
      // Exact's edge-test counts vary with thread interleaving; a 1-thread
      // call gives exact counts.
      CallTimes exact_t1;
      Timed(ctx, "exact_t1", i, &exact_t1, &counts.exact_t1, st.exact,
            [&] { return adbscan::ExactGridDbscan(data, serial); });
    }
    ReplaySteps(ctx, st, i, &counts);
  }});
  return calls;
}

}  // namespace

std::unique_ptr<BatchState> SetupBatch(const Context& ctx) {
  auto state = std::make_unique<BatchState>(
      Generate(ctx.w.dim, ctx.w.batch_n, 0));
  const adbscan::Dataset& data = state->data;
  const adbscan::DbscanParams params = ctx.Params(kThreads);
  // One warm-up call per path: fills the process-wide stencil cache and
  // the per-worker arenas, and keeps the outputs as references.
  state->approx = adbscan::ApproxDbscan(data, params, ctx.w.rho);
  adbscan::ApproxDbscan(data, ctx.Params(1), ctx.w.rho);
  state->exact = adbscan::ExactGridDbscan(data, params);
  adbscan::DbscanParams scaled = params;
  scaled.eps *= 1.0 + ctx.w.rho;
  state->exact_scaled = adbscan::ExactGridDbscan(data, scaled);
  state->sampled = adbscan::SampledDbscan(data, params, SampleOptions(ctx));
  adbscan::ShardedApproxDbscan(data, params, ctx.w.rho, kShards);
  return state;
}

void CheckBatchReferences(const Context& ctx, const BatchState& state) {
  ctx.ledger->Op(adbscan::SatisfiesSandwich(state.exact, state.approx,
                                            state.exact_scaled),
                 "ApproxDbscan sandwiched between exact at eps and "
                 "eps(1+rho)");
  const double ari = adbscan::AdjustedRandIndex(state.sampled, state.exact);
  ctx.ledger->Op(ari >= kMinSampledAri, "sampled ARI vs exact >= 0.9");
  ctx.report->Set("sampled_ari", ari, "ratio");
}

void RunBatch(const Context& ctx, BatchState& state, double budget_ms,
              size_t min_calls) {
  if (state.calls.empty()) state.calls = MakeCalls(ctx, state);
  // Every call first reaches min_calls, round-robin; then the call with
  // the least time spent so far goes next until the budget is used, so
  // the time is shared evenly and a fast call collects more samples.
  const Clock::time_point start = Clock::now();
  for (;;) {
    BatchCall* next = &state.calls[0];
    for (BatchCall& c : state.calls) {
      if (c.calls < next->calls) next = &c;
    }
    if (next->calls >= min_calls) {
      if (MsSince(start) >= budget_ms) break;
      for (BatchCall& c : state.calls) {
        if (c.spent_ms < next->spent_ms) next = &c;
      }
    }
    const Clock::time_point t0 = Clock::now();
    next->run(next->calls);
    next->spent_ms += MsSince(t0);
    ++next->calls;
  }
}

void FinishBatch(const Context& ctx, BatchState& state) {
  Report& r = *ctx.report;
  r.SetMedian("approx_cpu_ms", state.approx_times.cpu_ms, "ms");
  r.SetMedian("approx_t1_cpu_ms", state.approx_t1_times.cpu_ms, "ms");
  r.SetMedian("exact_cpu_ms", state.exact_times.cpu_ms, "ms");
  r.SetMedian("sampled_cpu_ms", state.sampled_times.cpu_ms, "ms");
  r.SetMedian("sharded_cpu_ms", state.sharded_times.cpu_ms, "ms");
  if (ctx.traced) ReportLayers(ctx, state);
}

}  // namespace perfbench
