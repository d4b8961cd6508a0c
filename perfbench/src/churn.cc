// Stream and serve phases: the incremental paths under a stationary churn
// of half removals of random live ids and half inserts, checked against a
// from-scratch ApproxDbscan over the survivors.

#include <algorithm>
#include <thread>

#include "core/approx_dbscan.h"
#include "obs/metrics.h"
#include "phases.h"

namespace perfbench {
namespace {

using adbscan::Clustering;
using adbscan::obs::MetricsSnapshot;
namespace serve = adbscan::serve;

// The traced stream pass checks Labels() against scratch every this many
// batches.
constexpr size_t kCheckEvery = 16;
// The capacity pass's client waits for the drainer once a session holds
// this many pending ops, so it never reaches the backpressure cap.
constexpr uint64_t kIngestWindow = 4 * kDrainBatchOps;
constexpr double kDrainStallMs = 10000.0;

double UsSince(Clock::time_point t0) { return MsSince(t0) * 1000.0; }

// Labels of the live ids of a global-id clustering, re-indexed to the
// compacted survivor order (ids ascending).
Clustering Compact(const Clustering& global, const std::vector<uint32_t>& ids) {
  Clustering out;
  out.num_clusters = global.num_clusters;
  out.label.reserve(ids.size());
  out.is_core.reserve(ids.size());
  for (uint32_t id : ids) {
    out.label.push_back(global.label[id]);
    out.is_core.push_back(global.is_core[id]);
  }
  for (const auto& [id, cluster] : global.extra_memberships) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    const uint32_t index = static_cast<uint32_t>(it - ids.begin());
    // A dead point carrying a membership can never match the reference.
    out.extra_memberships.emplace_back(
        it != ids.end() && *it == id ? index : ~0u, cluster);
  }
  return out;
}

bool SameCoords(const adbscan::Dataset& a, const adbscan::Dataset& b) {
  return a.size() == b.size() &&
         std::equal(a.raw(), a.raw() + a.size() * a.dim(), b.raw());
}

// Stream Labels() must equal ApproxDbscan on the snapshot's points, and the
// snapshot must hold exactly the survivors the churn generator expects.
void CheckStream(const Context& ctx, StreamState& st, Samples* scratch_ms,
                 const std::string& req) {
  adbscan::DynamicClusterer::SnapshotView snap = st.clusterer->Snapshot();
  std::vector<uint32_t> ids;
  const adbscan::Dataset survivors = st.churn->Survivors(&ids);
  Clustering scratch;
  {
    SpanLog::Scope s(ctx.spans, "stream.scratch", req);
    const Clock::time_point t0 = Clock::now();
    scratch = adbscan::ApproxDbscan(snap.points, ctx.Params(kThreads),
                                    ctx.w.rho);
    if (scratch_ms != nullptr) scratch_ms->Add(MsSince(t0));
  }
  ctx.ledger->Op(snap.ids == ids && SameCoords(snap.points, survivors) &&
                     SameOutput(snap.clustering, scratch),
                 "stream Labels() equal scratch ApproxDbscan on survivors");
}

// Waits until the drainer has brought the session's queue down to
// `limit`; a drainer that makes no progress for kDrainStallMs fails the op.
void WaitForDrain(const Context& ctx, ServeState& st, size_t s,
                  uint64_t limit) {
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    for (const serve::SessionInfo& info : st.manager->ListSessions()) {
      if (info.id == st.sessions[s] && info.pending_ops <= limit) return;
    }
    if (MsSince(t0) > kDrainStallMs) {
      ctx.ledger->Op(false, "serve drainer stalled");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// Draws one request for session s and ingests it; returns the ops applied.
size_t IngestOne(const Context& ctx, ServeState& st, size_t s,
                 uint64_t* pending, Samples* ingest_us) {
  std::vector<uint32_t> removes;
  std::vector<double> coords;
  st.churns[s]->Draw(ctx.w.serve_req_ops, &removes, &coords);
  uint32_t first_id = 0;
  serve::ErrorCode code{};
  std::string error;
  const Clock::time_point t0 = Clock::now();
  const bool ok = st.manager->Ingest(st.sessions[s], coords, ctx.w.dim,
                                     removes, &first_id, pending, &code,
                                     &error);
  ingest_us->Add(UsSince(t0));
  ctx.ledger->Op(ok, "serve Ingest: " + error);
  if (!ok) return 0;
  st.churns[s]->Commit(first_id);
  return removes.size() + coords.size() / ctx.w.dim;
}

void FlushOne(const Context& ctx, ServeState& st, size_t s) {
  uint64_t epoch = 0, applied = 0;
  serve::ErrorCode code{};
  std::string error;
  const bool ok =
      st.manager->Flush(st.sessions[s], &epoch, &applied, &code, &error);
  ctx.ledger->Op(ok, "serve Flush: " + error);
}

// Closed loop: ingest round-robin as fast as the window allows, with
// background drains, then one final Flush per session.
void CapacityPass(const Context& ctx, ServeState& st, double budget_ms,
                  size_t min_requests) {
  size_t ops = 0;
  const double cpu0 = CpuMsNow();
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < min_requests || MsSince(t0) < budget_ms; ++i) {
    const size_t s = i % kSessions;
    uint64_t pending = 0;
    ops += IngestOne(ctx, st, s, &pending, &st.capacity_ingest_us);
    if (pending > kIngestWindow) {
      WaitForDrain(ctx, st, s, kIngestWindow / 2);
    }
  }
  for (size_t s = 0; s < kSessions; ++s) FlushOne(ctx, st, s);
  st.capacity_ops += static_cast<double>(ops);
  st.capacity_ms += MsSince(t0);
  st.capacity_cpu_ms += CpuMsNow() - cpu0;
}

// Open loop at a fixed request rate: each request is Ingest + Flush on one
// session, timed in wall time from when it was due and in CPU time from
// its start; a Read() of the next session follows each request.
void OpenPass(const Context& ctx, ServeState& st, double budget_ms,
              size_t min_requests) {
  const size_t requests =
      std::max(min_requests,
               static_cast<size_t>(budget_ms / 1000.0 * ctx.w.open_rate));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / ctx.w.open_rate));
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < requests; ++i) {
    const Clock::time_point due = t0 + interval * static_cast<int64_t>(i);
    std::this_thread::sleep_until(due);
    st.late_ms.Add(MsSince(due));
    const size_t s = i % kSessions;
    const std::string req = ctx.Request("serve", st.visible_ms.size());
    const double cpu0 = CpuMsNow();
    {
      SpanLog::Scope request(ctx.spans, "serve.request", req);
      uint64_t pending = 0;
      {
        SpanLog::Scope span(ctx.spans, "serve.ingest", req);
        IngestOne(ctx, st, s, &pending, &st.ingest_us);
      }
      SpanLog::Scope span(ctx.spans, "serve.flush", req);
      const Clock::time_point f0 = Clock::now();
      FlushOne(ctx, st, s);
      st.flush_ms.Add(MsSince(f0));
    }
    st.request_cpu_ms.Add(CpuMsNow() - cpu0);
    st.visible_ms.Add(MsSince(due));
    SpanLog::Scope span(ctx.spans, "serve.read", req);
    const Clock::time_point r0 = Clock::now();
    const bool ok =
        st.manager->Read(st.sessions[(s + 1) % kSessions]) != nullptr;
    st.read_us.Add(UsSince(r0));
    ctx.ledger->Op(ok, "serve Read");
  }
}

// Each session's final snapshot must equal ApproxDbscan on its survivors.
void CheckSessions(const Context& ctx, ServeState& st) {
  for (size_t s = 0; s < kSessions; ++s) {
    FlushOne(ctx, st, s);
    const std::shared_ptr<const serve::ServeSnapshot> snap =
        st.manager->Read(st.sessions[s]);
    std::vector<uint32_t> ids;
    const adbscan::Dataset survivors = st.churns[s]->Survivors(&ids);
    const Clustering want =
        adbscan::ApproxDbscan(survivors, ctx.Params(kThreads), ctx.w.rho);
    ctx.ledger->Op(snap != nullptr && snap->num_alive == ids.size() &&
                       SameOutput(Compact(snap->labels, ids), want),
                   "serve session snapshot equals scratch ApproxDbscan");
  }
}

}  // namespace

std::unique_ptr<StreamState> SetupStream(const Context& ctx) {
  const Workload& w = ctx.w;
  auto st = std::make_unique<StreamState>(
      Generate(w.dim, w.stream_n + w.stream_n / 10, 1));
  st->churn = std::make_unique<Churn>(&st->pool, w.stream_n,
                                      adbscan::DeriveSeed(ctx.seed, 2));
  const adbscan::Dataset base = st->churn->Base();
  adbscan::DynamicClustererOptions options;
  options.rho = w.rho;
  st->clusterer = std::make_unique<adbscan::DynamicClusterer>(
      w.dim, ctx.Params(kThreads), options);
  const Clock::time_point t0 = Clock::now();
  st->clusterer->Insert(base);
  st->clusterer->Labels();
  st->bootstrap_s = MsSince(t0) / 1000.0;
  return st;
}

void RunStream(const Context& ctx, StreamState& st, double budget_ms,
               size_t min_batches) {
  const size_t ops = std::max<size_t>(2, ctx.w.stream_n / 1000);
  const MetricsSnapshot counts = WithRegistry(ctx.traced, [&] {
    std::vector<uint32_t> removes;
    std::vector<double> coords;
    const Clock::time_point start = Clock::now();
    for (size_t b = 0; b < min_batches || MsSince(start) < budget_ms;
         ++b, ++st.batches) {
      st.churn->Draw(ops, &removes, &coords);
      const adbscan::Dataset inserts(ctx.w.dim, coords);
      const std::string req = ctx.Request("stream", st.batches);
      uint32_t first_id = 0;
      const double cpu0 = CpuMsNow();
      const Clock::time_point t0 = Clock::now();
      {
        SpanLog::Scope batch(ctx.spans, "stream.batch", req);
        {
          SpanLog::Scope s(ctx.spans, "stream.remove", req);
          st.clusterer->Remove(removes);
        }
        {
          SpanLog::Scope s(ctx.spans, "stream.insert", req);
          first_id = st.clusterer->Insert(inserts);
        }
        SpanLog::Scope s(ctx.spans, "stream.labels", req);
        st.clusterer->Labels();
      }
      st.update_times.wall_ms.Add(MsSince(t0));
      st.update_times.cpu_ms.Add(CpuMsNow() - cpu0);
      st.churn->Commit(first_id);
      ctx.ledger->Op(true, "stream update batch");
      if (ctx.traced && st.batches % kCheckEvery == 0) {
        CheckStream(ctx, st, &st.scratch_ms, req);
      }
    }
  });
  for (const auto& [name, value] : counts.counters) {
    st.counters[name] += static_cast<double>(value);
  }
}

void FinishStream(const Context& ctx, StreamState& st) {
  CheckStream(ctx, st, nullptr, ctx.Request("stream", st.batches));
  ctx.report->SetMedian("stream_update_cpu_ms", st.update_times.cpu_ms, "ms");
  if (!ctx.traced) return;
  Report& r = *ctx.layers;
  r.Set("stream.bootstrap_s", st.bootstrap_s, "s");
  r.SetMedian("stream.update_ms", st.update_times.wall_ms, "ms");
  r.SetTail("stream.update_tail_ms", st.update_times.wall_ms, "ms");
  r.SetMedian("stream.insert_ms", ctx.spans->Durations("stream.insert"), "ms");
  r.SetMedian("stream.remove_ms", ctx.spans->Durations("stream.remove"), "ms");
  r.SetMedian("stream.labels_ms", ctx.spans->Durations("stream.labels"), "ms");
  r.SetMedian("stream.scratch_ms", st.scratch_ms, "ms");
  for (const char* name :
       {"stream.cells_touched", "stream.rebuilds", "stream.edge_probes",
        "stream.counter_rebuilds", "stream.recompute_frontier",
        "stream.frontier_fallbacks"}) {
    r.Set(name, st.counters[name] / static_cast<double>(st.batches),
          "count/batch");
  }
}

std::unique_ptr<ServeState> SetupServe(const Context& ctx) {
  const Workload& w = ctx.w;
  auto st = std::make_unique<ServeState>();
  serve::ServeOptions options;
  options.num_threads = kThreads;
  options.drain_batch_ops = kDrainBatchOps;
  st->manager = std::make_unique<serve::SessionManager>(options);
  // Churn keeps a pointer into pools: reserve so it never moves.
  st->pools.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    st->pools.push_back(
        Generate(w.dim, w.session_n + w.session_n / 10, 2 + s));
    st->churns.push_back(std::make_unique<Churn>(
        &st->pools[s], w.session_n, adbscan::DeriveSeed(ctx.seed, 20 + s)));
    serve::ErrorCode code{};
    std::string error;
    const uint64_t id =
        st->manager->CreateSession(w.dim, ctx.Params(kThreads), w.rho, &code,
                                   &error);
    ctx.ledger->Op(id != 0, "serve CreateSession: " + error);
    st->sessions.push_back(id);
    const adbscan::Dataset base = st->churns[s]->Base();
    const std::vector<double> coords(base.raw(),
                                     base.raw() + base.size() * w.dim);
    uint32_t first_id = 0;
    uint64_t pending = 0;
    const bool ok = st->manager->Ingest(id, coords, w.dim, {}, &first_id,
                                        &pending, &code, &error);
    ctx.ledger->Op(ok && first_id == 0, "serve preload Ingest: " + error);
  }
  for (size_t s = 0; s < kSessions; ++s) FlushOne(ctx, *st, s);
  return st;
}

void RunServe(const Context& ctx, ServeState& st, double budget_ms,
              size_t min_requests) {
  // The traced pass runs one round; FinishServe takes the registry
  // snapshot once the drainer has been joined.
  if (ctx.traced) {
    adbscan::obs::MetricsRegistry::Global().Reset();
    adbscan::obs::MetricsRegistry::SetEnabled(true);
  }
  CapacityPass(ctx, st, budget_ms / 3.0, min_requests);
  OpenPass(ctx, st, budget_ms * 2.0 / 3.0, min_requests);
}

void FinishServe(const Context& ctx, ServeState& st) {
  CheckSessions(ctx, st);
  // Joins the drainer, so the registry snapshot below is quiescent.
  st.manager.reset();
  Report& e = *ctx.report;
  e.Set("serve_ops_per_cpu_s",
        st.capacity_ops / (st.capacity_cpu_ms / 1000.0), "ops/s");
  e.SetMedian("serve_request_cpu_ms", st.request_cpu_ms, "ms");
  if (!ctx.traced) return;
  adbscan::obs::MetricsRegistry::SetEnabled(false);
  const MetricsSnapshot counts =
      adbscan::obs::MetricsRegistry::Global().Snapshot();
  Report& r = *ctx.layers;
  r.Set("serve.updates_per_s", st.capacity_ops / (st.capacity_ms / 1000.0),
        "ops/s");
  r.SetMedian("serve.visible_p50_ms", st.visible_ms, "ms");
  r.SetTail("serve.visible_tail_ms", st.visible_ms, "ms");
  r.SetMedian("serve.ingest_us", st.capacity_ingest_us, "us");
  r.SetMedian("serve.flush_ms", st.flush_ms, "ms");
  r.SetMedian("serve.read_us", st.read_us, "us");
  r.Set("serve.drains", Counter(counts, "serve.drains"), "count");
  const auto it = counts.distributions.find("serve.drain_latency_ms");
  r.Set("serve.drain_latency_ms",
        it == counts.distributions.end() ? 0.0 : it->second.Quantile(0.5),
        "ms");
  r.Note("serve.drain_latency_ms", "registry p50");
  r.Set("bench.generator_late_ms", st.late_ms.Mean(), "ms");
  r.Note("bench.generator_late_ms", "mean over open-loop requests");
}

}  // namespace perfbench
