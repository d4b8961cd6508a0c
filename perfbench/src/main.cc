// perfbench: the repository's end-to-end benchmark. One run sets up one
// workload kSetupReps times, then spends --seconds on its batch, stream and
// serve phases, checks every output, and prints its metrics as a table and
// as one final JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced pass
// and reports the per-layer metrics (see perfbench/README.md).
//
//   perfbench --workload ss3d-batch --seed 1 --seconds 20 --trace 0
//
// Exit status: 0 when every check passed, 1 when any failed, 2 on usage
// errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "phases.h"

namespace perfbench {

std::string Context::Request(const char* part, size_t index) const {
  return std::string(w.name) + "/" + part + "/" + std::to_string(index);
}

double Counter(const adbscan::obs::MetricsSnapshot& s,
               const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

namespace {

// Rounds of a timed run (see phases.h) and the least samples each takes;
// the floors keep every median defined however slow a call gets.
constexpr size_t kRounds = 8;
constexpr size_t kMinCallsPerRound = 1;
constexpr size_t kMinTracedCalls = 3;
constexpr size_t kMinSamplesPerRound = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;
  int trace = 0;
  std::string trace_out;
  int shrink = 1;
  bool corrupt = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace_out PATH] [--shrink K] [--corrupt]\n"
               "workloads:",
               msg);
  for (const Workload& w : AllWorkloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace_out") {
      args.trace_out = value;
    } else if (flag == "--shrink") {
      args.shrink = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (args.seconds <= 0.0) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (args.shrink < 1) Usage("--shrink must be >= 1");
  return args;
}

// The workload with every size divided by `shrink`, for the self-test.
Workload Shrunk(Workload w, int shrink) {
  if (shrink == 1) return w;
  w.batch_n = std::max<size_t>(w.batch_n / shrink, 2000);
  w.stream_n = std::max<size_t>(w.stream_n / shrink, 2000);
  w.session_n = std::max<size_t>(w.session_n / shrink, 1000);
  w.serve_req_ops = std::max<size_t>(w.serve_req_ops / shrink, 8);
  return w;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = Parse(argc, argv);
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  const Workload w = Shrunk(*found, args.shrink);

  Ledger ledger;
  SpanLog spans(args.trace == 1);
  Report report, layers;
  const Context ctx{w,       args.seed, args.trace == 1, args.corrupt,
                    &ledger, &spans,    &report,         &layers};

  // Set up kSetupReps times from nothing; setup_s is the median of their
  // process CPU times, like every bounded timing, and the last set-up is
  // the one the phases use. The serve manager goes first so its drainer is
  // idle again long before any phase resets the metrics registry.
  Samples setup_s;
  std::unique_ptr<BatchState> batch;
  std::unique_ptr<StreamState> stream;
  std::unique_ptr<ServeState> serve;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    serve.reset();
    stream.reset();
    batch.reset();
    const std::string req = ctx.Request("setup", rep);
    const double cpu0 = CpuMsNow();
    {
      SpanLog::Scope span(&spans, "setup", req);
      {
        SpanLog::Scope s(&spans, "setup.serve", req);
        serve = SetupServe(ctx);
      }
      {
        SpanLog::Scope s(&spans, "setup.stream", req);
        stream = SetupStream(ctx);
      }
      SpanLog::Scope s(&spans, "setup.batch", req);
      batch = SetupBatch(ctx);
    }
    setup_s.Add((CpuMsNow() - cpu0) / 1000.0);
  }
  CheckBatchReferences(ctx, *batch);

  const size_t rounds = args.trace ? 1 : kRounds;
  const double round_ms = args.seconds * 1000.0 / static_cast<double>(rounds);
  const double serve_share = 1.0 - w.batch_share - w.stream_share;
  for (size_t round = 1; round <= rounds; ++round) {
    const size_t min_calls =
        args.trace ? kMinTracedCalls : round * kMinCallsPerRound;
    RunBatch(ctx, *batch, round_ms * w.batch_share, min_calls);
    RunStream(ctx, *stream, round_ms * w.stream_share, kMinSamplesPerRound);
    RunServe(ctx, *serve, round_ms * serve_share, kMinSamplesPerRound);
  }
  FinishBatch(ctx, *batch);
  FinishStream(ctx, *stream);
  FinishServe(ctx, *serve);

  report.SetMedian("setup_s", setup_s, "s");
  report.Set("peak_rss_mib", PeakRssMib(), "MiB");
  const double failed_frac = static_cast<double>(ledger.failed()) /
                             static_cast<double>(ledger.attempted());

  std::printf("perfbench %s seed=%llu seconds=%g threads=%d%s\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              kThreads, args.trace ? " (traced)" : "");
  std::printf("end-to-end:\n");
  report.PrintTable(stdout);
  std::printf("  %-28s %16.6g %-6s %llu of %llu ops\n", "failed_frac",
              failed_frac, "ratio",
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<unsigned long long>(ledger.attempted()));
  if (args.trace) {
    std::printf("per-layer:\n");
    layers.PrintTable(stdout);
    if (!args.trace_out.empty()) {
      const bool ok = spans.WriteChromeTrace(args.trace_out);
      ledger.Op(ok, "write trace " + args.trace_out);
      if (ok) std::printf("trace: %s\n", args.trace_out.c_str());
    }
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      ledger.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(ledger.attempted()),
      static_cast<unsigned long long>(ledger.failed()),
      (args.trace ? layers : report).MetricsJson().c_str());
  return ledger.failed() == 0 ? 0 : 1;
}
